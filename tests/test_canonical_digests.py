"""Canonical keys and orbit representatives, pinned as digests.

Each group of seeded graphs is hashed over the canonical key, the vertex
orbit representatives, the non-edge orbit representatives and, up to
n = 11, the subset orbit representatives of every graph in it.  The
digests were recorded while the search still branched on every vertex of
a twin cell and encoded each leaf bit by bit, so they pin that the twin
leaf and the row relabel change no answer.  The blow-ups carry false and
true twin classes of one to three vertices under a random labeling.
"""

import hashlib
import random

import pytest

from booklab.canonical import (
    canonical_form,
    nonedge_orbit_reps,
    subset_orbit_reps,
    vertex_orbit_reps,
)
from booklab.graphs import from_edges

GROUP_SIZE = 250
SUBSET_MAX_N = 11


def random_graphs(n):
    rng = random.Random(1000 + n)
    for _ in range(GROUP_SIZE):
        p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.85))
        yield from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def blow_ups(k):
    """Relabeled blow-ups of random graphs on k vertices: base vertex i
    becomes a class of 1-3 vertices, independent or a clique."""
    rng = random.Random(2000 + k)
    for _ in range(GROUP_SIZE):
        base = {(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.5}
        classes, start = [], 0
        for _ in range(k):
            size = rng.randint(1, 3)
            classes.append((range(start, start + size), rng.random() < 0.5))
            start += size
        label = list(range(start))
        rng.shuffle(label)
        edges = []
        for i, (ci, clique) in enumerate(classes):
            if clique:
                edges += [(u, v) for u in ci for v in ci if u < v]
            for j in range(i + 1, k):
                if (i, j) in base:
                    edges += [(u, v) for u in ci for v in classes[j][0]]
        yield from_edges(start, [(label[u], label[v]) for u, v in edges])


def digest(graphs):
    h = hashlib.sha256()
    for g in graphs:
        subsets = subset_orbit_reps(g) if g.n <= SUBSET_MAX_N else None
        row = (canonical_form(g).key.hex(), vertex_orbit_reps(g), nonedge_orbit_reps(g), subsets)
        h.update(repr(row).encode())
    return h.hexdigest()[:16]


# "random-n": random graphs on n vertices; "blowup-k": blow-ups of k classes
DIGESTS = {
    "random-00": "e75db1c7e1ad8415",
    "random-01": "3954a9351590f34a",
    "random-02": "c20730915f620dd8",
    "random-03": "f741288826369592",
    "random-04": "45b10820e41ea382",
    "random-05": "cc2d25e10bb3d735",
    "random-06": "9cf4afb650273d78",
    "random-07": "bcb6021b153888a5",
    "random-08": "2265ece7b5176617",
    "random-09": "abddb2d9c1a104d1",
    "random-10": "2ac13d367b6c7163",
    "random-11": "0e5f574ecbc1fe6c",
    "random-24": "1a121aafaa186a39",
    "random-40": "044b16b32bc19e9c",
    "blowup-01": "cfc184e27c3f86f8",
    "blowup-02": "58fcea2462bfc910",
    "blowup-03": "c7980eb012cb162d",
    "blowup-04": "31bb326167b83b33",
    "blowup-05": "aff57c0b32c79f4a",
    "blowup-06": "aca506621983f4f5",
    "blowup-10": "f2528957467fb801",
    "blowup-14": "b42727b6b072b4f6",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_orbit_and_key_digests_are_pinned(name):
    kind, size = name.split("-")
    build = random_graphs if kind == "random" else blow_ups
    assert digest(build(int(size))) == DIGESTS[name]
