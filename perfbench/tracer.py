"""Outside-in span tracer for booklab.

The tracer wraps public functions of the booklab modules from outside the
package: each wrapped function is rebound, by identity, in every loaded
booklab module that holds it under some name (the defining module, modules
that imported it with ``from .x import name``, and the package namespace).
Nothing in ``src/`` changes, and ``uninstall`` restores every binding.

Each call records one span (name, parent, start, end, busy).  ``busy`` is
the time the span's own code was running: ``end - start`` for a plain call,
and for a generator only the time spent inside ``next()``, so the consumer's
work between items is not charged to the generator.  A span's self time is
its busy time minus the busy time of its children.  Spans of one thread
never overlap, so the children's busy times add up to the time they cover.

Spans stay in memory until ``fold`` aggregates them by call path (a folded
stack such as ``pass;is_free;book_violation;clique_mask_list``); the run
writes the folded table out when it ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass

PASS = "pass"


@dataclass
class Fold:
    """Spans aggregated by call path and by name."""

    # path tuple -> [calls, inclusive seconds, self seconds]
    paths: dict[tuple[str, ...], list]
    # name -> [calls, inclusive seconds, self seconds]
    names: dict[str, list]

    def calls(self, name: str) -> int:
        return self.names.get(name, (0, 0.0, 0.0))[0]

    def incl(self, name: str) -> float:
        return self.names.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.names.get(name, (0, 0.0, 0.0))[2]

    def folded_lines(self) -> list[str]:
        """One line per call path: path, calls, inclusive s, self s."""
        return [
            f"{';'.join(p)} {c} {incl:.6f} {own:.6f}"
            for p, (c, incl, own) in sorted(self.paths.items())
        ]


class SpanLog:
    """Columnar in-memory span store; the index of a span is its id."""

    def __init__(self) -> None:
        self.name_table: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.name_table)
            self.name_table.append(name)
        return nid

    def add(self, name: str, parent: int, start: float, end: float, busy: float | None = None) -> int:
        """Append a finished span (used by tests to build synthetic trees)."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.busy.append(end - start if busy is None else busy)
        return idx

    def __len__(self) -> int:
        return len(self.start)

    def clear(self) -> None:
        for col in (self.name, self.parent, self.start, self.end, self.busy):
            del col[:]

    def fold(self) -> Fold:
        n = len(self.start)
        parent, busy, names = self.parent, self.busy, self.name
        child_busy = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_busy[p] += busy[i]
        table = self.name_table
        path_ids: dict[tuple[int, int], int] = {}
        path_names: list[tuple[str, ...]] = []
        rows: list[list] = []
        pid_of = [0] * n
        # parents are allocated before their children, so one forward pass
        # sees every parent's path first
        for i in range(n):
            p = parent[i]
            ppid = pid_of[p] if p >= 0 else -1
            key = (ppid, names[i])
            pid = path_ids.get(key)
            if pid is None:
                pid = path_ids[key] = len(rows)
                prefix = path_names[ppid] if ppid >= 0 else ()
                path_names.append(prefix + (table[names[i]],))
                rows.append([0, 0.0, 0.0])
            pid_of[i] = pid
            row = rows[pid]
            row[0] += 1
            row[1] += busy[i]
            row[2] += busy[i] - child_busy[i]
        paths = dict(zip(path_names, rows))
        by_name: dict[str, list] = {}
        for path, (calls, incl, own) in paths.items():
            agg = by_name.setdefault(path[-1], [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += incl
            agg[2] += own
        return Fold(paths, by_name)


# ---------------------------------------------------------------------------
# hooks: the public booklab functions the benchmark wraps, by module

HOOKS: dict[str, tuple[str, ...]] = {
    "booklab.canonical": ("canonical_form",),
    "booklab.graphs": (
        "find_subgraph",
        "contains_subgraph",
        "contains_subgraph_at",
        "count_cliques",
        "clique_mask_list",
        "enumerate_clique_masks",
        "has_clique",
    ),
    "booklab.patterns": ("book_violation", "is_free"),
    "booklab.search": (
        "exact_ex",
        "canonical_generation",
        "symmetrize",
        "cleanup_edges",
        "clone_move",
        "random_free_graph",
    ),
    "booklab.constructions": (
        "book_extremal",
        "b42_construction",
        "k4_packing",
        "partition_construction",
    ),
}


def _note_canonical(tr: "Tracer", args, kwargs, result, dur: float) -> None:
    tr.keys.add((result.n, result.key))


def _note_find(tr: "Tracer", args, kwargs, result, dur: float) -> None:
    c = tr.counters
    if result is not None:
        c["embed.hits"] += 1
    if kwargs.get("pin") is not None:
        c["embed.pinned_calls"] += 1
        c["embed.pinned_s"] += dur


def _note_list(tr: "Tracer", args, kwargs, result, dur: float) -> None:
    tr.counters["clique.list_masks"] += len(result)


def _note_book(tr: "Tracer", args, kwargs, result, dur: float) -> None:
    if result is not None:
        tr.counters["book.hits"] += 1


def _note_free(tr: "Tracer", args, kwargs, result, dur: float) -> None:
    if not result:
        tr.counters["free.rejects"] += 1


NOTES = {
    "canonical_form": _note_canonical,
    "find_subgraph": _note_find,
    "clique_mask_list": _note_list,
    "book_violation": _note_book,
    "is_free": _note_free,
}


class Tracer:
    """Installs span-recording wrappers over the hooks while a pass runs."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.stack: list[int] = [-1]
        self.counters: dict[str, float] = {}
        self.keys: set = set()
        self.missing: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counts of the previous pass."""
        self.log.clear()
        self.stack[:] = [-1]
        self.counters = dict.fromkeys(
            ("embed.hits", "embed.pinned_calls", "embed.pinned_s",
             "clique.list_masks", "book.hits", "free.rejects"), 0
        )
        self.keys = set()

    # -- spans opened by the harness -------------------------------------
    def open(self, name: str) -> int:
        log = self.log
        idx = len(log.start)
        log.name.append(log.name_id(name))
        log.parent.append(self.stack[-1])
        log.start.append(time.perf_counter())
        log.end.append(0.0)
        log.busy.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        self.log.end[idx] = t1
        self.log.busy[idx] = t1 - self.log.start[idx]

    # -- wrappers ----------------------------------------------------------
    def _wrap_call(self, name: str, fn):
        log, stack, tracer = self.log, self.stack, self
        nid = log.name_id(name)
        lname, lparent, lstart, lend, lbusy = log.name, log.parent, log.start, log.end, log.busy
        note = NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(lstart)
            lname.append(nid)
            lparent.append(stack[-1])
            lend.append(0.0)
            lbusy.append(0.0)
            stack.append(idx)
            t0 = clock()
            lstart.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                lend[idx] = t1
                lbusy[idx] = t1 - t0
            if note is not None:
                note(tracer, args, kwargs, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _wrap_generator(self, name: str, fn):
        log, stack = self.log, self.stack
        nid = log.name_id(name)
        lname, lparent, lstart, lend, lbusy = log.name, log.parent, log.start, log.end, log.busy
        clock = time.perf_counter

        def traced(*args, **kwargs):
            # runs at the first next(): the parent is the span active then
            it = fn(*args, **kwargs)
            idx = len(lstart)
            lname.append(nid)
            lparent.append(stack[-1])
            lstart.append(clock())
            lend.append(0.0)
            lbusy.append(0.0)
            busy = 0.0
            try:
                while True:
                    stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        break
                    finally:
                        busy += clock() - t0
                        stack.pop()
                    yield item
            finally:
                it.close()
                lend[idx] = clock()
                lbusy[idx] = busy

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Rebind every hook in every loaded booklab module that holds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.missing = set()
        homes = {}
        for modname, names in HOOKS.items():
            try:
                homes[modname] = importlib.import_module(modname)
            except ImportError:
                self.missing.update(names)
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "booklab" or k.startswith("booklab."))]
        for modname, home in homes.items():
            for name in HOOKS[modname]:
                fn = getattr(home, name, None)
                if not callable(fn):
                    self.missing.add(name)
                    continue
                wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap_call
                wrapper = wrap(name, fn)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, fn))

    def uninstall(self) -> None:
        while self._restore:
            m, attr, fn = self._restore.pop()
            setattr(m, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, hooks it needs, value from (fold, counters, distinct keys))
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...], object]] = {
    "canonical.calls": ("count", ("canonical_form",), lambda f, c, k: f.calls("canonical_form")),
    "canonical.self_s": ("s", ("canonical_form",), lambda f, c, k: f.self_s("canonical_form")),
    "gen.classes": ("count", ("canonical_form",), lambda f, c, k: len(k)),
    "gen.classes_per_canon": ("ratio", ("canonical_form",),
                              lambda f, c, k: _ratio(len(k), f.calls("canonical_form"))),
    "embed.calls": ("count", ("find_subgraph",), lambda f, c, k: f.calls("find_subgraph")),
    "embed.self_s": ("s", ("find_subgraph", "contains_subgraph", "contains_subgraph_at"),
                     lambda f, c, k: f.self_s("find_subgraph") + f.self_s("contains_subgraph")
                     + f.self_s("contains_subgraph_at")),
    "embed.hit_ratio": ("ratio", ("find_subgraph",),
                        lambda f, c, k: _ratio(c["embed.hits"], f.calls("find_subgraph"))),
    "embed.pinned_calls": ("count", ("find_subgraph",), lambda f, c, k: c["embed.pinned_calls"]),
    "embed.pinned_s": ("s", ("find_subgraph",), lambda f, c, k: c["embed.pinned_s"]),
    "clique.count_calls": ("count", ("count_cliques",), lambda f, c, k: f.calls("count_cliques")),
    "clique.count_s": ("s", ("count_cliques",), lambda f, c, k: f.incl("count_cliques")),
    "clique.list_calls": ("count", ("clique_mask_list",), lambda f, c, k: f.calls("clique_mask_list")),
    "clique.list_masks": ("count", ("clique_mask_list",), lambda f, c, k: c["clique.list_masks"]),
    "clique.list_s": ("s", ("clique_mask_list",), lambda f, c, k: f.incl("clique_mask_list")),
    "clique.enum_calls": ("count", ("enumerate_clique_masks",),
                          lambda f, c, k: f.calls("enumerate_clique_masks")),
    "clique.enum_s": ("s", ("enumerate_clique_masks",), lambda f, c, k: f.incl("enumerate_clique_masks")),
    "clique.has_calls": ("count", ("has_clique",), lambda f, c, k: f.calls("has_clique")),
    "clique.has_s": ("s", ("has_clique",), lambda f, c, k: f.incl("has_clique")),
    "book.calls": ("count", ("book_violation",), lambda f, c, k: f.calls("book_violation")),
    "book.s": ("s", ("book_violation",), lambda f, c, k: f.incl("book_violation")),
    "book.self_s": ("s", ("book_violation",), lambda f, c, k: f.self_s("book_violation")),
    "book.hit_ratio": ("ratio", ("book_violation",),
                       lambda f, c, k: _ratio(c["book.hits"], f.calls("book_violation"))),
    "free.calls": ("count", ("is_free",), lambda f, c, k: f.calls("is_free")),
    "free.self_s": ("s", ("is_free",), lambda f, c, k: f.self_s("is_free")),
    "free.reject_ratio": ("ratio", ("is_free",),
                          lambda f, c, k: _ratio(c["free.rejects"], f.calls("is_free"))),
    "gen.driver_self_s": ("s", ("exact_ex", "canonical_generation"),
                          lambda f, c, k: f.self_s("exact_ex") + f.self_s("canonical_generation")),
    "climb.driver_self_s": ("s", ("symmetrize",), lambda f, c, k: f.self_s("symmetrize")),
    "climb.cleanup_s": ("s", ("cleanup_edges",), lambda f, c, k: f.incl("cleanup_edges")),
    "climb.clone_s": ("s", ("clone_move",), lambda f, c, k: f.incl("clone_move")),
    "repair.driver_self_s": ("s", ("random_free_graph",), lambda f, c, k: f.self_s("random_free_graph")),
    "construct.s": ("s", HOOKS["booklab.constructions"],
                    lambda f, c, k: sum(f.incl(n) for n in HOOKS["booklab.constructions"])),
}


def layer_metrics(fold: Fold, counters: dict, keys: set, missing: set[str]) -> dict[str, float]:
    """Per-layer values of one traced pass; a metric whose hook is gone is absent."""
    out = {}
    for name, (_unit, needs, fn) in LAYER_METRICS.items():
        if missing.isdisjoint(needs):
            out[name] = fn(fold, counters, keys)
    return out
