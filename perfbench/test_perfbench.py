"""Self-tests of the benchmark:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import time

import pytest

import run as bench
from tracer import HOOKS, LAYER_METRICS, Tracer, SpanLog, layer_metrics
from workloads import ROOT, WORKLOADS, cliques_by_sets, import_booklab, overlap_pairs

bl = import_booklab()


def tiny_run(workload, trace=False, **kw):
    opts = {"tiny": True, "setup_samples": 1, "min_passes": 1, "min_traced_pairs": 1}
    opts.update(kw)
    return bench.run(workload, 7, 0.01, trace, **opts)


# ---------------------------------------------------------------------------
# self-time arithmetic

def test_self_time_on_synthetic_span_tree():
    log = SpanLog()
    root = log.add("pass", -1, 0.0, 10.0)
    free = log.add("is_free", root, 1.0, 6.0)
    book = log.add("book_violation", free, 1.5, 5.5)
    lst = log.add("clique_mask_list", book, 2.0, 4.0)
    # a generator's envelope spans its consumer's work; only busy time counts
    log.add("enumerate_clique_masks", lst, 2.1, 3.9, busy=1.0)
    at = log.add("contains_subgraph_at", root, 6.0, 9.0)
    log.add("find_subgraph", at, 6.5, 7.5)
    log.add("find_subgraph", at, 7.5, 8.5)
    fold = log.fold()

    assert fold.self_s("pass") == pytest.approx(2.0)
    assert fold.self_s("is_free") == pytest.approx(1.0)
    assert fold.self_s("book_violation") == pytest.approx(2.0)
    assert fold.self_s("clique_mask_list") == pytest.approx(1.0)
    assert fold.self_s("enumerate_clique_masks") == pytest.approx(1.0)
    assert fold.self_s("contains_subgraph_at") == pytest.approx(1.0)
    assert fold.calls("find_subgraph") == 2
    assert fold.self_s("find_subgraph") == pytest.approx(2.0)
    assert fold.incl("clique_mask_list") == pytest.approx(2.0)
    # self times partition the root span
    assert sum(own for _, _, own in fold.names.values()) == pytest.approx(10.0)
    chain = ("pass", "is_free", "book_violation", "clique_mask_list", "enumerate_clique_masks")
    assert fold.paths[chain] == [1, pytest.approx(1.0), pytest.approx(1.0)]
    assert fold.paths[("pass", "contains_subgraph_at", "find_subgraph")][0] == 2

    metrics = layer_metrics(fold, {"embed.hits": 1, "embed.pinned_calls": 2, "embed.pinned_s": 2.0,
                                   "clique.list_masks": 5, "book.hits": 0, "free.rejects": 0},
                            set(), set())
    assert metrics["embed.self_s"] == pytest.approx(3.0)
    assert metrics["book.self_s"] == pytest.approx(2.0)
    assert metrics["embed.hit_ratio"] == pytest.approx(0.5)


def test_generator_time_excludes_the_consumer():
    tracer = Tracer()

    def slow_gen():
        for i in range(3):
            time.sleep(0.01)
            yield i

    wrapped = tracer._wrap_generator("enumerate_clique_masks", slow_gen)
    root = tracer.open("pass")
    for _ in wrapped():
        time.sleep(0.02)
    tracer.close(root)
    fold = tracer.log.fold()
    # charging the consumer's sleeps would make it at least 0.09
    assert 0.03 <= fold.incl("enumerate_clique_masks") < 0.08
    assert fold.self_s("pass") >= 0.06


def test_generator_closed_early_ends_its_span():
    tracer = Tracer()
    tracer.install()
    try:
        g = bl.graphs.complete_graph(6)
        first = next(iter(bl.graphs.enumerate_clique_masks(g, 3)))
    finally:
        tracer.uninstall()
    assert first == 0b111
    fold = tracer.log.fold()
    assert fold.calls("enumerate_clique_masks") == 1


# ---------------------------------------------------------------------------
# rebinding

def test_install_rebinds_importers_and_uninstall_restores():
    originals = {
        (m, name): getattr(m, name)
        for m in (bl.graphs, bl.search, bl.patterns, bl.canonical)
        for name in ("find_subgraph", "canonical_form", "clique_mask_list")
        if hasattr(m, name)
    }
    tracer = Tracer()
    tracer.install()
    try:
        # search.py imported these by name; patching booklab.graphs alone misses them
        assert bl.search.find_subgraph is not originals[(bl.search, "find_subgraph")]
        assert bl.search.canonical_form is bl.canonical.canonical_form
        assert bl.search.find_subgraph is bl.graphs.find_subgraph
        g = bl.graphs.cycle_graph(5)
        assert bl.graphs.contains_subgraph_at(g, bl.graphs.path_graph(3), 0)
    finally:
        tracer.uninstall()
    for (m, name), fn in originals.items():
        assert getattr(m, name) is fn
    fold = tracer.log.fold()
    assert fold.paths[("contains_subgraph_at", "find_subgraph")][0] >= 1
    assert tracer.counters["embed.pinned_calls"] >= 1


def test_missing_hook_is_reported_absent(monkeypatch):
    monkeypatch.setitem(HOOKS, "booklab.graphs", HOOKS["booklab.graphs"] + ("gone_in_refactor",))
    monkeypatch.setitem(LAYER_METRICS, "gone.calls",
                        ("count", ("gone_in_refactor",), lambda f, c, k: f.calls("gone_in_refactor")))
    result, details = tiny_run("gen-lemma", trace=True)
    assert result["correct"]
    assert "gone.calls" not in result["metrics"]
    assert "canonical.calls" in result["metrics"]
    assert details["missing_hooks"] == ["gone_in_refactor"]


# ---------------------------------------------------------------------------
# answers

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_returns_the_untraced_answers(name):
    wl = WORKLOADS[name]
    inp = wl.setup(3, tiny=True)
    plain = wl.run_pass(inp)
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.run_pass(inp)
    finally:
        tracer.uninstall()
    assert len(tracer.log) > 0
    assert traced == plain
    assert wl.check(inp, traced, wl.expected(inp)) == [None] * len(traced)


def test_injected_wrong_answer_raises_fail_ratio(monkeypatch):
    real = bl.graphs.count_cliques
    monkeypatch.setattr(bl.graphs, "count_cliques", lambda g, r: real(g, r) + (g.n == 10))
    result, details = tiny_run("verify-books")
    assert not result["correct"]
    # the tiny grid has six items, two of them with n=10
    assert details["fail_ratio"] == result["failed"] / result["attempted"] == pytest.approx(2 / 6)


def test_exception_counts_as_failure(monkeypatch):
    def boom(*a, **k):
        raise RuntimeError("injected")

    monkeypatch.setattr(bl.search, "random_free_graph", boom)
    result, details = tiny_run("repair-books")
    assert result["failed"] == result["attempted"] >= 1
    assert "injected" in details["failures"][0]


def test_independent_book_check():
    book = bl.patterns.book_graph(bl.patterns.BookSpec(3, 1))
    tris = cliques_by_sets(book, 3)
    assert len(tris) == 2
    assert overlap_pairs(tris, 1) == 1 and overlap_pairs(tris, 0) == 0
    k5 = bl.graphs.complete_graph(5)
    assert len(cliques_by_sets(k5, 3)) == 10


# ---------------------------------------------------------------------------
# smoke runs, and the metric names BENCHMARK.json declares

def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_prints_every_declared_metric(name):
    spec = _declared()
    assert name in [w["name"] for w in spec["workloads"]]
    result, details = tiny_run(name)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())

    result, details = tiny_run(name, trace=True)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if name in ("verify-books", "repair-books"):
        assert result["metrics"]["embed.calls"]["value"] == 0
        assert result["metrics"]["canonical.calls"]["value"] == 0
        assert result["metrics"]["book.calls"]["value"] > 0
    for key in ("nproc", "python", "numpy", "commit", "seed", "src_lines"):
        assert key in details


def test_normalised_time_scales_with_the_calibration():
    ref = bench.REF_CAL_S
    assert bench.normalised(2.0, ref, ref) == pytest.approx(2.0)
    # at half speed both the pass and the calibration loop take twice as long
    assert bench.normalised(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    assert bench.normalised(3.0, ref, 2 * ref) == pytest.approx(2.0)


@pytest.mark.parametrize("name", ["repair-books", "verify-books"])
def test_untraced_passes_are_calibrated_around_every_chunk(name):
    assert WORKLOADS[name].calibration in bench.CALIBRATIONS
    result, details = tiny_run(name, min_passes=2)
    passes = details["norm_pass_s"]["samples"]
    assert passes == details["wall_s"]["samples"] >= 2
    assert details["calibrate_s"]["samples"] >= 2 * passes
    assert len(details["norm_item_s"]) == result["attempted"] // passes
    assert result["metrics"]["norm_wall_s"]["value"] == pytest.approx(sum(details["norm_item_s"]))


def test_setup_is_sampled_in_fresh_interpreters():
    result, details = tiny_run("gen-lemma", setup_samples=2)
    assert details["setup_s"]["samples"] == 2
    assert result["metrics"]["setup_s"]["value"] > 0
