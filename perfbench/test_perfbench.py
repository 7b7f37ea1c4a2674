"""Self-tests for the benchmark's own pieces.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
import layers  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402


def _all_files(seed):
    wide, taylor = corpus.cli_corpus(seed)
    items = (corpus.taylor_corpus(seed, "Q") + corpus.taylor_corpus(seed, "GFp")
             + corpus.minimize_corpus(seed) + wide + taylor)
    return [(item.name, corpus.dumps(item.spec)) for item in items]


def test_corpus_is_deterministic_per_seed():
    assert _all_files(7) == _all_files(7)
    first, other = dict(_all_files(7)), dict(_all_files(8))
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)


def test_corpus_generation_never_stalls():
    start = time.perf_counter()
    for seed in range(100):
        _all_files(seed)
    assert time.perf_counter() - start < 30


def test_taylor_fields_share_every_draw():
    q, p = corpus.taylor_corpus(3, "Q"), corpus.taylor_corpus(3, "GFp")
    for a, b in zip(q, p):
        assert a.spec["source_degrees"] == b.spec["source_degrees"]
        for ea, eb in zip(a.spec["entries"], b.spec["entries"]):
            assert (ea["row"], ea["col"]) == (eb["row"], eb["col"])
            assert int(ea["coeff"]) % corpus.P == int(eb["coeff"])


def test_clones_are_not_exact_and_monomial_ideals_are():
    mg = run.import_mgres()
    for seed in range(3):
        for field_key in ("Q", "GFp"):
            for item in corpus.taylor_corpus(seed, field_key):
                ok = workloads.morphism(mg, item).is_maximal_rank_everywhere().ok
                if item.kind == "clone":
                    assert not ok, item.name
                if item.kind == "monomial":
                    assert ok, item.name


def test_generic_draws_are_generic():
    mg = run.import_mgres()
    for item in corpus.minimize_corpus(2):
        assert workloads.morphism(mg, item).is_generic(), item.name


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 5.0, 7.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        # overlapping children are merged; a child poking out is clipped
        ("d", 20.0, 30.0, -1, 1),
        ("e", 19.0, 24.0, 4, 1),
        ("f", 22.0, 26.0, 4, 1),
    ]
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0, 4.0, 5.0, 4.0]
    assert summarize(spans)["root"] == (1, 5.0)


def test_every_patched_attribute_is_restored():
    mg = run.import_mgres()
    item = corpus.taylor_corpus(1, "GFp")[0]
    phi = workloads.morphism(mg, item)
    originals = {name: getattr(sys.modules[f"mgres.{name.split('.')[0]}"],
                               name.split(".")[1])
                 for name in ("systems.taylor_complex", "verify.is_resolution")}
    patched = []
    spans_tracer = Tracer(timed=True)
    with spans_tracer:
        layers.install_spans(spans_tracer, mg)
        patched += spans_tracer.patched()
        assert mg.taylor_complex is not originals["systems.taylor_complex"]
        spans_tracer.run_op(0, "op", lambda: mg.is_resolution(mg.taylor_complex(phi)))
    counts = Counter()
    count_tracer = Tracer(timed=False)
    with count_tracer:
        layers.install_counters(count_tracer, mg, counts)
        patched += count_tracer.patched()
        count_tracer.run_op(0, "op", lambda: mg.is_resolution(mg.taylor_complex(phi)))
    assert patched
    for owner, attr, orig in patched:
        assert (owner.__dict__ if isinstance(owner, type) else vars(owner))[attr] is orig
    assert mg.taylor_complex is originals["systems.taylor_complex"]
    assert mg.cli.verify.is_resolution is originals["verify.is_resolution"]
    names = {s[0] for s in spans_tracer.spans}
    assert {"op", "systems.build_complex", "verify.strand", "linalg.rref"} <= names
    assert counts["fields.gfp_elements"] > 0 and counts["verify.strands"] > 0


def test_large_class_median_and_throughput():
    ops = [SimpleNamespace(large=flag) for flag in (False, True, False, True)]
    times = [[1.0, 3.0, 2.0], [10.0, 30.0], [0.5], [20.0, 40.0, 50.0]]
    out = run.summarize(ops, times)
    assert out["large_op_s"] == 30.0          # median of 10, 30, 20, 40, 50
    assert out["large_samples"] == 5
    assert out["ops_per_s"] == 4 / (2.0 + 20.0 + 0.5 + 40.0)
    assert out["attempted"] == 9


def test_large_class_membership(tmp_path):
    wide, taylor = corpus.cli_corpus(1)
    for items, is_large in [
        (corpus.taylor_corpus(1, "Q"), lambda i: (i.g, i.e, i.kind) == (2, 8, "plain")),
        (corpus.minimize_corpus(1), lambda i: i.shape == ("GFp", 2, 8)),
        (wide + taylor, lambda i: i in wide and (i.g, i.e) == (2, 14)),
    ]:
        assert any(i.large for i in items)
        assert all(i.large == is_large(i) for i in items)
    mg = run.import_mgres()
    ops = workloads.cli_ops(mg, 1, tmp_path, run.ROOT, in_process=True)
    assert {op.label for op in ops if op.large} == {"scarf"}


def test_probe_ticks_at_most_once_per_interval(monkeypatch):
    clock = iter([0.0, 0.25, 0.5, 1.0, 1.25])
    monkeypatch.setattr(probe.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(probe, "kernel", lambda: 0)
    p = probe.Probe()
    for _ in range(3):
        p.tick()
    assert p.times == [0.25, 0.25]         # the tick at 0.5 s came too soon
    assert p.slowdown() == 0.25 / probe.REFERENCE_S


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
