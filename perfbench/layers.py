"""Which mgres functions the traced run wraps, and the per-layer metrics.

Two passes over the corpus feed the metrics.  The span pass wraps the
functions in ``SPANS`` with timing spans; ``*_s`` metrics are summed self
times and ``*_calls`` are span counts over that one pass.  The count pass
(``install_counters``) wraps a few functions with hooks that inspect
arguments and results from outside (sizes, nonzeros, allocations) and
records no time, so its cost is charged to no layer.  ``cli.*`` metrics are median subprocess
wall times per subcommand from the untraced measurement of cli-files.
"""

from __future__ import annotations

import os
import statistics
import sys
from collections import Counter, defaultdict

from spans import Tracer, summarize

# (module, class or None, attribute, span name)
SPANS = [
    ("linalg", "Matrix", "rank", "linalg.rank"),
    ("linalg", "Matrix", "rref", "linalg.rref"),
    ("linalg", "Matrix", "solve", "linalg.solve"),
    ("linalg", "Matrix", "det", "linalg.det"),
    ("linalg", "Matrix", "mul", "linalg.mul"),
    ("linalg", "Matrix", "submatrix", "linalg.submatrix"),
    ("multilinear", None, "splice_matrix_on", "multilinear.splice"),
    ("multilinear", None, "divided_embed", "multilinear.divided_embed"),
    ("lattice", None, "faces_by_degree", "lattice.faces_by_degree"),
    ("lattice", None, "face_data", "lattice.face_data"),
    ("morphism", "Morphism", "is_maximal_rank_everywhere", "morphism.max_rank"),
    ("morphism", "Morphism", "k_space", "morphism.k_space"),
    ("systems", None, "full_system", "systems.full_system"),
    ("systems", None, "scarf_system", "systems.scarf_system"),
    ("systems", None, "build_complex", "systems.build_complex"),
    ("systems", None, "taylor_complex", "systems.taylor_complex"),
    ("systems", None, "scarf_complex", "systems.scarf_complex"),
    ("verify", None, "is_resolution", "verify.is_resolution"),
    ("verify", None, "check_d2", "verify.check_d2"),
    ("verify", None, "strand", "verify.strand"),
    ("verify", None, "homology_dims", "verify.homology_dims"),
    ("verify", None, "is_minimal", "verify.is_minimal"),
    ("verify", None, "minimize", "verify.minimize"),
    ("relabel", None, "relabel", "relabel.relabel"),
    ("formats", None, "load_json", "formats.load_json"),
    ("formats", None, "morphism_from_dict", "formats.morphism_from_dict"),
    ("formats", None, "complex_from_dict", "formats.complex_from_dict"),
    ("formats", None, "complex_to_dict", "formats.complex_to_dict"),
    ("formats", None, "canonical_dumps", "formats.canonical_dumps"),
]

CLI_LABELS = ("taylor", "scarf", "analyze", "verify", "minimize", "relabel")

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "fields.gfp_elements": "count",
    "linalg.rank_calls": "count",
    "linalg.rank_s": "s",
    "linalg.rank_entries": "count",
    "linalg.rank_nonzeros": "count",
    "linalg.rref_calls": "count",
    "linalg.rref_s": "s",
    "linalg.solve_calls": "count",
    "linalg.solve_s": "s",
    "linalg.det_calls": "count",
    "linalg.det_s": "s",
    "linalg.mul_calls": "count",
    "linalg.mul_s": "s",
    "linalg.submatrix_s": "s",
    "multilinear.splice_s": "s",
    "multilinear.splice_used_ratio": "ratio",
    "multilinear.divided_embed_calls": "count",
    "multilinear.divided_embed_s": "s",
    "lattice.faces_by_degree_calls": "count",
    "lattice.faces_by_degree_per_scarf": "ratio",
    "lattice.faces_by_degree_s": "s",
    "lattice.faces_enumerated": "count",
    "lattice.face_data_calls": "count",
    "lattice.face_data_s": "s",
    "morphism.max_rank_s": "s",
    "morphism.k_space_calls": "count",
    "morphism.k_space_s": "s",
    "systems.full_system_s": "s",
    "systems.scarf_system_s": "s",
    "systems.build_complex_s": "s",
    "systems.generators": "count",
    "systems.nonzeros": "count",
    "systems.density": "ratio",
    "verify.is_resolution_s": "s",
    "verify.check_d2_s": "s",
    "verify.strands": "count",
    "verify.strand_s": "s",
    "verify.homology_dims_s": "s",
    "verify.is_minimal_s": "s",
    "verify.minimize_s": "s",
    "verify.cancellations": "count",
    "formats.load_json_s": "s",
    "formats.morphism_from_dict_s": "s",
    "formats.complex_from_dict_s": "s",
    "formats.complex_to_dict_s": "s",
    "formats.canonical_dumps_s": "s",
    "formats.bytes_written": "count",
    "formats.bytes_read": "count",
    "relabel.relabel_s": "s",
    "cli.startup_s": "s",
    **{f"cli.{label}_s": "s" for label in CLI_LABELS},
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_ratio": "ratio",
}


def _module(mg, name: str):
    # not getattr(mg, name): the package exports a function named relabel
    return sys.modules[f"{mg.__name__}.{name}"]


def _owner(mg, module: str, cls: str | None):
    mod = _module(mg, module)
    return getattr(mod, cls) if cls else mod


def install_spans(tracer: Tracer, mg) -> None:
    """Wrap every function in SPANS with a timing span."""
    for module, cls, attr, name in SPANS:
        owner = _owner(mg, module, cls)
        if cls:
            tracer.patch_method(owner, attr, name)
        else:
            tracer.patch_function(mg.__name__, getattr(owner, attr), name)


def _nonzeros(m) -> int:
    zero = m.field.zero
    return sum(1 for row in m.data for x in row if x != zero)


def install_counters(tracer: Tracer, mg, counts: Counter) -> None:
    """Counting hooks for the count pass (tracer built with timed=False)."""
    def gfp(args, kwargs, result):
        counts["fields.gfp_elements"] += 1

    def rank(args, kwargs, result):
        m = args[0]
        counts["linalg.rank_entries"] += m.rows * m.cols
        counts["linalg.rank_nonzeros"] += _nonzeros(m)

    def splice(args, kwargs, result):
        counts["splice_computed"] += result.cols

    def faces(args, kwargs, result):
        counts["lattice.faces_enumerated"] += sum(len(f) for f in result.values())

    def build(args, kwargs, result):
        system = args[1]
        counts["splice_used"] += len(system.faces_of_size(system.r + 1))
        counts["systems.generators"] += sum(result.ranks())
        counts["systems.nonzeros"] += sum(_nonzeros(d) for d in result.diffs)
        counts["dense_entries"] += sum(d.rows * d.cols for d in result.diffs)

    def resolution(args, kwargs, result):
        counts["verify.strands"] += len(result.tested_degrees)

    def minimize(args, kwargs, result):
        counts["verify.cancellations"] += (sum(args[0].ranks()) - sum(result.ranks())) // 2

    def dumps(args, kwargs, result):
        counts["formats.bytes_written"] += len(result.encode())

    def load_json(args, kwargs, result):
        counts["formats.bytes_read"] += os.path.getsize(args[0])

    tracer.patch_method(_owner(mg, "fields", "PrimeFieldElement"), "__init__", "fields.gfp", gfp)
    tracer.patch_method(_owner(mg, "linalg", "Matrix"), "rank", "linalg.rank", rank)
    for module, attr, hook in [
        ("multilinear", "splice_matrix_on", splice),
        ("lattice", "faces_by_degree", faces),
        ("systems", "build_complex", build),
        ("verify", "is_resolution", resolution),
        ("verify", "minimize", minimize),
        ("formats", "canonical_dumps", dumps),
        ("formats", "load_json", load_json),
    ]:
        fn = getattr(_module(mg, module), attr)
        tracer.patch_function(mg.__name__, fn, f"{module}.{attr}", hook)


def _has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def per_layer_metrics(spans, counts: Counter, cli_times: dict, untraced_ops_per_s: float,
                      traced_ops_per_s: float) -> dict:
    """Every PER_LAYER metric from one span pass, one count pass and the
    untraced cli timings (label -> list of seconds)."""
    summary = summarize(spans)

    def calls(name):
        return summary.get(name, (0, 0.0))[0]

    def self_s(name):
        return summary.get(name, (0, 0.0))[1]

    out = {name: 0 for name in PER_LAYER}
    for _, _, _, name in SPANS:
        for key, value in ((f"{name}_calls", calls(name)), (f"{name}_s", self_s(name))):
            if key in out:
                out[key] = value
    out.update({k: v for k, v in counts.items() if k in out})
    if counts["splice_computed"]:
        out["multilinear.splice_used_ratio"] = counts["splice_used"] / counts["splice_computed"]
    if counts["dense_entries"]:
        out["systems.density"] = counts["systems.nonzeros"] / counts["dense_entries"]
    scarf_systems = calls("systems.scarf_system")
    if scarf_systems:
        inside = sum(1 for i, s in enumerate(spans)
                     if s[0] == "lattice.faces_by_degree"
                     and _has_ancestor(spans, i, "systems.scarf_system"))
        out["lattice.faces_by_degree_per_scarf"] = inside / scarf_systems
    for label, times in cli_times.items():
        key = "cli.startup_s" if label == "validate" else f"cli.{label}_s"
        if key in out and times:
            out[key] = statistics.median(times)
    out["trace.ops_per_s_untraced"] = untraced_ops_per_s
    out["trace.ops_per_s_traced"] = traced_ops_per_s
    out["trace.overhead_ratio"] = untraced_ops_per_s / traced_ops_per_s
    return out


BREAKDOWN = ("systems.taylor_complex", "verify.is_resolution", "verify.minimize")


def shape_breakdown(spans, shapes: dict) -> dict:
    """(field, g, e) -> {span name: (median inclusive seconds, samples)}.

    shapes maps op id -> shape; only BREAKDOWN spans are counted.
    """
    groups = defaultdict(lambda: defaultdict(list))
    for name, start, end, _, op_id in spans:
        if name in BREAKDOWN and shapes.get(op_id):
            groups[shapes[op_id]][name].append(end - start)
    return {
        shape: {name: (statistics.median(ts), len(ts)) for name, ts in by_name.items()}
        for shape, by_name in sorted(groups.items())
    }
