"""The four workloads: their operations and the oracle that checks each one.

An ``Op`` is three calls: ``make_input`` builds fresh inputs outside the
timed section (a new ``Morphism`` each time, so no value cached on an
object from an earlier pass can make a later pass faster), ``run`` is the
timed operation, and ``check`` is the oracle, also outside the timed
section.  mgres is reached only through the package object passed in, and
every function is looked up on it at call time, so the wrappers a traced
run swaps in are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Any, Callable

import corpus

CLI_TIMEOUT_S = 120


@dataclass
class Op:
    name: str
    label: str                       # the operation kind, e.g. "taylor" or "scarf"
    shape: tuple                     # (field, g, e); () when not a morphism op
    large: bool
    make_input: Callable[[], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]


def morphism(mg, item: corpus.Item):
    """A fresh validated Morphism from a corpus spec."""
    field = mg.QQ if item.field == "Q" else mg.PrimeField(corpus.P)
    spec = item.spec
    entries = {(r["row"], r["col"]): field.parse(r["coeff"]) for r in spec["entries"]}
    return mg.Morphism(
        spec["n"], field, spec["source_degrees"], spec["target_degrees"], entries,
        var_names=spec["vars"],
    ).validate()


# ------------------------------------------------------------- taylor-q/gfp

def taylor_ops(mg, seed: int, field_key: str) -> list[Op]:
    """taylor_complex -> is_resolution -> is_maximal_rank_everywhere.

    Oracle: the report says the complex is one, its exactness agrees with
    the maximal-rank theorem, and it agrees with what the draw guarantees
    (clones are never exact, monomial ideals always are).
    """
    def run(phi):
        x = mg.taylor_complex(phi)
        return x, mg.is_resolution(x), phi.is_maximal_rank_everywhere()

    def check_for(item):
        def check(phi, result):
            _, report, maxrank = result
            if not report.is_complex or report.exact != maxrank.ok:
                return False
            return {"clone": not report.exact, "monomial": report.exact}.get(item.kind, True)
        return check

    return [
        Op(item.name, "taylor", item.shape, item.large,
           lambda item=item: morphism(mg, item), run, check_for(item))
        for item in corpus.taylor_corpus(seed, field_key)
    ]


# ---------------------------------------------------------- minimize-generic

def minimize_ops(mg, seed: int) -> list[Op]:
    """scarf_complex + taylor_complex + minimize(taylor).

    Oracle: the minimized Taylor complex has the Scarf complex's graded
    ranks, and the Scarf complex is an exact, minimal resolution.
    """
    def run(phi):
        s = mg.scarf_complex(phi)
        t = mg.taylor_complex(phi)
        return s, t, mg.minimize(t)

    def check(phi, result):
        s, _, m = result
        report = mg.is_resolution(s)
        return mg.graded_ranks(m) == mg.graded_ranks(s) and report.exact and report.minimal

    return [
        Op(item.name, "minimize", item.shape, item.large,
           lambda item=item: morphism(mg, item), run, check)
        for item in corpus.minimize_corpus(seed)
    ]


# ----------------------------------------------------------------- cli-files

class CliRunner:
    """Runs one mgres command line, as a subprocess or in this process."""

    def __init__(self, mg, src_dir: Path, workdir: Path, in_process: bool):
        self.mg = mg
        self.workdir = workdir
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=str(src_dir))

    def __call__(self, argv) -> tuple[int, str]:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.mg.cli.run(argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "mgres.cli", *argv],
            cwd=self.workdir, env=self.env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout


def cli_ops(mg, seed: int, workdir: Path, root: Path, in_process: bool) -> list[Op]:
    """One op per mgres command line on files written here.

    Oracle: every exit code matches the in-process prediction (``verify``
    returns 0 or 1 by the maximal-rank theorem, everything else 0) and the
    JSON output parses to the in-process result.
    """
    cli = CliRunner(mg, root / "src", workdir, in_process)
    fmt = mg.formats
    data = root / "data"
    wide, taylor_items = corpus.cli_corpus(seed)
    ops: list[Op] = []

    def add(name, label, argv, expect, shape=(), large=False, read=None, keys=None):
        """expect() gives the predicted (exit code, JSON value), computed in
        this process once and outside the timed section; read: the file
        holding the JSON instead of stdout; keys: compare only these fields."""
        def check(_, result):
            code, out = result
            got = json.loads(Path(read).read_text() if read else out)
            if keys:
                got = {k: got[k] for k in keys}
            want_code, want = expect()
            return code == want_code and got == want
        ops.append(Op(name, label, shape, large, lambda: None, lambda _: cli(argv), check))

    def validate_prediction():
        phi = load(ex4)
        return 0, {"format_version": fmt.FORMAT_VERSION, "valid": True,
                   "columns": phi.e, "rows": phi.g, "rank": phi.coeff_data.r}

    load = fmt.load_morphism
    ex4 = data / "ex4.mmor"
    add("validate-ex4", "validate", ["validate", str(ex4), "--output", "json"],
        cache(validate_prediction))

    src_complex = workdir / "ex4-scarf.json"
    src_complex.write_text(fmt.canonical_dumps(fmt.complex_to_dict(mg.scarf_complex(load(ex4)))))
    rmap, target = data / "ex7_relabel.json", data / "ex7_prime.mmor"
    add("relabel-ex7", "relabel",
        ["relabel", str(rmap), str(src_complex), str(target), "--output", "json"],
        cache(lambda: (0, fmt.complex_to_dict(mg.relabel(
            fmt.load_relabel_map(rmap), fmt.load_complex(src_complex), load(target))))))

    for item in wide:
        path = workdir / f"{item.name}.mmor"
        path.write_text(corpus.dumps(item.spec))
        add(f"scarf-{item.name}", "scarf", ["scarf", str(path), "--output", "json"],
            cache(lambda item=item: (0, fmt.complex_to_dict(mg.scarf_complex(morphism(mg, item))))),
            item.shape, item.large)
        add(f"analyze-{item.name}", "analyze", ["analyze", str(path), "--output", "json"],
            cache(lambda item=item: (0, analyze_prediction(mg, morphism(mg, item)))),
            item.shape, keys=ANALYZE_KEYS)

    for item in taylor_items:
        path = workdir / f"{item.name}.mmor"
        path.write_text(corpus.dumps(item.spec))
        cx = workdir / f"{item.name}.complex.json"
        taylor = cache(lambda item=item: mg.taylor_complex(morphism(mg, item)))
        add(f"taylor-{item.name}", "taylor",
            ["taylor", str(path), "--output", "json", "--out", str(cx)],
            cache(lambda taylor=taylor: (0, fmt.complex_to_dict(taylor()))),
            item.shape, read=cx)

        def verify_prediction(item=item, taylor=taylor):
            theorem = morphism(mg, item).is_maximal_rank_everywhere().ok
            report = mg.is_resolution(taylor()).to_dict()
            return 0 if theorem else 1, {"format_version": fmt.FORMAT_VERSION, **report}

        add(f"verify-{item.name}", "verify", ["verify", str(cx), "--output", "json"],
            cache(verify_prediction), item.shape)
        add(f"minimize-{item.name}", "minimize", ["minimize", str(cx), "--output", "json"],
            cache(lambda taylor=taylor: (0, fmt.complex_to_dict(mg.minimize(taylor())))),
            item.shape)
    return ops


ANALYZE_KEYS = ("rank", "generic", "maximal_rank_everywhere", "lcm_lattice",
                "scarf_degrees", "nonscarf_degrees", "scarf_faces")


def analyze_prediction(mg, phi) -> dict:
    """The `analyze` fields that the public API computes directly."""
    lat = mg.lcm_lattice(phi)
    return {
        "rank": phi.coeff_data.r,
        "generic": phi.is_generic(),
        "maximal_rank_everywhere": phi.is_maximal_rank_everywhere().ok,
        "lcm_lattice": [list(a) for a in sorted(lat.elements)],
        "scarf_degrees": [list(a) for a in sorted(lat.scarf_part)],
        "nonscarf_degrees": [list(a) for a in sorted(lat.nonscarf_part)],
        "scarf_faces": [list(f) for f in sorted(mg.scarf_faces(phi))],
    }

