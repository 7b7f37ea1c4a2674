"""File formats (canonical JSON round-trips) and the command-line surface."""

import json
import random
import subprocess
import sys

import pytest

from mgres import (
    QQ,
    GradedComplex,
    Morphism,
    cli,
    formats,
    minimize,
    relabel,
    scarf_complex,
    taylor_complex,
    verify,
)
from mgres.errors import FormatError, NotAComplex, RestrictionError
from helpers import DATA, ROOT, dense_matrix_text, mod_p, random_morphism, xy_example

GOLDEN = ROOT / "tests" / "golden"


def test_morphism_roundtrip_byte_identical():
    raw = formats.load_json(DATA / "ex4.mmor")
    phi = formats.morphism_from_dict(raw)
    once = formats.canonical_dumps(formats.morphism_to_dict(phi))
    again = formats.canonical_dumps(
        formats.morphism_to_dict(formats.morphism_from_dict(json.loads(once)))
    )
    assert once == again


COMPLEX_GOLDENS = [
    f"{command}_{example}.json"
    for command in ("taylor", "scarf", "minimize")
    for example in ("ex4", "ex7_prime", "ex4_gfp", "ex4_frac", "ex_r3")
] + ["relabel_ex7.json"]
# every Q example also over GF(32003); ex4's complexes relabeled onto ex7_prime
DATA_COMPLEXES = [
    f"{kind}-{example}-{field}"
    for example in ("ex4", "ex4_frac", "ex7_prime", "ex_r3")
    for field in ("Q", "GF(32003)")
    for kind in ("taylor", "scarf", "minimize") + (("relabel",) if "ex4" in example else ())
]


def _data_complex(case: str):
    kind, example, field = case.split("-")
    phi = formats.load_morphism(DATA / f"{example}.mmor")
    if field != "Q":
        phi = mod_p(phi)
    if kind == "relabel":
        phi2 = formats.load_morphism(DATA / "ex7_prime.mmor")
        f = formats.load_relabel_map(DATA / "ex7_relabel.json")
        return relabel(f, taylor_complex(phi), phi2 if field == "Q" else mod_p(phi2))
    x = scarf_complex(phi) if kind == "scarf" else taylor_complex(phi)
    return minimize(x) if kind == "minimize" else x


def test_complex_roundtrip_byte_identical():
    x = taylor_complex(xy_example())
    once = formats.canonical_dumps(formats.complex_to_dict(x))
    loaded = formats.complex_from_dict(json.loads(once))
    again = formats.canonical_dumps(formats.complex_to_dict(loaded))
    assert once == again
    assert loaded == x


@pytest.mark.parametrize("case", COMPLEX_GOLDENS + DATA_COMPLEXES)
def test_complex_files_roundtrip_byte_identical(case):
    """A golden complex file loads and serializes back byte for byte; a
    complex built from data/ loads back equal, labels included."""
    if case in COMPLEX_GOLDENS:
        once = (GOLDEN / case).read_text()
        x = formats.complex_from_dict(json.loads(once))
    else:
        x = _data_complex(case)
        once = formats.canonical_dumps(formats.complex_to_dict(x))
    loaded = formats.complex_from_dict(formats.complex_to_dict(x))
    again = formats.canonical_dumps(formats.complex_to_dict(loaded))
    assert once == again
    assert loaded == x


def test_complex_file_shift_revalidation(tmp_path):
    from mgres import taylor_complex

    d = formats.complex_to_dict(taylor_complex(xy_example()))
    d["differentials"][0][0]["shift"] = [9, 9]
    with pytest.raises(FormatError):
        formats.complex_from_dict(d)


def test_morphism_rejects_bad_coeff():
    raw = formats.load_json(DATA / "ex4.mmor")
    raw["entries"][0]["coeff"] = "one"
    with pytest.raises(FormatError):
        formats.morphism_from_dict(raw)


def test_entry_text_rendering():
    from mgres import QQ

    vars_ = ("x", "y")
    assert formats.entry_text(QQ, QQ.zero, (0, 0), vars_) == "0"
    assert formats.entry_text(QQ, QQ.one, (0, 2), vars_) == "y^2"
    assert formats.entry_text(QQ, QQ.of(-2), (1, 1), vars_) == "-2xy"
    assert formats.entry_text(QQ, QQ.of(-1), (1, 0), vars_) == "-x"
    assert formats.entry_text(QQ, QQ.of(3), (0, 0), vars_) == "3"
    assert formats.entry_text(QQ, QQ.parse("3/2"), (1, 0), vars_) == "(3/2)x"


@pytest.mark.parametrize("p", [0, 7, 32003], ids=["Q", "GF(7)", "GF(32003)"])
def test_matrix_text_matches_dense_oracle(p):
    # Taylor complexes of the mixed sampler and their minimized forms (over Q
    # with fractional entries), with and without variable names
    rng, fractions = random.Random(25), 0
    for _ in range(30):
        phi = random_morphism(rng)
        t = taylor_complex(mod_p(phi, p) if p else phi)
        unnamed = GradedComplex(t.field, t.n, t.levels, t.diffs, t.labels)
        for x in (t, minimize(t), unnamed):
            for i in range(len(x.diffs)):
                text = formats.matrix_text(x, i)
                assert text == dense_matrix_text(x, i)
                fractions += "/" in text
    assert fractions or p


def test_cli_imports_neither_dataclasses_nor_typing():
    # a fresh process pays for every import, and dataclasses brings inspect,
    # ast, dis and tokenize; -I -S keeps site's own imports out of the count
    script = (
        "import sys; sys.path.insert(0, 'src'); import mgres.cli; "
        "code = mgres.cli.run(['validate', 'data/ex4.mmor']); "
        "assert 'dataclasses' not in sys.modules and 'typing' not in sys.modules; "
        "sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "valid" in proc.stdout


def test_cli_validate_ok(capsys):
    assert cli.run(["validate", str(DATA / "ex4.mmor")]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_validate_negative_shift(tmp_path, capsys):
    raw = formats.load_json(DATA / "ex4.mmor")
    raw["target_degrees"][1] = [4, 0]
    bad = tmp_path / "broken.mmor"
    bad.write_text(json.dumps(raw))
    assert cli.run(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "(2, 1)" in err


def test_cli_validate_zero_column(tmp_path, capsys):
    raw = formats.load_json(DATA / "ex4.mmor")
    raw["entries"] = [e for e in raw["entries"] if e["col"] != 4]
    bad = tmp_path / "zerocol.mmor"
    bad.write_text(json.dumps(raw))
    assert cli.run(["validate", str(bad)]) == 2
    assert cli.run(["validate", "--allow-zero-columns", str(bad)]) == 0
    capsys.readouterr()


def test_cli_garbage_json(tmp_path, capsys):
    bad = tmp_path / "garbage.mmor"
    bad.write_text("{not json")
    assert cli.run(["validate", str(bad)]) == 2
    capsys.readouterr()


def test_cli_scarf_text_matches_printed_matrix(capsys):
    assert cli.run(["scarf", str(DATA / "ex4.mmor"), "--output", "text"]) == 0
    out = capsys.readouterr().out
    for needle in ["y^2", "-2xy", "x^2", "-3y^2", "2xy"]:
        assert needle in out


def test_cli_taylor_then_verify_roundtrip(tmp_path, capsys):
    taylor_json = tmp_path / "ex4_taylor.json"
    assert (
        cli.run(
            ["taylor", str(DATA / "ex4.mmor"), "--output", "json", "--out", str(taylor_json)]
        )
        == 0
    )
    assert cli.run(["verify", str(taylor_json)]) == 0
    out = capsys.readouterr().out
    assert "exact: true, minimal: false" in out
    # requiring minimality flips the verdict
    assert cli.run(["verify", str(taylor_json), "--minimal"]) == 1
    capsys.readouterr()


def test_cli_verify_morphism_file(capsys):
    assert cli.run(["verify", str(DATA / "ex4.mmor")]) == 0
    assert "exact: true" in capsys.readouterr().out


def test_cli_verify_non_exact(tmp_path, capsys):
    bad = {
        "field": "Q",
        "n": 2,
        "vars": ["x", "y"],
        "source_degrees": [[1, 0], [0, 1], [2, 0]],
        "target_degrees": [[0, 0], [0, 0]],
        "entries": [
            {"row": 1, "col": 1, "coeff": "1"},
            {"row": 2, "col": 1, "coeff": "2"},
            {"row": 1, "col": 2, "coeff": "2"},
            {"row": 2, "col": 2, "coeff": "4"},
            {"row": 2, "col": 3, "coeff": "1"},
        ],
    }
    path = tmp_path / "deficient.mmor"
    path.write_text(json.dumps(bad))
    assert cli.run(["verify", str(path)]) == 1
    capsys.readouterr()


def test_cli_minimize_and_analyze(tmp_path, capsys):
    assert cli.run(["minimize", str(DATA / "ex4.mmor"), "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [len(level) for level in payload["levels"]] == [2, 4, 2]

    assert cli.run(["analyze", str(DATA / "ex4.mmor"), "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rank"] == 2
    assert report["generic"] is True
    assert len(report["lcm_lattice"]) == 10
    assert len(report["scarf_faces"]) == 7
    assert report["nonscarf_degrees"] == [[2, 3], [3, 2], [3, 3]]


@pytest.mark.parametrize("case", ["ex_r3", "generic n = 4"])
def test_cli_analyze_takes_one_kernel_per_distinct_upper_set(tmp_path, monkeypatch, capsys, case):
    """``analyze`` memoizes ``Morphism.k_space`` per call: one kernel for each
    distinct I^a among the non-Scarf degrees whose columns do not span V;
    one whose columns span has K = 0, read off one rank.  ex_r3's 10 share
    one I^a, of rank 1 < r = 3; the generic draw (n = 4, r = 2) has 18 over
    2, and one of the 2 spans."""
    from mgres import lcm_lattice
    from helpers import random_generic_minimal

    if case == "ex_r3":
        path = DATA / "ex_r3.mmor"
        phi = formats.load_morphism(path)
    else:
        phi = random_generic_minimal(random.Random(38))
        assert phi.n == 4
        path = tmp_path / "generic.mmor"
        path.write_text(formats.canonical_dumps(formats.morphism_to_dict(phi)))
    uppers = [fd.i_upper_a for fd in lcm_lattice(phi).nonscarf_data]
    r, uv = phi.coeff_data.r, phi.coeff_data.uv
    spanning = {u for u in uppers if uv.submatrix(range(r), [j - 1 for j in sorted(u)]).rank() == r}
    calls = []
    for module in [m for key, m in sys.modules.items() if key.startswith("mgres")]:
        if hasattr(module, "kernel_basis"):
            def counting(m, kernel_basis=module.kernel_basis):
                calls.append(m.rows)
                return kernel_basis(m)

            monkeypatch.setattr(module, "kernel_basis", counting)
    assert cli.run(["analyze", str(path), "--output", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["face_data"]) == len(uppers)
    assert len(calls) == len(set(uppers) - spanning) < len(uppers)
    counts = (len(uppers), len(set(uppers)), len(spanning))
    assert counts == ((10, 1, 0) if case == "ex_r3" else (18, 2, 1))


def test_cli_minimize_of_a_complex_with_no_levels(tmp_path, capsys):
    """A complex with no levels is minimal: minimize writes it back, as
    verify accepts it."""
    raw = {"field": "Q", "n": 1, "levels": [], "differentials": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(raw))
    assert cli.run(["verify", str(path), "--output", "json"]) == 0
    capsys.readouterr()
    assert cli.run(["minimize", str(path), "--output", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["levels"] == []


def test_cli_minimize_names_the_variables_of_a_vars_less_complex_as_a_morphism(tmp_path, capsys):
    """A complex file without vars is written back with a morphism's default
    names, x (n = 1) rather than x1."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"field": "Q", "n": 1, "levels": [], "differentials": []}))
    assert cli.run(["minimize", str(path), "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["vars"] == ["x"]


def test_vars_less_complex_prints_x_and_y_in_json_and_text(tmp_path, capsys):
    """An n = 2 complex file without vars names its variables x, y both in
    the JSON it is written back as and in its text matrices."""
    raw = formats.complex_to_dict(taylor_complex(xy_example()))
    del raw["vars"]
    path = tmp_path / "novars.json"
    path.write_text(formats.canonical_dumps(raw))
    assert cli.run(["minimize", str(path), "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["vars"] == ["x", "y"]
    assert cli.run(["minimize", str(path), "--output", "text"]) == 0
    text = capsys.readouterr().out
    assert "x" in text and "y" in text and "x1" not in text and "x2" not in text


def test_cli_minimize_refuses_a_file_that_is_not_a_complex(tmp_path, capsys):
    """verify reports d^2 != 0 (exit 1); minimize refuses the file as bad input."""
    raw = formats.complex_to_dict(scarf_complex(formats.load_morphism(DATA / "ex4.mmor")))
    raw["differentials"][1][0]["coeff"] = "5"
    path = tmp_path / "not_a_complex.json"
    path.write_text(formats.canonical_dumps(raw))
    assert cli.run(["verify", str(path), "--output", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["is_complex"] is False
    assert cli.run(["minimize", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mgres: ") and "not a complex" in captured.err
    assert captured.err.count("\n") == 1


def test_cli_relabel_flow(tmp_path, capsys):
    scarf_json = tmp_path / "scarf.json"
    assert (
        cli.run(
            ["scarf", str(DATA / "ex4.mmor"), "--output", "json", "--out", str(scarf_json)]
        )
        == 0
    )
    assert (
        cli.run(
            [
                "relabel",
                str(DATA / "ex7_relabel.json"),
                str(scarf_json),
                str(DATA / "ex7_prime.mmor"),
                "--output",
                "text",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    for needle in ["w", "-2u", "-3uw", "2vw", "uv"]:
        assert needle in out


def test_cli_relabel_missing_key_is_input_error(tmp_path, capsys):
    scarf_json = tmp_path / "scarf.json"
    cli.run(["scarf", str(DATA / "ex4.mmor"), "--output", "json", "--out", str(scarf_json)])
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps([{"from": [3, 0], "to": [2, 1, 0]}]))
    assert (
        cli.run(
            ["relabel", str(partial), str(scarf_json), str(DATA / "ex7_prime.mmor")]
        )
        == 2
    )
    capsys.readouterr()


def test_cli_relabel_across_fields_is_input_error(tmp_path, capsys):
    scarf_json = tmp_path / "scarf.json"
    cli.run(["scarf", str(DATA / "ex4.mmor"), "--output", "json", "--out", str(scarf_json)])
    gf7 = tmp_path / "ex7_gf7.mmor"
    gf7.write_text(json.dumps({**formats.load_json(DATA / "ex7_prime.mmor"), "field": "GF(7)"}))
    assert cli.run(["relabel", str(DATA / "ex7_relabel.json"), str(scarf_json), str(gf7)]) == 2
    err = capsys.readouterr().err
    assert "over Q" in err and "over GF(7)" in err and "internal" not in err


def test_cli_output_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert (
        cli.run(["analyze", str(DATA / "ex4.mmor"), "--output", "json", "--out", str(out)])
        == 0
    )
    assert json.loads(out.read_text())["rank"] == 2
    # a missing directory or a directory is an input error, like an unreadable input
    for bad in (tmp_path / "missing" / "report.json", tmp_path):
        command = ["validate", str(DATA / "ex4.mmor"), "--out", str(bad)]
        assert cli.run(command) == 2
        assert capsys.readouterr().err.startswith(f"mgres: cannot write {bad}: ")


@pytest.mark.parametrize(
    "payload",
    [
        "[]",
        "42",
        '{"field": "Q"}',
        '{"field": "R", "n": 2, "vars": ["x","y"], "source_degrees": [[1,0]], "target_degrees": [[0,0]], "entries": []}',
        '{"field": "Q", "n": 2, "vars": ["x"], "source_degrees": [[1,0]], "target_degrees": [[0,0]], "entries": [{"row":1,"col":1,"coeff":"1"}]}',
        '{"field": "Q", "n": 2, "vars": ["x","y"], "source_degrees": "no", "target_degrees": [[0,0]], "entries": []}',
        '{"field": "Q", "n": 2, "vars": ["x","y"], "source_degrees": [[1,0]], "target_degrees": [[0,0]], "entries": ["zap"]}',
        '{"field": "Q", "n": 2, "vars": ["x","y"], "source_degrees": [[1,-1]], "target_degrees": [[0,0]], "entries": [{"row":1,"col":1,"coeff":"1"}]}',
        '{"field": "Q", "n": 2, "vars": ["x","y"], "levels": "zip", "differentials": []}',
        '{"field": "Q", "n": 2, "vars": ["x","y"], "levels": [["zap"]], "differentials": []}',
        '{"field": "Q", "n": 2, "vars": ["x","y"], "levels": [[{"degree": [0,0], "label": "g1"}]], "differentials": [[]]}',
        '{"field": "Q", "n": 2, "vars": ["x","y"], "source_degrees": [[1,0]], "target_degrees": [[0,0]], "entries": [{"row":true,"col":1,"coeff":"1"}]}',
        '{"field": "Q", "n": true, "vars": ["x"], "source_degrees": [[1]], "target_degrees": [[0]], "entries": [{"row":1,"col":1,"coeff":"1"}]}',
        '{"field": "Q", "n": 2, "vars": ["x","y"], "levels": [[{"degree": [0,0], "label": "g1"}], [{"degree": [1,0], "label": "e1"}]], "differentials": [[{"row":1,"col":true,"coeff":"1","shift":[1,0]}]]}',
        '{"field": "Q", "n": 2, "vars": 5, "levels": [[{"degree": [0,0], "label": "g1"}], [{"degree": [2,1], "label": "e1"}]], "differentials": [[{"row":1,"col":1,"coeff":"1","shift":[2,1]}]]}',
        '{"field": "Q", "n": 2, "vars": ["x"], "levels": [[{"degree": [0,0], "label": "g1"}], [{"degree": [2,1], "label": "e1"}]], "differentials": [[{"row":1,"col":1,"coeff":"1","shift":[2,1]}]]}',
        '{"field": "Q", "n": 2, "vars": "xy", "levels": [[{"degree": [0,0], "label": "g1"}], [{"degree": [2,1], "label": "e1"}]], "differentials": [[{"row":1,"col":1,"coeff":"1","shift":[2,1]}]]}',
        '{"field": "Q", "n": 2, "vars": ["", "y"], "source_degrees": [[1,0]], "target_degrees": [[0,0]], "entries": [{"row":1,"col":1,"coeff":"1"}]}',
        '{"field": "Q", "n": 2, "vars": [null, "y"], "source_degrees": [[1,0]], "target_degrees": [[0,0]], "entries": [{"row":1,"col":1,"coeff":"1"}]}',
        '{"field": "Q", "n": 2, "vars": [1, 2], "source_degrees": [[1,0]], "target_degrees": [[0,0]], "entries": [{"row":1,"col":1,"coeff":"1"}]}',
        '{"field": "Q", "n": 2, "vars": [["x"], "y"], "source_degrees": [[1,0]], "target_degrees": [[0,0]], "entries": [{"row":1,"col":1,"coeff":"1"}]}',
        '{"field": "Q", "n": 2, "vars": ["x", "x"], "levels": [[{"degree": [0,0], "label": "g1"}], [{"degree": [2,1], "label": "e1"}]], "differentials": [[{"row":1,"col":1,"coeff":"3","shift":[2,1]}]]}',
        '{"field": "Q", "n": 2, "vars": ["x","y"], "levels": [[{"degree": [0,0], "label": null}], [{"degree": [1,0], "label": "e1"}]], "differentials": [[{"row":1,"col":1,"coeff":"1","shift":[1,0]}]]}',
        '{"field": "Q", "n": 2, "vars": ["x","y"], "levels": [[{"degree": [0,0], "label": "g1"}], [{"degree": [1,0], "label": ["a"]}]], "differentials": [[{"row":1,"col":1,"coeff":"1","shift":[1,0]}]]}',
        # a duplicate morphism entry
        '{"field": "Q", "n": 2, "vars": ["x","y"], "source_degrees": [[1,0]], "target_degrees": [[0,0]], "entries": [{"row":1,"col":1,"coeff":"1"}, {"row":1,"col":1,"coeff":"2"}]}',
        # a complex file whose variable count is not a positive integer
        '{"field": "Q", "n": "2", "vars": ["x","y"], "levels": [[{"degree": [0,0], "label": "g1"}]], "differentials": []}',
        # a differential entry whose row is past the level
        '{"field": "Q", "n": 2, "vars": ["x","y"], "levels": [[{"degree": [0,0], "label": "g1"}], [{"degree": [1,0], "label": "e1"}]], "differentials": [[{"row":2,"col":1,"coeff":"1","shift":[1,0]}]]}',
        # a nonzero entry whose declared shift is the forced one, and negative
        '{"field": "Q", "n": 2, "vars": ["x","y"], "levels": [[{"degree": [1,0], "label": "g1"}], [{"degree": [0,0], "label": "e1"}]], "differentials": [[{"row":1,"col":1,"coeff":"1","shift":[-1,0]}]]}',
        # no file to read, and one that is not UTF-8
        None,
        b"\xff\xfe{}",
        # a record list that is not a list
        '{"field": "Q", "n": 2, "vars": ["x","y"], "source_degrees": [[1,0]], "target_degrees": [[0,0]], "entries": {"row":1,"col":1,"coeff":"1"}}',
        # a degree that is not a list of integers
        '{"field": "Q", "n": 2, "vars": ["x","y"], "source_degrees": [[1,"0"]], "target_degrees": [[0,0]], "entries": [{"row":1,"col":1,"coeff":"1"}]}',
        # a duplicate entry in a complex differential
        '{"field": "Q", "n": 2, "vars": ["x","y"], "levels": [[{"degree": [0,0], "label": "g1"}], [{"degree": [1,0], "label": "e1"}]], "differentials": [[{"row":1,"col":1,"coeff":"1","shift":[1,0]}, {"row":1,"col":1,"coeff":"2","shift":[1,0]}]]}',
        # a relabel map that is not a list, and one with a pair missing 'to'
        '{"from": [1,0], "to": [1,0]}',
        '[{"from": [1,0]}]',
    ],
)
def test_cli_malformed_inputs_exit_2(tmp_path, capsys, payload):
    """Each payload (None: no file) is refused as a morphism file, as a
    complex or morphism file and as a relabel map: exit 2, one line."""
    path = tmp_path / "fuzz.json"
    if payload is not None:
        path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
    relabel_onto = [str(GOLDEN / "taylor_ex4.json"), str(DATA / "ex7_prime.mmor")]
    for command in (["validate", str(path)], ["verify", str(path)],
                    ["relabel", str(path), *relabel_onto]):
        assert cli.run(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("mgres: ") and err.count("\n") == 1


def test_complex_loader_refuses_a_non_object():
    # the CLI reads a non-object as a morphism file, so only the library reaches this
    with pytest.raises(FormatError, match="must be a JSON object"):
        formats.complex_from_dict([])


def test_complex_loader_refuses_a_declared_negative_shift():
    """The forced shift of a nonzero entry, declared as it is, must not be
    negative; a zero entry's may be.  Indices are 1-based."""
    d = {
        "field": "Q", "n": 2, "vars": ["x", "y"],
        "levels": [[{"degree": [1, 0], "label": "g1"}],
                   [{"degree": [1, 0], "label": "e1"}, {"degree": [0, 1], "label": "e2"}]],
        "differentials": [[{"row": 1, "col": 1, "coeff": "1", "shift": [0, 0]},
                           {"row": 1, "col": 2, "coeff": "0", "shift": [-1, 1]}]],
    }
    assert formats.complex_from_dict(d).diffs[0].supports() == [(0,)]
    d["differentials"][0][1]["coeff"] = "2"
    with pytest.raises(FormatError, match=r"^entry \(1, 2\) of differential 1 has negative shift$"):
        formats.complex_from_dict(d)


def test_oversized_coefficients_are_input_errors(tmp_path, capsys):
    # exponent notation is refused on the string, before any integer is built
    for coeff in ["1e5000", "1e999999999"]:
        with pytest.raises(FormatError):
            QQ.parse(coeff)
        raw = formats.load_json(DATA / "ex4.mmor")
        raw["entries"][0]["coeff"] = coeff
        path = tmp_path / "huge.mmor"
        path.write_text(json.dumps(raw))
        for command in ("validate", "scarf"):
            assert cli.run([command, str(path)]) == 2
    with pytest.raises(FormatError):
        QQ.parse("1/" + "7" * 4301)
    assert QQ.parse("-" + "9" * 4300) == -(10**4300 - 1)
    # so are a JSON number past the int conversion limit and deep nesting
    path.write_text(json.dumps(raw).replace('"1e999999999"', "1" * 5000))
    assert cli.run(["validate", str(path)]) == 2
    path.write_text("[" * 100000 + "]" * 100000)
    assert cli.run(["validate", str(path)]) == 2
    capsys.readouterr()


def test_cli_unexpected_exception_exits_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("line one\nline two")

    monkeypatch.setattr(formats, "load_json", boom)
    assert cli.run(["validate", str(DATA / "ex4.mmor")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("mgres: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, module, name, error",
    [
        ("scarf", cli, "scarf_complex", RestrictionError((1, 2, 3), "image of (1, 2, 3) lost")),
        ("verify", verify, "is_resolution", NotAComplex("d1 d2 is not zero")),
    ],
    ids=["scarf build", "verify check"],
)
def test_cli_internal_invariant_breach_exits_3(monkeypatch, capsys, command, module, name, error):
    def breach(*args, **kwargs):
        raise error

    monkeypatch.setattr(module, name, breach)
    assert cli.run([command, str(DATA / "ex4.mmor")]) == 3
    err = capsys.readouterr().err
    assert err == f"mgres: internal invariant breach: {error}\n"


def test_prime_field_morphism_file(tmp_path):
    raw = formats.load_json(DATA / "ex4.mmor")
    raw["field"] = "GF(7)"
    path = tmp_path / "mod7.mmor"
    path.write_text(json.dumps(raw))
    phi = formats.load_morphism(path)
    assert phi.field.name == "GF(7)"
    once = formats.canonical_dumps(formats.morphism_to_dict(phi))
    again = formats.canonical_dumps(
        formats.morphism_to_dict(formats.morphism_from_dict(json.loads(once)))
    )
    assert once == again
    assert cli.run(["verify", str(path)]) == 0


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "mgres.cli", "validate", str(DATA / "ex4.mmor")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "valid" in proc.stdout


@pytest.mark.parametrize(
    "modulus, code",
    [
        (2**61 - 1, 0),  # trial division up to its square root would not finish
        (2**64 - 59, 0),  # the largest prime below the bound
        (int("9" * 400), 2),  # past the bound; a float square root overflows
        (2**89 - 1, 2),  # prime, but past the bound
        (2**61 + 1, 2),
        (3825123056546413051, 2),  # strong pseudoprime to every base up to 23
        (32003**2, 2),
        (1, 2),
    ],
)
def test_cli_prime_field_moduli(tmp_path, capsys, modulus, code):
    raw = formats.load_json(DATA / "ex4.mmor")
    raw["field"] = f"GF({modulus})"
    path = tmp_path / "gfp.mmor"
    path.write_text(json.dumps(raw))
    assert cli.run(["validate", str(path)]) == code
    capsys.readouterr()


@pytest.mark.parametrize(
    "tag, code",
    [
        ("Q", 0),
        ("GF(7)", 0),
        ("GF(18446744073709551557)", 0),  # 2^64 - 59, twenty digits
        ("GF(\u0667)", 2),  # an Arabic-Indic digit
        ("GF(\uff17)", 2),  # a fullwidth digit
        ("GF(1_0007)", 2),
        ("GF( 7 )", 2),
        ("GF(+7)", 2),
        ("GF(07)", 2),
        (" GF(7)", 2),
        ("Q ", 2),
    ],
)
def test_cli_field_tag_grammar(tmp_path, capsys, tag, code):
    # exactly Q or GF(p), p in ASCII decimal without sign or leading zero
    raw = formats.load_json(DATA / "ex4.mmor")
    raw["field"] = tag
    path = tmp_path / "tag.mmor"
    path.write_text(json.dumps(raw))
    assert cli.run(["validate", str(path)]) == code
    capsys.readouterr()


def _with_coeff(tmp_path, raw: dict, record: dict, literal: str | None) -> str:
    """raw written to a file, record's coeff the JSON text literal (None: no coeff)."""
    del record["coeff"]
    if literal is not None:
        record["coeff"] = "@COEFF@"
    path = tmp_path / "coeff.json"
    path.write_text(json.dumps(raw).replace('"@COEFF@"', str(literal)))
    return str(path)


@pytest.mark.parametrize("field", ["Q", "GF(7)"])
@pytest.mark.parametrize(
    "literal",
    [
        "1.0000000000000001",  # a JSON number, read through a float
        "1",
        "null",
        '["1"]',
        '"１２"',  # fullwidth digits
        '"\\u0663"',  # an Arabic-Indic digit
        '" 7"',
        '"7 "',
        '"7\\n"',
        '"1_000"',
        '"+7"',
        '"1e5"',
        '".5"',
        '""',
        None,
    ],
)
def test_cli_coefficients_must_be_ascii_strings(tmp_path, capsys, field, literal):
    from mgres import taylor_complex

    raw = formats.load_json(DATA / "ex4.mmor")
    raw["field"] = field
    d = formats.complex_to_dict(taylor_complex(formats.morphism_from_dict(raw)))
    assert cli.run(["validate", _with_coeff(tmp_path, raw, raw["entries"][0], literal)]) == 2
    assert cli.run(["verify", _with_coeff(tmp_path, d, d["differentials"][0][0], literal)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "field, literal, code",
    [
        ("Q", '"0/5"', 0),
        ("Q", '"-3/4"', 0),
        ("Q", '"0.0"', 0),
        ("Q", '"-0"', 0),
        ("Q", '"1/0"', 2),
        ("Q", '"1/-2"', 2),
        ("GF(7)", '"-0"', 0),
        ("GF(7)", '"-15"', 0),
        ("GF(7)", '"1/2"', 2),
        ("GF(7)", '"0.0"', 2),
    ],
)
def test_cli_coefficient_grammar(tmp_path, capsys, field, literal, code):
    raw = formats.load_json(DATA / "ex4.mmor")
    raw["field"] = field
    assert cli.run(["validate", _with_coeff(tmp_path, raw, raw["entries"][0], literal)]) == code
    capsys.readouterr()


@pytest.mark.parametrize("budget, code", [(11, 2), (12, 0)])
def test_taylor_generator_budget_is_read_at_call_time(monkeypatch, capsys, budget, code):
    from mgres import systems

    # the Taylor complex of ex4 has ranks (2, 4, 4, 2): 12 generators
    monkeypatch.setattr(systems, "MAX_GENERATORS", budget)
    for command in ("taylor", "verify", "minimize"):
        assert cli.run([command, str(DATA / "ex4.mmor")]) == code
    err = capsys.readouterr().err
    assert err.count("mgres: ") == (3 if code else 0)
    assert ("12 generators" in err) == bool(code)


def test_taylor_has_no_column_cap(tmp_path, capsys):
    from helpers import tall_morphism

    path = tmp_path / "tall.mmor"
    path.write_text(formats.canonical_dumps(formats.morphism_to_dict(tall_morphism())))
    assert cli.run(["taylor", str(path), "--output", "json"]) == 0
    levels = json.loads(capsys.readouterr().out)["levels"]
    assert [len(level) for level in levels] == [19, 21, 21, 19]


def test_wide_chain_is_refused_by_the_generator_count(tmp_path, capsys):
    # x, x^2, ..., x^20000: the count stops at the first face size past the
    # budget instead of summing 20,000 binomials
    e = 20000
    chain = Morphism(1, QQ, [(i,) for i in range(1, e + 1)], [(0,)],
                     {(1, j): QQ.one for j in range(1, e + 1)}).validate()
    path = tmp_path / "chain.mmor"
    path.write_text(formats.canonical_dumps(formats.morphism_to_dict(chain)))
    assert cli.run(["taylor", str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.count("\n") == 1 and "over the budget" in captured.err


@pytest.mark.parametrize("budget, code", [(5, 2), (6, 0)])
def test_uniform_rank_budget_is_read_at_call_time(monkeypatch, capsys, budget, code):
    from mgres import morphism

    # ex4 has e = 4 columns of rank 2: C(4, 2) = 6 subsets to test
    monkeypatch.setattr(morphism, "MAX_RANK_SUBSETS", budget)
    assert cli.run(["analyze", str(DATA / "ex4.mmor")]) == code
    err = capsys.readouterr().err
    assert err.count("mgres: ") == (1 if code else 0)
    assert ("6 column subsets" in err) == bool(code)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command", ["validate", "analyze", "taylor", "scarf", "verify", "minimize", "relabel"]
)
def test_cli_parser_options(command, capsys):
    """--output and --out everywhere, --allow-zero-columns on the one-file
    subcommands, --minimal on verify alone; an unknown option exits 2."""
    files = ["map.json", "x.json", "phi.mmor"] if command == "relabel" else ["phi.mmor"]

    def parse(*options):
        try:
            return cli._parser().parse_args([command, *options, *files])
        except SystemExit as exc:
            assert exc.code == 2
            return None

    defaults = parse()
    assert (defaults.output, defaults.out) == ("text", None)
    args = parse("--output", "json", "--out", "report.json")
    assert (args.output, args.out) == ("json", "report.json")
    assert (parse("--allow-zero-columns") is not None) == (command != "relabel")
    assert (parse("--minimal") is not None) == (command == "verify")
    assert parse("--no-such-option") is None
    if command != "relabel":
        assert defaults.allow_zero_columns is False
    capsys.readouterr()
