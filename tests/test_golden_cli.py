"""CLI output on the worked examples is pinned byte for byte.

Each case runs one subcommand with ``--output json`` and with ``--output
text`` on a file in ``data/`` and compares stdout and the exit code with
``tests/golden/<case>.json`` and ``tests/golden/<case>.txt``.  The golden
files were written by the CLI itself; a refactor that changes any of them
changes user-visible output and must say so.  ``ex4_gfp`` is ``ex4`` over
GF(32003) and ``ex4_frac`` is ``ex4`` with fractional coefficients, so the
goldens also pin prime-field output and rational rows whose denominators
are not 1.
"""

import pytest

from mgres import cli
from helpers import DATA, ROOT

GOLDEN = ROOT / "tests" / "golden"

CASES = [
    (f"{command}_{example}", [command, str(DATA / f"{example}.mmor")], 0)
    for command in ("validate", "analyze", "taylor", "scarf", "verify", "minimize")
    for example in ("ex4", "ex7_prime", "ex4_gfp", "ex4_frac")
] + [("verify_minimal_ex4", ["verify", str(DATA / "ex4.mmor"), "--minimal"], 1)]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_cli_json_matches_golden(capsys, name, argv, code):
    assert cli.run(argv + ["--output", "json"]) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_cli_text_matches_golden(capsys, name, argv, code):
    assert cli.run(argv + ["--output", "text"]) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def _relabel_argv(tmp_path, output):
    scarf_json = tmp_path / "scarf_ex4.json"
    scarf_json.write_text((GOLDEN / "scarf_ex4.json").read_text())
    return [
        "relabel",
        str(DATA / "ex7_relabel.json"),
        str(scarf_json),
        str(DATA / "ex7_prime.mmor"),
        "--output",
        output,
    ]


def test_cli_relabel_matches_golden(tmp_path, capsys):
    assert cli.run(_relabel_argv(tmp_path, "json")) == 0
    assert capsys.readouterr().out == (GOLDEN / "relabel_ex7.json").read_text()


def test_cli_relabel_text_matches_golden(tmp_path, capsys):
    assert cli.run(_relabel_argv(tmp_path, "text")) == 0
    assert capsys.readouterr().out == (GOLDEN / "relabel_ex7.txt").read_text()
