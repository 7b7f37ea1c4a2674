"""Seeded mutations of the data files and golden complexes through the CLI.

Each input is a morphism from ``data/*.mmor`` or one of three golden complex
files with one to three mutations: a dict key deleted, a value swapped for a
hostile one, or a list item duplicated.  Every input runs through six
subcommands.  Each must exit 0, 1 or 2, never 3 and never with a traceback:
1 only from ``verify``, whose report on stdout then says not exact, and 2
(bad input) with one ``mgres:`` line on stderr.
"""

import copy
import json
import random

from mgres import cli
from helpers import DATA, ROOT

SOURCES = sorted(DATA.glob("*.mmor")) + [
    ROOT / "tests" / "golden" / name
    for name in ("taylor_ex4.json", "scarf_ex_r3.json", "minimize_ex4_gfp.json")
]
COMMANDS = ("validate", "analyze", "scarf", "taylor", "verify", "minimize")
HOSTILE = [
    None, True, False, 0, -1, 1.5, 2**64, -(2**64), "", "0", "-1", "1/0", "x", "GF(4)",
    "GF(2)", "Q", [], [0], [-1], [[]], [None], {}, {"row": 1}, "é", float("nan"),
]
INPUTS = 150


def _nodes(value, path=()):
    """Every (path, value) below the root, containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _mutate(doc, rng):
    nodes = list(_nodes(doc))
    kind = rng.choice(("delete", "hostile", "duplicate"))
    if kind == "delete":
        dicts = [v for _, v in nodes if isinstance(v, dict) and v] + [doc]
        target = rng.choice(dicts)
        del target[rng.choice(sorted(target))]
    elif kind == "hostile":
        path, _ = rng.choice(nodes)
        _parent(doc, path)[path[-1]] = copy.deepcopy(rng.choice(HOSTILE))
    else:
        lists = [v for _, v in nodes if isinstance(v, list) and v]
        if lists:
            target = rng.choice(lists)
            target.insert(rng.randrange(len(target) + 1), copy.deepcopy(rng.choice(target)))


def test_mutated_inputs_exit_cleanly(tmp_path, capsys):
    rng = random.Random(20261020)
    originals = [json.loads(path.read_text()) for path in SOURCES]
    codes = set()
    for k in range(INPUTS):
        doc = copy.deepcopy(rng.choice(originals))
        for _ in range(rng.randint(1, 3)):
            _mutate(doc, rng)
        path = tmp_path / f"input{k}.json"
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            code = cli.run([command, str(path), "--output", "json"])
            out, err = capsys.readouterr()
            where = f"{command} on {json.dumps(doc)[:300]}"
            assert code in (0, 1, 2), where
            assert code != 1 or command == "verify", where
            assert "Traceback" not in out + err, where
            if code == 1:
                assert not err and json.loads(out)["exact"] is False, where
            if code == 2:
                assert err.count("\n") == 1 and err.startswith("mgres: "), where
            codes.add(code)
    assert {0, 2} <= codes
