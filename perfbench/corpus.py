"""Seeded input corpora for the benchmark workloads.

Everything here is plain data drawn from ``random.Random``: a corpus item
carries a morphism spec in the ``.mmor`` JSON layout plus the shape it was
drawn for.  Nothing in this module imports mgres, so one seed yields
byte-identical morphism files whatever the state of the package under
test.  Shape counts are fixed, so every seed has the same mix and only the
degrees and coefficients change.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

P = 32003
FIELD_TAGS = {"Q": "Q", "GFp": f"GF({P})"}
VARS = ["x", "y", "z"]


@dataclass(frozen=True)
class Item:
    """One corpus entry: a morphism spec and the shape it was drawn for."""

    name: str
    field: str      # "Q" or "GFp"
    g: int
    e: int
    spec: dict      # .mmor layout, coefficients as decimal strings
    kind: str       # "plain", "clone", "monomial" or "generic"
    large: bool = False

    @property
    def shape(self) -> tuple:
        return (self.field, self.g, self.e)


def mmor_spec(field_key: str, sources, coeffs) -> dict:
    """A morphism spec with every target degree 0; zero coefficients dropped."""
    p = P if field_key == "GFp" else None
    entries = [
        {"row": i + 1, "col": j + 1, "coeff": str(c % p if p else c)}
        for i, row in enumerate(coeffs)
        for j, c in enumerate(row)
        if (c % p if p else c)
    ]
    return {
        "field": FIELD_TAGS[field_key],
        "n": 3,
        "vars": list(VARS),
        "source_degrees": [list(d) for d in sources],
        "target_degrees": [[0, 0, 0] for _ in coeffs],
        "entries": entries,
    }


def dumps(spec: dict) -> str:
    """The bytes of a spec as written to a ``.mmor`` file."""
    return json.dumps(spec, sort_keys=True, indent=2) + "\n"


def _det(rows) -> int:
    """Determinant by cofactor expansion (the matrices here are at most 3x3)."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


def _random_coeffs(rng, g, e):
    """Coefficients uniform in [-5, 5], redrawing any all-zero column."""
    cols = []
    while len(cols) < e:
        col = [rng.randint(-5, 5) for _ in range(g)]
        if any(col):
            cols.append(col)
    return [[col[i] for col in cols] for i in range(g)]


def taylor_draw(rng, g: int, e: int, kind: str):
    """Degrees and integer coefficients for one Taylor-workload morphism.

    ``plain`` draws degrees in [0,6]^3 and coefficients in [-5,5];
    ``monomial`` is a monomial ideal (g = 1, all coefficients 1) with
    degrees in [0,8]^3, whose Taylor complex is always exact.  ``clone``
    (g = 2) copies one coefficient column onto another and redraws the
    degrees until no third column lies below the join of the pair: the
    restriction to that join then has rank 1 < 2, so the complex is not
    exact.
    """
    if kind == "monomial":
        return [tuple(rng.randint(0, 8) for _ in range(3)) for _ in range(e)], [[1] * e]
    coeffs = _random_coeffs(rng, g, e)
    if kind == "plain":
        return [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(e)], coeffs
    while not any(_det([[row[i], row[j]] for row in coeffs])
                  for i, j in itertools.combinations(range(e), 2)):
        coeffs = _random_coeffs(rng, g, e)
    src, dst = rng.sample(range(e), 2)
    for row in coeffs:
        row[dst] = row[src]
    while True:
        sources = [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(e)]
        top = tuple(map(max, sources[src], sources[dst]))
        if not any(all(c <= t for c, t in zip(sources[k], top))
                   for k in range(e) if k not in (src, dst)):
            return sources, coeffs


def generic_draw(rng, g: int, e: int, field_key: str):
    """Incomparable, coordinatewise-distinct degrees; uniform-rank coefficients.

    The first coordinate increases and the second decreases across columns,
    so no two degrees are comparable; each coordinate takes e distinct
    positive values, which makes the morphism combinatorially generic.
    Coefficient columns in {-3..4} without 0 are drawn one at a time and
    redrawn until every g x g minor they complete is nonzero in the target
    field, which keeps the number of redraws (set-up time) small and steady.
    """
    first = sorted(rng.sample(range(1, 4 * e), e))
    second = sorted(rng.sample(range(1, 4 * e), e), reverse=True)
    third = rng.sample(range(1, 4 * e), e)
    p = P if field_key == "GFp" else None
    values = [v for v in range(-3, 5) if v]
    cols: list[list[int]] = []
    tries = 0
    while len(cols) < e:
        tries += 1
        if tries > 100:  # the columns drawn so far admit no (or few) more: start over
            cols, tries = [], 0
        col = [rng.choice(values) for _ in range(g)]
        minors = (_det([[c[i] for c in (*rest, col)] for i in range(g)])
                  for rest in itertools.combinations(cols, g - 1))
        if all(d % p if p else d for d in minors):
            cols.append(col)
            tries = 0
    return list(zip(first, second, third)), [[c[i] for c in cols] for i in range(g)]


def _item(name, field_key, g, e, sources, coeffs, kind, large=False) -> Item:
    return Item(name, field_key, g, e, mmor_spec(field_key, sources, coeffs), kind, large)


# (count, g, e, kind).  Large class: g = 2, e = 8, plain.
TAYLOR_SHAPES = [
    (2, 2, 6, "plain"),
    (1, 2, 6, "clone"),
    (1, 2, 7, "plain"),
    (2, 2, 7, "clone"),
    (6, 2, 8, "plain"),
    (2, 3, 6, "plain"),
    (1, 3, 7, "plain"),
    (1, 1, 7, "monomial"),
    (1, 1, 8, "monomial"),
    (1, 1, 9, "monomial"),
]


def taylor_corpus(seed: int, field_key: str) -> list[Item]:
    """The taylor-q / taylor-gfp corpus; both fields share every draw."""
    rng = random.Random(f"taylor:{seed}")
    return [
        _item(f"{kind}-g{g}-e{e}-{k}", field_key, g, e, *taylor_draw(rng, g, e, kind),
              kind, large=(g, e, kind) == (2, 8, "plain"))
        for count, g, e, kind in TAYLOR_SHAPES
        for k in range(count)
    ]


# (count, field, g, e).  Large class: GF(p), g = 2, e = 8.
MINIMIZE_SHAPES = [
    (1, "Q", 1, 6),
    (1, "Q", 2, 6),
    (1, "Q", 3, 6),
    (1, "Q", 1, 7),
    (1, "Q", 2, 7),
    (1, "Q", 3, 7),
    (1, "GFp", 1, 7),
    (1, "GFp", 2, 7),
    (1, "GFp", 3, 7),
    (1, "GFp", 1, 8),
    (6, "GFp", 2, 8),
]


def minimize_corpus(seed: int) -> list[Item]:
    rng = random.Random(f"minimize:{seed}")
    return [
        _item(f"generic-{fk}-g{g}-e{e}-{k}", fk, g, e, *generic_draw(rng, g, e, fk),
              "generic", large=(fk, g, e) == ("GFp", 2, 8))
        for count, fk, g, e in MINIMIZE_SHAPES
        for k in range(count)
    ]


# Wide generic morphisms for `scarf` and `analyze`: (count, field, g, e).
CLI_WIDE_SHAPES = [
    (3, "Q", 2, 14),
    (2, "GFp", 2, 14),
    (2, "Q", 3, 12),
    (2, "GFp", 3, 11),
    (1, "GFp", 2, 12),
]
# Morphisms for `taylor`, then `verify` and `minimize` on the complex file:
# (field, g, e, kind).
CLI_TAYLOR_SHAPES = [
    ("Q", 2, 6, "plain"),
    ("Q", 2, 7, "clone"),
    ("GFp", 2, 7, "plain"),
]


def cli_corpus(seed: int) -> tuple[list[Item], list[Item]]:
    """(wide generic morphisms, Taylor-pipeline morphisms) for cli-files."""
    rng = random.Random(f"cli:{seed}")
    wide = [
        _item(f"wide-{fk}-g{g}-e{e}-{k}", fk, g, e, *generic_draw(rng, g, e, fk),
              "generic", large=(g, e) == (2, 14))
        for count, fk, g, e in CLI_WIDE_SHAPES
        for k in range(count)
    ]
    taylor = [
        _item(f"taylor-{fk}-g{g}-e{e}-{kind}", fk, g, e, *taylor_draw(rng, g, e, kind), kind)
        for fk, g, e, kind in CLI_TAYLOR_SHAPES
    ]
    return wide, taylor
