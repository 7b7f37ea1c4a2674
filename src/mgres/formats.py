"""JSON file formats and text rendering.

Two file kinds exist: morphism files (conventionally ``.mmor``) and
complex files.  Both are JSON with coefficients serialized as strings so
that exactness survives any JSON implementation, and both are written
canonically (sorted keys, two-space indent, trailing newline), which makes
parse -> serialize -> parse the identity byte for byte.

Complex files redundantly store the shift of every entry; on load it must
be the forced one, and no nonzero entry's may be negative.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import degrees as deg
from .errors import FormatError
from .fields import field_by_name
from .linalg import Matrix
from .morphism import Morphism, check_var_names
from .relabel import RelabelMap
from .systems import GradedComplex

FORMAT_VERSION = 1


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def load_json(path) -> object:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeError) as exc:  # also a file that is not UTF-8
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _require(d: dict, key: str, kind: str):
    if not isinstance(d, dict) or key not in d:
        raise FormatError(f"{kind} file is missing the '{key}' field")
    return d[key]


def _record_list(v, what: str) -> list:
    if not isinstance(v, list):
        raise FormatError(f"expected a list of {what}, got {type(v).__name__}")
    for rec in v:
        if not isinstance(rec, dict):
            raise FormatError(f"bad {what} record {rec!r}")
    return v


def _is_int(v) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _int_list(v) -> list[int]:
    if not isinstance(v, list) or not all(_is_int(c) for c in v):
        raise FormatError(f"expected a list of integers, got {v!r}")
    return v


def _field_and_n(d, kind: str):
    """The field and the variable count read off a morphism or complex file."""
    if not isinstance(d, dict):
        raise FormatError(f"{kind} file must be a JSON object")
    field = field_by_name(str(_require(d, "field", kind)))
    n = _require(d, "n", kind)
    if not _is_int(n) or n < 1:
        raise FormatError(f"bad variable count {n!r}")
    return field, n


def _coeff(field, rec: dict):
    """The record's coefficient, which must be a JSON string."""
    c = rec.get("coeff")
    if not isinstance(c, str):
        raise FormatError(f"record {repr(rec)[:80]} needs a string 'coeff'")
    return field.parse(c)


# ---------------------------------------------------------------- morphisms

def morphism_from_dict(d: dict, allow_zero_columns: bool = False) -> Morphism:
    field, n = _field_and_n(d, "morphism")
    vars_ = check_var_names(_require(d, "vars", "morphism"), n)
    raw_sources = _require(d, "source_degrees", "morphism")
    raw_targets = _require(d, "target_degrees", "morphism")
    if not isinstance(raw_sources, list) or not isinstance(raw_targets, list):
        raise FormatError("degree lists must be JSON arrays")
    sources = [_int_list(v) for v in raw_sources]
    targets = [_int_list(v) for v in raw_targets]
    entries = {}
    for rec in _record_list(_require(d, "entries", "morphism"), "entry"):
        i, j = rec.get("row"), rec.get("col")
        if not _is_int(i) or not _is_int(j):
            raise FormatError(f"entry record {rec!r} needs integer 'row' and 'col'")
        if (i, j) in entries:
            raise FormatError(f"duplicate entry at ({i}, {j})")
        entries[(i, j)] = _coeff(field, rec)
    phi = Morphism(n, field, sources, targets, entries, var_names=vars_)
    return phi.validate(allow_zero_columns=allow_zero_columns)


def morphism_to_dict(phi: Morphism) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "field": phi.field.name,
        "n": phi.n,
        "vars": list(phi.var_names),
        "source_degrees": [list(d) for d in phi.source_degrees],
        "target_degrees": [list(d) for d in phi.target_degrees],
        "entries": [
            {"row": i, "col": j, "coeff": phi.field.format(v)}
            for (i, j), v in sorted(phi.entries.items())
        ],
    }


def load_morphism(path, allow_zero_columns: bool = False) -> Morphism:
    return morphism_from_dict(load_json(path), allow_zero_columns=allow_zero_columns)


# ---------------------------------------------------------------- complexes

def complex_to_dict(x: GradedComplex) -> dict:
    diffs = [
        [
            {
                "row": row + 1,
                "col": col + 1,
                "coeff": x.field.format(v),
                "shift": list(x.shift(i, row, col)),
            }
            for row, entries in enumerate(d.nonzero_rows())
            for col, v in entries.items()
        ]
        for i, d in enumerate(x.diffs)
    ]
    return {
        "format_version": FORMAT_VERSION,
        "field": x.field.name,
        "n": x.n,
        "vars": list(x.var_names) if x.var_names else [f"x{i+1}" for i in range(x.n)],
        "levels": [
            [{"degree": list(d), "label": label} for d, label in zip(level, labels)]
            for level, labels in zip(x.levels, x.labels)
        ],
        "differentials": diffs,
    }


def complex_from_dict(d: dict) -> GradedComplex:
    field, n = _field_and_n(d, "complex")
    vars_ = check_var_names(d["vars"], n) if "vars" in d else None
    raw_levels = _require(d, "levels", "complex")
    if not isinstance(raw_levels, list):
        raise FormatError("'levels' must be a JSON array")
    levels, labels = [], []
    for level in raw_levels:
        degrees, names = [], []
        for rec in _record_list(level, "generator"):
            degrees.append(deg.as_degree(_int_list(_require(rec, "degree", "complex")), n))
            names.append(rec.get("label", ""))
            if not isinstance(names[-1], str):
                raise FormatError(f"generator record {repr(rec)[:80]} needs a string 'label'")
        levels.append(degrees)
        labels.append(names)
    raw_diffs = _require(d, "differentials", "complex")
    if not isinstance(raw_diffs, list) or len(raw_diffs) != max(len(levels) - 1, 0):
        raise FormatError("differential count does not match level count")
    diffs = []
    for i, raw_recs in enumerate(raw_diffs):
        recs = _record_list(raw_recs, "differential entry")
        rows, cols = len(levels[i]), len(levels[i + 1])
        data = [{} for _ in range(rows)]
        seen = set()
        for rec in recs:
            row, col = rec.get("row"), rec.get("col")
            if not (_is_int(row) and 1 <= row <= rows):
                raise FormatError(f"bad row index in differential {i + 1}: {rec!r}")
            if not (_is_int(col) and 1 <= col <= cols):
                raise FormatError(f"bad col index in differential {i + 1}: {rec!r}")
            if (row, col) in seen:
                raise FormatError(
                    f"duplicate entry ({row}, {col}) in differential {i + 1}"
                )
            seen.add((row, col))
            coeff = _coeff(field, rec)
            shift = deg.sub(levels[i + 1][col - 1], levels[i][row - 1])
            declared = tuple(_int_list(_require(rec, "shift", "complex")))
            if declared != shift:
                raise FormatError(
                    f"entry ({row}, {col}) of differential {i + 1} declares shift "
                    f"{declared} but the degrees force {shift}"
                )
            if coeff:
                data[row - 1][col - 1] = coeff
        diffs.append(Matrix.from_nonzero_rows(field, cols, data))
    x = GradedComplex(field, n, levels, diffs, labels, var_names=vars_)
    if (bad := x.homogeneity_violation()) is not None:
        i, row, col = (k + 1 for k in bad)  # 1-based
        raise FormatError(f"entry ({row}, {col}) of differential {i} has negative shift")
    return x


def load_complex(path) -> GradedComplex:
    return complex_from_dict(load_json(path))


def is_complex_dict(d) -> bool:
    return isinstance(d, dict) and "levels" in d


# ------------------------------------------------------------- relabel maps

def relabel_map_from_obj(obj) -> RelabelMap:
    if not isinstance(obj, list):
        raise FormatError("relabel map must be a list of {from, to} pairs")
    pairs = []
    for rec in obj:
        if not isinstance(rec, dict) or "from" not in rec or "to" not in rec:
            raise FormatError(f"bad relabel pair {rec!r}")
        pairs.append((tuple(_int_list(rec["from"])), tuple(_int_list(rec["to"]))))
    return RelabelMap(pairs)


def load_relabel_map(path) -> RelabelMap:
    return relabel_map_from_obj(load_json(path))


# ------------------------------------------------------------ text display

def monomial_text(shift, var_names) -> str:
    parts = []
    for v, p in zip(var_names, shift):
        if p == 1:
            parts.append(v)
        elif p > 1:
            parts.append(f"{v}^{p}")
    return "".join(parts)


def entry_text(field, coeff, shift, var_names) -> str:
    """Paper-style display: coefficient times monomial, 1 suppressed."""
    if not coeff:
        return "0"
    mono = monomial_text(shift, var_names)
    cs = field.format(coeff)
    if not mono:
        return cs
    if cs == "1":
        return mono
    if cs == "-1":
        return "-" + mono
    if "/" in cs:
        cs = f"({cs})"
    return cs + mono


def matrix_text(x: GradedComplex, diff_index: int) -> str:
    """One differential as an aligned block of monomial entries; the shift
    and ``entry_text`` are taken only for nonzero entries, a zero is "0"."""
    var_names = x.var_names or tuple(f"x{i+1}" for i in range(x.n))
    d = x.diffs[diff_index]
    cells, widths = [], [1] * d.cols
    for row, entries in enumerate(d.nonzero_rows()):
        cells.append(["0"] * d.cols)
        for col, v in entries.items():
            text = entry_text(x.field, v, x.shift(diff_index, row, col), var_names)
            cells[row][col] = text
            widths[col] = max(widths[col], len(text))
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    )


def complex_text(x: GradedComplex) -> str:
    lines = [f"ranks: {' '.join(str(r) for r in x.ranks())}"]
    for i, level in enumerate(x.levels):
        degs = " ".join("(" + ",".join(map(str, d)) + ")" for d in level)
        lines.append(f"level {i}: {degs}")
    for i in range(len(x.diffs)):
        lines.append(f"differential {i + 1} (level {i + 1} -> level {i}):")
        lines.append(matrix_text(x, i))
    return "\n".join(lines)
