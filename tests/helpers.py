"""Shared fixtures: worked examples, random samplers, independent oracles.

The random samplers below are deliberately crude: they draw degree layouts
and coefficient fills from small ranges, mixing healthy instances with
engineered degenerate ones (zero columns, cloned columns), because the
property suites need both sides of every equivalence.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from mgres import (
    QQ,
    FaceSystem,
    GradedComplex,
    Matrix,
    Morphism,
    PrimeField,
    Subspace,
    divided_basis,
    divided_dim,
    divided_embed,
    exterior_basis,
    full_system,
    join,
    join_all,
    join_closure,
    kernel_basis,
    lcm_lattice,
    leq,
    sub,
)
from mgres.degrees import DegreeIndex, bits
from mgres.formats import entry_text
from mgres.errors import DimensionError, RestrictionError
from mgres.linalg import _clear, _columns, _normalize, _reduce
from mgres.multilinear import _raised_index
from mgres.verify import (
    ExactnessReport,
    check_d2,
    homology_dims,
    is_minimal,
    level_indexes,
    minimize,
    strand,
    strand_degrees,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def xy_example() -> Morphism:
    """Four columns over k[x, y]: coefficient rows (1,1,1,1) and (1,2,3,0)."""
    entries = {}
    for j, c in enumerate([1, 1, 1, 1], start=1):
        entries[(1, j)] = QQ.of(c)
    for j, c in enumerate([1, 2, 3, 0], start=1):
        if c:
            entries[(2, j)] = QQ.of(c)
    return Morphism(
        2,
        QQ,
        [(3, 0), (2, 1), (1, 2), (0, 3)],
        [(0, 0), (1, 0)],
        entries,
        var_names=("x", "y"),
    ).validate()


def uvw_example() -> Morphism:
    """The same coefficients relabeled into k[u, v, w]."""
    entries = {}
    for j, c in enumerate([1, 1, 1, 1], start=1):
        entries[(1, j)] = QQ.of(c)
    for j, c in enumerate([1, 2, 3, 0], start=1):
        if c:
            entries[(2, j)] = QQ.of(c)
    return Morphism(
        3,
        QQ,
        [(2, 1, 0), (1, 1, 1), (2, 0, 1), (1, 0, 2)],
        [(0, 0, 0), (1, 0, 0)],
        entries,
        var_names=("u", "v", "w"),
    ).validate()


def wide_generic_morphism(e: int) -> Morphism:
    """A generic morphism with e columns over k[x, y, z], g = 2: pairwise
    incomparable degrees with distinct values per coordinate, coefficient
    columns (1, k)."""
    rng = random.Random(e)
    first = sorted(rng.sample(range(1, 4 * e), e))
    second = sorted(rng.sample(range(1, 4 * e), e), reverse=True)
    third = rng.sample(range(1, 4 * e), e)
    entries = {(1, k): QQ.one for k in range(1, e + 1)}
    entries.update({(2, k): QQ.of(k) for k in range(1, e + 1)})
    return Morphism(3, QQ, list(zip(first, second, third)), [(0, 0, 0)] * 2, entries).validate()


def tall_morphism() -> Morphism:
    """g = 19, e = 21, rank 19 over k[x, y]: identity columns, then (1, ..., 1)
    and (1, ..., 19).  Its Taylor complex has ranks (19, 21, 21, 19)."""
    g, e = 19, 21
    entries = {(i, i): QQ.one for i in range(1, g + 1)}
    entries.update({(i, g + 1): QQ.one for i in range(1, g + 1)})
    entries.update({(i, g + 2): QQ.of(i) for i in range(1, g + 1)})
    return Morphism(2, QQ, [(j, e - j) for j in range(1, e + 1)], [(0, 0)] * g, entries).validate()


def monomial_ideal_morphism(monomials, field=QQ) -> Morphism:
    """Presentation of a quotient by a monomial ideal: one row of ones."""
    n = len(monomials[0])
    entries = {(1, j): field.one for j in range(1, len(monomials) + 1)}
    return Morphism(n, field, list(monomials), [(0,) * n], entries).validate()


# The 6-vertex real projective plane: its facets, and the 10 squarefree
# cubics in 6 variables that are not facets, which generate its
# Stanley-Reisner ideal (every edge is a face).
RP2_FACETS = ("123", "134", "145", "156", "126", "235", "346", "245", "356", "246")


def rp2_stanley_reisner(field=QQ) -> Morphism:
    """The Stanley-Reisner ideal of the 6-vertex RP^2 over field.  Its Betti
    numbers depend on the characteristic (Hochster's formula: the reduced
    homology of RP^2 is nonzero only in characteristic 2)."""
    facets = {frozenset(map(int, f)) for f in RP2_FACETS}
    cubics = [t for t in itertools.combinations(range(1, 7), 3) if frozenset(t) not in facets]
    return monomial_ideal_morphism([tuple(int(v in t) for v in range(1, 7)) for t in cubics], field)


def brute_minor_rank(m: Matrix) -> int:
    """Largest k with a nonvanishing k x k minor (independent rank oracle)."""
    zero = m.field.zero
    for k in range(min(m.rows, m.cols), 0, -1):
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                if m.submatrix(rows, cols).det() != zero:
                    return k
    return 0


def rank_walk_uniform_rank(phi: Morphism) -> bool:
    """Oracle for ``Morphism.is_uniform_rank``, by its definition: every
    r-element column subset of C has rank r, one rank test each."""
    cd, rows = phi.coeff_data, range(phi.g)
    return all(cd.matrix.submatrix(rows, cols).rank() == cd.r
               for cols in itertools.combinations(range(phi.e), cd.r))


def coefficient_rank_walk(phi: Morphism):
    """Oracle for ``Morphism.is_maximal_rank_everywhere``, on C itself: the
    rank of the g-row submatrix C_a at every lattice degree in sorted
    order, none skipped.  (True, None), or (False, the first failing degree)."""
    cd = phi.coeff_data
    for a, cols in lattice_columns(phi).items():
        sub = cd.matrix.submatrix(range(phi.g), [j - 1 for j in sorted(cols)])
        if sub.rank() != min(cd.r, len(cols)):
            return False, a
    return True, None


def coefficient_kernels_agree(phi: Morphism, phi2: Morphism, correspondence) -> bool:
    """Oracle for ``relabel.check_quasi_equivalent``, on C itself: the
    kernel of C against that of C' with its columns in correspondence order."""
    c1, c2 = phi.coeff_data.matrix, phi2.coeff_data.matrix
    permuted = c2.submatrix(range(c2.rows), [c - 1 for c in correspondence])
    return kernel_basis(c1) == kernel_basis(permuted)


def classical_taylor(monomials, field=QQ) -> GradedComplex:
    """Brute-force Taylor resolution of a monomial ideal (the g = 1 oracle).

    Level i holds the i-subsets of the generators with their lcm degrees;
    the boundary drops one generator at a time with alternating signs.
    """
    e = len(monomials)
    n = len(monomials[0])
    zero, one = field.zero, field.one

    def lcm(face):
        out = (0,) * n
        for i in face:
            out = tuple(max(a, b) for a, b in zip(out, monomials[i - 1]))
        return out

    levels, labels = [[(0,) * n]], [["g1"]]
    faces_per_level = [[()]]
    for size in range(1, e + 1):
        faces = list(itertools.combinations(range(1, e + 1), size))
        faces_per_level.append(faces)
        levels.append([lcm(f) for f in faces])
        labels.append(["{" + ",".join(map(str, f)) + "}" for f in faces])
    diffs = []
    for size in range(1, e + 1):
        dom = faces_per_level[size]
        cod = faces_per_level[size - 1]
        cod_index = {f: i for i, f in enumerate(cod)}
        data = [[zero] * len(dom) for _ in cod]
        for col, face in enumerate(dom):
            for pos in range(size):
                sub = face[:pos] + face[pos + 1 :]
                data[cod_index[sub]][col] = one if pos % 2 == 0 else -one
        diffs.append(Matrix(field, len(cod), len(dom), data))
    return GradedComplex(field, n, levels, diffs, labels)


def matches_classical_taylor(x: GradedComplex, oracle: GradedComplex) -> bool:
    """Entrywise match with the textbook construction.

    The splice boundary attaches its sign to the removed column, the
    textbook boundary to the remaining face; on 2-element faces that is a
    global negation (negate every generator past the presentation), and
    the higher boundaries agree on the nose.
    """
    if x.ranks() != oracle.ranks():
        return False
    for i in range(len(x.levels)):
        if x.level_degrees(i) != oracle.level_degrees(i):
            return False
    if x.diffs[0] != oracle.diffs[0]:
        return False
    if len(x.diffs) > 1:
        negated = [[-v for v in row] for row in oracle.diffs[1].data]
        if [list(r) for r in x.diffs[1].data] != negated:
            return False
    return all(x.diffs[i] == oracle.diffs[i] for i in range(2, len(x.diffs)))


def random_morphism(rng: random.Random) -> Morphism:
    """Mixed sampler for the acyclicity equivalence suite.

    Roughly: a third dense and healthy, a third sparse and random, a third
    sabotaged (zero column or a cloned coefficient column at an
    incomparable degree).
    """
    n = rng.randint(1, 4)
    e = rng.randint(2, 6)
    g = rng.randint(1, 3)
    sources = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(e)]
    targets = [(0,) * n]
    for _ in range(g - 1):
        if rng.random() < 0.5:
            targets.append((0,) * n)
        else:
            base = rng.choice(sources)
            targets.append(tuple(rng.randint(0, c) for c in base))
    mode = rng.random()
    entries = {}
    for i, t in enumerate(targets, start=1):
        for j, s in enumerate(sources, start=1):
            if any(a < b for a, b in zip(s, t)):
                continue
            if mode < 0.35:
                c = rng.randint(1, 4)
            else:
                c = rng.choice([0, 0, 1, -1, 2, -2, 3])
            if c:
                entries[(i, j)] = QQ.of(c)
    if mode >= 0.65:
        if rng.random() < 0.5 and e >= 2:
            victim = rng.randint(1, e)
            entries = {(i, j): v for (i, j), v in entries.items() if j != victim}
        else:
            src = rng.randint(1, e)
            dst = rng.randint(1, e)
            scale = QQ.of(rng.choice([1, 2, -1]))
            entries = {(i, j): v for (i, j), v in entries.items() if j != dst}
            for i in range(1, g + 1):
                v = entries.get((i, src))
                if v is not None and all(
                    a >= b for a, b in zip(sources[dst - 1], targets[i - 1])
                ):
                    entries[(i, dst)] = v * scale
    return Morphism(n, QQ, sources, targets, entries).validate(allow_zero_columns=True)


def random_generic_minimal(rng: random.Random) -> Morphism:
    """A minimal generic morphism: incomparable degrees, clashing nowhere.

    Per coordinate the nonzero values across columns are pairwise distinct,
    which forces combinatorial genericity; the first coordinate increases
    while the second decreases, which forces pairwise incomparability.
    Dense nonzero coefficients are resampled until every r columns are
    independent.
    """
    n = rng.randint(2, 4)
    e = rng.randint(3, 6)
    g = rng.randint(1, 3)
    first = sorted(rng.sample(range(1, 4 * e), e))
    second = sorted(rng.sample(range(1, 4 * e), e), reverse=True)
    columns = [[first[i], second[i]] for i in range(e)]
    for _ in range(n - 2):
        values = rng.sample(range(1, 4 * e), e)
        for i in range(e):
            columns[i].append(values[i] if rng.random() < 0.7 else 0)
    sources = [tuple(col) for col in columns]
    targets = [(0,) * n] * g
    while True:
        entries = {
            (i, j): QQ.of(rng.choice([-3, -2, -1, 1, 2, 3, 4]))
            for i in range(1, g + 1)
            for j in range(1, e + 1)
        }
        phi = Morphism(n, QQ, sources, targets, entries).validate()
        if phi.is_uniform_rank():
            assert phi.is_combinatorially_generic()
            return phi


def random_coeff_matrix(rng: random.Random, g: int, e: int) -> Matrix:
    rows = [
        [QQ.of(rng.choice([0, 0, 1, -1, 2, -2, 3])) for _ in range(e)]
        for _ in range(g)
    ]
    return Matrix(QQ, g, e, rows)


def enlarged_subspace(rng: random.Random, base: Subspace) -> Subspace:
    """A subspace strictly between base and the full ambient space, if any."""
    if base.dim == base.ambient_dim:
        return base
    rows = [list(r) for r in base.basis.data]
    while True:
        rows.append([QQ.of(rng.randint(-2, 2)) for _ in range(base.ambient_dim)])
        bigger = Subspace.from_rows(QQ, base.ambient_dim, rows)
        if bigger.dim > base.dim:
            return bigger


def mod_p(phi: Morphism, p: int = 32003) -> Morphism:
    """The same morphism with its rational coefficients reduced mod p."""
    gf = PrimeField(p)
    entries = {
        k: gf.of(v.numerator) / gf.of(v.denominator) for k, v in phi.entries.items()
    }
    return Morphism(
        phi.n, gf, phi.source_degrees, phi.target_degrees, entries, phi.var_names
    ).validate(allow_zero_columns=True)


def _first_unit(levels, diffs, zero):
    """The first nonzero entry with zero shift, as
    (differential index, row, column), or None."""
    for di, rows in enumerate(diffs):
        for p, row in enumerate(rows):
            for q, v in enumerate(row):
                if v != zero and levels[di + 1][q] == levels[di][p]:
                    return (di, p, q)
    return None


def rescan_minimize(x: GradedComplex) -> GradedComplex:
    """Slow-path oracle for ``minimize``: dense unit-entry cancellation that
    rescans every differential from the start after each cancellation and
    rebuilds the whole differential it cancelled in.

    Cancelling entry (p, q) of d splits off the trivial summand spanned by
    generator q upstairs and d(q) downstairs; the remaining entries pick up
    the usual correction -d[p', q] * u^{-1} * d[p, q'], the next
    differential loses row q, and the previous one loses column p.
    """
    field = x.field
    zero = field.zero
    one = field.one
    levels = [list(level) for level in x.levels]
    labels = [list(level) for level in x.labels]
    diffs = [[list(row) for row in d.data] for d in x.diffs]
    while True:
        hit = _first_unit(levels, diffs, zero)
        if hit is None:
            break
        di, p, q = hit
        u = diffs[di][p][q]
        uinv = one / u
        rows = diffs[di]
        colq = [rows[pp][q] for pp in range(len(rows))]
        rowp = rows[p]
        diffs[di] = [
            [
                rows[pp][qq] - colq[pp] * uinv * rowp[qq]
                for qq in range(len(rowp))
                if qq != q
            ]
            for pp in range(len(rows))
            if pp != p
        ]
        if di + 1 < len(diffs):
            del diffs[di + 1][q]
        if di >= 1:
            for row in diffs[di - 1]:
                del row[p]
        del levels[di + 1][q], labels[di + 1][q]
        del levels[di][p], labels[di][p]
    while len(levels) > 1 and not levels[-1]:
        levels.pop()
        labels.pop()
        diffs.pop()
    return GradedComplex(
        field,
        x.n,
        levels,
        [
            Matrix(field, len(levels[i]), len(levels[i + 1]), diffs[i])
            for i in range(len(diffs))
        ],
        labels,
        var_names=x.var_names,
    )


def block_part(m: Matrix, row_idx, row_keys, col_keys) -> Matrix:
    """The rows row_idx of m with only their entries (i, j) where
    row_keys[i] == col_keys[j]: the diagonal blocks when rows and columns
    are grouped by key."""
    p, out = m.field.characteristic, []
    for i in row_idx:
        row, s = m._rows[i]
        key = row_keys[i]
        row = {j: x for j, x in row.items() if col_keys[j] == key}
        out.append(_reduce(row, s, p) if row else ({}, 1))
    return Matrix._coded(m.field, m.cols, out)


def matrix_cancel(m: Matrix, rows, pivot) -> tuple[Matrix, list[tuple[int, int]]]:
    """One right-looking forward pass over the given rows of m, on codes:
    ``pivot(i, cols)`` names one of row i's current nonzero columns or
    None; a pivot row is dropped and clears its column in every other given
    row.  Returns the rows left, in order and with all columns, and the
    (row, column) pivots taken."""
    p = m.field.characteristic
    coded, scales = [dict(m._rows[i][0]) for i in rows], [m._rows[i][1] for i in rows]
    # per column, the rows nonzero there and some no longer (checked on use)
    where = [set(col) for col in _columns(coded, m.cols)]
    pairs = []
    for k, i in enumerate(rows):
        q = pivot(i, coded[k].keys())
        if q is None:
            continue
        pairs.append((i, q))
        prow, coded[k] = coded[k], None  # dropped
        _normalize(prow, q, p)
        for r in list(where[q]):
            if coded[r] is not None and q in coded[r]:
                scales[r] *= _clear(coded[r], prow, q, p)
                for j in prow:
                    where[j].add(r)
    left = [(dict(sorted(r.items())), s) for r, s in zip(coded, scales) if r is not None]
    return Matrix._coded(m.field, m.cols, [_reduce(r, s, p) for r, s in left]), pairs


def cancel_minimize(x: GradedComplex) -> GradedComplex:
    """Oracle for ``minimize``: the same pivots taken right-looking.  A
    first pass of ``matrix_cancel`` over the zero-shift part of each
    differential's live rows (``block_part`` by degree), each row pivoting
    at its first nonzero column, picks the pivots; a second pass of
    ``matrix_cancel`` with those pivots over each differential, cut to its
    pivot and kept columns, leaves the kept rows."""
    if not x.diffs:
        return x
    levels, taken = x.levels, []  # per differential, its live rows and pivots
    ids = {a: k for k, a in enumerate(set().union(*levels))}
    keys = [[ids[a] for a in level] for level in levels]  # degrees as ints
    dead = set()  # generators of the current level cancelled as columns
    for d, src, dst in zip(x.diffs, keys, keys[1:]):
        rows = [p for p in range(d.rows) if p not in dead]
        block = block_part(d, rows, src, dst)
        _, pairs = matrix_cancel(block, range(len(rows)), lambda k, cols: min(cols, default=None))
        taken.append((rows, {rows[k]: q for k, q in pairs}))
        dead = set(taken[-1][1].values())
    keep = [[p for p in rows if p not in chosen] for rows, chosen in taken]
    keep.append([q for q in range(len(levels[-1])) if q not in dead])
    while len(keep) > 1 and not keep[-1]:
        keep.pop()
    diffs = []
    for d, (rows, chosen), kept in zip(x.diffs, taken, keep[1:]):
        cols = sorted(set(chosen.values()).union(kept))
        at = {c: k for k, c in enumerate(cols)}
        pivots = [at[chosen[p]] if p in chosen else None for p in rows]
        m, _ = matrix_cancel(d.submatrix(rows, cols), range(len(rows)), lambda k, _: pivots[k])
        diffs.append(m.submatrix(range(m.rows), [at[q] for q in kept]))
    degrees = [[levels[i][j] for j in js] for i, js in enumerate(keep)]
    labels = [[x.labels[i][j] for j in js] for i, js in enumerate(keep)]
    return GradedComplex(x.field, x.n, degrees, diffs, labels, var_names=x.var_names)


def strandwise_is_resolution(x: GradedComplex) -> ExactnessReport:
    """Slow-path oracle for ``is_resolution``: every strand's homology taken
    on x itself, with no minimization first."""
    minimal = is_minimal(x)
    if not check_d2(x):
        return ExactnessReport(False, (), (), minimal)
    degrees = strand_degrees(x)
    failures = []
    for a in degrees:
        h = homology_dims(strand(x, a), check=False)
        failures += [(a, i, dim) for i, dim in enumerate(h) if i and dim]
    return ExactnessReport(True, tuple(degrees), tuple(failures), minimal)


def per_degree_is_resolution(x: GradedComplex) -> ExactnessReport:
    """Oracle for ``is_resolution``'s strand memo: d^2 = 0 by full products,
    then one homology per tested degree on the minimized complex, with no
    two degrees sharing a strand."""
    minimal = is_minimal(x)
    if not all(d.mul(e).is_zero() for d, e in zip(x.diffs, x.diffs[1:])):
        return ExactnessReport(False, (), (), minimal)
    degrees = strand_degrees(x)
    y = x if minimal else minimize(x)
    indexes, failures = level_indexes(y), []
    for a in degrees:
        h = homology_dims(strand(y, a, indexes), check=False)
        failures += [(a, i, dim) for i, dim in enumerate(h) if i and dim]
    return ExactnessReport(True, tuple(degrees), tuple(failures), minimal)


def k_polynomial(phi: Morphism) -> dict:
    """The K-polynomial of coker phi, degree -> nonzero coefficient, from the
    Hilbert function alone: h(b) = #{i : t_i <= b} - rank C[t_i <= b, d_j <= b]
    (two ``DegreeIndex.leq`` cuts) and K_a = sum over F of [n] of
    (-1)^|F| h(a - e_F), h = 0 off N^n, over the join closure of the target
    and source degrees, the only degrees where K can be nonzero."""
    targets, sources = DegreeIndex(phi.target_degrees), DegreeIndex(phi.source_degrees)
    c, ranks = phi.coeff_data.matrix, {}

    def h(b):
        if min(b) < 0:
            return 0
        rows, cols = targets.leq(b), sources.leq(b)
        if (rows, cols) not in ranks:
            ranks[rows, cols] = c.submatrix(list(bits(rows)), list(bits(cols))).rank()
        return bin(rows).count("1") - ranks[rows, cols]

    k = {}
    for a in join_closure({*phi.target_degrees, *phi.source_degrees}):
        k[a] = sum((-1) ** len(f) * h(tuple(v - (i in f) for i, v in enumerate(a)))
                   for size in range(phi.n + 1) for f in itertools.combinations(range(phi.n), size))
    return {a: v for a, v in k.items() if v}


def euler_characteristic(x: GradedComplex) -> dict:
    """Degree -> sum over levels i of (-1)^i times the generators of degree a
    at level i, zeros dropped: K(coker phi) when x resolves it."""
    chi = Counter()
    for i, level in enumerate(x.levels):
        for a in level:
            chi[a] += (-1) ** i
    return {a: v for a, v in chi.items() if v}


def cloned_column_draw(rng: random.Random, field=QQ) -> Morphism:
    """g = 2, n = 3, e = 3..5 over field, rank 2, column 2 a copy of column 1
    and no other column below their join: C drops rank there, so the
    Taylor complex is not exact (as the clone draws of the benchmark)."""
    e = rng.randint(3, 5)
    while True:
        cols = [[field.of(rng.choice([0, 1, -1, 2, 3])) for _ in range(2)] for _ in range(e)]
        cols[1] = cols[0]
        sources = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(e)]
        top = join(sources[0], sources[1])
        if (all(any(col) for col in cols)
                and any(a[0] * b[1] != a[1] * b[0] for a, b in itertools.combinations(cols, 2))
                and not any(leq(d, top) for d in sources[2:])):
            entries = {(i + 1, j + 1): x for j, col in enumerate(cols) for i, x in enumerate(col)}
            return Morphism(3, field, sources, [(0, 0, 0)] * 2, entries).validate()


def clustered_draw(rng: random.Random, field=QQ) -> Morphism:
    """g = 2 or 3, n = 1 or 2, e = 4..7, the columns in at most 3 shared
    degrees, most of one degree a multiple of that degree's one coefficient
    column; fractions over Q prime to 2, 7 and 32003, reduced into field.
    The columns below a lattice degree often span few directions, so Scarf
    faces get proper kernels, and whole face sizes are often missing."""
    n, g, e = rng.randint(1, 2), rng.randint(2, 3), rng.randint(4, 7)
    degrees = [tuple(rng.randint(1, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]

    def direction():
        v = [Fraction(rng.choice((0, 1, -1, 3, 5)), rng.choice((1, 3, 5, 9))) for _ in range(g)]
        return v if any(v) else [1] * g

    directions = {d: direction() for d in degrees}
    sources, entries = [], {}
    for j in range(1, e + 1):
        d = rng.choice(degrees)
        v = directions[d] if rng.random() < 0.8 else direction()
        c = Fraction(rng.choice((1, -1, 3, 5)), rng.choice((1, 3)))
        sources.append(d)
        entries.update({(i, j): QQ.of(c * x) for i, x in enumerate(v, start=1) if x})
    phi = Morphism(n, QQ, sources, [(0,) * n] * g, entries).validate()
    return phi if field == QQ else mod_p(phi, field.p)


def dense_matrix_text(x: GradedComplex, diff_index: int) -> str:
    """Oracle for ``formats.matrix_text``: ``entry_text`` and the shift taken
    at every cell of the dense rows, zeros included."""
    var_names, d = x.var_names, x.diffs[diff_index]
    cells = [
        [
            entry_text(x.field, v, x.shift(diff_index, row, col), var_names)
            for col, v in enumerate(values)
        ]
        for row, values in enumerate(d.data)
    ]
    widths = [
        max((len(cells[row][col]) for row in range(d.rows)), default=1)
        for col in range(d.cols)
    ]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    )


def check_record(cls, fields: dict, text: str, frozen: bool = True):
    """The record behaviour kept by the package's named tuples: positional
    and keyword construction, equal values equal with one hash, the repr
    text, read-only fields and, if frozen, no new attributes either."""
    a, b = cls(*fields.values()), cls(**fields)
    assert a == b and hash(a) == hash(b)
    assert tuple(getattr(a, name) for name in fields) == tuple(fields.values())
    assert repr(a) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, fields[name])
    if frozen:
        with pytest.raises(AttributeError):
            a.extra = None
    return a


def removal_sign(position: int) -> int:
    """Sign of contracting away a face entry at the given 0-based position."""
    return -1 if position % 2 else 1


def contract(uv: Matrix, face, w, m: int) -> list:
    """Slow-path boundary of w (x) e_face: one (facet, signed image in
    D_{m-1}) per position of the face, each image the signed Delta_l of
    ``signed_contractions`` applied to w, a dense vector over the basis of D_m."""
    deltas = signed_contractions(uv, m)
    return [(face[:pos] + face[pos + 1 :], mat_vec(deltas(l)[pos % 2], w))
            for pos, l in enumerate(face)]


def from_columns(field, rows: int, cols: list[list]) -> Matrix:
    """The rows x len(cols) matrix with the given dense columns."""
    return Matrix.from_rows(field, cols, rows).transpose()


def mat_vec(m: Matrix, vec: list) -> list:
    """m times the dense column vector vec, through ``Matrix.mul``."""
    return list(m.mul(Matrix.from_rows(m.field, [[v] for v in vec], 1)).col(0))


def system_contains(big, small) -> bool:
    """Entrywise containment of the subspaces two face systems assign."""
    if big.r != small.r:
        return False
    for face, emb in small.spaces.items():
        mine = big.spaces.get(face)
        if mine is None or mine.solve_matrix(emb) is None:
            return False
    return True


def fixpoint_join_closure(degrees) -> set:
    """Oracle for ``DegreeIndex.lattice``: the fixpoint of joining every
    element found against every atom (no budget).  Associativity of join
    makes it the full subset-join closure; ``join`` rejects mixed lengths."""
    atoms = [tuple(d) for d in degrees]
    closure = set(atoms)
    frontier = list(closure)
    while frontier:
        fresh = []
        for a in frontier:
            for b in atoms:
                j = join(a, b)
                if j not in closure:
                    closure.add(j)
                    fresh.append(j)
        frontier = fresh
    return closure


def support(a) -> frozenset[int]:
    """1-based indices of the nonzero coordinates of a degree or a signed
    difference of degrees."""
    return frozenset(i + 1 for i, c in enumerate(a) if c != 0)


def pairwise_combinatorially_generic(phi: Morphism) -> bool:
    """Oracle for ``Morphism.is_combinatorially_generic``, by its definition:
    for every pair of columns, the support of the difference of their degrees
    contains both degrees' supports."""
    for a, b in itertools.combinations(phi.source_degrees, 2):
        if not support(a) | support(b) <= support(sub(a, b)):
            return False
    return True


def join_preserving_walk(f, phi: Morphism, phi2: Morphism, min_size: int, correspondence=None):
    """Oracle for ``relabel.check_join_preserving``: f against the joins of
    every column subset of at least min_size, in (size, lex) order, all
    2^e of them, the empty one (no join) never.  (True, None), or (False,
    the first offending subset)."""
    corr = list(correspondence or range(1, phi.e + 1))
    for size in range(max(min_size, 1), phi.e + 1):
        for subset in itertools.combinations(range(1, phi.e + 1), size):
            src = join_all(phi.source_degrees[i - 1] for i in subset)
            dst = join_all(phi2.source_degrees[corr[i - 1] - 1] for i in subset)
            if f.apply(src) != dst:
                return False, subset
    return True, None


def solved_differentials(phi: Morphism, system) -> dict[int, Matrix]:
    """Slow-path oracle for ``build_complex`` above the splice: per face size
    p >= r + 2, the differential out of the faces of size p with every
    contracted vector solved on its facet by ``Matrix.solve``, whatever the
    facet's embedding.  Raises RestrictionError naming the first face (in
    build order) whose image does not decompose."""
    cd, field = phi.coeff_data, phi.field
    r = cd.r
    out = {}
    for p in range(r + 2, system.max_face_size() + 1):
        below, n = {}, 0
        for face in system.faces_of_size(p - 1):
            below[face] = n
            n += system.spaces[face].cols
        cols = []
        for face in system.faces_of_size(p):
            emb = system.spaces[face]
            for t in range(emb.cols):
                col = [field.zero] * n
                for sub, v in contract(cd.uv, face, emb.col(t), p - r - 1):
                    if sub not in below:
                        if any(v):
                            raise RestrictionError(face, f"image of {face} at missing facet {sub}")
                        continue
                    coords = system.spaces[sub].solve(v)
                    if coords is None:
                        raise RestrictionError(face, f"image of {face} outside facet {sub}")
                    col[below[sub] : below[sub] + len(coords)] = coords
                cols.append(col)
        out[p] = from_columns(field, n, cols)
    return out


def full_face_system(phi: Morphism) -> FaceSystem:
    """``full_system(phi)`` face by face, every face assigned the identity,
    as a ``FaceSystem``: ``build_complex`` writes it on the same level
    writer as the Taylor route, so ``per_block_complex`` is the independent
    oracle of both."""
    return FaceSystem(phi.coeff_data.r, full_system(phi).spaces)


def two_loop_scarf_system(phi: Morphism) -> FaceSystem:
    """Oracle for ``systems.scarf_system``: the Scarf faces and the closed
    non-Scarf faces as two loops over ``lcm_lattice``, full divided powers
    (the identity) on the first and kernel divided powers on the second."""
    cd = phi.coeff_data
    r = cd.r
    spaces: dict[tuple[int, ...], Matrix] = {}
    lattice = lcm_lattice(phi)
    for face in lattice.scarf_faces:
        if len(face) >= r + 1:
            spaces[face] = Matrix.identity(phi.field, divided_dim(r, len(face) - r - 1))
    for fd in lattice.nonscarf_data:
        face = tuple(sorted(fd.i_a))
        if len(face) >= r + 1:
            spaces[face] = divided_embed(phi.k_space(fd.i_upper_a), len(face) - r - 1)
    return FaceSystem(r, spaces)


def lattice_columns(phi: Morphism) -> dict:
    """``phi.degree_index.lattice()`` with each I_a decoded by ``Morphism.columns``."""
    return {a: phi.columns(mask) for a, mask in phi.degree_index.lattice().items()}


def spy_degree_cuts(monkeypatch) -> tuple[list, list]:
    """Record the degrees of every ``DegreeIndex`` built and every degree
    that ``DegreeIndex.leq`` cuts, in call order."""
    from mgres import degrees

    indexes, cuts = [], []
    init, leq = degrees.DegreeIndex.__init__, degrees.DegreeIndex.leq

    def counting_init(self, degs):
        indexes.append(tuple(map(tuple, degs)))
        init(self, degs)

    def counting_leq(self, a):
        cuts.append(tuple(a))
        return leq(self, a)

    monkeypatch.setattr(degrees.DegreeIndex, "__init__", counting_init)
    monkeypatch.setattr(degrees.DegreeIndex, "leq", counting_leq)
    return indexes, cuts


def leq_lattice_columns(phi: Morphism) -> dict:
    """Oracle for ``DegreeIndex.lattice``: the whole join closure in
    sorted order, each degree's columns found by one ``leq`` per column."""
    src = phi.source_degrees
    return {a: frozenset(j for j, d in enumerate(src, start=1) if leq(d, a))
            for a in sorted(join_closure(src))}


def full_table_scarf_system(phi: Morphism) -> FaceSystem:
    """Oracle for ``systems.scarf_system``: the one rule at every degree of
    the full ``leq`` table, I(a) by listing each coordinate's reachers, and
    every space as ``divided_embed`` of a ``k_space``, none skipped."""
    r, src = phi.coeff_data.r, phi.source_degrees
    spaces: dict[tuple[int, ...], Matrix] = {}
    for a, i_a in leq_lattice_columns(phi).items():
        if len(i_a) > r:
            reach = [[j for j in i_a if src[j - 1][k] == c] for k, c in enumerate(a)]
            i_upper = i_a - {cols[0] for cols in reach if len(cols) == 1}
            spaces[tuple(sorted(i_a))] = divided_embed(phi.k_space(i_upper), len(i_a) - r - 1)
    return FaceSystem(r, spaces)


def leq_strand_cut(x: GradedComplex, a) -> list[list[int]]:
    """Oracle for the mask cut of ``verify.strand``: per level, the
    generators of degree at most a, one ``leq`` each."""
    return [[i for i, d in enumerate(level) if leq(d, a)] for level in x.levels]


def per_face_splice(uv: Matrix, e: int, rk: int) -> Matrix:
    """Oracle for ``multilinear.splice_matrix_on``: one column per
    (rk + 1)-face, entry l - 1 the maximal minor of uv on the face without
    l, signed by the position of l, every minor computed afresh by
    ``Matrix.det``."""
    field, cols = uv.field, []
    for face in itertools.combinations(range(1, e + 1), rk + 1):
        col = [field.zero] * e
        for pos, l in enumerate(face):
            minor = uv.submatrix(range(uv.rows), [j - 1 for j in face if j != l]).det()
            col[l - 1] = -minor if pos % 2 else minor
        cols.append(col)
    return from_columns(field, e, cols)


# ------------------------------------------------ block-by-block assembly
# Every differential above the source as one block Matrix per (face, facet)
# pair, merged row by row to the lcm of the blocks' scales: the independent
# oracle of ``multilinear.write_level``, which writes them from one coding.


def int_matrix(field, rows: list[list[int]], cols: int | None = None) -> Matrix:
    """The matrix of integer rows, entry x read as ``field.of(x)``."""
    return Matrix.from_rows(field, [[field.of(x) for x in r] for r in rows], cols)


def column_copies(m: Matrix, j: int, cols: int, targets) -> Matrix:
    """len(targets) x cols: row k is ``m.coded_column(j)`` with its entry
    from row i moved to column targets[k][i], which must ascend in i."""
    col, t = m.coded_column(j)
    return Matrix._coded(m.field, cols, [({k[i]: x for i, x in col.items()}, t) for k in targets])


def negated(m: Matrix) -> Matrix:
    """-m, code by code."""
    p = m.field.characteristic
    rows = [({j: p - x if p else -x for j, x in row.items()}, s) for row, s in m._rows]
    return Matrix._coded(m.field, m.cols, rows)


def contraction_matrix(uv: Matrix, l: int, m: int) -> Matrix:
    """Delta_l: D_m -> D_{m-1}, contraction by column l (1-based) of uv: row c
    is column l with entry j moved to c + e_j (``column_copies``)."""
    return column_copies(uv, l - 1, divided_dim(uv.rows, m), _raised_index(uv.rows, m))


def signed_contractions(uv: Matrix, m: int):
    """l -> (Delta_l, -Delta_l) on D_m, each pair built on first use: the
    block from face I to I - {l} is entry (position of l in I) % 2."""
    return functools.cache(lambda l: (delta := contraction_matrix(uv, l, m), negated(delta)))


def from_blocks(field, rows: int, cols: int, blocks) -> Matrix:
    """rows x cols with each (row0, col0, block) at that corner, none
    overlapping, in nondecreasing col0 (else DimensionError), each block
    written into its rows, in ascending columns, as blocks yields it."""
    codes, scales, last = [{} for _ in range(rows)], [1] * rows, 0
    for row0, col0, block in blocks:
        if col0 < last:
            raise DimensionError(f"block at column {col0} comes after one at column {last}")
        last = col0
        for i, (row, s) in enumerate(block._rows, row0):
            if row:
                target = codes[i]
                # a row's pieces go to the lcm of their scales: canonical pieces
                # make a canonical row (a prime's top power in the lcm divides
                # some piece's scale, and that piece has a code it does not divide)
                if s != scales[i]:
                    t, lcm = scales[i], math.lcm(s, scales[i])
                    for j in target:
                        target[j] *= lcm // t
                    scales[i], row = lcm, {j: x * (lcm // s) for j, x in row.items()}
                for j, x in row.items():
                    target[col0 + j] = x
    return Matrix._coded(field, cols, list(zip(codes, scales)))


def _blocks(cd, spaces, identity, faces, offsets, below, m: int):
    """The blocks (row0, col0, block) of the differential out of faces, all of
    size r + 1 + m, each face at its offset and each facet at below's.  For
    m = 0 a face's block is its splice column (``CoeffData.minors``) times
    its one-row embedding.  Above that, the block from face F (embedding
    emb) to facet F - {l} is the signed Delta_l on D_m times emb (Delta_l
    itself on an identity face), in the facet's basis: read directly on an
    identity facet, else solved for."""
    deltas = signed_contractions(cd.uv, m)
    for face in faces:
        emb, ident, k, p = spaces[face], face in identity, offsets[face], len(face)
        if m == 0:
            column = cd.minors.splice([tuple(j - 1 for j in face)])
            yield 0, k, column if ident else column.mul(emb)
            continue
        # the facet without face[pos], for pos = p - 1, ..., 0
        for pos, sub in zip(range(p - 1, -1, -1), itertools.combinations(face, p - 1)):
            image = deltas(face[pos])[pos & 1]
            image = image if ident else image.mul(emb)
            if sub not in identity:
                target = spaces.get(sub)  # absent: the zero space
                if target is None and image.is_zero():
                    continue
                image = target.solve_matrix(image) if target else None
                if image is None:
                    where = "the span assigned to facet" if target else "the missing facet"
                    raise RestrictionError(face, f"image of face {face} is not in {where} {sub}")
            yield below[sub], k, image


def per_block_complex(phi: Morphism, system) -> GradedComplex:
    """Oracle for ``build_complex``: the system face by face (its ``spaces``;
    a ``full_system`` lists every face), each differential above the source
    assembled by ``from_blocks`` as ``_blocks`` finds each block, levels and
    labels by ``systems._level``.  RestrictionError names the same face."""
    from mgres.systems import _level, presentation_labels

    cd, r, spaces = phi.coeff_data, phi.coeff_data.r, system.spaces
    if system.r != r:
        raise DimensionError(f"system rank {system.r} differs from morphism rank {r}")
    levels, labels = [phi.target_degrees, phi.source_degrees], presentation_labels(phi)
    made = {(): ("e{", (0,) * phi.n)}
    by_size: dict[int, list] = {}
    for face in sorted(sorted(spaces), key=len):  # by size, then lexicographic
        if face[0] < 1 or face[-1] > phi.e:
            raise RestrictionError(face, f"face {face} has an index outside 1..{phi.e}")
        if spaces[face].rows != divided_dim(r, len(face) - r - 1):
            raise RestrictionError(face, f"face {face} is not assigned a subspace of "
                                         f"D_{len(face) - r - 1}")
        by_size.setdefault(len(face), []).append(face)
    eye = {d: Matrix.identity(phi.field, d) for d in {emb.rows for emb in spaces.values()}}
    identity = {face for face, emb in spaces.items() if emb == eye[emb.rows]}
    diffs, offsets = [cd.matrix], {}
    for p in range(r + 1, system.max_face_size() + 1):
        faces, below = by_size.get(p, []), offsets
        dims = [spaces[face].cols for face in faces]
        made, offsets = _level(phi, faces, dims, made, levels, labels)
        blocks = _blocks(cd, spaces, identity, faces, offsets, below, p - r - 1)
        diffs.append(from_blocks(phi.field, len(levels[-2]), len(levels[-1]), blocks))
    return GradedComplex(phi.field, phi.n, levels, diffs, labels, var_names=phi.var_names)


def per_block_sigma(uv: Matrix, e: int, m: int, k: int, i: int) -> Matrix:
    """Oracle for ``multilinear.sigma_matrix_on``: one block Matrix per
    (face, facet) pair, the signed Delta_l, assembled by ``from_blocks``
    with each row's pieces merged to the lcm of their scales."""
    n_dom, n_cod = divided_dim(uv.rows, m + i), divided_dim(uv.rows, m + i - 1)
    facet_offset = {f: s * n_cod for s, f in enumerate(exterior_basis(e, k + i - 1))}
    faces, deltas = exterior_basis(e, k + i), signed_contractions(uv, m + i)
    blocks = (
        (facet_offset[face[:pos] + face[pos + 1 :]], s * n_dom, deltas(l)[pos & 1])
        for s, face in enumerate(faces)
        for pos, l in enumerate(face)
    )
    return from_blocks(uv.field, len(facet_offset) * n_cod, len(faces) * n_dom, blocks)


# ----------------------------------------------- naive boxed linear algebra
# Dense lists of field elements and their own operators only: the oracles
# for the integer-coded kernel in ``mgres.linalg``.


def naive_rref(field, rows: list[list]) -> tuple[list[list], tuple[int, ...]]:
    """Gauss-Jordan on dense boxed rows: the reduced rows (zero rows last)
    and the pivot columns."""
    a = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(len(a[0]) if a else 0):
        top = len(pivots)
        hit = next((i for i in range(top, len(a)) if a[i][c]), None)
        if hit is None:
            continue
        a[top], a[hit] = a[hit], a[top]
        inv = field.one / a[top][c]
        a[top] = [x * inv for x in a[top]]
        for i in range(len(a)):
            if i != top and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[top])]
        pivots.append(c)
    return a, tuple(pivots)


def naive_det(field, rows: list[list]):
    """Determinant by elimination with row swaps, on boxed elements."""
    a, det = [list(r) for r in rows], field.one
    for c in range(len(a)):
        hit = next((i for i in range(c, len(a)) if a[i][c]), None)
        if hit is None:
            return field.zero
        if hit != c:
            a[c], a[hit], det = a[hit], a[c], -det
        det = det * a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def naive_mul(field, a: list[list], b: list[list], cols: int) -> list[list]:
    """Dense product of boxed rows, b having ``cols`` columns."""
    return [[sum((row[k] * b[k][j] for k in range(len(b))), field.zero) for j in range(cols)]
            for row in a]


def naive_solve(field, a: list[list], b: list[list], n: int, c: int):
    """a @ X = b (a with n columns, b with c) from the reduced form of
    [a | b], free variables 0; None when b is outside the column space."""
    red, pivots = naive_rref(field, [ra + rb for ra, rb in zip(a, b)])
    if any(p >= n for p in pivots):
        return None
    x = [[field.zero] * c for _ in range(n)]
    for row, p in zip(red, pivots):
        x[p] = row[n:]
    return x


def naive_kernel(field, rows: list[list], n: int) -> list[list]:
    """Reduced echelon basis of {v : rows @ v = 0}, from e_f minus the
    pivot entries of each free column f."""
    red, pivots = naive_rref(field, rows)
    vecs = []
    for f in (f for f in range(n) if f not in pivots):
        v = [field.zero] * n
        v[f] = field.one
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        vecs.append(v)
    basis, ps = naive_rref(field, vecs)
    return basis[: len(ps)]


def naive_cancel(field, rows: list[list], pivot) -> tuple[list[list], list[tuple[int, int]]]:
    """``matrix_cancel`` over all rows on boxed elements: in row order, a
    row pivot(i, its nonzero columns) names is dropped after clearing its
    column in every other row."""
    a, alive, pairs = [list(r) for r in rows], list(range(len(rows))), []
    for i in range(len(rows)):
        q = pivot(i, [j for j, x in enumerate(a[i]) if x])
        if q is None:
            continue
        pairs.append((i, q))
        alive.remove(i)
        for k in alive:
            if a[k][q]:
                f = a[k][q] / a[i][q]
                a[k] = [x - f * y for x, y in zip(a[k], a[i])]
    return [a[k] for k in alive], pairs


def coding_is_canonical(m: Matrix) -> bool:
    """Every stored row (codes, scale) of m is the one coding of its values:
    columns ascending, no zero code, and over Q a positive scale prime to
    the codes, over GF(p) representatives in [1, p) and scale 1."""
    p = m.field.characteristic
    for codes, scale in m._rows:
        if list(codes) != sorted(codes) or not all(codes.values()):
            return False
        if p and (scale != 1 or not all(0 < x < p for x in codes.values())):
            return False
        if not p and (scale < 1 or math.gcd(scale, *codes.values()) != 1):
            return False
    return True


def _linear_form_power(field, coeffs, c: int) -> dict[tuple[int, ...], object]:
    """Divided power of a linear form: exponent tuple -> product of coefficients."""
    rk = len(coeffs)
    if c == 0:
        return {(0,) * rk: field.one}
    out: dict[tuple[int, ...], object] = {}
    for d in divided_basis(rk, c):
        term = field.one
        for lam, pw in zip(coeffs, d):
            if pw:
                term = math.prod([lam] * pw, start=term)
        if term:
            out[d] = term
    return out


def _divided_product(field, u: dict, v: dict) -> dict:
    """Product in the divided power algebra: binomial structure constants."""
    zero = field.zero
    out: dict[tuple[int, ...], object] = {}
    for d1, c1 in u.items():
        for d2, c2 in v.items():
            coef = c1 * c2
            for a, b in zip(d1, d2):
                if a and b:
                    coef = coef * field.of(math.comb(a + b, a))
            key = tuple(a + b for a, b in zip(d1, d2))
            acc = out.pop(key, zero) + coef
            if acc:
                out[key] = acc
    return out


def product_divided_embed(subspace: Subspace, m: int) -> Matrix:
    """Oracle for ``multilinear.divided_embed``: column b is the product of
    the divided powers w_i^(b_i) of the subspace's echelon basis rows,
    expanded on boxed field elements by the divided power laws (binomial
    structure constants, never division by factorials)."""
    field = subspace.field
    rk = subspace.ambient_dim
    rows_idx = {b: i for i, b in enumerate(divided_basis(rk, m))}
    cols = []
    for b in divided_basis(subspace.dim, m):
        elem = {(0,) * rk: field.one}
        for coeffs, power in zip(subspace.basis.data, b):
            if power:
                elem = _divided_product(field, elem, _linear_form_power(field, coeffs, power))
        cols.append({rows_idx[key]: val for key, val in elem.items()})
    return Matrix.from_nonzero_rows(field, len(rows_idx), cols).transpose()
