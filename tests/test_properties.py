"""Property tests of the LCM-lattice table against the 2^e subset walk, of
``minimize`` on the Taylor complex against its rescanning oracle and the
strand homology of the complex it came from, and of the integer-coded
``linalg`` kernel against naive Gauss-Jordan on boxed field elements.

Random small morphisms (n <= 3, e <= 6, g <= 3, degrees in [0,3]^n, so
repeated and comparable degrees are common) over Q and three prime fields.
"""

import functools
import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mgres import (  # noqa: E402
    QQ,
    DegreeNotInLattice,
    Matrix,
    Morphism,
    PrimeField,
    face_data,
    formats,
    homology_dims,
    kernel_basis,
    lcm_lattice,
    leq,
    minimize,
    strand,
    taylor_complex,
)
from mgres.lattice import faces_by_degree  # noqa: E402
from mgres.verify import strand_degrees  # noqa: E402
from helpers import (  # noqa: E402
    brute_minor_rank,
    coding_is_canonical,
    naive_cancel,
    naive_det,
    naive_kernel,
    naive_mul,
    naive_rref,
    naive_solve,
    rescan_minimize,
)

FIELDS = (QQ, PrimeField(2), PrimeField(7), PrimeField(32003))
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def morphisms(draw):
    """A valid morphism: each column gets a unit-like entry in a row whose
    target degree its source degree dominates, other entries where allowed."""
    n, g, e = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    field = draw(st.sampled_from(FIELDS))
    point = st.tuples(*[st.integers(0, 3)] * n)
    targets = [draw(point) for _ in range(g)]
    sources, entries = [], {}
    for j in range(1, e + 1):
        row = draw(st.integers(1, g))
        src = tuple(c + draw(st.integers(0, 3 - c)) for c in targets[row - 1])
        sources.append(src)
        for i in range(1, g + 1):
            # 1, -1 and 3 are nonzero in every drawn field
            v = draw(st.sampled_from((1, -1, 3))) if i == row else draw(st.integers(-3, 3))
            if leq(targets[i - 1], src) and v:
                entries[(i, j)] = field.of(v)
    return Morphism(n, field, sources, targets, entries).validate()


@PROPERTY
@given(morphisms())
def test_lattice_matches_subset_walk(phi):
    walk = faces_by_degree(phi)
    lat = lcm_lattice(phi)
    assert lat.elements == set(walk)
    assert set(phi.lattice_columns) == set(walk)
    assert list(phi.lattice_columns) == sorted(walk)
    assert lat.scarf_faces == {faces[0] for faces in walk.values() if len(faces) == 1}


@PROPERTY
@given(morphisms())
def test_maximal_rank_matches_brute_force(phi):
    walk = faces_by_degree(phi)
    c = phi.coeff_data.matrix
    r = brute_minor_rank(c)
    witness = None
    for a in sorted(walk):
        cols = sorted(set().union(*walk[a]))  # I_a is the largest face of degree a
        if brute_minor_rank(c.submatrix(range(phi.g), [j - 1 for j in cols])) != min(r, len(cols)):
            witness = a
            break
    result = phi.is_maximal_rank_everywhere()
    assert (result.ok, result.witness) == (witness is None, witness)


@PROPERTY
@given(st.data())
def test_face_data_matches_subset_walk(data):
    phi = data.draw(morphisms())
    walk = faces_by_degree(phi)
    anywhere = st.tuples(*[st.integers(0, 4)] * phi.n)
    b = data.draw(st.one_of(st.sampled_from(sorted(walk)), anywhere))
    if b not in walk:
        with pytest.raises(DegreeNotInLattice):
            face_data(phi, b)
        return
    faces = [frozenset(f) for f in walk[b]]
    i_a, i_of_a = frozenset().union(*faces), functools.reduce(frozenset.__and__, faces)
    fd = face_data(phi, b)
    assert (fd.degree, fd.i_a, fd.i_of_a, fd.i_upper_a) == (b, i_a, i_of_a, i_a - i_of_a)


@PROPERTY
@given(morphisms())
def test_morphism_json_fixed_point(phi):
    text = formats.canonical_dumps(formats.morphism_to_dict(phi))
    again = formats.morphism_to_dict(formats.morphism_from_dict(json.loads(text)))
    assert formats.canonical_dumps(again) == text


@settings(PROPERTY, max_examples=100)
@given(morphisms())
def test_minimize_keeps_every_strand_homology(phi):
    x = taylor_complex(phi)
    m = minimize(x)
    assert m == rescan_minimize(x)
    for a in strand_degrees(x):
        h = homology_dims(strand(x, a))
        # minimize drops trailing levels only once they are all cancelled
        assert h == homology_dims(strand(m, a)) + (0,) * (len(h) - len(m.levels))


# ------------------------------------------------- the integer-coded kernel

def _entries(draw, field, rows: int, cols: int) -> list[list]:
    """Dense boxed rows, zeros common; over Q with denominators up to 6, so
    row scales other than 1 are common."""
    def entry():
        num = draw(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5)))
        den = draw(st.sampled_from((1, 2, 3, 4, 6)))
        if field == QQ:
            return QQ.of(Fraction(num, den))
        return field.of(num) / field.of(den) if den % field.characteristic else field.of(num)

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _dense(m: Matrix) -> list[list]:
    return [list(row) for row in m.data]


def _pivot(i, cols):
    # a fixed rule naming one of the current columns, or None
    return (min(cols) if i % 2 else max(cols)) if cols and i % 3 else None


@PROPERTY
@given(st.data())
def test_coded_elimination_matches_naive_gauss_jordan(data):
    field = data.draw(st.sampled_from(FIELDS))
    r, c = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    a = _entries(data.draw, field, r, c)
    m = Matrix.from_rows(field, a, cols=c)
    red, pivots = naive_rref(field, a)
    assert m.rank() == len(pivots)
    got, got_pivots = m.rref()
    assert (_dense(got), got_pivots) == (red, pivots)
    assert _dense(kernel_basis(m).basis) == naive_kernel(field, a, c)
    k = min(r, c)
    assert m.submatrix(range(k), range(k)).det() == naive_det(field, [row[:k] for row in a[:k]])
    left, pairs = m.cancel(range(r), _pivot)
    want_left, want_pairs = naive_cancel(field, a, _pivot)
    assert (_dense(left), pairs) == (want_left, want_pairs)
    for out in (got, kernel_basis(m).basis, left, m.transpose()):
        assert coding_is_canonical(out)


@PROPERTY
@given(st.data())
def test_coded_product_and_solve_match_naive(data):
    field = data.draw(st.sampled_from(FIELDS))
    r, n, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b = _entries(data.draw, field, r, n), _entries(data.draw, field, n, c)
    ma, mb = Matrix.from_rows(field, a, cols=n), Matrix.from_rows(field, b, cols=c)
    prod = ma.mul(mb)
    assert _dense(prod) == naive_mul(field, a, b, c) and coding_is_canonical(prod)
    # a right-hand side in the column space, or any at all
    if data.draw(st.booleans()):
        rhs = naive_mul(field, a, b, c)
    else:
        rhs = _entries(data.draw, field, r, c)
    x = ma.solve_matrix(Matrix.from_rows(field, rhs, cols=c))
    want = naive_solve(field, a, rhs, n, c)
    assert (None if x is None else _dense(x)) == want
    assert x is None or coding_is_canonical(x)


@PROPERTY
@given(st.data())
def test_every_route_to_a_matrix_stores_one_coding(data):
    field = data.draw(st.sampled_from(FIELDS))
    r, c = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    m = Matrix.from_rows(field, _entries(data.draw, field, r, c), cols=c)
    u = field.of(3) / field.of(5)
    scale = Matrix.from_rows(field, [[u if i == j else field.zero for j in range(c)]
                                     for i in range(c)], cols=c)
    unscale = Matrix.from_rows(field, [[field.one / u if i == j else field.zero
                                        for j in range(c)] for i in range(c)], cols=c)
    routes = [
        m.mul(Matrix.identity(field, c)),
        Matrix.identity(field, r).mul(m),
        m.mul(scale).mul(unscale),
        m.submatrix(range(r), range(c)),
        -(-m),
        m.cancel(range(r), lambda i, cols: None)[0],
        Matrix.from_nonzero_rows(field, c, m.nonzero_rows()),
        m.transpose().transpose(),
        Matrix.from_blocks(field, r, c, [(0, 0, m)]),
    ]
    assert coding_is_canonical(m)
    for other in routes:
        assert other == m and hash(other) == hash(m)
        assert coding_is_canonical(other)
