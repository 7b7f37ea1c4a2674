"""Property tests of the join closure against its fixpoint oracle, of the
LCM-lattice table and the join-preserving check against the 2^e subset
walk, of combinatorial genericity against its pairwise definition, of the
Scarf system against its two-loop oracle, of
uniform rank against the rank of every r-subset of columns, of
``minimize`` on the Taylor, Scarf and relabeled complexes against its
rescanning oracle and the strand homology of the complex it came from,
and of the integer-coded
``linalg`` kernel (and the contraction and splice kernels built on its
codes) against naive Gauss-Jordan and dense builds on boxed field elements,
and of ``divided_embed`` against the product basis of divided powers.

Random small morphisms (n <= 3, e <= 6, g <= 3, degrees in [0,3]^n, so
repeated and comparable degrees are common) over Q and three prime fields.
"""

import functools
import itertools
import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mgres import (  # noqa: E402
    QQ,
    DegreeNotInLattice,
    DimensionError,
    Matrix,
    MissingKey,
    Morphism,
    PrimeField,
    RelabelMap,
    Subspace,
    check_join_preserving,
    face_data,
    formats,
    homology_dims,
    join_all,
    join_closure,
    kernel_basis,
    lcm_lattice,
    leq,
    minimize,
    relabel,
    scarf_complex,
    scarf_system,
    strand,
    taylor_complex,
)
from mgres.lattice import faces_by_degree  # noqa: E402
from mgres.multilinear import (  # noqa: E402
    contraction_matrix,
    divided_basis,
    divided_embed,
)
from mgres.linalg import MaximalMinors  # noqa: E402
from mgres.verify import strand_degrees  # noqa: E402
from helpers import (  # noqa: E402
    brute_minor_rank,
    coding_is_canonical,
    fixpoint_join_closure,
    join_preserving_walk,
    naive_cancel,
    naive_det,
    naive_kernel,
    naive_mul,
    naive_rref,
    naive_solve,
    pairwise_combinatorially_generic,
    product_divided_embed,
    rank_walk_uniform_rank,
    removal_sign,
    rescan_minimize,
    two_loop_scarf_system,
)

FIELDS = (QQ, PrimeField(2), PrimeField(7), PrimeField(32003))
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def morphisms(draw, e=None):
    """A valid morphism (with e columns if given): each column gets a
    unit-like entry in a row whose target degree its source degree
    dominates, other entries where allowed."""
    n, g = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    e = draw(st.integers(1, 6)) if e is None else e
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


@st.composite
def coefficient_patterns(draw):
    """A g x e coefficient matrix over a drawn field, targets at 0, e up to
    7: fresh columns, columns that repeat an earlier one up to sign, a last
    row that repeats the first (r < g), or the zero morphism (r = 0); zero
    columns are allowed."""
    g, e = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    field = draw(st.sampled_from(FIELDS))
    shape = draw(st.sampled_from(("fresh", "cloned columns", "cloned row", "zero")))
    cols = []
    for _ in range(e):
        if shape == "cloned columns" and cols and draw(st.booleans()):
            unit = draw(st.sampled_from((1, -1)))
            cols.append([unit * x for x in draw(st.sampled_from(cols))])
        else:
            cols.append([0 if shape == "zero" else draw(st.integers(-3, 3)) for _ in range(g)])
    if shape == "cloned row":
        for col in cols:
            col[-1] = col[0]
    entries = {(i, j): field.of(x)
               for j, col in enumerate(cols, start=1) for i, x in enumerate(col, start=1)}
    return Morphism(1, field, [(1,)] * e, [(0,)] * g, entries).validate(allow_zero_columns=True)


@st.composite
def degree_families(draw):
    """Up to 9 degrees in [0,4]^n, n = 1..4: random, a chain or an antichain
    (one total degree), with some repeated, in any order."""
    n = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(0, 4)] * n)
    shape = draw(st.sampled_from(("random", "chain", "antichain")))
    family = draw(st.lists(point, max_size=6))
    if shape == "chain" and family:
        family = [family[0]]
        for _ in range(draw(st.integers(0, 5))):
            family.append(tuple(x + draw(st.integers(0, 2)) for x in family[-1]))
    elif shape == "antichain" and family:
        top = max(map(sum, family))
        family = [d[:-1] + (d[-1] + top - sum(d),) for d in family]
    if family:
        family += draw(st.lists(st.sampled_from(family), max_size=3))
    return draw(st.permutations(family))


@PROPERTY
@given(degree_families())
def test_join_closure_matches_fixpoint(family):
    closure = join_closure(family)
    assert closure == fixpoint_join_closure(family)
    assert set(map(tuple, family)) <= closure


@PROPERTY
@given(st.data())
def test_join_closure_rejects_mixed_lengths(data):
    family = data.draw(degree_families().filter(bool))
    n = len(family[0])
    odd = tuple(data.draw(st.lists(st.integers(0, 4), min_size=n + 1, max_size=n + 1)))
    odd = data.draw(st.sampled_from((odd, odd[: n - 1])))
    family.insert(data.draw(st.integers(0, len(family))), odd)
    with pytest.raises(DimensionError):
        join_closure(family)
    with pytest.raises(DimensionError):
        fixpoint_join_closure(family)


@PROPERTY
@given(morphisms())
def test_combinatorial_genericity_matches_pairwise_definition(phi):
    assert phi.is_combinatorially_generic() == pairwise_combinatorially_generic(phi)


@PROPERTY
@given(st.one_of(morphisms(), coefficient_patterns()))
def test_uniform_rank_matches_rank_walk(phi):
    """The minor table's answer is the rank of every r-subset of columns."""
    assert phi.is_uniform_rank() == rank_walk_uniform_rank(phi)


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
@given(st.one_of(morphisms(), coefficient_patterns()))
def test_scarf_system_matches_two_loop_oracle(phi):
    """The one rule over the lattice table assigns what the Scarf-face loop
    and the non-Scarf loop over ``lcm_lattice`` assign, face for face."""
    assert scarf_system(phi).spaces == two_loop_scarf_system(phi).spaces


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


def _collapsed(phi):
    """phi with every degree sent through c(a) = (max(a_1, a_2), a_3, ...)
    (2a for n = 1), a monotone join-preserving map, and c itself."""
    def c(a):
        return (max(a[0], a[1]),) + a[2:] if len(a) > 1 else (2 * a[0],)

    phi2 = Morphism(len(c(phi.source_degrees[0])), phi.field, map(c, phi.source_degrees),
                    map(c, phi.target_degrees), phi.entries).validate()
    return phi2, c


@settings(PROPERTY, max_examples=100)
@given(morphisms())
def test_minimize_matches_rescan_on_scarf_and_relabeled_complexes(phi):
    """The Scarf complex, and the Scarf and Taylor complexes relabeled along
    a collapse of the lattice (which leaves units to cancel)."""
    phi2, c = _collapsed(phi)
    for x in (scarf_complex(phi), taylor_complex(phi)):
        f = RelabelMap({d: c(d) for level in x.levels[1:] for d in level})
        for y in (x, relabel(f, x, phi2)):
            assert minimize(y) == rescan_minimize(y)


@PROPERTY
@given(st.data())
def test_join_preserving_matches_subset_walk(data):
    phi = data.draw(morphisms())
    phi2 = data.draw(morphisms(e=phi.e))
    corr = data.draw(st.permutations(range(1, phi.e + 1)))
    size = data.draw(st.integers(0, phi.e))
    d2 = [phi2.source_degrees[c - 1] for c in corr]
    # the lattice map a -> join of the corresponding degrees over I_a
    table = {a: join_all(d2[j - 1] for j in cols) for a, cols in phi.lattice_columns.items()}
    key = data.draw(st.sampled_from(sorted(table)))
    change = data.draw(st.sampled_from(("exact", "corrupt", "drop")))
    if change == "corrupt":
        table[key] = tuple(x + 1 for x in table[key])
    elif change == "drop":
        del table[key]
    f = RelabelMap(table)

    def outcome(check):
        try:
            return check(f, phi, phi2, size, corr)
        except MissingKey:
            return "missing"

    got, walk = outcome(check_join_preserving), outcome(join_preserving_walk)
    assert (got == (True, None)) == (walk == (True, None))
    if "missing" in (got, walk):
        assert got in ("missing", walk) or not got[0]
        assert walk in ("missing", got) or not walk[0]
    if got not in ("missing", (True, None)):
        a = got[1]
        cols = sorted(phi.lattice_columns[a])
        assert len(cols) >= size
        assert any(
            phi.face_degree(sub) == a and f.apply(a) != join_all(d2[j - 1] for j in sub)
            for k in range(max(size, 1), len(cols) + 1)
            for sub in itertools.combinations(cols, k)
        )


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
        # row i of m is column i of its transpose, copied once in place
        Matrix.stack(field, c, [m.transpose().column_copies(i, c, [range(c)]) for i in range(r)]),
    ]
    # m cut into a grid of blocks (zero blocks and empty rows included,
    # each block at its own Q scales), assembled in a drawn order: out of
    # column order and interleaved across rows
    row_cuts = sorted(set(data.draw(st.lists(st.integers(0, r), max_size=3)) + [0, r]))
    col_cuts = sorted(set(data.draw(st.lists(st.integers(0, c), max_size=3)) + [0, c]))
    grid = [(i0, j0, m.submatrix(range(i0, i1), range(j0, j1)))
            for i0, i1 in zip(row_cuts, row_cuts[1:]) for j0, j1 in zip(col_cuts, col_cuts[1:])]
    routes.append(Matrix.from_blocks(field, r, c, data.draw(st.permutations(grid))))
    assert coding_is_canonical(m)
    for other in routes:
        assert other == m and hash(other) == hash(m)
        assert coding_is_canonical(other)


@PROPERTY
@given(st.data())
def test_contraction_and_splice_store_one_coding(data):
    """Delta_l as copies of uv's coded column, and a splice column written
    from the minor table, against dense builds, on uv with fractional entries."""
    field = data.draw(st.sampled_from(FIELDS))
    r, e, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    dense = _entries(data.draw, field, r, e)
    uv = Matrix.from_rows(field, dense, cols=e)
    cod, dom = divided_basis(r, m - 1), divided_basis(r, m)
    dom_index = {b: i for i, b in enumerate(dom)}
    for l in range(1, e + 1):
        want = [[field.zero] * len(dom) for _ in cod]
        for i, c in enumerate(cod):
            for j in range(r):
                want[i][dom_index[c[:j] + (c[j] + 1,) + c[j + 1 :]]] = dense[j][l - 1]
        delta = contraction_matrix(uv, l, m)
        assert delta == Matrix.from_rows(field, want, cols=len(dom))
        assert coding_is_canonical(delta)
    if e <= r:
        return  # no splice face
    face = tuple(sorted(data.draw(st.permutations(range(1, e + 1)))[: r + 1]))
    column = MaximalMinors(uv).column(tuple(j - 1 for j in face))
    want = [[field.zero] for _ in range(e)]
    for pos, l in enumerate(face):
        minor = naive_det(field, [[row[j - 1] for j in face if j != l] for row in dense])
        want[l - 1][0] = minor if removal_sign(pos) > 0 else -minor
    assert column == Matrix.from_rows(field, want, cols=1)
    assert coding_is_canonical(column)


# ------------------------------------------------- divided powers of subspaces

@PROPERTY
@given(st.data())
def test_divided_embed_matches_product_basis(data):
    """The kernel of the stacked contractions is, code for code, the product
    basis prod w_i^(b_i) of the reduced echelon basis w_i, for W of every
    dimension (fractional entries over Q) and m = 0..4."""
    field = data.draw(st.sampled_from(FIELDS))
    ambient = data.draw(st.integers(1, 5))
    dim = data.draw(st.integers(0, ambient))
    pivots = sorted(data.draw(st.permutations(range(ambient)))[:dim])
    free = _entries(data.draw, field, dim, ambient)
    rows = [
        [field.one if j == p else field.zero if j < p or j in pivots else x
         for j, x in enumerate(row)]
        for p, row in zip(pivots, free)
    ]
    w = Subspace.from_rows(field, ambient, rows)
    assert w.dim == dim
    m = data.draw(st.integers(0, 4))
    emb = divided_embed(w, m)
    assert emb == product_divided_embed(w, m)
    assert coding_is_canonical(emb)


@PROPERTY
@given(st.data())
def test_divided_embed_of_k_space_is_killed_by_its_contractions(data):
    """D_m(K_I) lies in the kernel of Delta_j for every column j in I."""
    phi = data.draw(morphisms())
    face = sorted(data.draw(st.sets(st.integers(1, phi.e), min_size=1)))
    m = data.draw(st.integers(1, 4))
    uv = phi.coeff_data.uv
    emb = divided_embed(phi.k_space(face), m)
    for j in face:
        assert contraction_matrix(uv, j, m).mul(emb).is_zero()
