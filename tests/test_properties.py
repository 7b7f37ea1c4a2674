"""Property tests of the join closure, capped or not, against its fixpoint
oracle, of the LCM-lattice table and the join-preserving check against the
2^e subset walk, of the mask-built table and strand cuts against one
``leq`` per column or generator, of combinatorial genericity against its
pairwise definition, of the Scarf system against its two-loop oracle and
the full-table walk that takes every kernel, of
uniform rank against the rank of every r-subset of columns, of
``minimize`` on the Taylor, Scarf and relabeled complexes against its
rescanning oracle and the strand homology of the complex it came from, of
``is_resolution``'s one homology per distinct strand cut against one per
tested degree,
of the integer-coded ``linalg`` kernel (and the contraction and splice kernels built on its
codes) against naive Gauss-Jordan and dense builds on boxed field elements,
of the contraction boundary against its per-block assembly, of the
level-by-level Taylor build against ``build_complex`` over the full system
given face by face, of ``build_complex`` over full, Scarf and user systems
against the block-by-block assembly ``per_block_complex``,
of ``divided_embed`` against the product basis of divided powers, of
``contraction_kernel`` against ``divided_embed`` of the K-space, and of
the byte-identical file round trip of sampled complexes.

Random small morphisms (n <= 3, e <= 6, g <= 3, degrees in [0,3]^n, so
repeated and comparable degrees are common) over Q and three prime fields.
"""

import functools
import itertools
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mgres import (  # noqa: E402
    QQ,
    DegreeNotInLattice,
    DimensionError,
    FaceSystem,
    Matrix,
    MissingKey,
    Morphism,
    PrimeField,
    RelabelMap,
    RestrictionError,
    Subspace,
    build_complex,
    check_join_preserving,
    check_quasi_equivalent,
    face_data,
    formats,
    full_system,
    homology_dims,
    is_resolution,
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
    Contractions,
    contraction_kernel,
    divided_basis,
    divided_embed,
    sigma_matrix_on,
    write_level,
)
from mgres import linalg  # noqa: E402
from mgres.linalg import MaximalMinors  # noqa: E402
from mgres.degrees import DegreeIndex, bits  # noqa: E402
from mgres.verify import level_indexes, strand_degrees  # noqa: E402
from helpers import (  # noqa: E402
    brute_minor_rank,
    cancel_minimize,
    coding_is_canonical,
    coefficient_kernels_agree,
    cloned_column_draw,
    clustered_draw,
    coefficient_rank_walk,
    contraction_matrix,
    fixpoint_join_closure,
    full_face_system,
    full_table_scarf_system,
    join_preserving_walk,
    lattice_columns,
    leq_lattice_columns,
    leq_strand_cut,
    matrix_cancel,
    mod_p,
    naive_cancel,
    naive_det,
    naive_kernel,
    naive_mul,
    naive_rref,
    naive_solve,
    pairwise_combinatorially_generic,
    per_block_complex,
    per_block_sigma,
    per_degree_is_resolution,
    product_divided_embed,
    random_morphism,
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
def rank_deficient_morphisms(draw):
    """r < g over a drawn field: g - 1 drawn rows and a last row that is a
    combination of them, targets at 0, up to 6 source degrees in [0,3]^n;
    zero columns are allowed."""
    n, g, e = draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(1, 6))
    field = draw(st.sampled_from(FIELDS))
    rows = [[draw(st.integers(-3, 3)) for _ in range(e)] for _ in range(g - 1)]
    weights = [draw(st.integers(-2, 2)) for _ in rows]
    rows.append([sum(w * row[j] for w, row in zip(weights, rows)) for j in range(e)])
    sources = [draw(st.tuples(*[st.integers(0, 3)] * n)) for _ in range(e)]
    entries = {(i, j): field.of(x) for i, row in enumerate(rows, 1) for j, x in enumerate(row, 1)}
    return Morphism(n, field, sources, [(0,) * n] * g, entries).validate(allow_zero_columns=True)


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
    assert set(phi.degree_index.lattice()) == set(walk)
    assert list(phi.degree_index.lattice()) == sorted(walk)
    assert lat.scarf_faces == {faces[0] for faces in walk.values() if len(faces) == 1}


@PROPERTY
@given(st.one_of(morphisms(), coefficient_patterns()))
def test_scarf_system_matches_two_loop_oracle(phi):
    """The one rule over the lattice table assigns what the Scarf-face loop
    and the non-Scarf loop over ``lcm_lattice`` assign, face for face."""
    assert scarf_system(phi).spaces == two_loop_scarf_system(phi).spaces


@st.composite
def wide_morphisms(draw):
    """Up to 8 columns with n = 2..4 and targets at 0 over a drawn field,
    from a seeded sampler: an antichain with distinct values per coordinate
    (combinatorially generic) or values in [0,3] (repeats), dense or sparse coefficients, so
    uniform rank and its failure both come up and the Scarf cap bites."""
    rng, field = random.Random(draw(st.integers(0, 2**32))), draw(st.sampled_from(FIELDS))
    n, g, e = rng.randint(2, 4), rng.randint(1, 3), rng.randint(3, 8)
    if rng.random() < 0.7:  # an antichain: the first coordinate rises, the second falls
        coords = [rng.sample(range(1, 3 * e), e) for _ in range(n)]
        coords[0].sort()
        coords[1].sort(reverse=True)
        sources = list(zip(*coords))
    else:
        sources = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(e)]
    values = (1, 2, 3, 4, 5, -1, -2) if rng.random() < 0.7 else (0, 0, 1, -1)
    entries = {(i, j): field.of(rng.choice(values)) for i in range(1, g + 1) for j in range(1, e + 1)}
    return Morphism(n, field, sources, [(0,) * n] * g, entries).validate(allow_zero_columns=True)


@PROPERTY
@given(st.one_of(morphisms(), coefficient_patterns(), wide_morphisms()))
def test_scarf_system_matches_full_table_oracle(phi):
    """The capped walk assigns what the rule assigns at every degree of the
    full leq table, kernels taken everywhere: uniform rank or not."""
    assert scarf_system(phi).spaces == full_table_scarf_system(phi).spaces


@PROPERTY
@given(st.one_of(morphisms(), coefficient_patterns(), wide_morphisms()))
def test_lattice_table_matches_leq_table(phi):
    """The mask-built table equals the leq-built one in keys, order and values."""
    assert list(lattice_columns(phi).items()) == list(leq_lattice_columns(phi).items())


@PROPERTY
@given(degree_families(), st.integers(0, 10))
def test_capped_join_closure_keeps_the_degrees_within_the_cap(family, cap):
    """The capped lattice walk keeps exactly the closure degrees with at most
    cap atoms below them, sorted, each mapped to its cut."""
    closure = fixpoint_join_closure(family)
    within = {b for b in closure if sum(leq(d, b) for d in family) <= cap}
    index = DegreeIndex(family)
    table = index.lattice(cap)
    assert list(table) == sorted(within)
    assert all(mask == index.leq(b) for b, mask in table.items())


@PROPERTY
@given(morphisms(), st.data())
def test_strand_mask_cut_matches_leq_cut(phi, data):
    x = data.draw(st.sampled_from((taylor_complex, scarf_complex)))(phi)
    a = data.draw(st.tuples(*[st.integers(0, 7)] * phi.n))
    cut, indexes = leq_strand_cut(x, a), level_indexes(x)
    assert [bits(index.leq(a)) for index in indexes] == cut
    diffs = tuple(d.submatrix(cut[i], cut[i + 1]) for i, d in enumerate(x.diffs))
    masks = tuple(index.leq(a) for index in indexes)
    want = (tuple(map(len, cut)), diffs)
    assert strand(x, a) == strand(x, a, indexes) == strand(x, a, masks) == want


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
def test_rank_questions_on_uv_match_coefficient_oracles(data):
    """With r < g, the maximal-rank verdict and witness read off uv are
    those read off C, and so is quasi-equivalence to a morphism with
    coefficient matrix M C (M drawn, so ker M C may grow), its columns
    moved to a drawn correspondence."""
    phi = data.draw(rank_deficient_morphisms())
    field, c = phi.field, phi.coeff_data.matrix.data
    assert phi.coeff_data.r < phi.g
    result = phi.is_maximal_rank_everywhere()
    assert (result.ok, result.witness) == coefficient_rank_walk(phi)
    g2 = data.draw(st.integers(1, 4))
    m = [[field.of(data.draw(st.integers(-2, 2))) for _ in range(phi.g)] for _ in range(g2)]
    corr = data.draw(st.permutations(range(1, phi.e + 1)))
    sources = [phi.source_degrees[corr.index(j)] for j in range(1, phi.e + 1)]
    entries = {(i + 1, corr[j]): sum((m[i][k] * c[k][j] for k in range(phi.g)), field.zero)
               for i in range(g2) for j in range(phi.e)}
    phi2 = Morphism(phi.n, field, sources, [(0,) * phi.n] * g2, entries)
    phi2 = phi2.validate(allow_zero_columns=True)
    assert check_quasi_equivalent(phi, phi2, corr) == coefficient_kernels_agree(phi, phi2, corr)


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


@settings(PROPERTY, max_examples=100)
@given(st.integers(0, 2**32), st.sampled_from(FIELDS), st.booleans())
def test_is_resolution_matches_per_degree_oracle(seed, field, clone):
    """One homology per distinct strand cut gives the report of one per
    tested degree, on the Taylor, Scarf and minimized complexes of a mixed
    draw or of a cloned-column draw, whose Taylor complex has failures."""
    rng = random.Random(seed)
    if clone:
        phi = cloned_column_draw(rng, field)
    else:
        phi = random_morphism(rng)
        phi = mod_p(phi, field.p) if field != QQ else phi
    t = taylor_complex(phi)
    for x in (t, scarf_complex(phi), minimize(t)):
        report = is_resolution(x)
        assert report == per_degree_is_resolution(x)
        assert report.failures or not (clone and x is t)


@st.composite
def taylor_inputs(draw):
    """A mixed or cloned-column draw over a drawn field, or a mixed draw
    with fractional coefficients, with a zero column, or with every
    coefficient zero (r = 0)."""
    field = draw(st.sampled_from(FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("mixed", "clone", "fractional", "zero column", "zero map")))
    if kind == "clone":
        return cloned_column_draw(rng, field)
    phi = random_morphism(rng)
    entries = phi.entries
    if kind == "fractional":
        # numerators and denominators prime to 2, 7 and 32003
        entries = {k: v * Fraction(rng.choice((1, -1, 3, 5)), rng.choice((1, 3, 5, 9, 15)))
                   for k, v in entries.items()}
    elif kind == "zero column":
        victim = rng.randint(1, phi.e)
        entries = {(i, j): v for (i, j), v in entries.items() if j != victim}
    elif kind == "zero map":
        entries = {}
    phi = Morphism(phi.n, QQ, phi.source_degrees, phi.target_degrees, entries)
    phi = phi.validate(allow_zero_columns=True)
    return phi if field == QQ else mod_p(phi, field.p)


@PROPERTY
@given(taylor_inputs())
def test_taylor_complex_matches_the_full_system_oracle(phi):
    """The level-by-level Taylor build equals the complex ``build_complex``
    spans block by block over the full system given face by face: levels,
    labels and canonical codes; at r = 0 it ends after level 2."""
    x = taylor_complex(phi)
    assert x == build_complex(phi, full_face_system(phi))
    assert x.var_names == phi.var_names
    assert all(coding_is_canonical(d) for d in x.diffs)
    if phi.coeff_data.r == 0:
        assert len(x.levels) == 3


@st.composite
def face_systems(draw):
    """(kind, phi, system): a ``taylor_inputs`` or ``clustered_draw`` morphism
    over a drawn field and its full system, its Scarf system, or its full
    system given face by face with one face below the top size assigned a
    drawn matrix in place of the identity: an upper triangular basis of its
    whole divided power, diagonal units other than 1 where the field has
    them ("closed", so the system stays closed), or any matrix, fractional
    over Q, with another face dropped ("user")."""
    if draw(st.booleans()):
        phi = draw(taylor_inputs())
    else:
        phi = clustered_draw(random.Random(draw(st.integers(0, 2**32))),
                             draw(st.sampled_from(FIELDS)))
    kind, field = draw(st.sampled_from(("full", "scarf", "closed", "user"))), phi.field
    if kind in ("full", "scarf"):
        return kind, phi, (full_system if kind == "full" else scarf_system)(phi)
    spaces = full_system(phi).spaces
    top = max(map(len, spaces), default=0)
    facets = sorted(face for face in spaces if len(face) < top)
    if len(facets) >= 2:
        changed, dropped = draw(st.permutations(facets))[:2]
        d = spaces[changed].rows
        if kind == "closed":
            units = [field.of(draw(st.sampled_from((-1, 3, 5))))
                     / field.of(draw(st.sampled_from((1, 3)))) for _ in range(d)]
            upper = _entries(draw, field, d, d)
            rows = [[units[i] if i == j else upper[i][j] if i < j else field.zero for j in range(d)]
                    for i in range(d)]
            spaces[changed] = Matrix.from_rows(field, rows, cols=d)
        else:
            k = draw(st.integers(1, d))
            spaces[changed] = Matrix.from_rows(field, _entries(draw, field, d, k), cols=k)
            del spaces[dropped]
    return kind, phi, FaceSystem(phi.coeff_data.r, spaces)


def _built(build, phi, system):
    """build(phi, system), or the face its RestrictionError names."""
    try:
        return build(phi, system)
    except RestrictionError as exc:
        return "RestrictionError", exc.face


@PROPERTY
@given(face_systems())
def test_build_complex_matches_the_per_block_oracle(case):
    """``build_complex`` writes every level above the splice with
    ``write_level``; the oracle assembles the same maps block by block, one
    Delta_l Matrix per (face, facet): the full system (the Taylor route), the
    Scarf system (proper kernels and skipped face sizes are common in the
    clustered draws), a closed user system with one face's divided power on
    another basis (its splice column scaled, its facets' rows merging solved
    and direct blocks, the faces above it solved into it) and a user system
    with a non-identity and an absent facet give equal complexes in the one
    coding, or RestrictionError at the same face."""
    kind, phi, system = case
    got = _built(build_complex, phi, system)
    assert got == _built(per_block_complex, phi, system)
    if isinstance(got, tuple):
        assert kind == "user"
    else:
        assert all(coding_is_canonical(d) for d in got.diffs)


def _collapsed(phi):
    """phi with every degree sent through c(a) = (max(a_1, a_2), a_3, ...)
    (2a for n = 1), a monotone join-preserving map, and c itself."""
    def c(a):
        return (max(a[0], a[1]),) + a[2:] if len(a) > 1 else (2 * a[0],)

    phi2 = Morphism(len(c(phi.source_degrees[0])), phi.field, map(c, phi.source_degrees),
                    map(c, phi.target_degrees), phi.entries).validate(allow_zero_columns=True)
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


def test_minimize_matches_the_cancel_oracle(monkeypatch):
    """The left-looking ``minimize`` equals the right-looking
    ``cancel_minimize`` (levels, labels, canonical codes and JSON bytes) on
    the Taylor, Scarf and relabeled complexes of mixed draws over Q, GF(2),
    GF(7) and GF(32003); on some draws a pass-1 row is cleared at a pivot
    before it finds its own, so the two pivot rules are really compared."""
    pass1, clears, hits = [False], [0], []
    block_pivots, clear = Matrix.block_pivots, linalg._clear

    def spy_pivots(self, *args):
        pass1[0] = True
        try:
            return block_pivots(self, *args)
        finally:
            pass1[0] = False

    def spy_clear(*args):
        clears[0] += pass1[0]
        return clear(*args)

    monkeypatch.setattr(Matrix, "block_pivots", spy_pivots)
    monkeypatch.setattr(linalg, "_clear", spy_clear)

    @settings(PROPERTY, max_examples=120)
    @given(st.integers(0, 2**32), st.sampled_from(FIELDS))
    def check(seed, field):
        phi = random_morphism(random.Random(seed))
        phi = mod_p(phi, field.p) if field != QQ else phi
        phi2, c = _collapsed(phi)
        clears[0] = 0
        for x in (taylor_complex(phi), scarf_complex(phi)):
            f = RelabelMap({d: c(d) for level in x.levels[1:] for d in level})
            for y in (x, relabel(f, x, phi2)):
                got, want = minimize(y), cancel_minimize(y)
                assert got == want
                assert formats.canonical_dumps(formats.complex_to_dict(got)) == \
                    formats.canonical_dumps(formats.complex_to_dict(want))
        hits.append(clears[0])

    check()
    assert sum(n > 0 for n in hits) >= 20


@PROPERTY
@given(st.data())
def test_join_preserving_matches_subset_walk(data):
    phi = data.draw(morphisms())
    phi2 = data.draw(morphisms(e=phi.e))
    corr = data.draw(st.permutations(range(1, phi.e + 1)))
    size = data.draw(st.integers(0, phi.e))
    d2 = [phi2.source_degrees[c - 1] for c in corr]
    # the lattice map a -> join of the corresponding degrees over I_a
    table = {a: join_all(d2[j - 1] for j in cols) for a, cols in lattice_columns(phi).items()}
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
        cols = sorted(phi.columns(phi.degree_index.lattice()[a]))
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
    left, pairs = matrix_cancel(m, range(r), _pivot)
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


def _written(field, rows: int, cols: int, blocks) -> Matrix:
    """The (row0, col0, block) blocks written by ``Matrix.write_into`` as
    ``write_level`` adds its solved blocks: rows sorted, each reduced once."""
    codes, scales = [{} for _ in range(rows)], [1] * rows
    for row0, col0, block in blocks:
        block.write_into(codes, scales, row0, col0)
    return Matrix.from_scaled_rows(field, cols, [(dict(sorted(row.items())), s)
                                                 for row, s in zip(codes, scales)])


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
        m.eliminate({}, range(r), range(c)),
        Matrix.from_nonzero_rows(field, c, m.nonzero_rows()),
        m.transpose().transpose(),
        _written(field, r, c, [(0, 0, m)]),
    ]
    # row i of m is column i of its transpose, coded once
    assert [m.transpose().coded_column(i) for i in range(r)] == list(m._rows)
    # m cut into a grid of blocks (zero blocks and empty rows included,
    # each block at its own Q scales), written in a drawn order
    row_cuts = sorted(set(data.draw(st.lists(st.integers(0, r), max_size=3)) + [0, r]))
    col_cuts = sorted(set(data.draw(st.lists(st.integers(0, c), max_size=3)) + [0, c]))
    grid = [(i0, j0, m.submatrix(range(i0, i1), range(j0, j1)))
            for i0, i1 in zip(row_cuts, row_cuts[1:]) for j0, j1 in zip(col_cuts, col_cuts[1:])]
    routes.append(_written(field, r, c, data.draw(st.permutations(grid))))
    assert coding_is_canonical(m)
    for other in routes:
        assert other == m and hash(other) == hash(m)
        assert coding_is_canonical(other)


@PROPERTY
@given(st.data())
def test_contraction_and_splice_store_one_coding(data):
    """Delta_l as ``write_level`` writes it from uv's coded columns (the one
    face {l} over the empty facet), and a splice column written from the
    minor table, against dense builds, on uv with fractional entries."""
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
        delta = write_level(Contractions(uv), m, {(l,): 0}, {(): 0}, len(cod), len(dom))
        assert delta == Matrix.from_rows(field, want, cols=len(dom))
        assert coding_is_canonical(delta)
    if e <= r:
        return  # no splice face
    face = tuple(sorted(data.draw(st.permutations(range(1, e + 1)))[: r + 1]))
    column = MaximalMinors(uv).splice([tuple(j - 1 for j in face)])
    want = [[field.zero] for _ in range(e)]
    for pos, l in enumerate(face):
        minor = naive_det(field, [[row[j - 1] for j in face if j != l] for row in dense])
        want[l - 1][0] = minor if removal_sign(pos) > 0 else -minor
    assert column == Matrix.from_rows(field, want, cols=1)
    assert coding_is_canonical(column)


@PROPERTY
@given(st.data())
def test_contraction_boundary_matches_the_per_block_assembly(data):
    """sigma_matrix_on, its rows written face by face over one scale, is
    code for code the per-block ``from_blocks`` assembly, on uv with
    fractional entries and zero columns, out to boundaries with no face."""
    field = data.draw(st.sampled_from(FIELDS))
    r, e = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    m, k, i = data.draw(st.integers(0, 2)), data.draw(st.integers(0, e)), data.draw(st.integers(1, 3))
    uv = Matrix.from_rows(field, _entries(data.draw, field, r, e), cols=e)
    got = sigma_matrix_on(uv, e, m, k, i)
    assert got == per_block_sigma(uv, e, m, k, i)
    assert coding_is_canonical(got)


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


@PROPERTY
@given(st.data())
def test_contraction_kernel_matches_the_annihilator_route(data):
    """The kernel of the contractions by the columns S of uv is D_m of
    their K-space as the annihilator route takes it, ``divided_embed`` of
    ``k_space``: m = 0..3 and S of every size, the empty set included."""
    if data.draw(st.booleans()):
        phi = data.draw(wide_morphisms())
    else:
        phi = random_morphism(random.Random(data.draw(st.integers(0, 2**32))))
        field = data.draw(st.sampled_from(FIELDS))
        phi = mod_p(phi, field.characteristic) if field.characteristic else phi
    cols = sorted(data.draw(st.sets(st.integers(0, phi.e - 1))))
    m = data.draw(st.integers(0, 3))
    emb = contraction_kernel(phi.coeff_data.contractions, m, cols).basis.transpose()
    assert emb == divided_embed(phi.k_space(j + 1 for j in cols), m)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(0, 2**32), st.sampled_from(FIELDS))
def test_complex_files_parse_and_reserialize_byte_identically(seed, field):
    """The Taylor, Scarf and minimized complexes of a sampled morphism, each
    written as a file, load back and serialize to the same bytes."""
    phi = random_morphism(random.Random(seed))
    if field != QQ:
        phi = mod_p(phi, field.p)
    t = taylor_complex(phi)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "complex.json"
        for x in (t, scarf_complex(phi), minimize(t)):
            text = formats.canonical_dumps(formats.complex_to_dict(x))
            path.write_text(text)
            loaded = formats.load_complex(path)
            assert formats.canonical_dumps(formats.complex_to_dict(loaded)) == text
            assert loaded == x
