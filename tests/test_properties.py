"""Property tests of the LCM-lattice table against the 2^e subset walk, and
of ``minimize`` on the Taylor complex against its rescanning oracle and the
strand homology of the complex it came from.

Random small morphisms (n <= 3, e <= 6, g <= 3, degrees in [0,3]^n, so
repeated and comparable degrees are common) over Q and three prime fields.
"""

import functools
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mgres import (  # noqa: E402
    QQ,
    DegreeNotInLattice,
    Morphism,
    PrimeField,
    face_data,
    formats,
    homology_dims,
    lcm_lattice,
    leq,
    minimize,
    strand,
    taylor_complex,
)
from mgres.lattice import faces_by_degree  # noqa: E402
from mgres.verify import strand_degrees  # noqa: E402
from helpers import brute_minor_rank, rescan_minimize  # noqa: E402

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
