"""LCM-lattice, Scarf faces and per-degree face data, against the subset walk."""

import itertools
import json
import random

import pytest

from mgres import (
    QQ,
    ClosureTooLarge,
    DegreeNotInLattice,
    FaceData,
    LcmLattice,
    Morphism,
    PrimeField,
    TooManyColumns,
    cli,
    degrees,
    face_data,
    formats,
    graded_ranks,
    join_all,
    lcm_lattice,
    leq,
    minimize,
    scarf_faces,
    taylor_complex,
)
from mgres.lattice import faces_by_degree
from helpers import (
    DATA,
    check_record,
    random_generic_minimal,
    random_morphism,
    spy_degree_cuts,
    wide_generic_morphism,
    xy_example,
)


def test_lattice_example():
    lat = lcm_lattice(xy_example())
    assert lat.elements == {
        (3, 0), (2, 1), (1, 2), (0, 3), (3, 1),
        (3, 2), (3, 3), (2, 2), (2, 3), (1, 3),
    }
    assert lat.nonscarf_part == {(3, 2), (2, 3), (3, 3)}
    assert lat.scarf_part == lat.elements - lat.nonscarf_part


def test_lattice_single_column():
    phi = Morphism(2, QQ, [(2, 1)], [(0, 0)], {(1, 1): QQ.one}).validate()
    lat = lcm_lattice(phi)
    assert lat.elements == {(2, 1)}
    assert lat.nonscarf_part == frozenset()


def test_scarf_faces_example():
    assert scarf_faces(xy_example()) == {
        (1,), (2,), (3,), (4,), (1, 2), (2, 3), (3, 4),
    }


def test_scarf_faces_all_distinct_joins():
    # incomparable atoms with all subset joins distinct: the full simplex
    phi = Morphism(
        3,
        QQ,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 0, 0)],
        {(1, j): QQ.one for j in (1, 2, 3)},
    ).validate()
    assert len(scarf_faces(phi)) == 7


def test_scarf_faces_equal_degrees():
    phi = Morphism(
        2,
        QQ,
        [(1, 0), (1, 0)],
        [(0, 0)],
        {(1, 1): QQ.one, (1, 2): QQ.of(2)},
    ).validate()
    faces = scarf_faces(phi)
    assert (1,) not in faces and (2,) not in faces


def test_face_data_example_table():
    phi = xy_example()
    fd = face_data(phi, (3, 2))
    assert (sorted(fd.i_a), sorted(fd.i_of_a), sorted(fd.i_upper_a)) == (
        [1, 2, 3], [1, 3], [2],
    )
    fd = face_data(phi, (2, 3))
    assert (sorted(fd.i_a), sorted(fd.i_of_a), sorted(fd.i_upper_a)) == (
        [2, 3, 4], [2, 4], [3],
    )
    fd = face_data(phi, (3, 3))
    assert (sorted(fd.i_a), sorted(fd.i_of_a), sorted(fd.i_upper_a)) == (
        [1, 2, 3, 4], [1, 4], [2, 3],
    )


def test_face_data_scarf_singleton():
    phi = xy_example()
    fd = face_data(phi, (3, 0))
    assert fd.i_of_a == {1} == fd.i_a
    assert fd.i_upper_a == frozenset()


def test_face_data_outside_lattice():
    with pytest.raises(DegreeNotInLattice):
        face_data(xy_example(), (1, 1))


def test_face_data_and_lattice_records():
    fd = check_record(
        FaceData,
        {"degree": (3, 2), "i_a": frozenset({1, 2, 3}), "i_of_a": frozenset({1, 3}),
         "i_upper_a": frozenset({2})},
        "FaceData(degree=(3, 2), i_a=frozenset({1, 2, 3}), i_of_a=frozenset({1, 3}), "
        "i_upper_a=frozenset({2}))",
    )
    assert face_data(xy_example(), (3, 2)) == fd
    # named tuples: they unpack, and compare equal to the plain tuple
    degree, i_a, i_of_a, i_upper_a = fd
    assert fd == (degree, i_a, i_of_a, i_upper_a)
    # two equal-degree columns: one non-Scarf degree and no Scarf face
    phi = Morphism(2, QQ, [(1, 0), (1, 0)], [(0, 0)], {(1, 1): QQ.one, (1, 2): QQ.of(2)}).validate()
    both = frozenset({1, 2})
    lat = check_record(
        LcmLattice,
        {"elements": frozenset({(1, 0)}), "scarf_part": frozenset(),
         "nonscarf_part": frozenset({(1, 0)}), "scarf_faces": frozenset(),
         "nonscarf_data": (FaceData((1, 0), both, frozenset(), both),)},
        "LcmLattice(elements=frozenset({(1, 0)}), scarf_part=frozenset(), "
        "nonscarf_part=frozenset({(1, 0)}), scarf_faces=frozenset(), "
        "nonscarf_data=(FaceData(degree=(1, 0), i_a=frozenset({1, 2}), i_of_a=frozenset(), "
        "i_upper_a=frozenset({1, 2})),))",
    )
    assert lcm_lattice(phi) == lat


def test_face_data_matches_subset_enumeration():
    import itertools

    rng = random.Random(71)
    for _ in range(15):
        phi = random_generic_minimal(rng)
        lat = lcm_lattice(phi)
        for a in sorted(lat.elements):
            fd = face_data(phi, a)
            faces = [
                set(f)
                for k in range(1, phi.e + 1)
                for f in itertools.combinations(range(1, phi.e + 1), k)
                if phi.face_degree(f) == a
            ]
            assert set.intersection(*faces) == set(fd.i_of_a)
            assert fd.i_a == {j for j, d in enumerate(phi.source_degrees, 1) if leq(d, a)}


def test_generic_nonscarf_face_data_properties():
    import itertools

    rng = random.Random(73)
    for _ in range(15):
        phi = random_generic_minimal(rng)
        lat = lcm_lattice(phi)
        for a in lat.nonscarf_part:
            fd = face_data(phi, a)
            faces = [
                f
                for k in range(1, phi.e + 1)
                for f in itertools.combinations(range(1, phi.e + 1), k)
                if phi.face_degree(f) == a
            ]
            # pairwise intersections of equal-degree faces keep the degree
            for f1, f2 in itertools.combinations(faces, 2):
                meet = sorted(set(f1) & set(f2))
                assert meet and phi.face_degree(meet) == a
            # the intersection of all of them is itself a face of degree a
            assert phi.face_degree(sorted(fd.i_of_a)) == a
            assert fd.i_of_a < fd.i_a


def test_lattice_realization_and_size_bounds():
    rng = random.Random(79)
    for _ in range(10):
        phi = random_generic_minimal(rng)
        lat = lcm_lattice(phi)
        assert len(lat.elements) <= 2**phi.e - 1
        for a in lat.elements:
            face = sorted(phi.columns(phi.degree_index.leq(a)))
            assert join_all(phi.source_degrees[i - 1] for i in face) == a
        seen = set()
        for f in scarf_faces(phi):
            d = phi.face_degree(f)
            assert d not in seen
            seen.add(d)


def test_enumeration_cap():
    # only the full system enumerates column subsets; the chain x, ..., x^21
    # has (1) as its one Scarf face
    e = 21
    phi = Morphism(
        1,
        QQ,
        [(i,) for i in range(1, e + 1)],
        [(0,)],
        {(1, j): QQ.one for j in range(1, e + 1)},
    ).validate()
    with pytest.raises(TooManyColumns):
        taylor_complex(phi)
    assert scarf_faces(phi) == {(1,)}


def _oracle_draw(rng, field):
    """A small morphism whose source degrees repeat, compare, vanish in some
    coordinates, lie in N^1, or are a monomial ideal's (g = 1, coefficients 1)."""
    kind = rng.choice(["generic", "repeated", "comparable", "zeros", "monomial", "n1"])
    n = 1 if kind == "n1" else rng.randint(2, 4)
    e = rng.randint(1, 12) if kind != "generic" else rng.randint(3, 10)
    top = 3 if kind in ("repeated", "zeros", "n1") else 6
    low = 0 if kind in ("zeros", "monomial", "n1") else 1
    sources = [tuple(rng.randint(low, top) for _ in range(n)) for _ in range(e)]
    if kind == "repeated":
        sources = [rng.choice(sources[: j + 1]) for j in range(e)]
    elif kind == "comparable":
        for j in range(1, e):
            if rng.random() < 0.5:
                sources[j] = tuple(c + rng.randint(0, 2) for c in rng.choice(sources[:j]))
    elif kind == "generic":
        first = sorted(rng.sample(range(1, 4 * e), e))
        second = sorted(rng.sample(range(1, 4 * e), e), reverse=True)
        sources = [(first[j], second[j]) + sources[j][2:] for j in range(e)]
    g = 1 if kind == "monomial" else rng.randint(1, 3)
    entries = {
        (i, j): field.of(1 if kind == "monomial" else rng.choice([-2, -1, 1, 2, 3]))
        for i in range(1, g + 1)
        for j in range(1, e + 1)
    }
    return Morphism(n, field, sources, [(0,) * n] * g, entries).validate()


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "GF(32003)"])
def test_closure_lattice_matches_subset_walk(field):
    rng = random.Random(83)
    for _ in range(40):
        phi = _oracle_draw(rng, field)
        by_degree = faces_by_degree(phi)
        scarf = {a for a, faces in by_degree.items() if len(faces) == 1}
        lat = lcm_lattice(phi)
        assert lat.elements == set(by_degree)
        assert lat.scarf_part == scarf
        assert lat.nonscarf_part == set(by_degree) - scarf
        assert lat.scarf_faces == {by_degree[a][0] for a in scarf}
        # face data exactly on the lattice, DegreeNotInLattice off it: probe
        # each lattice degree, its neighbours one step along each coordinate,
        # and random degrees up to one past the largest coordinates
        tops = [max(d[k] for d in phi.source_degrees) + 1 for k in range(phi.n)]
        probes = {tuple(rng.randint(0, t) for t in tops) for _ in range(50)}
        for a in by_degree:
            for k, step in itertools.product(range(phi.n), (-1, 0, 1)):
                probes.add(a[:k] + (max(a[k] + step, 0),) + a[k + 1:])
        for a in sorted(probes):
            if a not in by_degree:
                with pytest.raises(DegreeNotInLattice):
                    face_data(phi, a)
                continue
            fd = face_data(phi, a)
            i_a = {j for j, d in enumerate(phi.source_degrees, 1) if leq(d, a)}
            i_of_a = set.intersection(*(set(f) for f in by_degree[a]))
            assert (fd.degree, fd.i_a, fd.i_of_a, fd.i_upper_a) == (a, i_a, i_of_a, i_a - i_of_a)


def _unit_vector_morphism(n):
    """n = e unit-vector degrees: the closure is all 2^n - 1 nonzero 0/1 vectors."""
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    return Morphism(n, QQ, units, [(0,) * n], {(1, j): QQ.one for j in range(1, n + 1)}).validate()


def test_closure_budget(tmp_path, monkeypatch, capsys):
    phi = _unit_vector_morphism(8)
    path = tmp_path / "units.mmor"
    path.write_text(formats.canonical_dumps(formats.morphism_to_dict(phi)))
    complex_path = tmp_path / "units.json"
    complex_path.write_text(formats.canonical_dumps(formats.complex_to_dict(taylor_complex(phi))))
    assert len(lcm_lattice(phi).elements) == 255
    monkeypatch.setattr(degrees, "MAX_CLOSURE_ELEMENTS", 100)
    # the lattice table is cached on phi, so each budget check needs a fresh morphism
    with pytest.raises(ClosureTooLarge):
        lcm_lattice(_unit_vector_morphism(8))
    with pytest.raises(ClosureTooLarge):
        face_data(_unit_vector_morphism(8), (1,) * 8)
    with pytest.raises(ClosureTooLarge):
        _unit_vector_morphism(8).is_maximal_rank_everywhere()
    capsys.readouterr()
    for argv in (["analyze", str(path)], ["scarf", str(path)], ["verify", str(complex_path)]):
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("mgres: ") and err.count("\n") == 1
    monkeypatch.setattr(degrees, "MAX_CLOSURE_ELEMENTS", 255)
    assert cli.run(["analyze", str(path), "--output", "json"]) == 0


@pytest.mark.parametrize("command", ["analyze", "scarf"])
def test_one_closure_walk_per_command(monkeypatch, capsys, command):
    # lcm_lattice, face_data and the maximal-rank check share one lattice
    # table, walked by the one index of the column degrees: no degree is cut
    # twice, and uncapped each lattice degree is cut once, in sorted order
    phi = formats.load_morphism(DATA / "ex4.mmor")
    elements = sorted(lcm_lattice(phi).elements)
    indexes, cuts = spy_degree_cuts(monkeypatch)
    assert cli.run([command, str(DATA / "ex4.mmor"), "--output", "json"]) == 0
    capsys.readouterr()
    assert indexes == [phi.source_degrees]
    assert len(cuts) == len(set(cuts)) > 0
    if command == "analyze":
        assert cuts == elements


def test_wide_generic_scarf_cli(tmp_path, capsys):
    # generic at e = 24, past the Taylor generator budget
    phi = wide_generic_morphism(24)
    path = tmp_path / "wide.mmor"
    path.write_text(formats.canonical_dumps(formats.morphism_to_dict(phi)))
    scarf_path = tmp_path / "scarf.json"
    assert cli.run(["scarf", str(path), "--output", "json", "--out", str(scarf_path)]) == 0
    capsys.readouterr()
    assert cli.run(["analyze", str(path), "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["generic"] is True
    assert cli.run(["verify", "--minimal", str(scarf_path)]) == 0
    x = formats.load_complex(scarf_path)
    assert graded_ranks(minimize(x)) == graded_ranks(x)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "GF(32003)"])
def test_lattice_keeps_the_face_data_of_its_nonscarf_degrees(field):
    rng = random.Random(89)
    kept = 0
    for _ in range(40):
        phi = _oracle_draw(rng, field)
        lat = lcm_lattice(phi)
        assert lat.nonscarf_data == tuple(face_data(phi, a) for a in sorted(lat.nonscarf_part))
        kept += len(lat.nonscarf_data)
    assert kept


def test_analyze_generic_is_the_two_criteria_together():
    rng = random.Random(97)
    split = 0
    for k in range(60):
        phi = random_generic_minimal(rng) if k % 3 == 0 else random_morphism(rng)
        payload = cli._analyze_payload(phi)
        assert payload["generic"] == phi.is_generic()
        assert payload["uniform_rank"] == phi.is_uniform_rank()
        assert payload["combinatorially_generic"] == phi.is_combinatorially_generic()
        split += payload["uniform_rank"] != payload["combinatorially_generic"]
    assert split  # some draw meets exactly one criterion
