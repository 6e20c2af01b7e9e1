"""Randomized property checks over the seeded corpus (small slices; the
full sweeps run in the acceptance suite)."""
import hashlib
import json

import pytest

from latticegfun import (GradedPoset, WeightPoly, build_gfun, check_ehrhart_macdonald,
                         check_master_duality, check_reciprocity,
                         check_weighted_reciprocity, random_corpus)


def test_corpus_determinism():
    a = random_corpus(1, 10, 2, 3)
    b = random_corpus(1, 10, 2, 3)
    assert [P.vertices for P in a] == [P.vertices for P in b]
    c = random_corpus(2, 10, 2, 3)
    assert [P.vertices for P in a] != [P.vertices for P in c]


# sha256 of the JSON list of the 2-D (15, max_coord 3) and 3-D (10,
# max_coord 2) corpora at each seed pair, as the property suites and the
# benchmark draw them
CORPUS_DIGESTS = {
    (11, 7): "ec3860fbaf843bb0a1a1e6b5214747d6c8e8907b59cb20c709136d6a9b52c211",
    (103, 105): "f186f9a002edbbb0e98f7661c011c2b21a034a744c4dd71939f3acb9fc1d2efc",
}


@pytest.mark.parametrize("seeds", sorted(CORPUS_DIGESTS))
def test_corpus_is_stable(seeds):
    s2, s3 = seeds
    text = json.dumps([P.to_json() for P in random_corpus(s2, 15, 2, 3) + random_corpus(s3, 10, 3, 2)])
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_DIGESTS[seeds]


def test_corpus_rejects_negative_count_and_exhausted_box():
    assert random_corpus(1, 0, 2, 3) == []
    with pytest.raises(ValueError, match="nonnegative"):
        random_corpus(1, -1, 2, 3)
    # [0, 1]^2 holds five lattice polygons: the square and four triangles
    with pytest.raises(ValueError, match="found only 5 distinct polytopes"):
        random_corpus(1, 30, 2, 1)
    assert len(random_corpus(1, 5, 2, 1)) == 5


@pytest.mark.parametrize("max_coord", [0, 6])
def test_corpus_rejects_coordinates_outside_1_to_5(max_coord):
    with pytest.raises(ValueError, match=r"^corpus coordinates must stay within 1\.\.5$"):
        random_corpus(1, 3, 2, max_coord)


def test_corpus_is_full_dimensional(corpus2d, corpus3d):
    for P in corpus2d:
        assert P.ambient_dim == 2 and len(P.vertices) >= 3
    for P in corpus3d:
        assert P.ambient_dim == 3 and len(P.vertices) >= 4
    assert len({P.vertices for P in corpus2d}) == len(corpus2d)


def test_corpus_euler(corpus2d, corpus3d):
    for P in [*corpus2d, *corpus3d]:
        lat = P.face_lattice
        assert sum((-1) ** lat.faces[i].dim for i in lat.nonempty()) == 1


def test_corpus_master_duality(corpus2d, corpus3d):
    for P in [*corpus2d[:6], *corpus3d[:4]]:
        assert check_master_duality(GradedPoset.from_face_lattice(P.face_lattice))


def test_corpus_reciprocity_sample(corpus2d, corpus3d):
    for P in corpus2d[:4]:
        for phi in (WeightPoly.one(2), WeightPoly.monomial(2, (1, 0))):
            assert check_reciprocity(build_gfun(P, phi))
    for P in corpus3d[:2]:
        assert check_reciprocity(build_gfun(P))


def test_corpus_ehrhart_macdonald_sample(corpus2d, corpus3d):
    for P in [*corpus2d[:5], *corpus3d[:3]]:
        assert check_ehrhart_macdonald(P)
        assert check_weighted_reciprocity(P, WeightPoly.monomial(
            P.ambient_dim, (1,) + (0,) * (P.ambient_dim - 1)))
