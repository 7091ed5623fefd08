import itertools

import pytest

from edgeprim import Permutation, compose, from_cycles, identity, inverse


def test_identity_composition():
    p = from_cycles(4, [(0, 1, 2)])
    assert compose(p, identity(4)) == p
    assert compose(identity(4), p) == p


def test_involution_squares_to_identity():
    t = from_cycles(2, [(0, 1)])
    assert compose(t, t) == identity(2)


def test_composition_matches_exhaustive_s3_table():
    # Oracle: multiply every pair in S_3 by direct image-chasing and compare.
    perms = [Permutation(imgs) for imgs in itertools.permutations(range(3))]
    for p in perms:
        for q in perms:
            expected = tuple(q.images[p.images[x]] for x in range(3))
            assert compose(p, q).images == expected


def test_apply_order_is_left_first():
    p = from_cycles(3, [(0, 1, 2)])
    q = from_cycles(3, [(0, 1)])
    assert compose(p, q)(0) == q(p(0))


def test_inverse_round_trip():
    p = from_cycles(6, [(0, 3, 1), (2, 5)])
    assert compose(p, inverse(p)) == identity(6)
    assert compose(inverse(p), p) == identity(6)


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0))
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 2))
    with pytest.raises(ValueError):
        Permutation(())


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_cycles_and_order():
    p = from_cycles(7, [(0, 1, 2), (3, 4)])
    assert p.cycles() == ((0, 1, 2), (3, 4))
    assert p.order() == 6
    assert identity(5).order() == 1


def test_from_cycles_rejects_overlap_and_range():
    with pytest.raises(ValueError):
        from_cycles(4, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        from_cycles(3, [(0, 5)])
