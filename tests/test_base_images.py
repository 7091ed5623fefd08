"""Rebased chains, pointwise and setwise stabilizers, element mappings,
k-transitivity and the walk down a chain against brute force, on seeded
small groups (transitive and intransitive) and on both sides of the byte
kernel.

A chain is rebased onto an image of the base by conjugation; past the
longest image walked, the rest is rebuilt.  Each prefix below is classed
by how far it walks (all of it, part of it, none of it), and every class
must occur, so both paths are compared with the oracle.
"""

import math
import random

import pytest

from edgeprim import Permutation, build_group, element_mapping, from_cycles, is_k_transitive
from edgeprim.families import pgl2
from edgeprim.groups import _walk
from edgeprim.perms import _kernel
from brute import (
    assert_valid_chain, brute_closure, brute_setwise_stabilizer, chain_levels, inverse_t,
)


def _dihedral(m, copies):
    """D_m on `copies` disjoint m-gons at once (intransitive if copies > 1)."""
    rotate, reflect = [], []
    for c in range(copies):
        rotate += [c * m + (x + 1) % m for x in range(m)]
        reflect += [c * m + (-x) % m for x in range(m)]
    return build_group([Permutation(tuple(rotate)), Permutation(tuple(reflect))])


def _two_lines():
    """PGL(2,7) on two copies of the projective line."""
    return build_group([
        Permutation(p.images + tuple(8 + x for x in p.images)) for p in pgl2(7).generators
    ])


def _random_intransitive(seed, n=12, max_order=3000):
    """Random permutations of two or three blocks of points, kept small."""
    rng = random.Random(seed)
    while True:
        points = rng.sample(range(n), rng.randint(6, n))
        cuts = sorted(rng.sample(range(2, len(points) - 1), rng.randint(1, 2)))
        blocks = [points[a:b] for a, b in zip([0] + cuts, cuts + [len(points)])]
        gens = []
        for _ in range(2):
            images = list(range(n))
            for block in blocks:
                for x, y in zip(block, rng.sample(block, len(block))):
                    images[x] = y
            gens.append(Permutation(tuple(images)))
        group = build_group(gens)
        if 1 < group.order <= max_order and len(group.orbits()) > 1:
            return group


GROUPS = {
    "S5": lambda: build_group([from_cycles(5, [(0, 1)]), from_cycles(5, [(0, 1, 2, 3, 4)])]),
    "PGL(2,7)": lambda: pgl2(7),
    "PGL(2,7) on two lines": _two_lines,
    "random intransitive 1": lambda: _random_intransitive(1),
    "random intransitive 2": lambda: _random_intransitive(2),
    "random intransitive 3": lambda: _random_intransitive(3),
    "D_300 (tuple kernel)": lambda: _dihedral(300, 1),
    "D_150 on two 150-gons (tuple kernel)": lambda: _dihedral(150, 2),
}


def _prefixes(group, elements, rng):
    """Base images, base images with one point changed or one point past
    the base added, and random points."""
    base = group.base
    out = []
    for _ in range(12):
        g = rng.choice(elements)
        m = rng.randint(1, len(base))
        image = [g[b] for b in base[:m]]
        out.append(tuple(image))
        changed = list(image)
        changed[rng.randrange(m)] = rng.randrange(group.degree)
        out.append(tuple(dict.fromkeys(changed)))
        out.append(tuple(rng.sample(range(group.degree), rng.randint(1, 3))))
        full = [g[b] for b in base]
        past = [x for x in range(group.degree) if x not in full]
        if past:
            out.append(tuple(full) + (rng.choice(past),))
    return out


def _brute_walk(base, elements, points):
    """Largest j with some element sending base[:j] to points[:j]."""
    best = 0
    for e in elements:
        j = 0
        for b, p in zip(base, points):
            if e[b] != p:
                break
            j += 1
        best = max(best, j)
    return best


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_stabilizers_and_mappings_match_brute_force(name):
    group = GROUPS[name]()
    k = _kernel(group.degree)
    elements = sorted(brute_closure([g.images for g in group.generators]))
    assert len(elements) == group.order
    members = set(elements)
    rng = random.Random(name)
    inverses = [{x: t_inv for x, _t, t_inv in level} for level in chain_levels(group)]
    walked = set()
    for points in _prefixes(group, elements, rng):
        j, g_inv = _walk(k, inverses, points)
        assert j == _brute_walk(group.base, elements, points)
        walked.add("all" if j == len(points) else "part" if j else "none")
        g = inverse_t(tuple(g_inv))
        assert g in members
        assert all(g[b] == p for b, p in zip(group.base, points[:j]))

        rebased = group.rebase(points)
        assert rebased.gens == group.gens and rebased.order == group.order
        assert rebased.base[: len(points)] == tuple(dict.fromkeys(points))
        assert_valid_chain(rebased, ())
        others = [tuple(rng.sample(range(group.degree), group.degree)) for _ in range(5)]
        for e in rng.sample(elements, min(len(elements), 50)) + others:
            assert rebased.contains(k.element(e)) == (e in members)

        stab = group.pointwise_stabilizer(points)
        fixing = {e for e in elements if all(e[p] == p for p in points)}
        assert stab.order == len(fixing)
        assert_valid_chain(stab, points)
        assert {tuple(s) for s in stab.strong_gens} <= members
        for e in rng.sample(elements, min(len(elements), 200)):
            assert stab.contains(k.element(e)) == (e in fixing)

        setwise = group.setwise_stabilizer(set(points))
        keeping = brute_setwise_stabilizer(members, set(points))
        assert setwise.order == len(keeping)
        assert_valid_chain(setwise, ())
        assert {tuple(s) for s in setwise.strong_gens} <= keeping
        for e in rng.sample(elements, min(len(elements), 200)):
            assert setwise.contains(k.element(e)) == (e in keeping)

        for dst in (tuple(rng.choice(elements)[p] for p in points),
                    tuple(rng.sample(range(group.degree), len(points)))):
            found = element_mapping(group, points, dst)
            expected = any(all(e[s] == d for s, d in zip(points, dst)) for e in elements)
            assert (found is not None) == expected
            if found is not None:
                assert tuple(found) in members
                assert all(found[s] == d for s, d in zip(points, dst))
    transitive = len(group.orbits()) == 1
    assert walked >= ({"all", "part"} if transitive else {"all", "part", "none"})
    if group.degree <= 16:
        for t in (1, 2, 3):
            # Transitive on ordered t-tuples of distinct points.
            images = {e[:t] for e in elements}
            assert is_k_transitive(group, t) == (len(images) == math.perm(group.degree, t))


def test_identity_walk_shares_the_chain_tail():
    group = pgl2(7)
    for j in range(len(group.base) + 1):
        stab = group.pointwise_stabilizer(group.base[:j])
        assert stab.base == group.base[j:]
        # Pins the storage on purpose: the tail's levels are the same objects.
        assert all(a is b for a, b in zip(stab.transversals, group.transversals[j:]))


def test_element_mapping_with_repeated_points():
    group = pgl2(7)
    found = element_mapping(group, (0, 1, 0), (2, 3, 2))
    assert found is not None and (found[0], found[1]) == (2, 3)
    assert element_mapping(group, (0, 0), (2, 3)) is None
    assert element_mapping(group, (0, 1), (2, 2)) is None
    assert element_mapping(group, (), ()) == _kernel(group.degree).identity
