"""Differential tests against sympy.combinatorics, an independent
permutation-group implementation (test-only; skipped without sympy)."""

import random

import pytest

from edgeprim import (
    Permutation,
    build_group,
    centralizer,
    derived_subgroup,
    from_cycles,
)
from brute import brute_closure, compose_t, inverse_t

combinatorics = pytest.importorskip("sympy.combinatorics")


def to_sympy(group):
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in group.generators]
    )


def test_hoffman_singleton_orders_agree_with_sympy(hs_aut):
    group = to_sympy(hs_aut)
    ours = derived_subgroup(hs_aut)
    theirs = group.derived_subgroup()
    assert hs_aut.order == group.order() == 252000
    assert ours.order == theirs.order() == 126000
    assert centralizer(hs_aut, ours).order == group.centralizer(theirs).order() == 1


# Transitive imprimitive or affine groups, whose transitive subgroups often
# have nontrivial centralizers (unlike random subgroups of S_n).
TRANSITIVE_AMBIENTS = {
    6: [[(0, 1)], [(0, 2), (1, 3)], [(0, 2, 4), (1, 3, 5)]],  # C2 wr S3
    7: [[(0, 1, 2, 3, 4, 5, 6)], [(1, 3, 2, 6, 4, 5)]],  # AGL(1, 7)
    8: [[(0, 1)], [(0, 2), (1, 3)], [(0, 2, 4, 6), (1, 3, 5, 7)]],  # C2 wr S4
}


def test_centralizers_of_random_subgroups_agree_with_sympy():
    rng = random.Random(8191)
    orders = set()
    for n, cycles in TRANSITIVE_AMBIENTS.items():
        ambient = sorted(brute_closure([from_cycles(n, c).images for c in cycles]))
        symmetric = build_group([from_cycles(n, [(0, 1)]), from_cycles(n, [tuple(range(n))])])
        # Four transitive and four intransitive subgroups.
        wanted = {True: 4, False: 4}
        while any(wanted.values()):
            relabel = list(range(n))
            rng.shuffle(relabel)
            relabel = tuple(relabel)
            gens = [
                Permutation(compose_t(compose_t(inverse_t(relabel), x), relabel))
                for x in rng.sample(ambient, rng.randint(1, 2))
            ]
            sub = build_group(gens)
            transitive = len(sub.orbit(0)) == n
            if not wanted[transitive]:
                continue
            wanted[transitive] -= 1
            extra = Permutation(rng.choice(ambient))
            for group in (symmetric, build_group(gens + [extra]), sub):
                got = centralizer(group, sub).order
                assert got == to_sympy(group).centralizer(to_sympy(sub)).order()
                orders.add(got)
    assert len(orders) > 1
