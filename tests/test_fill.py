"""The seeded fill that proves a subgroup is the whole group.

A fill only ever answers "whole"; every False and every order still comes
from the deterministic normal closure or the greedy generator reduction.
"""

import random

import pytest

from edgeprim import (
    Permutation,
    automorphism_group,
    build_group,
    complete_graph,
    from_cycles,
    is_simple,
    perfect_core,
    reduce_generators,
    same_subgroup,
)
from edgeprim import groups, structure
from edgeprim.families import agammal1, agl1, pgl2, psl2


def s5():
    return build_group([from_cycles(5, [(0, 1)]), from_cycles(5, [(0, 1, 2, 3, 4)])])


def a5():
    return build_group([from_cycles(5, [(0, 1, 2)]), from_cycles(5, [(0, 1, 2, 3, 4)])])


def a5_times_a5():
    """A5 x A5 on 5 + 5 points."""
    return build_group([
        from_cycles(10, [(0, 1, 2)]), from_cycles(10, [(0, 1, 2, 3, 4)]),
        from_cycles(10, [(5, 6, 7)]), from_cycles(10, [(5, 6, 7, 8, 9)]),
    ])


def sl25():
    """SL(2,5) on the 24 nonzero vectors of GF(5)^2: perfect, with centre
    {1, -1}, so not simple."""
    vectors = [(x, y) for x in range(5) for y in range(5) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def matrix(a, b, c, d):
        return Permutation(tuple(
            index[((a * x + b * y) % 5, (c * x + d * y) % 5)] for x, y in vectors
        ))

    return build_group([matrix(1, 1, 0, 1), matrix(0, 4, 1, 0)])


GROUPS = {
    "S5": lambda request: s5(),
    "A5": lambda request: a5(),
    "PSL(2,7)": lambda request: psl2(7),
    "PSL(2,8)": lambda request: psl2(8),
    "PGL(2,9)": lambda request: pgl2(9),
    "PGL(2,11)": lambda request: pgl2(11),
    "AGL(1,8)": lambda request: agl1(8),
    "AGL(1,9)": lambda request: agl1(9),
    "AGammaL(1,8)": lambda request: agammal1(8),
    "Aut(HS)": lambda request: request.getfixturevalue("hs_aut"),
    "HS core": lambda request: request.getfixturevalue("hs_core"),
    "S8 = Aut(K8)": lambda request: automorphism_group(complete_graph(8)),
    "A8 on K8": lambda request: build_group(
        [from_cycles(8, [(0, 1, 2)]), from_cycles(8, [(1, 2, 3, 4, 5, 6, 7)])]
    ),
    "S5 at degree 300": lambda request: build_group(
        [from_cycles(300, [tuple(range(5))]), from_cycles(300, [(0, 1)])]
    ),
    "A5 at degree 300": lambda request: build_group(
        [from_cycles(300, [tuple(range(5))]), from_cycles(300, [(0, 1, 2)])]
    ),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_fallback_gives_the_answers_of_the_fill(name, request, monkeypatch):
    # With no budget every fill gives up at once, so each answer comes
    # from the deterministic normal closure or the greedy reduction.
    group = GROUPS[name](request)
    many = build_group(map(Permutation, group.gens + group.strong_gens))
    with_fill = (is_simple(group), perfect_core(group).order, reduce_generators(many))
    monkeypatch.setattr(groups, "_FILL_BUDGET", 0)
    without = (is_simple(group), perfect_core(group).order, reduce_generators(many))
    assert with_fill[:2] == without[:2]
    assert same_subgroup(with_fill[2], without[2])
    assert same_subgroup(group, with_fill[2])


@pytest.mark.parametrize("make", [a5_times_a5, sl25], ids=["A5xA5", "SL(2,5)"])
def test_perfect_groups_that_are_not_simple_fall_back(make, monkeypatch):
    group = make()
    assert perfect_core(group).order == group.order == {10: 3600, 24: 120}[group.degree]
    closures = []

    def counting(group, seeds):
        closures.append(seeds)
        return groups.normal_closure(group, seeds)

    monkeypatch.setattr(structure, "normal_closure", counting)
    assert not is_simple(group)
    assert closures


@pytest.mark.parametrize("seed", range(20))
def test_a_proper_subgroup_is_never_called_whole(seed, monkeypatch):
    monkeypatch.setattr(groups, "_FILL_SEED", seed)
    # The closure of a 3-cycle in S5 is A5, of index 2.
    assert not groups._closure_is_whole(s5(), [from_cycles(5, [(0, 1, 2)]).element])
    # The closure of (x, 1) in A5 x A5 is A5 x 1.
    product = a5_times_a5()
    assert not groups._closure_is_whole(product, [from_cycles(10, [(0, 1, 2, 3, 4)]).element])
    # A pair of even permutations generates at most A5 in S5.
    rng = random.Random(seed)
    uniform = groups._uniforms(a5(), rng)
    pair = (next(uniform)[0], next(uniform)[0])
    assert not groups._is_whole(s5(), groups._words(pair, rng))


def test_is_simple_on_the_hs_core_builds_no_closure(hs_core, monkeypatch):
    closures = []

    def counting(group, seeds):
        closures.append(seeds)
        return groups.normal_closure(group, seeds)

    monkeypatch.setattr(structure, "normal_closure", counting)
    assert is_simple(hs_core)
    assert closures == []


def test_reduce_generators_keeps_the_chain_of_aut_hs(hs_aut, monkeypatch):
    # The fill grows orbits with _complete but forms no Schreier generator,
    # and the pair comes back on the input's own chain.
    sifting = []
    complete = groups._Chain._complete

    def recording(chain, i, schreier=True):
        sifting.append(schreier)
        return complete(chain, i, schreier)

    monkeypatch.setattr(groups._Chain, "_complete", recording)
    reduced = reduce_generators(hs_aut)
    assert len(reduced.gens) == 2
    assert True not in sifting
    assert reduced.base == hs_aut.base
    assert reduced.transversals is hs_aut.transversals
    assert reduced.strong_gens is hs_aut.strong_gens
    monkeypatch.undo()
    assert build_group(map(Permutation, reduced.gens)).order == 252000
