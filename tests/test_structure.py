import itertools
import random
from collections import Counter

import pytest

from edgeprim import (
    Permutation,
    ScaleLimitError,
    build_group,
    centralizer,
    conjugacy_classes,
    elements,
    from_cycles,
    is_cyclic,
    is_simple,
    is_soluble,
    normal_subgroups,
    normalizer,
    sylow_subgroup,
    trivial_group,
)
from edgeprim.families import agammal1, agl1, pgl2, psl2
from edgeprim.groups import derived_subgroup, is_abelian, normal_closure
from edgeprim.perms import _kernel
from edgeprim.structure import prime_factors
from brute import brute_closure, brute_normalizer, compose_t, inverse_t


def s3():
    return build_group([from_cycles(3, [(0, 1)]), from_cycles(3, [(0, 1, 2)])])


def s4():
    return build_group([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])


def s5():
    return build_group([from_cycles(5, [(0, 1)]), from_cycles(5, [(0, 1, 2, 3, 4)])])


def a5():
    return build_group([from_cycles(5, [(0, 1, 2)]), from_cycles(5, [(0, 1, 2, 3, 4)])])


def test_element_enumeration_is_complete_and_deterministic():
    g = s4()
    listed = [tuple(e) for e in elements(g)]
    assert len(listed) == 24
    assert set(listed) == brute_closure([p.images for p in g.generators])
    assert listed == [tuple(e) for e in elements(g)]


def test_center_of_s3_is_trivial():
    g = s3()
    assert centralizer(g, g).order == 1


def test_center_of_dihedral_4():
    d8 = build_group([from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(1, 3)])])
    assert centralizer(d8, d8).order == 2


def test_normalizer_is_whole_group_for_itself():
    g = s4()
    assert normalizer(g, g).order == g.order


def test_normalizer_matches_brute_force():
    g = a5()
    edge_stab = g.setwise_stabilizer([0, 1])
    got = normalizer(g, edge_stab)
    ambient = brute_closure([p.images for p in g.generators])
    sub = brute_closure([p.images for p in edge_stab.generators])
    assert got.order == len(brute_normalizer(ambient, sub))
    # Self-normalized edge stabilizer inside the simple normal subgroup.
    assert got.order == edge_stab.order == 6


def test_normalizer_requires_subgroup():
    with pytest.raises(ValueError):
        normalizer(a5(), build_group([from_cycles(5, [(0, 1)])]))


def test_normalizer_walks_cosets_not_elements(monkeypatch):
    from edgeprim import structure

    walked = []
    original = structure._iter_elements_bytes

    def counting(group):
        walked.append(group.order)
        return original(group)

    monkeypatch.setattr(structure, "_iter_elements_bytes", counting)
    g = s5()
    for sub, expected in (
        (g, 120), (g.point_stabilizer(0), 24), (g.setwise_stabilizer([0, 1]), 12),
        (trivial_group(5), 120),
    ):
        assert normalizer(g, sub).order == expected
    assert normalizer(s4(), build_group([from_cycles(4, [(0, 1, 2, 3)])])).order == 8
    assert walked == []


def test_normalizer_stops_once_it_is_the_whole_group(monkeypatch):
    # The cosets are met lazily: the trivial subgroup of S8 has 40320 of
    # them, and a few representatives already generate S8.
    from edgeprim import structure

    met = []
    original = structure.right_cosets

    def counting(group, sub):
        for rep in original(group, sub):
            met.append(rep)
            yield rep

    monkeypatch.setattr(structure, "right_cosets", counting)
    s8 = build_group([from_cycles(8, [(0, 1)]), from_cycles(8, [tuple(range(8))])])
    assert normalizer(s8, trivial_group(8)).order == 40320
    assert len(met) < 100


def test_scale_limit_is_explicit():
    g = s5()
    with pytest.raises(ScaleLimitError):
        normalizer(g, g.point_stabilizer(0), cutoff=100)
    with pytest.raises(ScaleLimitError):
        is_simple(a5(), cutoff=10)


def test_centralizer_of_normal_in_s4():
    g = s4()
    v4 = build_group([from_cycles(4, [(0, 1), (2, 3)]), from_cycles(4, [(0, 2), (1, 3)])])
    c = centralizer(g, v4)
    assert c.order == 4


def test_centralizer_does_not_enumerate(hs_aut, hs_core, monkeypatch):
    from edgeprim import structure

    # Every enumeration goes through the one raw enumerator.
    enumerated = []
    original = structure._iter_elements_bytes

    def counting(group):
        enumerated.append(group.order)
        return original(group)

    monkeypatch.setattr(structure, "_iter_elements_bytes", counting)
    assert len(hs_core.orbit(0)) == hs_core.degree
    assert centralizer(hs_aut, hs_core).order == 1
    assert enumerated == []
    # Nor for an intransitive subgroup.
    assert centralizer(s5(), build_group([from_cycles(5, [(0, 1, 2)])])).order == 6
    assert enumerated == []
    assert is_simple(hs_core)


def test_sylow_orders():
    g = s4()
    assert sylow_subgroup(g, 2).order == 8
    assert sylow_subgroup(g, 3).order == 3
    g5 = s5()
    assert sylow_subgroup(g5, 5).order == 5
    assert sylow_subgroup(g5, 2).order == 8


def test_simplicity():
    assert is_simple(a5())
    assert not is_simple(s5())
    z7 = build_group([from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)])])
    assert is_simple(z7)
    z6 = build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    assert not is_simple(z6)
    with pytest.raises(ValueError):
        is_simple(build_group([from_cycles(2, [])]))


def _class_closure_is_simple(group):
    """Reference: simple iff the normal closure of every nontrivial class
    representative of the whole group is the whole group."""
    order = group.order
    if prime_factors(order) == [order]:
        return True
    if is_abelian(group):
        return False
    identity = _kernel(group.degree).identity
    return all(
        normal_closure(group, [rep]).order == order
        for rep, _size in conjugacy_classes(group)
        if rep != identity
    )


def _a4():
    return build_group([from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(0, 1), (2, 3)])])


def _m11():
    a = from_cycles(11, [tuple(range(11))])
    b = from_cycles(11, [(2, 6, 10, 7), (3, 9, 4, 5)])
    return build_group([a, b])


def _on_elements(group, maps):
    """The group generated by maps of a group to itself, on its elements."""
    elems = sorted(brute_closure([p.images for p in group.generators]))
    index = {x: i for i, x in enumerate(elems)}
    return build_group([Permutation(tuple(index[f(x)] for x in elems)) for f in maps])


def _on_a5_elements(maps):
    return _on_elements(a5(), maps)


def _a5_times_a5_on_a5():
    """A5 x A5 acting on A5 by x -> a^-1 x b: both factors are regular."""
    gens = [p.images for p in a5().generators]
    left = [lambda x, a=a: compose_t(inverse_t(a), x) for a in gens]
    right = [lambda x, b=b: compose_t(x, b) for b in gens]
    return _on_a5_elements(left + right)


def _right_regular(group):
    return _on_elements(
        group, [lambda x, b=b.images: compose_t(x, b) for b in group.generators]
    )


def _right_regular_a5():
    return _right_regular(a5())


def _on_points_and_pairs(group):
    """A group of degree 5 acting on its 5 points and its 10 pairs."""
    pairs = list(itertools.combinations(range(5), 2))
    index = {pair: 5 + i for i, pair in enumerate(pairs)}
    return build_group([
        Permutation(
            g.images + tuple(index[tuple(sorted((g(a), g(b))))] for a, b in pairs)
        )
        for g in group.generators
    ])


def _on_copies(first, second):
    """The group generated by f on points 0..4 together with s on points
    5..9, for each pair (f, s); equal lists give a diagonal action."""
    return build_group([
        Permutation(f.images + tuple(5 + x for x in s.images))
        for f, s in zip(first, second)
    ])


def _product_action(left, right):
    """left x right on the 25 pairs (i, j), i.e. point 5i + j."""
    ident = tuple(range(5))
    gens = [(g.images, ident) for g in left.generators]
    gens += [(ident, g.images) for g in right.generators]
    return build_group([
        Permutation(tuple(5 * a[i] + b[j] for i in range(5) for j in range(5)))
        for a, b in gens
    ])


def _direct_product_on_copies(left, right):
    ident = Permutation(tuple(range(5)))
    gens = [(g, ident) for g in left.generators]
    gens += [(ident, g) for g in right.generators]
    return _on_copies([a for a, _ in gens], [b for _, b in gens])


def _simplicity_cases(hs_core):
    cases = {}
    for q in (5, 7, 8, 9, 11):
        cases[f"PSL(2,{q})"] = (psl2(q), True)
        cases[f"PGL(2,{q})"] = (pgl2(q), q == 8)
    for q in (5, 7, 8, 9):
        cases[f"AGL(1,{q})"] = (agl1(q), False)
        cases[f"AGammaL(1,{q})"] = (agammal1(q), False)
    a5_gens, s5_gens = a5().generators, s5().generators
    cases.update({
        "A4 on 4": (_a4(), False),
        "S4 on 4": (s4(), False),
        "A5xA5 on 60": (_a5_times_a5_on_a5(), False),
        "right-regular A5 on 60": (_right_regular_a5(), True),
        "A5 on 5+10": (_on_points_and_pairs(a5()), True),
        "S5 on 5+10": (_on_points_and_pairs(s5()), False),
        "A5xA5 on 5+5": (_direct_product_on_copies(a5(), a5()), False),
        "diagonal A5 on 5+5": (_on_copies(a5_gens, a5_gens), True),
        "diagonal S5 on 5+5": (_on_copies(s5_gens, s5_gens), False),
        "A5xA5 on 25": (_product_action(a5(), a5()), False),
        "M11": (_m11(), True),
        "HS core": (hs_core, True),
    })
    return cases


def test_is_simple_agrees_with_class_closures(hs_core, monkeypatch):
    from edgeprim import structure

    # is_simple computes no conjugacy classes; the reference here does,
    # through its own import of conjugacy_classes.
    calls = []

    def counting(group, cutoff=None):
        calls.append(group.order)
        return conjugacy_classes(group)

    monkeypatch.setattr(structure, "conjugacy_classes", counting)
    for name, (group, expected) in _simplicity_cases(hs_core).items():
        assert is_simple(group) == expected, name
        assert _class_closure_is_simple(group) == expected, name
    assert calls == []


def test_is_simple_agrees_with_class_closures_on_random_subgroups():
    # Seeded random subgroups of intransitive and imprimitive ambients.
    rng = random.Random(4051)
    ambients = [
        _direct_product_on_copies(s5(), s5()),
        _product_action(s5(), a5()),
        _a5_times_a5_on_a5(),
    ]
    checked = Counter()
    for ambient in ambients:
        for _ in range(8):
            words = [
                [rng.choice(ambient.generators) for _ in range(rng.randint(1, 6))]
                for _ in range(rng.randint(1, 2))
            ]
            gens = []
            for word in words:
                images = tuple(range(ambient.degree))
                for g in word:
                    images = compose_t(images, g.images)
                gens.append(Permutation(images))
            sub = build_group(gens)
            if sub.order == 1:
                continue
            verdict = is_simple(sub)
            assert verdict == _class_closure_is_simple(sub), [g.images for g in gens]
            checked[verdict] += 1
    assert checked[True] and checked[False]


@pytest.mark.parametrize(
    "make",
    [lambda: pgl2(11), lambda: _on_points_and_pairs(s5()), _m11],
    ids=["PGL(2,11)", "S5 on 5+10", "M11"],
)
def test_is_simple_agrees_with_class_closures_on_random_almost_simple_subgroups(make):
    # Seeded subgroups generated by one or two random elements of an almost
    # simple ambient, and their derived subgroups: cyclic groups, soluble
    # and almost simple subgroups, and simple ones of composite order,
    # which take the walk down the whole chain.
    ambient = make()
    listed = elements(ambient)
    rng = random.Random(7919)
    checked = Counter()
    for _ in range(12):
        sub = build_group(map(Permutation, rng.sample(listed, rng.randint(1, 2))))
        for group in (sub, derived_subgroup(sub)):
            if group.order == 1:
                continue
            verdict = is_simple(group)
            assert verdict == _class_closure_is_simple(group), [
                g.images for g in group.generators
            ]
            checked[verdict, prime_factors(group.order) == [group.order]] += 1
    assert checked[True, False] and checked[False, False]


def test_is_simple_walks_only_a_point_stabilizer(hs_core, monkeypatch):
    from edgeprim import structure

    walked = Counter()
    original = structure._iter_elements_bytes

    def counting(group):
        for element in original(group):
            walked[group.order] += 1
            yield element

    monkeypatch.setattr(structure, "_iter_elements_bytes", counting)
    assert is_simple(hs_core)
    # Only two-point stabilizers H_b inside some G_(i) are walked, each
    # over the few cosets of H_b that can permute Fix(H_b).  At level 0
    # the point stabilizer is A7 (order 2520) with suborbits 7 and 42, so
    # H_b has order 360 or 60.
    assert hs_core.order not in walked
    assert max(walked) <= 2520 // 7
    assert sum(walked.values()) < 1000
    walked.clear()
    # A5 x A5 on 5+5: the normal factor A5 x 1 is caught at the level
    # where its intersection with the chain becomes semiregular; nothing of
    # order beyond a two-point stabilizer is walked.
    product = _direct_product_on_copies(a5(), a5())
    assert not is_simple(product)
    assert product.order not in walked
    assert sum(walked.values()) <= product.order // 5
    assert max(walked) <= product.order // 20


def _on_cosets_of_an_element(group, element_order):
    from edgeprim.actions import CosetTable
    from edgeprim.structure import elements

    x = next(g for g in map(Permutation, elements(group)) if g.order() == element_order)
    table = CosetTable(group, build_group([x]))
    return build_group(Permutation(table.image_of(g)) for g in group.gens)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _right_regular(psl2(5)),
        lambda: _right_regular(psl2(7)),
        lambda: _on_cosets_of_an_element(psl2(7), 3),
    ],
    ids=["right-regular A5", "right-regular PSL(2,7)", "PSL(2,7) on 56 cosets"],
)
def test_is_simple_takes_one_closure_per_class(make, monkeypatch):
    # With a small point stabilizer almost every fixed-point-free element of
    # a coset is a semiregular candidate.  Marking the conjugates of each
    # candidate that passes keeps each level i of the chain to one normal
    # closure per nontrivial class of G_(i), as a class walk over G_(i)
    # would take; at level 0 that is one per class of the group.  Each
    # candidate asks the seeded fill before any normal closure is built.
    from edgeprim import groups, structure

    group = make()
    closures = []

    def counting(group, seeds):
        closures.append(seeds)
        return groups._closure_is_whole(group, seeds)

    monkeypatch.setattr(structure, "_closure_is_whole", counting)
    assert is_simple(group)
    stab = group.point_stabilizer(group.base[0])
    bound = len(conjugacy_classes(stab)) - 1 + len(conjugacy_classes(group)) - 1
    assert len(closures) <= bound
    per_level = sum(
        len(conjugacy_classes(group.pointwise_stabilizer(group.base[:i]))) - 1
        for i in range(len(group.base))
        if len(group.basic_orbit(i)) > 1
    )
    assert len(closures) <= per_level


def test_conjugacy_class_sizes_sum_to_order():
    g = s4()
    classes = conjugacy_classes(g)
    assert sum(size for _rep, size in classes) == 24
    assert len(classes) == 5


def test_normal_subgroup_sweep():
    orders = [n.order for n in normal_subgroups(s4())]
    assert orders == [4, 12, 24]


def test_solubility_and_cyclicity():
    assert is_soluble(s4())
    assert not is_soluble(a5())
    assert is_cyclic(build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)])]))
    assert not is_cyclic(s3())

