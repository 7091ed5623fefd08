"""Randomized cross-validation of subgroup operations against brute force."""

import random

from edgeprim import (
    CosetTable,
    Permutation,
    build_group,
    centralizer,
    from_cycles,
    is_primitive,
    normalizer,
    trivial_group,
)
from brute import (
    all_subgroups,
    brute_centralizer,
    brute_closure,
    brute_normalizer,
    brute_setwise_stabilizer,
    compose_t,
)


def random_subgroup(rng, ambient_elements, max_gens=2):
    gens = [rng.choice(ambient_elements) for _ in range(rng.randint(1, max_gens))]
    return [Permutation(g) for g in gens]


def test_normalizer_and_centralizer_match_brute_on_random_subgroups():
    # Both grow one chain bounded by the ambient order and stop once it is
    # full; each result must equal build_group of its own generators.
    from edgeprim import agl1, pgl2

    wreath = build_group([
        from_cycles(6, [(0, 1)]),
        from_cycles(6, [(0, 2, 4), (1, 3, 5)]),
        from_cycles(6, [(0, 2), (1, 3)]),
    ])
    rng = random.Random(31337)
    for group, samples in (
        (_symmetric(5), 20), (agl1(7), 8), (pgl2(5), 8), (wreath, 8), (_symmetric(4), 8)
    ):
        ambient = sorted(brute_closure([p.images for p in group.generators]))
        subs = [build_group(random_subgroup(rng, ambient)) for _ in range(samples)]
        subs += [group, group.point_stabilizer(0), trivial_group(group.degree)]
        for sub in subs:
            sub_elements = brute_closure([p.images for p in sub.generators])
            for op, brute in ((normalizer, brute_normalizer), (centralizer, brute_centralizer)):
                got = op(group, sub)
                assert got.order == len(brute(set(ambient), sub_elements))
                rebuilt = build_group(got.generators)
                assert rebuilt.base == got.base
                assert rebuilt.strong_gens == got.strong_gens


def _symmetric(n):
    return build_group([from_cycles(n, [(0, 1)]), from_cycles(n, [tuple(range(n))])])


def _regular_s3():
    """S3 on its own 6 elements: right multiplication H and left L."""
    s3 = sorted(brute_closure([(1, 0, 2), (1, 2, 0)]))
    index = {x: i for i, x in enumerate(s3)}
    right = [Permutation(tuple(index[compose_t(x, h)] for x in s3)) for h in s3]
    left = [Permutation(tuple(index[compose_t(h, x)] for x in s3)) for h in s3]
    return build_group(right), build_group(left)


def test_centralizer_matches_brute_on_transitive_and_intransitive_subgroups():
    s4 = _symmetric(4)
    v4 = build_group([from_cycles(4, [(0, 1), (2, 3)]), from_cycles(4, [(0, 2), (1, 3)])])
    right, left = _regular_s3()
    cases = [
        (s4, v4, 4),
        # C_Sym(H) is the left-regular S3, which meets H only in Z(S3) = 1.
        (right, right, 1),
        (build_group(list(right.generators) + list(left.generators)), right, 6),
        (_symmetric(5), build_group([from_cycles(5, [(0, 1, 2)])]), 6),
        # The centralizer swaps the two orbits.
        (_symmetric(6), build_group([from_cycles(6, [(0, 1, 2), (3, 4, 5)])]), 18),
        (_symmetric(6), build_group([from_cycles(6, [(0, 1, 2)]), from_cycles(6, [(3, 4, 5)])]), 9),
        (_symmetric(6), trivial_group(6), 720),
        # The group fixes 995 of its 1000 points, and the subgroup every point.
        (
            build_group([from_cycles(1000, [(0, 1)]), from_cycles(1000, [(0, 1, 2, 3, 4)])]),
            trivial_group(1000),
            120,
        ),
    ]
    for n in range(3, 8):
        cases.append((_symmetric(n), build_group([from_cycles(n, [tuple(range(n))])]), n))
    rng = random.Random(2718)
    for n in (5, 6):
        sym = _symmetric(n)
        ambient = sorted(brute_closure([p.images for p in sym.generators]))
        # Six transitive and six intransitive subgroups.
        wanted = {True: 6, False: 6}
        while any(wanted.values()):
            sub = build_group(random_subgroup(rng, ambient))
            transitive = len(sub.orbit(0)) == n
            if wanted[transitive]:
                cases.append((sym, sub, None))
                wanted[transitive] -= 1
    for group, sub, expected in cases:
        group_elements = brute_closure([p.images for p in group.generators])
        sub_elements = brute_closure([p.images for p in sub.generators])
        got = centralizer(group, sub).order
        assert got == len(brute_centralizer(group_elements, sub_elements))
        if expected is not None:
            assert got == expected


def test_setwise_stabilizers_match_brute_on_random_sets():
    rng = random.Random(777)
    groups = [
        build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)]), from_cycles(6, [(0, 1)])]),
        build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)]), from_cycles(6, [(1, 5), (2, 4)])]),
        build_group([from_cycles(6, [(0, 1, 2)]), from_cycles(6, [(3, 4, 5)])]),
    ]
    for group in groups:
        elements = brute_closure([p.images for p in group.generators])
        for _ in range(10):
            size = rng.randint(1, 3)
            points = set(rng.sample(range(6), size))
            expected = len(brute_setwise_stabilizer(elements, points))
            assert group.setwise_stabilizer(sorted(points)).order == expected


def test_maximality_matches_subgroup_lattice_of_s4():
    s4 = build_group([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])
    elements = brute_closure([p.images for p in s4.generators])
    lattice = all_subgroups(elements, max_gens=2)
    assert len(lattice) == 30
    whole = frozenset(elements)
    for sub_elements in lattice:
        if sub_elements == whole:
            continue
        brute_maximal = not any(
            sub_elements < other < whole for other in lattice
        )
        sub = build_group([Permutation(g) for g in sorted(sub_elements)])
        # Maximal iff the action on the cosets is primitive.
        table = CosetTable(s4, sub)
        cosets = build_group(Permutation(table.image_of(g)) for g in s4.gens)
        assert is_primitive(cosets)[0] == brute_maximal
