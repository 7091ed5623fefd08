"""Randomized cross-validation of subgroup operations against brute force."""

import random

from edgeprim import (
    CosetTable,
    Permutation,
    build_group,
    centralizer,
    from_cycles,
    is_primitive,
    normal_subgroups,
    normalizer,
    trivial_group,
)
from edgeprim.actions import block_witness
from edgeprim.groups import orbit_of
from brute import (
    all_subgroups,
    brute_centralizer,
    brute_closure,
    brute_normal_subgroups,
    brute_normalizer,
    brute_orbits,
    brute_setwise_stabilizer,
    compose_t,
    inverse_t,
    reference_block_witness,
)


def random_subgroup(rng, ambient_elements, max_gens=2):
    gens = [rng.choice(ambient_elements) for _ in range(rng.randint(1, max_gens))]
    return [Permutation(g) for g in gens]


def test_normalizer_and_centralizer_match_brute_on_random_subgroups():
    # Both grow one chain bounded by the ambient order and stop once it is
    # full; each result must equal build_group of its own generators.  The
    # subgroups include ones that are not self-normalizing, so that the
    # normalizer takes coset representatives beyond the subgroup.
    from edgeprim import agl1, pgl2

    wreath = build_group([
        from_cycles(6, [(0, 1)]),
        from_cycles(6, [(0, 2, 4), (1, 3, 5)]),
        from_cycles(6, [(0, 2), (1, 3)]),
    ])
    v4 = build_group([from_cycles(4, [(0, 1), (2, 3)]), from_cycles(4, [(0, 2), (1, 3)])])
    three_cycle = build_group([from_cycles(5, [(0, 1, 2)])])
    assert normalizer(_symmetric(4), v4).order == 24
    assert normalizer(_symmetric(5), three_cycle).order == 12
    rng = random.Random(31337)
    for group, samples, extra in (
        (_symmetric(5), 20, [three_cycle]),
        (agl1(7), 8, []),
        (pgl2(5), 8, []),
        (wreath, 8, []),
        (_symmetric(4), 8, [v4]),
    ):
        ambient = sorted(brute_closure([p.images for p in group.generators]))
        subs = [build_group(random_subgroup(rng, ambient)) for _ in range(samples)]
        subs += [group, group.point_stabilizer(0), trivial_group(group.degree), *extra]
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


def test_normal_subgroups_match_brute_force():
    # The lattice is closed on class sets, and each subgroup is built once
    # from its generating classes.  C2^3 has all 16 subgroups normal, with
    # ties in order and many joins.  The subgroups generated by up to two
    # elements, filtered for normality, agree where every normal subgroup
    # is 2-generated; AGL(1,9) and Aut(K3,3) each have a normal subgroup of
    # order 18 that needs three generators.
    from edgeprim import agl1, automorphism_group, complete_bipartite, pgl2

    c2_cubed = build_group([
        from_cycles(6, [(0, 1)]), from_cycles(6, [(2, 3)]), from_cycles(6, [(4, 5)])
    ])
    d8 = build_group([from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(1, 3)])])
    a4 = build_group([from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(1, 2, 3)])])
    cases = [
        (_symmetric(4), 2),
        (d8, 2),
        (c2_cubed, 3),
        (a4, 2),
        (agl1(9), None),
        (pgl2(5), 2),
        (automorphism_group(complete_bipartite(3)), None),
    ]
    for group, max_gens in cases:
        gens = [p.images for p in group.generators]
        elements = brute_closure(gens)
        expected = brute_normal_subgroups(elements)
        if max_gens is not None:
            filtered = [
                sub for sub in all_subgroups(elements, max_gens)
                if len(sub) > 1 and all(
                    compose_t(compose_t(inverse_t(g), h), g) in sub for g in gens for h in sub
                )
            ]
            assert set(filtered) == set(expected)
        got = normal_subgroups(group)
        assert [n.order for n in got] == sorted(len(sub) for sub in expected)
        assert {frozenset(brute_closure([p.images for p in n.generators])) for n in got} == set(
            expected
        )
        for n in got[:-1]:
            rebuilt = build_group(n.generators)
            assert rebuilt.base == n.base
            assert rebuilt.strong_gens == n.strong_gens
        assert got[-1] is group
    assert len(normal_subgroups(c2_cubed)) == 15


def _random_transitive_group(rng, n):
    """The group generated by two random elements of the imprimitive
    wreath product of S_a on blocks of size a with S_(n/a) permuting the
    blocks, for a random divisor a of n (a = 1 or n gives S_n), relabelled
    at random; tried until it is transitive."""
    sizes = [a for a in range(1, n + 1) if n % a == 0]
    while True:
        a = rng.choice(sizes)
        relabel = list(range(n))
        rng.shuffle(relabel)
        gens = []
        for _ in range(2):
            top = list(range(n // a))
            rng.shuffle(top)
            images = [0] * n
            for block, target in enumerate(top):
                inner = list(range(a))
                rng.shuffle(inner)
                for j, k in enumerate(inner):
                    images[relabel[block * a + j]] = relabel[target * a + k]
            gens.append(Permutation(images))
        group = build_group(gens)
        if len(group.orbit(0)) == n:
            return group


def test_block_witness_matches_a_union_find_without_the_early_stop():
    # The early stop returns the whole domain once a cell passes half the
    # points; the witness must be what the plain union-find gives.
    rng = random.Random(90210)
    outcomes = set()
    for _ in range(60):
        n = rng.choice([4, 6, 8, 9, 10, 12, 15, 16])
        group = _random_transitive_group(rng, n)
        gens = [tuple(g) for g in group.gens]
        stabilizer = [tuple(h) for h in group.point_stabilizer(0).gens]
        got = block_witness(gens, stabilizer)
        expected = reference_block_witness(gens, stabilizer)
        if expected is None:
            assert got is None
        else:
            assert got.blocks == expected
            assert got.block_size == len(expected[0])
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_orbit_of_matches_brute_orbits_on_random_groups():
    # Random subgroups of S5 and S6, and random transitive groups, as in the
    # tests above; each orbit walk starts with its seeds and repeats nothing.
    rng = random.Random(1951)
    groups = []
    for n in (5, 6):
        ambient = sorted(brute_closure([p.images for p in _symmetric(n).generators]))
        groups += [build_group(random_subgroup(rng, ambient, 3)) for _ in range(15)]
    groups += [_random_transitive_group(rng, rng.choice([4, 6])) for _ in range(10)]
    orbit_counts = set()
    for group in groups:
        n, gens = group.degree, [tuple(g) for g in group.gens]
        expected = brute_orbits(brute_closure(gens), n)
        orbit_counts.add(len(expected))
        walks = [orbit_of((x,), gens) for x in range(n)]
        assert {frozenset(walk) for walk in walks} == expected
        assert all(walk[0] == x and len(set(walk)) == len(walk) for x, walk in enumerate(walks))
        assert {frozenset(o) for o in group.orbits()} == expected
        seeds = rng.sample(range(n), 2)
        union = orbit_of(seeds, gens)
        assert union[:2] == seeds and set(union) == set().union(*(walks[x] for x in seeds))
    assert orbit_counts >= {1, 2, 3}


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
