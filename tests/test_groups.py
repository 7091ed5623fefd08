import random

import pytest

from edgeprim import (
    Permutation,
    build_group,
    compose,
    derived_subgroup,
    element_mapping,
    from_cycles,
    identity,
    is_normal,
    normal_closure,
    perfect_core,
    pgl2,
    reduce_generators,
    trivial_group,
)
from brute import assert_valid_chain, brute_closure, brute_setwise_stabilizer, chain_levels


def s5():
    return build_group([from_cycles(5, [(0, 1)]), from_cycles(5, [(0, 1, 2, 3, 4)])])


def a5():
    return build_group([from_cycles(5, [(0, 1, 2)]), from_cycles(5, [(0, 1, 2, 3, 4)])])


def test_identity_only_generators():
    g = build_group([identity(4)])
    assert g.order == 1
    assert g.contains(identity(4).element)


def test_empty_generators_rejected():
    with pytest.raises(ValueError):
        build_group([])


def test_s5_order_and_membership():
    g = s5()
    assert g.order == 120
    assert g.contains(from_cycles(5, [(0, 1, 2)]).element)
    with pytest.raises(ValueError):
        g.contains(identity(6).element)


def test_psl27_order_equals_exhaustive_closure():
    gens = [
        from_cycles(8, [(0, 1, 2, 3, 4, 5, 6)]),
        from_cycles(8, [(0, 7), (1, 6), (2, 3), (4, 5)]),
    ]
    g = build_group(gens)
    assert g.order == 168
    assert g.order == len(brute_closure([p.images for p in gens]))


def test_cyclic_group_membership():
    g = build_group([from_cycles(5, [(0, 1, 2, 3, 4)])])
    assert g.order == 5
    assert not g.contains(from_cycles(5, [(0, 1)]).element)


def test_order_matches_exhaustive_closure_on_random_generator_sets():
    rng = random.Random(20250810)
    checked = 0
    while checked < 50:
        n = rng.randint(3, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        try:
            closure = brute_closure([p.images for p in gens], limit=5001)
        except RuntimeError:
            continue
        size = len(closure)
        if size > 5000:
            continue
        g = build_group(gens)
        assert g.order == size
        checked += 1


def test_orbit_stabilizer_identity():
    g = s5()
    for alpha in range(5):
        assert g.order == len(g.orbit(alpha)) * g.point_stabilizer(alpha).order


def test_k5_stabilizer_orders():
    g = s5()
    assert g.point_stabilizer(0).order == 24
    assert g.pointwise_stabilizer([0, 1]).order == 6


def test_sifting_soundness_on_generator_words():
    rng = random.Random(7)
    g = s5()
    gens = list(g.generators)
    for _ in range(50):
        word = identity(5)
        for _ in range(rng.randint(1, 5)):
            word = compose(word, rng.choice(gens))
        assert g.contains(word.element)


def test_deterministic_rebuild():
    gens = [from_cycles(6, [(0, 1, 2, 3, 4, 5)]), from_cycles(6, [(0, 1)])]
    g1 = build_group(gens)
    g2 = build_group(gens)
    assert g1.base == g2.base
    assert chain_levels(g1) == chain_levels(g2)


def test_setwise_stabilizer_matches_brute_force():
    g = s5()
    elements = brute_closure([p.images for p in g.generators])
    for points in [{0, 1}, {0, 1, 2}, {2, 4}]:
        expected = len(brute_setwise_stabilizer(elements, points))
        assert g.setwise_stabilizer(sorted(points)).order == expected


def test_setwise_stabilizer_examples():
    s4 = build_group([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])
    assert s4.setwise_stabilizer([0, 1]).order == 4
    g = s5()
    assert g.setwise_stabilizer([0]).order == g.point_stabilizer(0).order
    edge = g.setwise_stabilizer([0, 1])
    assert edge.order == 12
    assert g.order // edge.order == 10


def test_pair_stabilizer_index_in_setwise_is_at_most_two():
    for group in (s5(), a5()):
        pointwise = group.pointwise_stabilizer([0, 1])
        setwise = group.setwise_stabilizer([0, 1])
        assert setwise.order % pointwise.order == 0
        assert setwise.order // pointwise.order in (1, 2)


def test_derived_subgroup_of_s5():
    d = derived_subgroup(s5())
    assert d.order == 60
    assert is_normal(s5(), d)


def test_perfect_core():
    abelian = build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    assert perfect_core(abelian).order == 1
    assert perfect_core(s5()).order == 60
    core = perfect_core(s5())
    assert derived_subgroup(core).order == core.order


def test_normal_closure_seed_validation():
    g = a5()
    with pytest.raises(ValueError):
        normal_closure(g, [from_cycles(5, [(0, 1)]).element])


def test_normal_closure_of_three_cycle_in_s5():
    n = normal_closure(s5(), [from_cycles(5, [(0, 1, 2)]).element])
    assert n.order == 60


def test_element_mapping():
    g = s5()
    p = element_mapping(g, (0, 1, 2), (2, 3, 4))
    assert p is not None and p[0] == 2 and p[1] == 3 and p[2] == 4
    z5 = build_group([from_cycles(5, [(0, 1, 2, 3, 4)])])
    assert element_mapping(z5, (0, 1), (1, 0)) is None


def test_reduce_generators_preserves_group():
    g = s5()
    many = build_group(list(g.generators) + list(map(Permutation, g.strong_gens)))
    reduced = reduce_generators(many)
    assert reduced.order == 120
    assert len(reduced.generators) == 2


def test_trivial_group():
    t = trivial_group(3)
    assert t.order == 1 and t.degree == 3


def _coset_image():
    from edgeprim import CosetGraphSpec, coset_graph

    a5_ = a5()
    a4 = build_group([from_cycles(5, [(0, 1, 2)]), from_cycles(5, [(1, 2, 3)])])
    connector = from_cycles(5, [(0, 1), (3, 4)])
    return coset_graph(CosetGraphSpec(group=a5_, subgroup=a4, connector=connector))[1]


BOUNDARY_GROUPS = {
    "degree 5": lambda request: s5(),
    "degree 300": lambda request: build_group(
        [from_cycles(300, [tuple(range(5))]), from_cycles(300, [(0, 1)])]
    ),
    "PSL(2,13)": lambda request: derived_subgroup(pgl2(13)),
    "pointwise stabilizer": lambda request: pgl2(7).pointwise_stabilizer((3, 5)),
    "Aut(HS)": lambda request: request.getfixturevalue("hs_aut"),
    "coset graph image": lambda request: _coset_image(),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_GROUPS))
def test_generators_view_hands_back_the_kernel_generators(name, request):
    # Inside the package a group keeps kernel elements; the generators view
    # is the one place they leave as validated permutations, in order, and
    # rebuilding from it writes the same group file.
    from edgeprim.fileio import group_to_text

    g = BOUNDARY_GROUPS[name](request)
    assert all(type(p) is Permutation for p in g.generators)
    assert [p.images for p in g.generators] == [tuple(e) for e in g.gens]
    assert g.generators is g.generators
    assert group_to_text(build_group(g.generators)) == group_to_text(g)


@pytest.mark.parametrize("family", ["s5", "pgl2-7"])
def test_chain_is_the_same_on_both_sides_of_the_byte_kernel(family):
    # Degrees up to 255 compute with bytes, larger ones with tuples; the
    # same generators embedded at each degree must give the same chain.
    from edgeprim.families import pgl2
    from edgeprim.structure import conjugacy_classes, elements

    small = s5() if family == "s5" else pgl2(7)
    m = small.degree

    def embed(p, n):
        return Permutation(p.images + tuple(range(m, n)))

    rng = random.Random(11)
    words = []
    for _ in range(200):
        word = identity(m)
        for _ in range(rng.randint(1, 8)):
            word = compose(word, rng.choice(small.generators))
        words.append(word)

    summaries = []
    for n in (250, 255, 256, 300):
        g = build_group([embed(p, n) for p in small.generators])
        assert all(g.contains(embed(w, n).element) for w in words)
        # Non-members: a transposition with a point the group fixes, and
        # for PGL(2,7) a transposition inside the projective line.
        assert not g.contains(from_cycles(n, [(0, m)]).element)
        assert not g.contains(from_cycles(n, [(0, 1), (m, n - 1)]).element)
        if family == "pgl2-7":
            assert not g.contains(from_cycles(n, [(0, 1)]).element)
        # Returned elements index like image tuples on both sides of 255.
        mapping = element_mapping(g, (0, 1), (1, 2))
        classes = conjugacy_classes(g)
        assert mapping[0] == 1 and mapping[1] == 2 and tuple(mapping[m:]) == tuple(range(m, n))
        summaries.append((
            g.base,
            g.order,
            [[(b, tuple(t[:m])) for b, t, _inv in level] for level in chain_levels(g)],
            [tuple(s[:m]) for s in g.strong_gens],
            sorted(size for _rep, size in classes),
            len(elements(g)),
            [mapping[x] for x in range(m)],
            [[rep[x] for x in range(m)] for rep, _size in classes],
        ))
    assert all(s == summaries[0] for s in summaries[1:])
    assert summaries[0][1] == summaries[0][5] == small.order


def _chain_state(chain):
    return (
        chain.points,
        [list(t.items()) for t in chain.transversals],
        [list(t.items()) for t in chain.inverses],
        chain.strong,
        chain.level_of,
    )


def _random_generators(rng, n):
    """Two or three random permutations of 1-3 disjoint blocks of points
    scattered in range(n), sometimes with one moving across blocks."""
    points = rng.sample(range(n), rng.randint(5, min(n, 9)))
    cuts = sorted(rng.sample(range(1, len(points)), rng.randint(0, 2)))
    blocks = [points[a:b] for a, b in zip([0] + cuts, cuts + [len(points)])]
    gens = []
    for _ in range(rng.randint(2, 3)):
        images = list(range(n))
        for block in blocks:
            for x, y in zip(block, rng.sample(block, len(block))):
                images[x] = y
        gens.append(tuple(images))
    if len(blocks) > 1 and rng.random() < 0.3:
        images = list(range(n))
        images[blocks[0][0]], images[blocks[1][0]] = blocks[1][0], blocks[0][0]
        gens.append(tuple(images))
    return gens


@pytest.mark.parametrize("n", [8, 40, 255, 256, 300])
def test_order_bound_gives_the_same_chain(n):
    # A chain stopped at a proven order must equal the unbounded build:
    # from the generators, rebased from strong generators onto a prefix,
    # and with a bound the chain never reaches (a proper subgroup).
    from edgeprim.groups import _Chain
    from edgeprim.perms import _kernel

    rng = random.Random(2024 + n)
    element = _kernel(n).element
    proper = 0
    for _ in range(12):
        gens = [element(g) for g in _random_generators(rng, n)]
        full = _Chain(n, (), gens)
        order = full.size
        assert _chain_state(_Chain(n, (), gens, order)) == _chain_state(full)

        moved = [x for x in range(n) if any(g[x] != x for g in gens)]
        prefix = rng.sample(moved, rng.randint(1, 3))
        strong = full.strong_elements()
        rebased = _Chain(n, prefix, strong, order)
        assert _chain_state(rebased) == _chain_state(_Chain(n, prefix, strong))
        assert rebased.size == order

        part = _Chain(n, (), gens[:1])
        proper += part.size < order
        assert _chain_state(_Chain(n, (), gens[:1], order)) == _chain_state(part)
    assert proper


def _chain_content(chain):
    """Base, transversal keys and elements, strong generators and their
    levels, as plain tuples of points."""
    points, transversals, _inverses, strong, level_of = _chain_state(chain)
    n = chain.degree
    return (
        points,
        [[(b, tuple(t[:n])) for b, t in trans] for trans in transversals],
        [tuple(s[:n]) for s in strong],
        level_of,
    )


# sha256 of the chain contents below.  Chain content decides class
# representatives and lemma row order, so a change to how chains are built
# must leave it as it is.
PINNED_CHAINS = "36af33fae5a41b98fa854a02f2529bba601b7d930638f3e15228b453e986ef20"


def test_chain_contents_are_pinned():
    # Seeded generator sequences: random permutations of 3-14 points (mostly
    # symmetric and alternating groups) and of scattered blocks at degrees
    # 40 and 300, on either side of the byte kernel.  Each is built without
    # a bound, bounded by its own order, bounded by an order it never
    # reaches (its first generator alone), and from its strong generators
    # onto a prefix of moved points.
    import hashlib

    from edgeprim.groups import _Chain
    from edgeprim.perms import _kernel

    rng = random.Random(26)
    contents = []
    for n in list(range(3, 15)) * 2 + [40, 300] * 4:
        element = _kernel(n).element
        if n < 5 or n <= 14 and rng.random() < 0.5:
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(2, 3))]
        else:
            gens = _random_generators(rng, n)
        gens = [element(g) for g in gens]
        full = _Chain(n, (), gens)
        moved = [x for x in range(n) if any(g[x] != x for g in gens)] or [0]
        prefix = rng.sample(moved, min(len(moved), rng.randint(1, 3)))
        for chain in (
            full,
            _Chain(n, (), gens, full.size),
            _Chain(n, (), gens[:1], full.size),
            _Chain(n, prefix, full.strong_elements()),
            _Chain(n, prefix, full.strong_elements(), full.size),
        ):
            contents.append(_chain_content(chain))
    digest = hashlib.sha256(repr(contents).encode()).hexdigest()
    assert digest == PINNED_CHAINS


def _count_sifts(monkeypatch):
    from edgeprim.groups import _Chain

    sifted = []
    plain_sift = _Chain.sift

    def counting_sift(self, p, start=0):
        sifted.append(1)
        return plain_sift(self, p, start)

    monkeypatch.setattr(_Chain, "sift", counting_sift)
    return sifted


def test_base_image_pointwise_stabilizer_sifts_nothing(monkeypatch):
    # PGL(2,7) is sharply 3-transitive, so (3, 5) is an image of the first
    # two base points and its stabilizer is a conjugate of the chain's tail.
    from edgeprim.families import pgl2

    g = pgl2(7)
    sifted = _count_sifts(monkeypatch)
    stab = g.pointwise_stabilizer((3, 5))
    assert not sifted
    assert stab.order == g.order // (8 * 7)
    assert_valid_chain(stab, (3, 5))


def test_bounded_pointwise_stabilizer_sifts_less(monkeypatch):
    # PGL(2,7) acting on two copies of the projective line at once: 11 lies
    # outside the first basic orbit, so (11, 13) is no base image and the
    # stabilizer is rebuilt, bounded by the group's order.
    from edgeprim.families import pgl2
    from edgeprim.groups import _Chain

    line = pgl2(7)
    g = build_group([Permutation(p.images + tuple(8 + x for x in p.images))
                     for p in line.generators])
    assert g.order == line.order and g.orbit(g.base[0]) == tuple(range(8))
    strong = list(g.strong_gens)
    sifted = _count_sifts(monkeypatch)
    prefix = (11, 13)
    unbounded = _Chain(g.degree, prefix, strong)
    rebuild_sifts = len(sifted)
    sifted.clear()
    stab = g.pointwise_stabilizer(prefix)
    assert 0 < len(sifted) < rebuild_sifts
    assert stab.order == g.order // (8 * 7) == unbounded.size // (8 * 7)
    assert stab.base == tuple(unbounded.points[2:])


def _prime_factor_count(n):
    """Omega(n): the prime factors of n counted with multiplicity."""
    count, p = 0, 2
    while n > 1:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count


@pytest.mark.parametrize(
    "source",
    [
        "hs_aut",
        lambda: pgl2(9),
        lambda: pgl2(13),
        lambda: build_group([from_cycles(8, [(0, 1)]), from_cycles(8, [tuple(range(8))])]),
    ],
    ids=["Aut(HS)", "PGL(2,9)", "PGL(2,13)", "S8"],
)
def test_perfect_core_keeps_few_generators(source, request):
    # Each derived step is reduced: every generator kept strictly enlarges
    # the chain's group, so a core of order m has at most Omega(m) of them.
    group = request.getfixturevalue(source) if isinstance(source, str) else source()
    core = perfect_core(group)
    assert core.order > 1
    assert derived_subgroup(core).order == core.order
    assert len(core.generators) <= _prime_factor_count(core.order)
