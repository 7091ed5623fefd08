import itertools

import pytest

from edgeprim import (
    Analysis,
    CosetTable,
    Permutation,
    agl1,
    build_group,
    complete_bipartite,
    complete_graph,
    from_cycles,
    is_edge_primitive,
    is_frobenius,
    is_k_transitive,
    is_primitive,
    is_transitive,
    pgl2,
    psl2,
    restrict_to_invariant_set,
)
from brute import brute_is_primitive


def s4():
    return build_group([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])


def s5():
    return build_group([from_cycles(5, [(0, 1)]), from_cycles(5, [(0, 1, 2, 3, 4)])])


def natural(group):
    return restrict_to_invariant_set(group, range(group.degree))


def on_pairs(group, pairs):
    """The image on an invariant set of sorted pairs, from the images of
    the generators."""
    index = {p: i for i, p in enumerate(pairs)}
    gens = [
        Permutation(tuple(index[tuple(sorted((g(a), g(b))))] for a, b in pairs))
        for g in group.generators
    ]
    return build_group(gens)


def on_2sets(group):
    return on_pairs(group, list(itertools.combinations(range(group.degree), 2)))


def on_cosets(group, sub):
    """The image on the right cosets of ``sub``, from a coset table."""
    table = CosetTable(group, sub)
    gens = [Permutation(table.image_of(g)) for g in group.gens]
    return build_group(gens)


def three_halves_transitive(group):
    """Transitive, with every orbit of the stabilizer of 0 off 0 of one
    length greater than 1."""
    lengths = {len(o) for o in group.point_stabilizer(0).orbits() if o != (0,)}
    return is_transitive(group) and len(lengths) == 1 and lengths != {1}


def test_s5_on_k5_edges():
    cert = is_edge_primitive(Analysis(s5(), complete_graph(5)))
    assert cert.evidence["edge_count"] == 10
    assert cert.evidence["edge_action_kernel_order"] == 1
    assert cert.evidence["primitive"] is True


def test_action_order_identity_holds():
    # The edge-primitive kernel, read off the vertex chain, against the
    # image chain of the action on 2-sets, i.e. on the edges of K_n.
    for group in (s4(), s5(), pgl2(5)):
        cert = is_edge_primitive(Analysis(group, complete_graph(group.degree)))
        kernel = cert.evidence["edge_action_kernel_order"]
        assert group.order == on_2sets(group).order * kernel


def test_natural_action_is_the_group_on_its_points():
    # Restricting to every point gives the group back, so the property
    # tests read the group itself.
    for group in (s4(), pgl2(7), agl1(9), build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)])])):
        a, b = group, natural(group)
        assert b.order == a.order and b.generators == a.generators
        (prim_a, witness_a), (prim_b, witness_b) = is_primitive(a), is_primitive(b)
        assert prim_a == prim_b
        assert witness_a is witness_b is None or witness_a.blocks == witness_b.blocks
        assert is_k_transitive(a, 2) == is_k_transitive(b, 2)


def test_non_invariant_subset_rejected():
    with pytest.raises(ValueError):
        restrict_to_invariant_set(s5(), [0, 1])


def test_k_transitivity_of_symmetric_group():
    a = natural(s4())
    assert is_k_transitive(a, 2)
    assert is_k_transitive(a, 4)
    with pytest.raises(ValueError):
        is_k_transitive(a, 6)


def test_psl27_two_but_not_three_transitive():
    g = psl2(7)
    a = natural(g)
    assert is_k_transitive(a, 2)
    assert not is_k_transitive(a, 3)


def test_k_transitive_implies_lower():
    fixtures = [natural(s4()), natural(pgl2(7)), natural(psl2(9))]
    for a in fixtures:
        for k in range(5, 1, -1):
            if is_k_transitive(a, k):
                assert is_k_transitive(a, k - 1)


def test_regular_action_is_not_frobenius():
    z5 = build_group([from_cycles(5, [(0, 1, 2, 3, 4)])])
    a = natural(z5)
    assert is_transitive(a) and a.order == a.degree
    assert not is_frobenius(a)


def test_agl15_is_frobenius():
    a = natural(agl1(5))
    assert is_frobenius(a)
    assert three_halves_transitive(a)


def test_s4_three_halves_but_not_frobenius():
    a = natural(s4())
    assert three_halves_transitive(a)
    assert not is_frobenius(a)


def test_two_transitive_implies_primitive_and_three_halves():
    for group in (s4(), pgl2(7), psl2(13)):
        a = natural(group)
        if is_k_transitive(a, 2):
            assert is_primitive(a)[0]
            assert three_halves_transitive(a)


def test_three_halves_implies_primitive_or_frobenius():
    fixtures = [
        natural(s4()),
        natural(agl1(5)),
        natural(agl1(9)),
        natural(psl2(13)),
        natural(build_group([from_cycles(5, [(0, 1, 2, 3, 4)])])),
        natural(build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)])])),
    ]
    for a in fixtures:
        if a.degree <= 30 and is_transitive(a):
            if three_halves_transitive(a):
                assert is_primitive(a)[0] or is_frobenius(a)


def test_prime_degree_dihedral_primitive():
    d10 = build_group([from_cycles(5, [(0, 1, 2, 3, 4)]), from_cycles(5, [(1, 4), (2, 3)])])
    assert d10.order == 10
    primitive, witness = is_primitive(natural(d10))
    assert primitive and witness is None


def test_dihedral_12_imprimitive_with_witness():
    d12 = build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)]), from_cycles(6, [(1, 5), (2, 4)])])
    primitive, witness = is_primitive(natural(d12))
    assert not primitive
    assert witness.block_size in (2, 3)
    # Witness cells must be permuted by every generator.
    cells = {frozenset(b) for b in witness.blocks}
    for g in d12.generators:
        for cell in cells:
            assert frozenset(g(x) for x in cell) in cells


def test_k33_edge_action_primitive():
    from edgeprim import automorphism_group

    k33 = complete_bipartite(3)
    g = automorphism_group(k33)
    a = on_pairs(g, k33.edges)
    assert a.degree == 9
    primitive, _w = is_primitive(a)
    assert primitive


def test_primitivity_matches_exhaustive_partition_search():
    fixtures = [
        natural(s4()),
        natural(build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)])])),
        natural(build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)]), from_cycles(6, [(1, 5), (2, 4)])])),
        natural(pgl2(5)),
        natural(pgl2(7)),
        natural(psl2(11)),
        natural(agl1(8)),
        natural(agl1(9)),
        on_2sets(s5()),
        natural(build_group([from_cycles(8, [(0, 1, 2, 3, 4, 5, 6, 7)])])),
    ]
    for a in fixtures:
        if a.degree > 12 or not is_transitive(a):
            continue
        gens = [g.images for g in a.generators]
        assert is_primitive(a)[0] == brute_is_primitive(a.degree, gens)


def test_primitivity_requires_transitivity():
    g = build_group([from_cycles(4, [(0, 1)])])
    with pytest.raises(ValueError):
        is_primitive(g)


def test_maximality_examples():
    # A subgroup is maximal iff the action on its cosets is primitive.
    a4 = build_group([from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(1, 2, 3)])])
    assert is_primitive(on_cosets(s4(), a4))[0]
    d8 = build_group([from_cycles(5, [(0, 1, 2, 3)]), from_cycles(5, [(0, 2)])])
    assert not is_primitive(on_cosets(s5(), d8))[0]
    g = pgl2(7)
    edge_stab = g.setwise_stabilizer([0, 1])
    assert edge_stab.order == 12
    assert g.order // edge_stab.order == 28
    assert is_primitive(on_cosets(g, edge_stab))[0]
    with pytest.raises(ValueError):
        is_primitive(on_cosets(s4(), s4()))


def test_coset_action_degree_and_transitivity():
    g = s5()
    h = g.point_stabilizer(0)
    a = on_cosets(g, h)
    assert a.degree == 5
    assert is_transitive(a)
    assert a.order == 120
