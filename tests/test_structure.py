import pytest

from edgeprim import (
    ScaleLimitError,
    build_group,
    center,
    centralizer,
    conjugacy_classes,
    elements,
    fingerprint,
    from_cycles,
    is_cyclic,
    is_normal,
    is_p_group,
    is_simple,
    is_soluble,
    minimal_normal_subgroups,
    normal_subgroups,
    normalizer,
    p_core,
    sylow_subgroup,
)
from brute import brute_closure, brute_normalizer


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
    listed = [p.images for p in elements(g)]
    assert len(listed) == 24
    assert set(listed) == brute_closure([p.images for p in g.generators])
    assert listed == [p.images for p in elements(g)]


def test_center_of_s3_is_trivial():
    assert center(s3()).order == 1


def test_center_of_dihedral_4():
    d8 = build_group([from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(1, 3)])])
    assert center(d8).order == 2


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


def test_scale_limit_is_explicit():
    g = s5()
    with pytest.raises(ScaleLimitError):
        normalizer(g, g.point_stabilizer(0), cutoff=100)
    with pytest.raises(ScaleLimitError):
        is_simple(a5(), cutoff=10)


def test_centralizer_of_normal_in_s4():
    g = s4()
    v4 = p_core(g, 2)
    c = centralizer(g, v4)
    assert c.order == 4


def test_transitive_centralizer_does_not_enumerate(hs_aut, hs_core, monkeypatch):
    from edgeprim import structure

    # Every enumeration, iter_element_images included, goes through the
    # one raw enumerator.
    enumerated = []
    original = structure._iter_elements_bytes

    def counting(group):
        enumerated.append(group.order)
        return original(group)

    monkeypatch.setattr(structure, "_iter_elements_bytes", counting)
    assert len(hs_core.orbit(0)) == hs_core.degree
    assert centralizer(hs_aut, hs_core).order == 1
    assert enumerated == []
    # An intransitive subgroup still takes the enumeration path.
    assert centralizer(s5(), build_group([from_cycles(5, [(0, 1, 2)])])).order == 6
    assert enumerated == [120]
    assert is_simple(hs_core)


def test_p_core_examples():
    g = s4()
    assert p_core(g, 2).order == 4
    assert p_core(g, 3).order == 1
    elementary = build_group([from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)])])
    assert p_core(elementary, 2).order == elementary.order


def test_p_core_is_normal_p_group():
    g = s4()
    core = p_core(g, 2)
    assert is_normal(g, core)
    flag, prime = is_p_group(core)
    assert flag and prime == 2


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


def test_conjugacy_class_sizes_sum_to_order():
    g = s4()
    classes = conjugacy_classes(g)
    assert sum(size for _rep, size in classes) == 24
    assert len(classes) == 5


def test_minimal_normal_subgroups():
    assert [n.order for n in minimal_normal_subgroups(s5())] == [60]
    assert [n.order for n in minimal_normal_subgroups(s4())] == [4]
    assert [n.order for n in minimal_normal_subgroups(a5())] == [60]


def test_normal_subgroup_sweep():
    orders = [n.order for n in normal_subgroups(s4())]
    assert orders == [4, 12, 24]


def test_solubility_and_cyclicity():
    assert is_soluble(s4())
    assert not is_soluble(a5())
    assert is_cyclic(build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)])]))
    assert not is_cyclic(s3())


def test_fingerprint_trivial_and_perfect():
    trivial = build_group([from_cycles(3, [])])
    fp = fingerprint(trivial)
    assert fp.order == 1 and fp.is_abelian
    assert fp.element_order_histogram == ((1, 1),)
    a7 = build_group([from_cycles(7, [(0, 1, 2)]), from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)])])
    fp7 = fingerprint(a7)
    assert fp7.order == 2520
    assert fp7.derived_series_orders == (2520, 2520)


def test_fingerprint_separates_sym6_from_point_stabilizer_types(hs_core, hs_graph):
    # Two order-720 groups: the symmetric group on 6 points and the edge
    # stabilizer of the perfect core of the Hoffman-Singleton automorphism
    # group.  Element-order histograms differ: the latter has order-8
    # elements, the symmetric group does not.
    s6 = build_group([from_cycles(6, [(0, 1)]), from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    u, v = hs_graph.edges[0]
    edge_stab = hs_core.setwise_stabilizer((u, v))
    assert edge_stab.order == 720
    fp_s6 = fingerprint(s6)
    fp_edge = fingerprint(edge_stab)
    assert fp_s6.order == fp_edge.order == 720
    assert fp_s6 != fp_edge
    hist = dict(fp_edge.element_order_histogram)
    assert hist.get(8, 0) > 0
    assert dict(fp_s6.element_order_histogram).get(8, 0) == 0
