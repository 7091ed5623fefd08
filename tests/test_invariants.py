"""Cross-cutting property tests tying the modules together."""

from edgeprim import (
    Analysis,
    agl1,
    automorphism_group,
    build_group,
    complete_bipartite,
    complete_graph,
    derived_subgroup,
    from_cycles,
    heawood,
    identity,
    is_edge_primitive,
    is_k_transitive,
    perfect_core,
    petersen,
    pgl2,
    psl2,
    s_transitivity_degree,
    valency,
)
from edgeprim.certify import PASS

from brute import brute_edge_action, brute_s_arc_count


def sample_groups():
    return [
        build_group([from_cycles(5, [(0, 1)]), from_cycles(5, [(0, 1, 2, 3, 4)])]),
        build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)])]),
        pgl2(5),
        psl2(7),
        agl1(8),
        automorphism_group(petersen()),
    ]


def test_generators_and_identity_pass_contains():
    for g in sample_groups():
        assert g.contains(identity(g.degree).element)
        for gen in g.gens:
            assert g.contains(gen)


def test_order_is_product_of_transversal_sizes():
    for g in sample_groups():
        prod = 1
        for i in range(len(g.base)):
            prod *= len(g.basic_orbit(i))
        assert prod == g.order


def test_chain_levels_fix_earlier_base_points():
    for g in sample_groups():
        # Strong generators appearing in deeper transversal construction fix
        # every earlier base point; check via the stabilizer decomposition.
        for i, point in enumerate(g.base):
            stab = g.pointwise_stabilizer(g.base[: i + 1])
            for gen in stab.generators:
                for earlier in g.base[: i + 1]:
                    assert gen(earlier) == earlier


def test_perfect_core_is_perfect():
    for g in sample_groups():
        core = perfect_core(g)
        assert derived_subgroup(core).order == core.order


def test_action_order_identity_on_edge_actions():
    for graph in (complete_graph(5), petersen(), heawood(), complete_bipartite(3)):
        group = automorphism_group(graph)
        cert = is_edge_primitive(Analysis(group, graph))
        kernel, image_order, _witness = brute_edge_action(
            list(graph.edges), [g.images for g in group.generators]
        )
        assert cert.evidence["edge_action_kernel_order"] == kernel
        assert group.order == image_order * kernel


def test_two_arc_transitive_iff_locally_two_transitive():
    # For vertex- and arc-transitive fixtures, the s-degree is at least 2
    # exactly when the local action is 2-transitive.
    fixtures = [
        (complete_graph(5), None),
        (complete_graph(8), pgl2(7)),
        (complete_graph(14), psl2(13)),
        (heawood(), None),
        (complete_bipartite(3), None),
        (petersen(), None),
    ]
    for graph, group in fixtures:
        analysis = Analysis(group or automorphism_group(graph), graph)
        cert = s_transitivity_degree(analysis)
        if cert.verdict != PASS:
            continue
        if not (cert.evidence["vertex_transitive"] and cert.evidence["arc_transitive"]):
            continue
        locally_2t = []
        for v in range(graph.n):
            locally_2t.append(is_k_transitive(analysis.local(v).image, 2))
        assert all(locally_2t) == (cert.evidence["s_degree"] >= 2)


def test_hs_lemma_instances(hs_graph, hs_aut, hs_core):
    from edgeprim import counting_identity_check, sylow_arc_check

    analysis = Analysis(hs_aut, hs_graph)
    u, v = hs_graph.edges[0]
    assert analysis.arc_kernel(u, v).order == 1

    la = analysis.local(0)
    assert la.image.degree == 7
    assert is_k_transitive(la.image, 2)

    cert = counting_identity_check(Analysis(hs_aut, hs_graph), hs_core)
    assert cert.verdict == PASS
    assert cert.evidence["order_Nv"] == 2520
    assert cert.evidence["order_N_edge"] == 720
    assert 2 * 2520 == valency(hs_graph) * 720

    cert = sylow_arc_check(Analysis(hs_aut, hs_graph), hs_core)
    assert cert.verdict == PASS
    assert cert.evidence["order_N_edge"] == 720
    assert cert.evidence["N_edge_nonabelian"]


def test_hs_three_arc_enumeration_matches_formula(hs_graph):
    d = valency(hs_graph)
    assert brute_s_arc_count(hs_graph, 3) == hs_graph.n * d * (d - 1) ** 2 == 12600


def test_psl213_point_stabilizer_order():
    g = psl2(13)
    assert g.point_stabilizer(0).order == 78


def test_fixture_group_orders_match_exhaustive_closure():
    from brute import brute_closure

    fixtures = [
        pgl2(7),
        psl2(13),
        agl1(9),
        automorphism_group(petersen()),
        automorphism_group(heawood()),
        automorphism_group(complete_bipartite(3)),
    ]
    for group in fixtures:
        assert group.order <= 5000
        assert group.order == len(brute_closure([p.images for p in group.generators]))
