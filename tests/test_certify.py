import itertools
import math

import pytest

from brute import brute_closure, brute_edge_action, compose_t, element_order
from edgeprim import (
    Analysis,
    RunConfig,
    affine_normal_check,
    agammal1,
    agl1,
    almost_simple_certificate,
    automorphism_group,
    build_graph,
    build_group,
    complete_bipartite,
    complete_graph,
    counting_identity_check,
    cycle_graph,
    from_cycles,
    heawood,
    is_edge_primitive,
    local_structure,
    main_theorem_check,
    normal_subgroups,
    Permutation,
    petersen,
    pgl2,
    prime_valency_check,
    psl2,
    run_lemma_suite,
    s_transitivity_degree,
    selfnorm_check,
    sylow_arc_check,
    three_arc_criterion,
)
from edgeprim.certify import FAIL, NOT_APPLICABLE, PASS, SCALE_LIMIT, _is_sym6


def s5():
    return build_group([from_cycles(5, [(0, 1)]), from_cycles(5, [(0, 1, 2, 3, 4)])])


def a5():
    return build_group([from_cycles(5, [(0, 1, 2)]), from_cycles(5, [(0, 1, 2, 3, 4)])])


# -- edge-primitive -------------------------------------------------------


def test_petersen_edge_primitive_fails_with_witness():
    g = petersen()
    aut = automorphism_group(g)
    assert aut.order == 120
    cert = is_edge_primitive(Analysis(aut, g))
    assert cert.verdict == FAIL
    assert cert.evidence["witness_block_size"] in (3, 5)
    blocks = cert.evidence["witness_blocks"]
    assert len(blocks) * cert.evidence["witness_block_size"] == 15


def test_heawood_edge_primitive_passes():
    g = heawood()
    cert = is_edge_primitive(Analysis(automorphism_group(g), g))
    assert cert.verdict == PASS
    assert cert.evidence["edge_stabilizer_order"] == 16
    assert cert.evidence["arc_transitive"] is True


def test_edge_primitive_requires_edge_transitivity():
    from edgeprim import build_graph

    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    aut = automorphism_group(g)
    cert = is_edge_primitive(Analysis(aut, g))
    assert cert.verdict == NOT_APPLICABLE


def _graph_with_isolated(edges, isolated):
    return build_graph(max(max(e) for e in edges) + 1 + isolated, edges)


def _matching(m, isolated):
    return _graph_with_isolated([(2 * i, 2 * i + 1) for i in range(m)], isolated)


def _cycles(*lengths, isolated=0):
    edges, start = [], 0
    for n in lengths:
        edges += [(start + i, start + (i + 1) % n) for i in range(n)]
        start += n
    return _graph_with_isolated(edges, isolated)


def _edge_action_fixtures():
    from test_graphs import _pg2_incidence

    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    return {
        **{f"matching-{m}+{k}": _matching(m, k) for m in (2, 3, 4) for k in (0, 2)},
        "star-3+2": _graph_with_isolated([(0, 1), (0, 2), (0, 3)], 2),
        "c5+3": _cycles(5, isolated=3),
        "2c4": _cycles(4, 4),
        "c6": _cycles(6),
        "k4": _graph_with_isolated(k4, 0),
        "2k3+1": _cycles(3, 3, isolated=1),
        "petersen": petersen(),
        "heawood": heawood(),
        "k33": complete_bipartite(3),
        "pg2-2": _pg2_incidence(2),
        "pg2-3": _pg2_incidence(3),
    }


@pytest.mark.parametrize("name", list(_edge_action_fixtures()))
def test_edge_primitive_matches_the_enumerated_edge_action(name):
    graph = _edge_action_fixtures()[name]
    group = automorphism_group(graph)
    cert = is_edge_primitive(Analysis(group, graph))
    kernel, image_order, witness = brute_edge_action(
        list(graph.edges), [g.images for g in group.generators]
    )
    assert group.order == kernel * image_order
    assert cert.verdict == (PASS if witness is None else FAIL)
    assert cert.evidence["edge_action_kernel_order"] == kernel
    assert cert.evidence.get("witness_blocks") == witness
    if name.startswith("matching"):
        m, k = map(int, name.split("-")[1].split("+"))
        assert kernel == 2**m * math.factorial(k)
    if name in ("2c4", "c6", "k4", "2k3+1"):
        assert witness is not None


# -- s-degree --------------------------------------------------------------


def test_cycle_not_applicable():
    g = cycle_graph(8)
    cert = s_transitivity_degree(Analysis(automorphism_group(g), g))
    assert cert.verdict == NOT_APPLICABLE
    assert "valency" in cert.evidence["violated_hypothesis"]


def test_heawood_s_degree_4():
    g = heawood()
    cert = s_transitivity_degree(Analysis(automorphism_group(g), g))
    assert cert.evidence["s_degree"] == 4


def test_k14_s_degree_1():
    cert = s_transitivity_degree(Analysis(psl2(13), complete_graph(14)))
    assert cert.evidence["s_degree"] == 1


def test_k4_s_degree_2_under_full_aut():
    k4 = complete_graph(4)
    cert = s_transitivity_degree(Analysis(automorphism_group(k4), k4))
    assert cert.evidence["s_degree"] == 2


# -- local structure --------------------------------------------------------


def test_local_structure_k5():
    k5 = complete_graph(5)
    cert = local_structure(Analysis(automorphism_group(k5), k5))
    assert cert.verdict == PASS
    assert cert.evidence["locally_2_transitive"]
    assert cert.evidence["order_vertex_kernel"] == 1
    assert cert.evidence["order_arc_kernel"] == 1


def test_local_structure_heawood_matches_extension_identity():
    hw = heawood()
    cert = local_structure(Analysis(automorphism_group(hw), hw))
    assert cert.verdict == PASS
    e = cert.evidence
    assert e["order_vertex_stabilizer"] == 24
    assert e["order_local_image"] == 6
    assert e["order_vertex_kernel"] == 4
    assert e["order_arc_kernel"] == 2
    assert e["arc_kernel_prime"] == 2
    assert e["extension_identity_ok"]
    assert (
        e["order_vertex_stabilizer"]
        == e["order_arc_kernel"] * e["order_vertex_kernel_on_other_side"] * e["order_local_image"]
    )


def test_local_structure_intransitive_not_applicable():
    from edgeprim import build_graph

    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    cert = local_structure(Analysis(automorphism_group(g), g))
    assert cert.verdict == NOT_APPLICABLE
    assert "per_vertex" in cert.evidence


# -- almost simple -----------------------------------------------------------


def test_almost_simple_s5():
    cert = almost_simple_certificate(Analysis(s5()))
    assert cert.verdict == PASS
    assert cert.evidence["core_order"] == 60
    assert cert.evidence["core_index"] == 2


def test_almost_simple_fails_for_k33_aut():
    cert = almost_simple_certificate(Analysis(automorphism_group(complete_bipartite(3))))
    assert cert.verdict == FAIL


@pytest.mark.parametrize(
    "p, config", [(5, RunConfig()), (7, RunConfig(enumeration_cutoff=10**10))], ids=["5", "7"]
)
def test_almost_simple_on_the_incidence_graph_of_pg2(p, config):
    # The core PSL(3,p) has two orbits, points and lines.
    from test_graphs import _pg2_incidence

    graph = _pg2_incidence(p)
    cert = almost_simple_certificate(Analysis(automorphism_group(graph), graph, config=config))
    assert cert.verdict == PASS
    assert cert.evidence["centralizer_order"] == 1
    assert cert.evidence["core_order"] == p**3 * (p**3 - 1) * (p**2 - 1) // math.gcd(3, p - 1)


def test_almost_simple_under_tight_cutoff():
    cert = almost_simple_certificate(Analysis(a5(), config=RunConfig(enumeration_cutoff=1000)))
    assert cert.verdict == PASS  # order 60 stays under the configured cutoff
    assert cert.config["enumeration_cutoff"] == 1000


# -- main theorem ------------------------------------------------------------


def test_main_theorem_k33_via_bipartite_branch():
    k33 = complete_bipartite(3)
    cert = main_theorem_check(Analysis(automorphism_group(k33), k33))
    assert cert.verdict == PASS
    assert cert.evidence["branch"] == "complete-bipartite"


def test_main_theorem_k8_via_almost_simple_branch():
    cert = main_theorem_check(Analysis(pgl2(7), complete_graph(8)))
    assert cert.verdict == PASS
    assert cert.evidence["branch"] == "almost-simple"
    assert cert.evidence["core_order"] == 168


def test_main_theorem_gate_on_non_edge_primitive():
    g = petersen()
    cert = main_theorem_check(Analysis(automorphism_group(g), g))
    assert cert.verdict == NOT_APPLICABLE


# -- counting / selfnorm / sylow ---------------------------------------------


def test_counting_transitive_branch_k5():
    cert = counting_identity_check(Analysis(s5(), complete_graph(5)), a5())
    assert cert.verdict == PASS
    assert cert.evidence["order_Nv"] == 12
    assert cert.evidence["order_N_edge"] == 6
    assert 2 * 12 == 4 * 6


def test_counting_intransitive_branch_k33():
    k33 = complete_bipartite(3)
    aut = automorphism_group(k33)
    n36 = [n for n in normal_subgroups(aut) if n.order == 36]
    found_intransitive = False
    for n in n36:
        cert = counting_identity_check(Analysis(aut, k33), n)
        assert cert.verdict == PASS
        if not cert.evidence["normal_vertex_transitive"]:
            found_intransitive = True
            assert cert.evidence["order_Nv"] == 12
            assert cert.evidence["order_N_edge"] == 4
            assert cert.evidence["order_N_arc"] == 4
    assert found_intransitive


def test_counting_rejects_bad_normal_inputs():
    with pytest.raises(ValueError):
        counting_identity_check(
            Analysis(s5(), complete_graph(5)), build_group([from_cycles(5, [(0, 1)])])
        )
    from edgeprim import trivial_group

    with pytest.raises(ValueError):
        counting_identity_check(Analysis(s5(), complete_graph(5)), trivial_group(5))


def test_selfnorm_k5():
    cert = selfnorm_check(Analysis(s5(), complete_graph(5)), a5())
    assert cert.verdict == PASS
    assert cert.evidence["order_N_arc"] == 3
    assert cert.evidence["self_normalized"]


def test_selfnorm_heawood():
    hw = heawood()
    aut = automorphism_group(hw)
    core = psl2(7)
    # The Heawood automorphism group read off the incidence structure acts
    # on 14 points; realize the simple normal subgroup as its perfect core.
    from edgeprim import perfect_core

    n = perfect_core(aut)
    assert n.order == 168
    cert = selfnorm_check(Analysis(aut, hw), n)
    assert cert.verdict == PASS


def test_sylow_arc_k5():
    cert = sylow_arc_check(Analysis(s5(), complete_graph(5)), a5())
    assert cert.verdict == PASS
    rows = {r["prime"]: r for r in cert.evidence["sylow_rows"]}
    assert rows[3]["normal_in_edge_stabilizer"] and rows[3]["is_full_sylow"]
    assert not rows[2]["normal_in_edge_stabilizer"]
    assert cert.evidence["N_edge_nonabelian"]


def test_sylow_arc_k14_abelian_arc_stabilizer():
    g = psl2(13)
    cert = sylow_arc_check(Analysis(g, complete_graph(14)), g)
    assert cert.verdict == PASS
    assert cert.evidence["order_N_edge"] == 12
    assert cert.evidence["order_N_arc"] == 6
    assert cert.evidence["N_arc_abelian"]
    assert cert.evidence["normal_arc_transitive"]


def test_sylow_arc_kdd_gate():
    k33 = complete_bipartite(3)
    aut = automorphism_group(k33)
    n = normal_subgroups(aut)[-1]
    cert = sylow_arc_check(Analysis(aut, k33), n)
    assert cert.verdict == NOT_APPLICABLE


# -- prime valency ------------------------------------------------------------


def test_prime_valency_k14():
    cert = prime_valency_check(Analysis(psl2(13), complete_graph(14)))
    assert cert.verdict == PASS
    assert cert.evidence["branch"] == "complete-graph"
    assert cert.evidence["valency_greater_11"]
    assert cert.evidence["order_matches_psl2"]


def test_prime_valency_heawood():
    hw = heawood()
    cert = prime_valency_check(Analysis(automorphism_group(hw), hw))
    assert cert.verdict == PASS
    assert cert.evidence["branch"] == "2-arc-transitive"


def test_prime_valency_gate_on_composite_valency():
    k5 = complete_graph(5)
    cert = prime_valency_check(Analysis(automorphism_group(k5), k5))
    assert cert.verdict == NOT_APPLICABLE


# -- three-arc criterion -------------------------------------------------------


def test_three_arc_heawood_gate():
    hw = heawood()
    cert = three_arc_criterion(Analysis(automorphism_group(hw), hw))
    assert cert.verdict == NOT_APPLICABLE
    assert "faithful" in cert.evidence["violated_hypothesis"]


def test_three_arc_k5_sides_agree_negatively():
    k5 = complete_graph(5)
    cert = three_arc_criterion(Analysis(automorphism_group(k5), k5))
    # K_5 under S_5: faithful vertex stabilizer, 2- but not 3-arc-transitive,
    # valency 4 != 7: both sides false, criterion confirmed.
    assert cert.verdict == PASS
    assert not cert.evidence["three_arc_transitive"]
    assert not cert.evidence["right_side"]


def test_three_arc_hs_core_evidence_is_the_same_at_both_cutoffs(hs_core, hs_graph):
    # The cutoff no longer enters three-arc: the alternating-7 witness rests
    # on the core's order, and the symmetric-6 decision on an exhaustive
    # search in a group of order 720, below the smallest allowed cutoff.
    certs = [
        three_arc_criterion(
            Analysis(hs_core, hs_graph, config=RunConfig(enumeration_cutoff=cutoff))
        )
        for cutoff in (1000, 10**6)
    ]
    assert certs[0].evidence == certs[1].evidence
    assert certs[0].verdict == certs[1].verdict == PASS
    assert certs[0].evidence["vertex_core_matches_alt7"] is True
    assert certs[0].evidence["edge_stabilizer_differs_from_sym6"] is True


def _sym6_on_two_subsets():
    pairs = list(itertools.combinations(range(6), 2))
    index = {frozenset(p): i for i, p in enumerate(pairs)}

    def on_pairs(images):
        return Permutation([index[frozenset(images[x] for x in p)] for p in pairs])

    group = build_group([on_pairs((1, 0, 2, 3, 4, 5)), on_pairs((1, 2, 3, 4, 5, 0))])
    stars = [frozenset(i for i, p in enumerate(pairs) if x in p) for x in range(6)]
    return group, stars


def _a8_edge_stabilizer():
    a8 = build_group([from_cycles(8, [(0, 1, 2)]), from_cycles(8, [(1, 2, 3, 4, 5, 6, 7)])])
    return a8.setwise_stabilizer((0, 1)), [frozenset({x}) for x in range(2, 8)]


@pytest.mark.parametrize(
    "make",
    [
        lambda: (
            build_group([from_cycles(6, [(0, 1)]), from_cycles(6, [(0, 1, 2, 3, 4, 5)])]),
            [frozenset({x}) for x in range(6)],
        ),
        _sym6_on_two_subsets,
        _a8_edge_stabilizer,
    ],
    ids=["S6", "S6 on 2-subsets", "A8 edge stabilizer"],
)
def test_is_sym6_finds_sym6(make):
    # Independent reason: the group permutes six cells, and brute-force
    # closure shows the induced image on them is faithful of order 720,
    # so it is all of Sym(6).
    group, cells = make()
    closure = brute_closure([g.images for g in group.generators])
    images = set()
    for element in closure:
        moved = [frozenset(element[x] for x in cell) for cell in cells]
        images.add(tuple(cells.index(cell) for cell in moved))
    assert group.order == len(closure) == len(images) == 720
    assert _is_sym6(group)


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda: pgl2(9), "element of order 8"),
        (
            lambda: build_group(
                [
                    from_cycles(8, [(0, 1, 2)]),
                    from_cycles(8, [(1, 2, 3, 4, 5)]),
                    from_cycles(8, [(6, 7)]),
                ]
            ),
            "central involution",
        ),
        (
            lambda: build_group(
                [from_cycles(30, [tuple(range(16)), tuple(range(16, 25)), tuple(range(25, 30))])]
            ),
            "abelian",
        ),
    ],
    ids=["PGL(2,9)", "A6 x C2", "C720"],
)
def test_is_sym6_rejects_other_groups_of_order_720(make, reason):
    # Independent reason, by brute-force closure: S6 has no element of
    # order 8, a trivial centre, and is nonabelian.
    group = make()
    gens = [g.images for g in group.generators]
    closure = brute_closure(gens)
    found = {
        "element of order 8": any(element_order(e) == 8 for e in closure),
        "central involution": any(
            element_order(e) == 2
            and all(compose_t(e, g) == compose_t(g, e) for g in gens)
            for e in closure
        ),
        "abelian": all(compose_t(a, b) == compose_t(b, a) for a in gens for b in gens),
    }
    assert group.order == len(closure) == 720
    assert found[reason]
    assert not _is_sym6(group)


# -- affine -------------------------------------------------------------------


def test_affine_normal_agl19_conclusions():
    g = agl1(9)
    target = [n for n in normal_subgroups(g) if n.order == 18]
    assert target
    cert = affine_normal_check(Analysis(g), target[0])
    assert cert.verdict == PASS
    assert cert.evidence["soluble"]
    assert cert.evidence["frobenius"]
    assert cert.evidence["stabilizer_cyclic"]
    assert cert.evidence["residual_clause_checked"] is False


def test_affine_normal_regular_gate():
    g = agl1(9)
    translations = [n for n in normal_subgroups(g) if n.order == 9]
    cert = affine_normal_check(Analysis(g), translations[0])
    assert cert.verdict == NOT_APPLICABLE
    assert "regular" in cert.evidence["violated_hypothesis"]


def test_affine_normal_primitive_gate_agammal18():
    g = agammal1(8)
    n56 = [n for n in normal_subgroups(g) if n.order == 56]
    assert n56
    cert = affine_normal_check(Analysis(g), n56[0])
    assert cert.verdict == NOT_APPLICABLE
    assert "primitive" in cert.evidence["violated_hypothesis"]


# -- gates and scale limits ---------------------------------------------------

TWO_K4 = build_graph(
    8, [(o + a, o + b) for o in (0, 4) for a, b in itertools.combinations(range(4), 2)]
)
STAR = build_graph(4, [(0, 1), (0, 2), (0, 3)])
SHAPE = "graph is not connected d-regular with d >= 3"


@pytest.mark.parametrize(
    "graph, check, gate, evidence",
    [
        (TWO_K4, s_transitivity_degree, "graph is disconnected", {"group_order": 1152}),
        (STAR, s_transitivity_degree, "graph is irregular", {"group_order": 6}),
        (TWO_K4, main_theorem_check, SHAPE, {"group_order": 1152}),
        (STAR, main_theorem_check, SHAPE, {"group_order": 6}),
        (cycle_graph(5), main_theorem_check, SHAPE, {"group_order": 10}),
        # three-arc records the valency before its gate, main-theorem after.
        (TWO_K4, three_arc_criterion, SHAPE, {"group_order": 1152, "valency": 3}),
        (STAR, three_arc_criterion, SHAPE, {"group_order": 6, "valency": None}),
        (cycle_graph(5), three_arc_criterion, SHAPE, {"group_order": 10, "valency": 2}),
    ],
    ids=["s-degree 2K4", "s-degree star", "main-theorem 2K4", "main-theorem star",
         "main-theorem C5", "three-arc 2K4", "three-arc star", "three-arc C5"],
)
def test_graph_shape_gates(graph, check, gate, evidence):
    cert = check(Analysis(automorphism_group(graph), graph))
    assert cert.verdict == NOT_APPLICABLE
    assert cert.evidence == {**evidence, "violated_hypothesis": gate}


PATH5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def _local_row(v, u, stab, primitive, two_transitive):
    return {
        "vertex": v, "neighbor": u, "order_vertex_stabilizer": stab, "order_local_image": stab,
        "order_vertex_kernel": 1, "order_arc_kernel": 1, "order_vertex_kernel_on_other_side": 1,
        "arc_kernel_is_p_group": True, "arc_kernel_prime": None,
        "locally_primitive": primitive, "locally_2_transitive": two_transitive,
        "extension_identity_ok": True,
    }


def _path5(check):
    return check(Analysis(automorphism_group(PATH5), PATH5))


def _cycle6_s_degree():
    return s_transitivity_degree(Analysis(automorphism_group(cycle_graph(6)), cycle_graph(6)))


def _d5_over_c5():
    d5 = build_group([from_cycles(5, [(0, 1, 2, 3, 4)]), from_cycles(5, [(1, 4), (2, 3)])])
    return affine_normal_check(Analysis(d5), build_group([from_cycles(5, [(0, 1, 2, 3, 4)])]))


@pytest.mark.parametrize(
    "make, evidence",
    [
        (lambda: _path5(is_edge_primitive), {
            "edge_count": 4, "group_order": 2,
            "violated_hypothesis": "group is not edge-transitive",
        }),
        (lambda: _path5(local_structure), {
            "vertex_transitive": False,
            "per_vertex": {
                "0": _local_row(0, 1, 1, True, False),
                "1": _local_row(1, 0, 1, False, False),
                "2": _local_row(2, 1, 2, True, True),
            },
            "violated_hypothesis": "group is not vertex-transitive",
        }),
        (lambda: _path5(s_transitivity_degree), {
            "group_order": 2, "violated_hypothesis": "graph is irregular",
        }),
        (_cycle6_s_degree, {
            "group_order": 12, "valency": 2, "violated_hypothesis": "valency < 3",
        }),
        (_d5_over_c5, {
            "group_order": 10, "normal_order": 5, "degree": 5,
            "residual_clause_checked": False,
            "violated_hypothesis": "group is not 2-transitive",
        }),
    ],
    ids=["edge-primitive P5", "local-structure P5", "s-degree P5", "s-degree C6",
         "affine-normal D5 over C5"],
)
def test_gate_certificates_are_pinned(make, evidence):
    cert = make()
    assert cert.verdict == NOT_APPLICABLE
    assert cert.evidence == evidence


@pytest.mark.parametrize("check", [counting_identity_check, selfnorm_check, sylow_arc_check])
def test_pair_checks_gate_on_edge_primitivity(check):
    g = petersen()
    analysis = Analysis(automorphism_group(g), g)
    for normal in normal_subgroups(analysis.reduced):
        cert = check(analysis, normal)
        assert cert.verdict == NOT_APPLICABLE
        assert cert.evidence == {
            "group_order": 120,
            "normal_order": normal.order,
            "violated_hypothesis": "group is not edge-primitive",
        }


TIGHT = RunConfig(enumeration_cutoff=1000)


def test_scale_limit_verdicts_of_the_normal_subgroup_checks(hs_graph, hs_aut):
    k14 = Analysis(psl2(13), complete_graph(14), config=TIGHT)
    cert = selfnorm_check(k14, k14.group)
    assert cert.verdict == SCALE_LIMIT
    assert cert.evidence == {
        "group_order": 1092, "normal_order": 1092, "branch": "self-normalized",
        "order_N_arc": 6, "order_N_edge": 12, "N_arc_nontrivial": True,
        "scale_limit": "normalizer needs element enumeration: order 1092 exceeds cutoff 1000",
    }
    hs = Analysis(hs_aut, hs_graph, config=TIGHT)
    cert = sylow_arc_check(hs, hs.group)
    assert cert.verdict == SCALE_LIMIT
    assert cert.evidence == {
        "group_order": 252000, "normal_order": 252000, "order_N_arc": 720, "order_N_edge": 1440,
        "scale_limit":
            "Sylow subgroup search needs element enumeration: order 1440 exceeds cutoff 1000",
    }


def test_prime_valency_scale_limit_keeps_the_complete_graph_evidence():
    cert = prime_valency_check(Analysis(psl2(13), complete_graph(14), config=TIGHT))
    assert cert.verdict == SCALE_LIMIT
    assert cert.evidence == {
        "group_order": 1092, "valency": 13, "edge_primitive": True, "s_degree": 1,
        "branch": "complete-graph", "graph_is_complete_d_plus_1": True,
        "order_matches_psl2": True, "valency_greater_11": True,
    }


def test_affine_normal_scale_limit(monkeypatch):
    # The gate needs a point stabilizer above the smallest cutoff, 1000, in
    # an imprimitive normal subgroup of a 2-transitive group; no such group
    # of degree up to 10^4 is known, so the real cyclicity test is run under
    # a cutoff of 1.
    from edgeprim import certify, structure

    monkeypatch.setattr(certify, "is_cyclic", lambda group, cutoff: structure.is_cyclic(group, 1))
    g = agl1(9)
    normal = next(n for n in normal_subgroups(g) if n.order == 18)
    cert = affine_normal_check(Analysis(g), normal)
    assert cert.verdict == SCALE_LIMIT
    assert cert.evidence == {
        "group_order": 72, "normal_order": 18, "degree": 9, "residual_clause_checked": False,
        "order_N0": 2, "normal_primitive": False, "witness_block_size": 3,
        "soluble": True, "frobenius": True,
        "scale_limit": "cyclicity test needs element enumeration: order 2 exceeds cutoff 1",
    }


# -- one analysis per (group, graph) ------------------------------------------


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_calls_everywhere(monkeypatch, name):
    """Count the calls through every edgeprim module's binding of a name."""
    import sys

    calls = []
    for module_name, module in sorted(sys.modules.items()):
        if module_name.startswith("edgeprim") and hasattr(module, name):
            original = getattr(module, name)

            def counted(*args, original=original, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


def test_analysis_computes_each_shared_fact_once(monkeypatch):
    from edgeprim import certify
    from edgeprim.cli import CHECKS

    simple_calls = _count_calls(monkeypatch, certify, "is_simple")
    image_calls = _count_calls(monkeypatch, certify, "edge_images")
    analysis = Analysis(pgl2(7), complete_graph(8))
    certs = [check(analysis) for check in CHECKS.values()]
    assert [c.check_name for c in certs] == list(CHECKS)
    assert len(simple_calls) == 1
    assert len(image_calls) == 1


def test_analysis_checks_the_group_against_the_graph_once(monkeypatch):
    from edgeprim.cli import CHECKS

    a5_on_five = build_group([from_cycles(10, [(0, 1, 2)]), from_cycles(10, [(0, 1, 2, 3, 4)])])
    with pytest.raises(ValueError, match="not a graph automorphism"):
        Analysis(a5_on_five, petersen())
    with pytest.raises(ValueError, match="group degree must equal the vertex count"):
        Analysis(a5(), petersen())
    assert Analysis(a5_on_five).graph is None

    # Counted through every module's binding, so a local fact that checked
    # the group again from another module would show here.
    calls = _count_calls_everywhere(monkeypatch, "check_preserves_edges")
    analysis = Analysis(pgl2(7), complete_graph(8))
    for check in CHECKS.values():
        check(analysis)
    assert calls == ["check_preserves_edges"]


def test_of_normal_is_the_analysis_itself_for_the_whole_group():
    analysis = Analysis(s5(), complete_graph(5))
    same_group = build_group([from_cycles(5, [(0, 1)]), from_cycles(5, [(0, 1, 2, 3, 4)])])
    assert analysis.of_normal(same_group) is analysis
    assert analysis.of_normal(a5()) is not analysis
    # A group of the same order that is not a subgroup is still rejected.
    c3 = Analysis(build_group([from_cycles(6, [(0, 1, 2)])]))
    with pytest.raises(ValueError, match="not a subgroup"):
        c3.of_normal(build_group([from_cycles(6, [(3, 4, 5)])]))


def test_lemma_suite_decides_edge_primitivity_once_per_fixture(monkeypatch, tmp_path):
    from edgeprim import certify

    image_calls = _count_calls(monkeypatch, certify, "edge_images")
    config = RunConfig(fixture_dir=tmp_path / "fixtures")
    rows = run_lemma_suite(["counting", "selfnorm", "sylow"], config)
    fixtures = {r.fixture for r in rows}
    assert len(rows) > len(fixtures)
    assert len(image_calls) == len(fixtures)


def test_lemma_suite_checks_each_graph_fixture_against_its_group_once(monkeypatch, tmp_path):
    # The analyses of normal subgroups share the fixture's graph unchecked:
    # a subgroup of a checked group of automorphisms acts by automorphisms.
    calls = _count_calls_everywhere(monkeypatch, "check_preserves_edges")
    run_lemma_suite(None, RunConfig(fixture_dir=tmp_path / "fixtures"))
    assert len(calls) == 6


# -- suite, replayability -------------------------------------------------------


def test_lemma_suite_counting_has_enough_pairs(tmp_path):
    config = RunConfig(fixture_dir=tmp_path / "fixtures")
    rows = run_lemma_suite(["counting", "selfnorm"], config)
    counting_rows = [r for r in rows if r.check == "counting"]
    assert len(counting_rows) >= 8
    assert all(r.certificate.verdict == PASS for r in rows)


def test_certificates_are_replayable():
    cert1 = counting_identity_check(Analysis(s5(), complete_graph(5)), a5())
    cert2 = counting_identity_check(Analysis(s5(), complete_graph(5)), a5())
    assert cert1.to_json() == cert2.to_json()
    hw = heawood()
    aut = automorphism_group(hw)
    assert (
        s_transitivity_degree(Analysis(aut, hw)).to_json()
        == s_transitivity_degree(Analysis(automorphism_group(hw), hw)).to_json()
    )
