"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance here is exact (integer equality or stated caps).
"""

import itertools
import json
import random
import time

from edgeprim import (
    Analysis,
    RunConfig,
    automorphism_group,
    build_graph,
    build_group,
    complete_bipartite,
    complete_graph,
    heawood,
    hoffman_singleton,
    is_edge_primitive,
    is_primitive,
    local_structure,
    main_theorem_check,
    perfect_core,
    petersen,
    pgl2,
    psl2,
    reduce_generators,
    restrict_to_invariant_set,
    run_lemma_suite,
    s_transitivity_degree,
    three_arc_criterion,
    valency,
)
from edgeprim import Permutation, agl1, from_cycles, is_transitive
from edgeprim.certify import PASS
from edgeprim.groups import NORMAL_SWEEP
from edgeprim.cli import main as cli_main
from brute import brute_automorphisms, brute_closure, brute_is_primitive, girth


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_hoffman_singleton_pipeline():
    start = time.monotonic()
    graph = hoffman_singleton()
    assert graph.n == 50
    assert valency(graph) == 7
    assert girth(graph) == 5
    aut = automorphism_group(graph)
    assert aut.order == 252000

    edge_cert = is_edge_primitive(Analysis(aut, graph))
    assert edge_cert.verdict == PASS
    assert edge_cert.evidence["edge_count"] == 175
    assert edge_cert.evidence["edge_stabilizer_order"] == 1440

    s_cert = s_transitivity_degree(Analysis(aut, graph))
    assert s_cert.evidence["s_degree"] == 3

    local_cert = local_structure(Analysis(aut, graph))
    assert local_cert.evidence["order_vertex_kernel"] == 1

    cert_full = three_arc_criterion(Analysis(aut, graph))
    assert cert_full.verdict == PASS
    assert cert_full.evidence["order_vertex_stabilizer"] == 5040
    assert cert_full.evidence["order_edge_stabilizer"] == 1440

    core = reduce_generators(perfect_core(reduce_generators(aut)))
    cert_core = three_arc_criterion(Analysis(core, graph))
    assert cert_core.verdict == PASS
    assert cert_core.evidence["order_vertex_stabilizer"] == 2520
    assert cert_core.evidence["order_edge_stabilizer"] == 720

    elapsed = time.monotonic() - start
    _report(1, elapsed < 120.0, f"full pipeline in {elapsed:.1f}s (< 120s)")


def test_criterion_2_main_theorem_instances(hs_graph, hs_aut):
    verdicts = {}
    cert = main_theorem_check(Analysis(hs_aut, hs_graph))
    verdicts["hs"] = (cert.verdict, cert.evidence["branch"])
    cert = main_theorem_check(Analysis(pgl2(7), complete_graph(8)))
    verdicts["k8"] = (cert.verdict, cert.evidence["branch"])
    k33 = complete_bipartite(3)
    cert = main_theorem_check(Analysis(automorphism_group(k33), k33))
    verdicts["k33"] = (cert.verdict, cert.evidence["branch"])
    ok = (
        verdicts["hs"] == (PASS, "almost-simple")
        and verdicts["k8"] == (PASS, "almost-simple")
        and verdicts["k33"] == (PASS, "complete-bipartite")
    )
    _report(2, ok, f"main theorem verdicts: {verdicts}")


def test_criterion_3_prime_valency_fixtures():
    g13 = psl2(13)
    k14 = complete_graph(14)
    assert g13.order == 1092
    ep = is_edge_primitive(Analysis(g13, k14))
    sd = s_transitivity_degree(Analysis(g13, k14))
    ok_k14 = ep.verdict == PASS and sd.evidence["s_degree"] == 1

    hw = heawood()
    aut = automorphism_group(hw)
    ep_hw = is_edge_primitive(Analysis(aut, hw))
    sd_hw = s_transitivity_degree(Analysis(aut, hw))
    lc = local_structure(Analysis(aut, hw))
    ok_hw = (
        ep_hw.verdict == PASS
        and sd_hw.evidence["s_degree"] == 4
        and lc.evidence["order_arc_kernel"] == 2
        and lc.evidence["arc_kernel_is_p_group"]
        and lc.evidence["arc_kernel_prime"] == 2
    )
    _report(3, ok_k14 and ok_hw, "K_14/PSL(2,13) s=1 order 1092; Heawood s=4 kernel 2")


def test_criterion_4_petersen_negative_control():
    pet = petersen()
    aut = automorphism_group(pet)
    cert = is_edge_primitive(Analysis(aut, pet))
    ok = (
        aut.order == 120
        and cert.verdict == "fail"
        and cert.evidence["witness_block_size"] > 1
        and len(cert.evidence["witness_blocks"]) > 1
    )
    _report(
        4,
        ok,
        f"|Aut(Petersen)|={aut.order}, edge-primitive fail with "
        f"{len(cert.evidence['witness_blocks'])} blocks of size "
        f"{cert.evidence['witness_block_size']}",
    )


def test_criterion_5_lemma_suite_pairs(tmp_path):
    config = RunConfig(fixture_dir=tmp_path / "fixtures")
    rows = run_lemma_suite(["counting", "selfnorm"], config)
    counting = [r for r in rows if r.check == "counting"]
    selfnorm = [r for r in rows if r.check == "selfnorm"]
    bad = [r for r in rows if r.certificate.verdict != PASS]
    ok = len(counting) >= 8 and len(selfnorm) >= 8 and not bad
    _report(
        5,
        ok,
        f"{len(counting)} counting pairs, {len(selfnorm)} selfnorm pairs, "
        f"{len(bad)} non-pass rows (bound {NORMAL_SWEEP.limit})",
    )


def test_criterion_6_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20250810)

    # Stabilizer-chain order vs exhaustive closure, 50 random generator sets.
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
        if len(closure) > 5000:
            continue
        assert build_group(gens).order == len(closure)
        checked += 1

    # Primitivity vs exhaustive equal-cell partition search, degree <= 12.
    fixtures = [
        build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)])]),
        build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)]), from_cycles(6, [(1, 5), (2, 4)])]),
        build_group([from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)])]),
        build_group([from_cycles(8, [(0, 1, 2, 3, 4, 5, 6, 7)])]),
        build_group([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])]),
        pgl2(7),
        psl2(11),
        agl1(9),
        build_group([from_cycles(9, [(0, 1, 2)]), from_cycles(9, [(0, 3, 6), (1, 4, 7), (2, 5, 8)])]),
        build_group([from_cycles(10, [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]), from_cycles(10, [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])]),
    ]
    prim_checked = 0
    for group in fixtures:
        image = restrict_to_invariant_set(group, range(group.degree))
        if image.degree > 12 or not is_transitive(image):
            continue
        gens = [g.images for g in image.generators]
        assert is_primitive(image)[0] == brute_is_primitive(image.degree, gens)
        prim_checked += 1
    assert prim_checked >= 6

    # Automorphism groups vs the n!-filter on 30 random graphs.
    for _ in range(30):
        n = rng.randint(1, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        graph = build_graph(n, edges)
        assert automorphism_group(graph).order == len(brute_automorphisms(n, edges))

    elapsed = time.monotonic() - start
    _report(6, elapsed < 60.0, f"oracle equivalence in {elapsed:.1f}s (< 60s)")


def test_criterion_7_weiss_cap(tmp_path, hs_graph, hs_aut):
    config = RunConfig(fixture_dir=tmp_path / "fixtures")
    rows = run_lemma_suite(["weiss"], config)
    assert rows
    two_arc_rows = []
    for row in rows:
        ev = row.certificate.evidence
        assert row.certificate.verdict == PASS
        if ev.get("s_degree", 0) >= 2:
            two_arc_rows.append(row.fixture)
            assert ev["s_degree"] <= 7
            assert ev["probe_s8_transitive"] is False
            assert ev["weiss_cap_ok"] is True
    # The direct engine probe on the strongest fixture also stays below 8.
    cert = s_transitivity_degree(Analysis(hs_aut, hs_graph))
    assert cert.evidence["probe_s8_transitive"] is False
    _report(7, len(two_arc_rows) >= 3, f"2-arc-transitive fixtures capped: {two_arc_rows}")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    graph_path = tmp_path / "hw.graph"
    assert cli_main(["construct", "--family", "heawood", "--out", str(graph_path)]) == 0
    capsys.readouterr()

    analyze_args = [
        "analyze", "--graph", str(graph_path),
        "--check", "edge-primitive,s-degree,local-structure,main-theorem", "--json",
    ]
    assert cli_main(analyze_args) == 0
    first = capsys.readouterr().out
    assert cli_main(analyze_args) == 0
    second = capsys.readouterr().out

    fixture_dir = tmp_path / "fixtures"
    lemma_args = ["lemmas", "--suite", "counting,weiss", "--fixture-dir", str(fixture_dir), "--json"]
    assert cli_main(lemma_args) == 0
    lemmas_first = capsys.readouterr().out
    assert cli_main(lemma_args) == 0
    lemmas_second = capsys.readouterr().out

    ok = first == second and lemmas_first == lemmas_second and json.loads(first)
    _report(
        8,
        bool(ok),
        f"analyze bytes {len(first)} and lemma bytes {len(lemmas_first)} identical across runs",
    )
