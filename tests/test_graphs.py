import itertools
import random

import pytest

from edgeprim import (
    Analysis,
    ScaleLimitError,
    automorphism_group,
    build_graph,
    build_group,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    from_cycles,
    heawood,
    is_connected,
    petersen,
    s_transitivity_degree,
    valency,
)
from edgeprim.certify import _FIXTURES, S_ARC_CAP, RunConfig, _least_arc
from edgeprim.graphs import is_automorphism, is_complete_bipartite, is_star
from brute import (
    brute_automorphisms,
    brute_is_complete_bipartite,
    brute_s_arc_count,
    brute_s_arcs,
    diameter,
    girth,
)


def test_build_graph_validation():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 4)])


def test_k4_basics():
    k4 = complete_graph(4)
    assert valency(k4) == 3
    assert is_connected(k4)
    assert girth(k4) == 3


def test_petersen_basics():
    p = petersen()
    assert valency(p) == 3
    assert girth(p) == 5
    assert diameter(p) == 2


def test_irregular_and_forest():
    path = build_graph(3, [(0, 1), (1, 2)])
    assert valency(path) is None
    assert girth(path) == float("inf")


def test_star_and_complete_bipartite_detection():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert is_star(star)
    from edgeprim import complete_bipartite

    assert is_complete_bipartite(complete_bipartite(3))
    assert not is_complete_bipartite(petersen())


def _prism():
    return build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def _cube():
    return build_graph(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])


def _two_k33():
    return build_graph(12, [(o + i, o + 3 + j) for o in (0, 6) for i in range(3) for j in range(3)])


@pytest.mark.parametrize(
    "make, expected",
    [(lambda d=d: complete_bipartite(d), True) for d in range(1, 6)]
    + [
        (lambda: cycle_graph(4), True),
        # The prism is 3-regular on 6 vertices but not bipartite.
        (_prism, False),
        (_two_k33, False),
        (_cube, False),
        (petersen, False),
        (heawood, False),
        (lambda: build_graph(4, []), False),
    ],
    ids=[f"K{d},{d}" for d in range(1, 6)]
    + ["C4", "prism", "2K3,3", "cube", "Petersen", "Heawood", "edgeless"],
)
def test_complete_bipartite_detection_matches_the_definition(make, expected):
    graph = make()
    assert is_complete_bipartite(graph) == brute_is_complete_bipartite(graph) == expected


def test_complete_bipartite_detection_on_every_graph_on_six_vertices():
    pairs = list(itertools.combinations(range(6), 2))
    hits = 0
    for mask in range(1, 1 << len(pairs)):
        graph = build_graph(6, [p for i, p in enumerate(pairs) if mask >> i & 1])
        got = is_complete_bipartite(graph)
        assert got == brute_is_complete_bipartite(graph), graph.edges
        hits += got
    assert hits == 10  # the ways to split six vertices into two triples


def test_s_arc_counts_on_cycles():
    c7 = cycle_graph(7)
    for s in range(1, 6):
        assert brute_s_arc_count(c7, s) == 14


def test_k4_two_arcs():
    assert brute_s_arc_count(complete_graph(4), 2) == 24


def test_s_arc_formula_on_regular_fixtures(hs_graph):
    # `s-degree` counts the s-arcs of a d-regular graph as n d (d-1)^(s-1).
    fixtures = [cycle_graph(7), complete_graph(4), complete_graph(5), petersen(), heawood(), hs_graph]
    for g in fixtures:
        d = valency(g)
        for s in range(1, 5):
            assert brute_s_arc_count(g, s) == g.n * d * (d - 1) ** (s - 1)


def test_s_arc_validity():
    # The arc the s-degree ladder climbs is an 8-arc: it steps along edges
    # and never straight back, also where it revisits a vertex.
    for g in (petersen(), heawood(), complete_graph(4), complete_bipartite(3)):
        vs = _least_arc(g)
        assert len(vs) == S_ARC_CAP + 1
        for a, b in zip(vs, vs[1:]):
            assert b in g.adjacency[a]
        for a, b in zip(vs, vs[2:]):
            assert a != b


def test_s_arc_cap():
    # The ladder's cap is fixed at 8 and recorded in every certificate;
    # there is no option that moves it.
    hw = heawood()
    cert = s_transitivity_degree(Analysis(automorphism_group(hw), hw))
    assert S_ARC_CAP == 8
    assert cert.config["s_cap"] == 8
    assert [row["transitive"] for row in cert.evidence["ladder"]] == [True] * 4 + [False]
    assert "s_cap" not in RunConfig.__dataclass_fields__


def test_hs_three_arc_count(hs_graph):
    assert brute_s_arc_count(hs_graph, 3) == 12600


def test_automorphism_groups_of_named_graphs():
    assert automorphism_group(complete_graph(5)).order == 120
    assert automorphism_group(cycle_graph(6)).order == 12
    assert automorphism_group(petersen()).order == 120
    assert automorphism_group(heawood()).order == 336


def test_every_returned_generator_preserves_edges():
    for g in (petersen(), heawood()):
        group = automorphism_group(g)
        for gen in group.gens:
            assert is_automorphism(g, gen)


def test_vertex_transitive_aut_order_divisible_by_n():
    for g in (complete_graph(6), petersen(), heawood(), cycle_graph(9)):
        assert automorphism_group(g).order % g.n == 0


def test_automorphism_group_matches_brute_force_on_random_graphs():
    rng = random.Random(424242)
    for _ in range(30):
        n = rng.randint(1, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = build_graph(n, edges)
        assert automorphism_group(g).order == len(brute_automorphisms(n, edges))


def test_automorphism_scale_gate():
    big = build_graph(1001, [(i, i + 1) for i in range(1000)])
    with pytest.raises(ScaleLimitError) as exc:
        automorphism_group(big)
    e = exc.value
    assert (e.cap.name, e.value, e.limit, e.step) == (
        "search-vertices", 1001, 1000, "automorphism search"
    )
    assert str(e) == "automorphism search capped at 1000 vertices; graph has 1001"


def test_local_action_k5():
    k5 = complete_graph(5)
    g = automorphism_group(k5)
    la = Analysis(g, k5).local(0)
    assert la.image.order == 24
    assert la.kernel.order == 1
    stab = g.point_stabilizer(0)
    assert stab.order == la.image.order * la.kernel.order
    with pytest.raises(ValueError, match="out of range"):
        Analysis(g, k5).local(5)


def test_local_action_heawood():
    hw = heawood()
    g = automorphism_group(hw)
    la = Analysis(g, hw).local(0)
    assert la.image.order == 6
    assert la.kernel.order == 4


def test_local_action_rejects_non_automorphisms():
    # The analysis refuses the group before any local fact is read.
    path = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(ValueError, match="not a graph automorphism"):
        Analysis(build_group([from_cycles(5, [(0, 4)])]), path).local(0)


def test_arc_kernel_examples():
    k5 = complete_graph(5)
    g5 = automorphism_group(k5)
    assert Analysis(g5, k5).arc_kernel(0, 1).order == 1
    hw = heawood()
    analysis = Analysis(automorphism_group(hw), hw)
    u, v = hw.edges[0]
    assert analysis.arc_kernel(u, v).order == 2
    assert analysis.arc_kernel(v, u).order == 2
    with pytest.raises(ValueError, match="not an edge"):
        analysis.arc_kernel(0, 1)


def test_local_action_identity_across_fixtures(hs_graph, hs_aut):
    fixtures = [
        (complete_graph(5), automorphism_group(complete_graph(5))),
        (heawood(), automorphism_group(heawood())),
        (petersen(), automorphism_group(petersen())),
        (hs_graph, hs_aut),
    ]
    for graph, group in fixtures:
        la = Analysis(group, graph).local(0)
        assert group.point_stabilizer(0).order == la.image.order * la.kernel.order


def test_first_s_arc_is_lexicographically_least():
    # On every graph of the lemma fixtures, the first s + 1 vertices of the
    # ladder's arc are the oracle's first s-arc, for s = 1..8, and that is
    # the least of all s-arcs (checked in full up to s = 3).
    assert _least_arc(petersen())[:3] == (0, 1, 2)
    graphs = [make_graph() for make_graph, _group in _FIXTURES.values() if make_graph]
    assert len(graphs) == 6
    for g in graphs:
        arc = _least_arc(g)
        for s in range(1, S_ARC_CAP + 1):
            assert next(brute_s_arcs(g, s)) == arc[: s + 1]
        for s in range(1, 4):
            assert min(brute_s_arcs(g, s)) == arc[: s + 1]


def test_the_ladder_climbs_the_least_arc(monkeypatch):
    # Each rung reads the pointwise stabilizer of the arc's first s + 1
    # vertices, repeats dropped (K4's 3-arc closes a triangle).
    from edgeprim.groups import Group

    for g in (heawood(), complete_graph(4)):
        analysis = Analysis(automorphism_group(g), g)
        assert analysis.arc_transitive  # its stabilizer is read before the ladder
        calls = []
        read = Group.pointwise_stabilizer
        monkeypatch.setattr(
            Group, "pointwise_stabilizer",
            lambda self, points: calls.append(tuple(points)) or read(self, points),
        )
        ladder = s_transitivity_degree(analysis).evidence["ladder"]
        monkeypatch.undo()
        arc = _least_arc(g)
        assert calls == [tuple(dict.fromkeys(arc[: s + 1])) for s in range(1, len(ladder) + 1)]


def brute_girth(n, edges):
    # Independent oracle: for each edge, remove it and BFS the endpoint
    # distance; the girth is the best distance plus one.
    best = float("inf")
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for u, v in edges:
        adj[u].discard(v)
        adj[v].discard(u)
        dist = {u: 0}
        queue = [u]
        while queue:
            x = queue.pop(0)
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist:
            best = min(best, dist[v] + 1)
        adj[u].add(v)
        adj[v].add(u)
    return best


def test_girth_matches_edge_removal_oracle():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(3, 10)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35]
        g = build_graph(n, edges)
        assert girth(g) == brute_girth(n, edges)


def _recolouring_refine(cells, adjacency):
    """Reference: the refinement that recolours every vertex by a dict of
    neighbour-cell counts, subcells ordered by the sorted count items."""
    n = sum(len(c) for c in cells)
    while True:
        color = [0] * n
        for idx, cell in enumerate(cells):
            for v in cell:
                color[v] = idx
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                counts = {}
                for w in adjacency[v]:
                    counts[color[w]] = counts.get(color[w], 0) + 1
                groups.setdefault(tuple(sorted(counts.items())), []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(sorted(groups[sig])))
        if not changed:
            return tuple(new_cells)
        cells = tuple(new_cells)


def _refine_fixtures(hs_graph):
    rng = random.Random(2718)
    graphs = [petersen(), heawood(), complete_graph(6), cycle_graph(9), hs_graph]
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    graphs.append(build_graph(12, hexagon + [(6 + a, 6 + b) for a, b in hexagon]))
    for _ in range(12):
        n = rng.randint(6, 30)
        p = rng.choice((0.15, 0.3, 0.5))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        graphs.append(build_graph(n, edges))
    return graphs, rng


def test_refine_matches_recolouring_reference(hs_graph):
    from edgeprim.graphs import _refine

    graphs, rng = _refine_fixtures(hs_graph)
    states = 0
    for g, _descent in itertools.product(graphs, range(6)):
        cells = (tuple(range(g.n)),)
        # Individualize random vertices of random non-singleton cells.
        while True:
            refined = _refine(cells, g.adjacency)
            assert refined == _recolouring_refine(cells, g.adjacency)
            states += 1
            open_cells = [i for i, c in enumerate(refined) if len(c) > 1]
            if not open_cells:
                break
            pos = rng.choice(open_cells)
            v = rng.choice(refined[pos])
            rest = tuple(x for x in refined[pos] if x != v)
            cells = refined[:pos] + ((v,), rest) + refined[pos + 1 :]
    assert states > 200


def test_automorphism_group_is_the_same_with_the_reference_refine(hs_graph, monkeypatch):
    from edgeprim import graphs as graphs_module

    fixtures, _rng = _refine_fixtures(hs_graph)
    found = [automorphism_group(g) for g in fixtures]
    monkeypatch.setattr(graphs_module, "_refine", _recolouring_refine)
    for g, group in zip(fixtures, found):
        reference = automorphism_group(g)
        assert reference.base == group.base
        assert [h.images for h in reference.generators] == [
            h.images for h in group.generators
        ]


def _relabelled(g, rng):
    pi = list(range(g.n))
    rng.shuffle(pi)
    return build_graph(g.n, [(pi[u], pi[v]) for u, v in g.edges])


def _paley(q):
    squares = {x * x % q for x in range(1, q)}
    return build_graph(q, [(u, v) for u, v in itertools.combinations(range(q), 2) if (v - u) % q in squares])


def _cycles(*lengths):
    edges, start = [], 0
    for m in lengths:
        edges += [(start + i, start + (i + 1) % m) for i in range(m)]
        start += m
    return build_graph(start, edges)


def test_automorphism_order_matches_networkx_vf2pp():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31337)
    fixtures = []
    # Dense G(n,p) graphs, then sparse ones whose pendant and isolated
    # vertices give nontrivial groups.
    for n_range, p_choices in (((9, 40), (0.2, 0.35, 0.5)), ((9, 16), (0.12, 0.15))):
        for _ in range(6):
            n = rng.randint(*n_range)
            p = rng.choice(p_choices)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            fixtures.append(build_graph(n, edges))
    for n in (10, 16, 24, 40):
        cubic = nx.random_regular_graph(3, n, seed=rng.randrange(2**32))
        fixtures.append(build_graph(n, cubic.edges()))
    named = [petersen(), heawood(), complete_bipartite(3), complete_bipartite(4), _paley(13)]
    fixtures += [_relabelled(g, rng) for g in named]
    # A union of equal cycles, and 2-regular graphs whose cycles differ in
    # length.  Equitable refinement cannot tell a 6-cycle from two
    # triangles, so below the first level the target cells are not orbits
    # and the search must try more than one candidate in its subtrees.
    fixtures += [_relabelled(_cycles(*c), rng) for c in ((4, 4, 4), (6, 3, 3), (4, 4, 8))]
    for g in fixtures:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        count = sum(1 for _ in nx.vf2pp_all_isomorphisms(h, h))
        assert automorphism_group(g).order == count, g


def _pg2_incidence(p):
    """Incidence graph of PG(2,p), p prime: points 0..m-1 and lines m..2m-1
    are the normalized nonzero vectors of GF(p)^3 (first nonzero entry 1),
    and point x lies on line y when x.y = 0 mod p."""
    vectors = [
        v
        for v in itertools.product(range(p), repeat=3)
        if any(v) and next(c for c in v if c) == 1
    ]
    m = len(vectors)
    edges = [
        (i, m + j)
        for i, x in enumerate(vectors)
        for j, y in enumerate(vectors)
        if sum(a * b for a, b in zip(x, y)) % p == 0
    ]
    return build_graph(2 * m, edges)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_automorphism_group_of_projective_plane_incidence_graph(p):
    # Aut = PGammaL(3,p) with a polarity swapping points and lines; for a
    # prime p this is PGL(3,p).2, of order 2 p^3 (p^3 - 1) (p^2 - 1).
    g = _pg2_incidence(p)
    assert g.n == 2 * (p * p + p + 1) and valency(g) == p + 1
    group = automorphism_group(g)
    assert group.order == 2 * p**3 * (p**3 - 1) * (p**2 - 1)
    assert all(is_automorphism(g, h) for h in group.gens)
    if p == 2:
        assert group.order == automorphism_group(heawood()).order == 336


def test_chain_base_starts_with_the_first_edge(hs_graph, hs_aut):
    graphs = [
        hs_graph,
        petersen(),
        heawood(),
        _pg2_incidence(5),
        build_graph(8, [(0, 1), (2, 3), (4, 5)]),  # a matching, 2 isolated vertices
        build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),  # a star
    ]
    for g in graphs:
        group = hs_aut if g is hs_graph else automorphism_group(g)
        assert group.base[:2] == g.edges[0]


def test_arc_stabilizers_on_hoffman_singleton_are_chain_reads(hs_graph, hs_aut, monkeypatch):
    # The arc stabilizer and the first two rungs of s-degree (its 1- and
    # 2-arc stabilizers) are base images, and the edge stabilizer is read
    # off the arc's, so no Schreier-Sims runs.
    from edgeprim.groups import _Chain

    sifts = []
    sift = _Chain.sift
    monkeypatch.setattr(_Chain, "sift", lambda *args: sifts.append(1) or sift(*args))
    analysis = Analysis(hs_aut, hs_graph)
    assert analysis.arc_stabilizer.order == 720
    assert analysis.edge_stabilizer.order == 1440
    arc = _least_arc(hs_graph)
    rungs = [analysis.group.pointwise_stabilizer(arc[: s + 1]) for s in (1, 2)]
    assert [stab.order for stab in rungs] == [720, 120]
    assert sifts == []


@pytest.mark.parametrize("name", ["heawood", "hoffman-singleton"])
def test_a_group_file_is_rebased_at_the_analysed_edge(name, hs_graph, hs_aut, monkeypatch):
    # A group read from a file has a chain on its smallest moved points,
    # (2, 1) on Heawood and (5, 3) on Hoffman-Singleton; Analysis moves it
    # onto the analysed edge once, so both of its stabilizers are reads.
    from edgeprim import Analysis
    from edgeprim.cli import CHECKS
    from edgeprim.fileio import group_to_text, parse_group
    from edgeprim.groups import _Chain

    graph = hs_graph if name == "hoffman-singleton" else heawood()
    searched = hs_aut if graph is hs_graph else automorphism_group(graph)
    read = parse_group(group_to_text(searched))
    assert read.base[:2] != graph.edges[0]
    analysis = Analysis(read, graph)
    assert analysis.group.base[:2] == graph.edges[0]
    assert analysis.group.gens == read.gens and analysis.group.order == read.order
    sifts = []
    sift = _Chain.sift
    monkeypatch.setattr(_Chain, "sift", lambda *args: sifts.append(1) or sift(*args))
    assert 2 * graph.num_edges * analysis.arc_stabilizer.order == read.order
    assert graph.num_edges * analysis.edge_stabilizer.order == read.order
    assert sifts == []
    monkeypatch.undo()
    reference = Analysis(searched, graph)
    assert reference.group is searched
    for check in CHECKS.values():
        assert check(analysis).to_dict() == check(reference).to_dict()


@pytest.mark.parametrize("p", [7, 13])
def test_projective_plane_incidence_graph_is_edge_primitive_and_4_arc_transitive(p):
    # p = 13 has 366 vertices, past the byte kernel's degree 255.
    from edgeprim import Analysis, is_edge_primitive, s_transitivity_degree
    from edgeprim.certify import PASS

    g = _pg2_incidence(p)
    analysis = Analysis(automorphism_group(g), g)
    edge = is_edge_primitive(analysis)
    assert edge.verdict == PASS
    points = p * p + p + 1
    order = 2 * p**3 * (p**3 - 1) * (p**2 - 1)
    assert edge.evidence["edge_stabilizer_order"] == order // (points * (p + 1))
    assert edge.evidence["edge_action_kernel_order"] == 1
    degree = s_transitivity_degree(analysis)
    assert degree.verdict == PASS and degree.evidence["s_degree"] == 4
