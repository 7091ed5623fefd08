"""Extra known-value and error-path coverage beyond the core suites."""

import itertools
import random

import pytest

from brute import brute_closure, element_order
from edgeprim import (
    CosetTable,
    Permutation,
    ScaleLimitError,
    automorphism_group,
    build_graph,
    build_group,
    element_mapping,
    from_cycles,
    is_normal,
    normal_closure,
    trivial_group,
)
from edgeprim.structure import elements


def test_hypercube_q4_automorphisms():
    # Vertices are 4-bit strings; edges join strings at Hamming distance 1.
    # The automorphism group is the hyperoctahedral group of order 2^4 * 4!.
    edges = []
    for v in range(16):
        for bit in range(4):
            w = v ^ (1 << bit)
            if v < w:
                edges.append((v, w))
    q4 = build_graph(16, edges)
    assert automorphism_group(q4).order == 384


def test_johnson_graph_t6_automorphisms():
    # Triangular graph T(6): vertices are 2-subsets of a 6-set, adjacent when
    # they intersect; the automorphism group is the symmetric group of
    # degree 6 acting on pairs, order 720.
    pairs = list(itertools.combinations(range(6), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = []
    for a, b in itertools.combinations(pairs, 2):
        if set(a) & set(b):
            edges.append((index[a], index[b]))
    t6 = build_graph(15, edges)
    assert automorphism_group(t6).order == 720


def test_paley_13_automorphisms():
    # Paley graph on 13 vertices: x ~ y iff x - y is a nonzero square.
    squares = {(x * x) % 13 for x in range(1, 13)}
    edges = [(x, y) for x in range(13) for y in range(x + 1, 13) if (y - x) % 13 in squares]
    paley = build_graph(13, edges)
    assert automorphism_group(paley).order == 78


def test_automorphism_group_equals_complement_group():
    rng = random.Random(1234)
    for _ in range(15):
        n = rng.randint(2, 10)
        all_pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in all_pairs if rng.random() < 0.5]
        co_edges = [e for e in all_pairs if e not in set(edges)]
        g = automorphism_group(build_graph(n, edges))
        co = automorphism_group(build_graph(n, co_edges))
        assert g.order == co.order
        for gen in g.gens:
            assert co.contains(gen)


def test_coset_action_with_nontrivial_kernel():
    # Dihedral group of order 8 on the square; cosets of its center give a
    # degree-4 action whose kernel is the center itself.
    d8 = build_group([from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(1, 3)])])
    centre = build_group([from_cycles(4, [(0, 2), (1, 3)])])
    assert is_normal(d8, centre)
    table = CosetTable(d8, centre)
    image = build_group(Permutation(table.image_of(g)) for g in d8.gens)
    assert image.degree == table.index == 4
    assert image.order == 4
    assert d8.order // image.order == 2


def test_coset_action_index_cap():
    s8 = build_group([from_cycles(8, [(0, 1)]), from_cycles(8, [(0, 1, 2, 3, 4, 5, 6, 7)])])
    with pytest.raises(ScaleLimitError) as exc:
        CosetTable(s8, trivial_group(8))
    e = exc.value
    assert (e.cap.name, e.value, e.limit, e.step) == ("coset-index", 40320, 10**4, "coset table")
    assert str(e) == "coset index 40320 exceeds cap 10000"


def test_error_paths():
    s4 = build_group([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])
    with pytest.raises(ValueError):
        s4.setwise_stabilizer([])
    with pytest.raises(ValueError):
        s4.setwise_stabilizer([9])
    with pytest.raises(ValueError):
        element_mapping(s4, (0, 1), (2,))
    with pytest.raises(ValueError):
        s4.orbit(7)
    with pytest.raises(ValueError):
        normal_closure(s4, [from_cycles(5, [(0, 1)]).element])


def test_element_iteration_respects_degree_branch():
    # S4 on points 0..3 enumerates in the same order as bytes (degree 4)
    # and as tuples (degree 300, past the byte range).
    from edgeprim.structure import _iter_elements_bytes

    def s4(n):
        return build_group([from_cycles(n, [(0, 1)]), from_cycles(n, [(0, 1, 2, 3)])])

    via_bytes = [tuple(b) for b in _iter_elements_bytes(s4(4))]
    via_tuples = [t[:4] for t in _iter_elements_bytes(s4(300))]
    assert via_bytes == via_tuples
    assert len(set(via_bytes)) == 24


def test_mathieu_degree_11_chain():
    # Classical generator pair for the degree-11 Mathieu group: a strong
    # stress test for the stabilizer chain (sharply 4-transitive, simple).
    a = from_cycles(11, [tuple(range(11))])
    b = from_cycles(11, [(2, 6, 10, 7), (3, 9, 4, 5)])
    m11 = build_group([a, b])
    assert m11.order == 7920
    from edgeprim import is_simple
    from edgeprim.structure import conjugacy_classes

    assert is_simple(m11)
    sizes = sorted(s for _r, s in conjugacy_classes(m11))
    assert sizes == [1, 165, 440, 720, 720, 990, 990, 990, 1320, 1584]
    assert m11.point_stabilizer(0).order == 720


def test_hs_edge_stabilizer_is_not_sym6_like_the_mathieu_stabilizer(hs_core, hs_graph):
    # Independent corroboration of the edge-stabilizer identification: the
    # point stabilizer M10 of the degree-11 Mathieu group and the edge
    # stabilizer of the Hoffman-Singleton core both have order 720 and an
    # element of order 8, which S6 has not, and neither is found to be S6.
    from edgeprim.certify import _is_sym6

    a = from_cycles(11, [tuple(range(11))])
    b = from_cycles(11, [(2, 6, 10, 7), (3, 9, 4, 5)])
    m10 = build_group([a, b]).point_stabilizer(0)
    u, v = hs_graph.edges[0]
    edge_stab = hs_core.setwise_stabilizer((u, v))
    for group in (m10, edge_stab):
        closure = brute_closure([g.images for g in group.generators])
        assert group.order == len(closure) == 720
        assert any(element_order(e) == 8 for e in closure)
        assert not _is_sym6(group)


def test_large_degree_group_elements():
    # Degree above 255 exercises the tuple path end to end.
    n = 300
    rot = from_cycles(n, [tuple(range(5))])
    swap = from_cycles(n, [(0, 1)])
    g = build_group([rot, swap])
    assert g.order == 120
    listed = elements(g)
    assert len(listed) == 120
    assert all(isinstance(e, tuple) and len(e) == n for e in listed)
