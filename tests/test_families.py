import itertools

import pytest

from edgeprim import (
    CosetGraphSpec,
    FiniteField,
    Permutation,
    agammal1,
    agl1,
    automorphism_group,
    build_group,
    complete_bipartite,
    complete_graph,
    coset_graph,
    cycle_graph,
    from_cycles,
    gf,
    heawood,
    is_connected,
    is_frobenius,
    is_k_transitive,
    is_normal,
    pgl2,
    psl2,
    restrict_to_invariant_set,
    valency,
)
from brute import diameter, girth

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)]


def test_standard_graphs():
    k4 = complete_graph(4)
    assert k4.num_edges == 6 and valency(k4) == 3
    k33 = complete_bipartite(3)
    assert k33.num_edges == 9 and valency(k33) == 3
    assert girth(cycle_graph(5)) == 5
    hw = heawood()
    assert hw.n == 14 and valency(hw) == 3 and girth(hw) == 6


def test_size_gates():
    with pytest.raises(ValueError):
        complete_graph(1)
    with pytest.raises(ValueError):
        cycle_graph(2)


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustively(p, k):
    field = gf(p, k)
    els = field.elements()
    assert len(els) == field.q
    zero, one = field.zero(), field.one()
    for a in els:
        assert field.add(a, zero) == a
        assert field.mul(a, one) == a
        assert field.add(a, field.neg(a)) == zero
        if a != zero:
            assert field.mul(a, field.inv(a)) == one
    for a, b in itertools.product(els, repeat=2):
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_tables_match_polynomial_arithmetic(p, k):
    field = gf(p, k)
    pairs = list(itertools.product(field.elements(), repeat=2))
    assert len(pairs) == field.q**2
    for a, b in pairs:
        assert field.add(a, b) == field._poly_add(a, b)
        assert field.mul(a, b) == field._poly_mul(a, b)


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_multiplicative_group_cyclic(p, k):
    field = gf(p, k)
    prim = field.primitive_element()
    assert field.element_order(prim) == field.q - 1


def test_field_range_gates():
    with pytest.raises(ValueError):
        gf(4, 1)
    with pytest.raises(ValueError):
        gf(2, 7)
    with pytest.raises(ValueError):
        FiniteField(p=2, k=7, modulus=(1, 1, 0, 0, 0, 0, 0))


def test_pgl2_7():
    g = pgl2(7)
    assert g.degree == 8 and g.order == 336
    assert is_k_transitive(restrict_to_invariant_set(g, range(8)), 3)


def test_psl2_13():
    g = psl2(13)
    assert g.degree == 14 and g.order == 1092
    nat = restrict_to_invariant_set(g, range(14))
    assert is_k_transitive(nat, 2)
    assert not is_k_transitive(nat, 3)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13])
def test_psl_is_normal_in_pgl_of_right_index(q):
    big = pgl2(q)
    small = psl2(q)
    assert big.order == q * (q * q - 1)
    assert small.order == q * (q * q - 1) // (2 if q % 2 else 1)
    assert is_normal(big, small)


def test_agl_and_frobenius():
    g = agl1(5)
    assert g.order == 20
    assert is_frobenius(restrict_to_invariant_set(g, range(5)))
    assert agl1(9).order == 72
    assert agammal1(8).order == 168
    assert is_k_transitive(restrict_to_invariant_set(agammal1(8), range(8)), 2)


def test_hoffman_singleton_moore_parameters(hs_graph):
    assert hs_graph.n == 50
    assert valency(hs_graph) == 7
    assert girth(hs_graph) == 5
    assert diameter(hs_graph) == 2
    assert is_connected(hs_graph)


def test_hoffman_singleton_automorphisms(hs_aut):
    assert hs_aut.order == 252000


def test_coset_graph_k4_from_s4():
    s4 = build_group([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])
    s3 = build_group([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2)])])
    spec = CosetGraphSpec(group=s4, subgroup=s3, connector=from_cycles(4, [(2, 3)]))
    graph, image = coset_graph(spec)
    assert graph.n == 4 and graph.num_edges == 6
    assert valency(graph) == 3
    assert automorphism_group(graph).order == 24
    assert image.degree == 4 and image.order == 24


def test_coset_graph_k5_from_a5():
    a5 = build_group([from_cycles(5, [(0, 1, 2)]), from_cycles(5, [(0, 1, 2, 3, 4)])])
    a4 = build_group([from_cycles(5, [(0, 1, 2)]), from_cycles(5, [(1, 2, 3)])])
    spec = CosetGraphSpec(group=a5, subgroup=a4, connector=from_cycles(5, [(0, 1), (3, 4)]))
    graph, image = coset_graph(spec)
    assert graph.n == 5 and graph.num_edges == 10
    assert valency(graph) == 4


def test_coset_graph_round_trip_reconstruction():
    # Rebuild a known graph from one of its stabilizers: cosets of a vertex
    # stabilizer with an edge-swapping connector give back a graph with the
    # original parameters.
    from edgeprim import element_mapping

    hw = heawood()
    g = automorphism_group(hw)
    u, v = hw.edges[0]
    h = g.point_stabilizer(u)
    conn = element_mapping(g, (u, v), (v, u))
    assert conn is not None and not h.contains(conn)
    spec = CosetGraphSpec(group=g, subgroup=h, connector=Permutation(conn))
    graph, _image = coset_graph(spec)
    assert graph.n == hw.n
    assert valency(graph) == valency(hw)
    assert girth(graph) == girth(hw)
    assert automorphism_group(graph).order == 336


def test_coset_graph_translates_only_the_base_neighbourhood(monkeypatch):
    # PSL(2,17) on the 1,224 cosets of an involution x, joined by an
    # involution a that does not commute with x: each vertex costs one
    # canonical coset per neighbour, where the whole image of each coset
    # representative costs 1,224.  Every vertex has the two neighbours
    # |H : H meet H^a| of the relation, and every edge {Hu, Hw} has
    # w u^-1 in HaH, so the edges are exactly the relation's.
    from edgeprim.actions import CosetTable
    from edgeprim.structure import elements
    from brute import compose_t, inverse_t

    group = psl2(17)
    involutions = [tuple(g) for g in elements(group) if Permutation(tuple(g)).order() == 2]
    x = involutions[0]
    a = next(g for g in involutions if compose_t(x, g) != compose_t(g, x))
    sub = build_group([Permutation(x)])
    calls = []
    canonical = CosetTable.canonical
    monkeypatch.setattr(
        CosetTable, "canonical", lambda self, g: calls.append(1) or canonical(self, g)
    )
    graph, _image = coset_graph(CosetGraphSpec(group=group, subgroup=sub, connector=Permutation(a)))
    assert graph.n == 1224
    assert len(calls) < 10 * graph.n
    assert valency(graph) == 2

    one = tuple(range(group.degree))
    double_coset = {compose_t(compose_t(h, a), k) for h in (one, x) for k in (one, x)}
    reps = [tuple(r) for r in CosetTable(group, sub).reps]
    for u, w in graph.edges:
        assert compose_t(reps[w], inverse_t(reps[u])) in double_coset


def test_coset_graph_connector_validation():
    s4 = build_group([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])
    s3 = build_group([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2)])])
    with pytest.raises(ValueError):
        coset_graph(CosetGraphSpec(group=s4, subgroup=s3, connector=from_cycles(4, [(0, 1)])))
