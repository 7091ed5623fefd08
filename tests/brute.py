"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's stabilizer-chain machinery: closure
is plain breadth-first multiplication, block search enumerates set
partitions, and automorphism counting filters all n! permutations.
"""

from __future__ import annotations

import itertools


def compose_t(p, q):
    return tuple(q[x] for x in p)


def element_order(p) -> int:
    """The order of an image tuple, by repeated composition."""
    ident = tuple(range(len(p)))
    q, m = p, 1
    while q != ident:
        q, m = compose_t(q, p), m + 1
    return m


def brute_closure(gens: list[tuple[int, ...]], limit: int = 10**6) -> set[tuple[int, ...]]:
    """All products of the generators, by BFS multiplication."""
    n = len(gens[0])
    ident = tuple(range(n))
    elements = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = compose_t(x, g)
                if y not in elements:
                    if len(elements) >= limit:
                        raise RuntimeError("closure limit hit")
                    elements.add(y)
                    new.append(y)
        frontier = new
    return elements


def equal_cell_partitions(points: list[int], cell_size: int):
    """All partitions of the points into cells of the given size."""
    if not points:
        yield []
        return
    first = points[0]
    rest = points[1:]
    for others in itertools.combinations(rest, cell_size - 1):
        cell = (first,) + others
        remaining = [x for x in rest if x not in others]
        for tail in equal_cell_partitions(remaining, cell_size):
            yield [cell] + tail


def brute_is_primitive(domain_size: int, gens: list[tuple[int, ...]]) -> bool:
    """Exhaustive search over all equal-cell partitions for a block system."""
    for cell_size in range(2, domain_size):
        if domain_size % cell_size != 0:
            continue
        for partition in equal_cell_partitions(list(range(domain_size)), cell_size):
            cells = [frozenset(c) for c in partition]
            cell_set = set(cells)
            if all(
                frozenset(g[x] for x in cell) in cell_set
                for g in gens
                for cell in cells
            ):
                return False
    return True


def brute_automorphisms(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """All edge-preserving permutations, by filtering n! candidates."""
    edge_set = {(u, v) if u < v else (v, u) for u, v in edges}
    out = []
    for p in itertools.permutations(range(n)):
        ok = True
        for u, v in edge_set:
            a, b = p[u], p[v]
            if ((a, b) if a < b else (b, a)) not in edge_set:
                ok = False
                break
        if ok:
            out.append(p)
    return out


def assert_valid_chain(group, points) -> None:
    """Check a group's stabilizer chain field by field with plain tuples:
    every transversal element sends its base point to its key and fixes the
    earlier base points and the given points, its inverse table inverts it,
    and every strong generator fixes the given points."""
    n = group.degree
    for i, (b, trans, inverses) in enumerate(
        zip(group.base, group.transversals, group._inverse_tables)
    ):
        assert b in trans and set(trans) == set(inverses)
        for beta, t in trans.items():
            assert t[b] == beta
            assert all(t[x] == x for x in group.base[:i] + tuple(points))
            assert [inverses[beta][t[x]] for x in range(n)] == list(range(n))
    for s in group.strong_gens:
        assert all(s[x] == x for x in points)


def brute_setwise_stabilizer(elements: set[tuple[int, ...]], points: set[int]) -> set[tuple[int, ...]]:
    return {g for g in elements if {g[x] for x in points} == points}


def inverse_t(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def brute_normalizer(
    ambient: set[tuple[int, ...]], sub: set[tuple[int, ...]]
) -> set[tuple[int, ...]]:
    out = set()
    for g in ambient:
        gi = inverse_t(g)
        if all(compose_t(compose_t(gi, h), g) in sub for h in sub):
            out.add(g)
    return out


def brute_centralizer(
    ambient: set[tuple[int, ...]], sub: set[tuple[int, ...]]
) -> set[tuple[int, ...]]:
    return {
        g for g in ambient if all(compose_t(g, h) == compose_t(h, g) for h in sub)
    }


def all_subgroups(elements: set[tuple[int, ...]], max_gens: int = 2):
    """Every subgroup generated by up to max_gens elements.

    For groups whose subgroups are all 2-generated (for instance the
    symmetric group of degree 4) this is the full subgroup lattice.
    """
    seen = {}
    ordered = sorted(elements)
    for r in range(1, max_gens + 1):
        for gens in itertools.combinations(ordered, r):
            closure = frozenset(brute_closure(list(gens)))
            seen.setdefault(closure, gens)
    n = len(next(iter(elements)))
    ident = tuple(range(n))
    seen.setdefault(frozenset({ident}), (ident,))
    return list(seen)



def brute_edge_action(edges: list[tuple[int, int]], gens: list[tuple[int, ...]]):
    """(kernel order, image order, witness) of the action on a sorted edge
    list of the group that the vertex permutations ``gens`` generate, by
    enumerating it.

    The kernel order counts the elements that fix every edge, and the image
    order the distinct permutations of the edges.  The minimal
    block system through {0, beta} is the set of components of the orbital
    graph of (0, beta): every congruence relating 0 and beta contains all
    images of that pair, and the components are permuted by the group.  The
    witness is that system, as sorted edge lists, for the least beta whose
    orbital graph is disconnected; it is None when every one is connected,
    which is Higman's criterion for primitivity.
    """
    index = {e: i for i, e in enumerate(edges)}
    m = len(edges)
    identity = tuple(range(m))
    images = [
        tuple(index[tuple(sorted((g[u], g[v])))] for u, v in edges)
        for g in brute_closure(gens)
    ]
    kernel = sum(1 for h in images if h == identity)
    for beta in range(1, m):
        links = {x: set() for x in range(m)}
        for h in images:
            links[h[0]].add(h[beta])
            links[h[beta]].add(h[0])
        cells = []
        unseen = set(range(m))
        while unseen:
            cell = set()
            frontier = [min(unseen)]
            while frontier:
                x = frontier.pop()
                if x in unseen:
                    unseen.discard(x)
                    cell.add(x)
                    frontier.extend(links[x])
            cells.append(sorted(list(edges[i]) for i in cell))
        if len(cells) > 1:
            return kernel, len(set(images)), sorted(cells)
    return kernel, len(set(images)), None


def brute_s_arc_count(graph, s: int) -> int:
    """The number of s-arcs, by listing them all."""
    from edgeprim.graphs import iter_s_arcs

    return len(list(iter_s_arcs(graph, s)))
