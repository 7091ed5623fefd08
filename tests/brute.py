"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's stabilizer-chain machinery: closure
is plain breadth-first multiplication, block search enumerates set
partitions, automorphism counting filters all n! permutations, and girth
and diameter come from a breadth-first search at every vertex.
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


def brute_orbits(elements, n: int) -> set[frozenset[int]]:
    """The orbits on range(n) of a set of image tuples closed under
    composition, each read off every element."""
    return {frozenset(g[x] for g in elements) for x in range(n)}


def brute_is_complete_bipartite(graph) -> bool:
    """Whether some split of the vertices into two equal halves A and B has
    exactly the pairs of A x B as edges, trying every half holding 0."""
    n, edges = graph.n, set(graph.edges)
    if n % 2 or len(edges) != (n // 2) ** 2:
        return False
    for half in itertools.combinations(range(1, n), n // 2 - 1):
        a = {0, *half}
        if edges == {
            (min(u, v), max(u, v)) for u in a for v in range(n) if v not in a
        }:
            return True
    return False


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


def girth(graph) -> int | float:
    """Length of a shortest cycle; infinity for forests (BFS per vertex)."""
    best: int | float = float("inf")
    for root in range(graph.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for y in graph.adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y:
                    best = min(best, dist[x] + dist[y] + 1)
    return best


def diameter(graph) -> int | float:
    """Largest eccentricity; infinity when disconnected."""
    best = 0
    for root in range(graph.n):
        dist = {root: 0}
        queue = [root]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for y in graph.adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if len(dist) != graph.n:
            return float("inf")
        best = max(best, max(dist.values()))
    return best


def chain_levels(group):
    """Per level of a group's chain, its (point, representative, inverse
    table) triples in orbit order, read through the group's level reads."""
    return [
        [(x, group.representative(i, x), group.inverse_table(i, x)) for x in group.basic_orbit(i)]
        for i in range(len(group.base))
    ]


def assert_valid_chain(group, points) -> None:
    """Check a group's stabilizer chain level by level with plain tuples:
    every representative sends its base point to its key and fixes the
    earlier base points and the given points, its inverse table inverts it,
    only orbit points have one, and every strong generator fixes the given
    points."""
    n = group.degree
    for i, (b, level) in enumerate(zip(group.base, chain_levels(group))):
        assert level[0][0] == b
        orbit = {beta for beta, _t, _inv in level}
        assert all(group.inverse_table(i, x) is None for x in range(n) if x not in orbit)
        for beta, t, t_inv in level:
            assert t[b] == beta
            assert all(t[x] == x for x in group.base[:i] + tuple(points))
            assert [t_inv[t[x]] for x in range(n)] == list(range(n))
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

def brute_normal_subgroups(elements: set[tuple[int, ...]]) -> list[frozenset]:
    """The nontrivial normal subgroups, as element sets: every union of
    conjugacy classes with the identity that is closed under products.
    Each class is the set of conjugates of an element by every element, so
    no generating set is assumed."""
    ident = tuple(range(len(next(iter(elements)))))
    classes, seen = [], set()
    for x in sorted(elements):
        if x not in seen:
            cls = frozenset(compose_t(compose_t(inverse_t(g), x), g) for g in elements)
            seen |= cls
            classes.append(cls)
    nontrivial = [c for c in classes if ident not in c]
    out = []
    for r in range(1, len(nontrivial) + 1):
        for combo in itertools.combinations(nontrivial, r):
            sub = frozenset({ident}).union(*combo)
            if all(compose_t(x, y) in sub for x in sub for y in sub):
                out.append(sub)
    return out


def union_find_blocks(gens: list[tuple[int, ...]], alpha: int, beta: int) -> tuple:
    """The minimal block system through {alpha, beta}, as sorted cells: a
    union-find closed under every generator until no merge applies, with
    no early stop."""
    n = len(gens[0])
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    parent[beta] = alpha
    pairs = [(alpha, beta)]
    while pairs:
        x, y = pairs.pop()
        for g in gens:
            a, b = find(g[x]), find(g[y])
            if a != b:
                parent[b] = a
                pairs.append((a, b))
    cells: dict[int, list[int]] = {}
    for x in range(n):
        cells.setdefault(find(x), []).append(x)
    return tuple(sorted(tuple(c) for c in cells.values()))


def reference_block_witness(gens: list[tuple[int, ...]], stabilizer_gens: list) -> tuple | None:
    """The cells of the first nontrivial minimal block system through
    {0, beta}, for beta the least point of each orbit of the stabilizer
    generators in ascending order, or None when every system is trivial."""
    seen: set[int] = set()
    for beta in range(len(gens[0])):
        if beta in seen:
            continue
        orbit = [beta]
        seen.add(beta)
        for x in orbit:
            for g in stabilizer_gens:
                if g[x] not in seen:
                    seen.add(g[x])
                    orbit.append(g[x])
        if beta and len(cells := union_find_blocks(gens, 0, beta)) > 1:
            return cells
    return None


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


def brute_s_arcs(graph, s: int):
    """The s-arcs (walks of s steps, none straight back), lexicographically,
    by a depth-first search over neighbour sets built from the edge list."""
    nbrs: dict[int, set[int]] = {v: set() for v in range(graph.n)}
    for u, v in graph.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def extend(walk: list[int]):
        if len(walk) == s + 1:
            yield tuple(walk)
            return
        for w in sorted(nbrs[walk[-1]]):
            if len(walk) < 2 or w != walk[-2]:
                yield from extend(walk + [w])

    for v in range(graph.n):
        yield from extend([v])


def brute_s_arc_count(graph, s: int) -> int:
    """The number of s-arcs, by listing them all."""
    return sum(1 for _ in brute_s_arcs(graph, s))
