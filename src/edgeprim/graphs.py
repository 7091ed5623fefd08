"""Finite simple graphs and automorphism search.

The automorphism search is a partition-refinement backtrack over ordered
partitions: the canonical (left-most) descent, individualizing in the first
largest cell at each level, fixes a short base sequence, and for every
other candidate in each target cell the search either finds one
automorphism realizing it or exhaustively refutes it.  The transversal
elements found this way generate the full group level by level, exactly as
in a stabilizer-chain construction, so the returned group is exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

from .perms import _kernel
from .groups import SEARCH_VERTICES, Group, ScaleLimitError, _Chain, orbit_of


@dataclass(frozen=True, eq=False)
class Graph:
    """Finite simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        """The edges (u, v) with u < v, as a set; built once per graph."""
        return frozenset(self.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    seen: set[tuple[int, int]] = set()
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise ValueError(f"duplicate edge ({pair[0]}, {pair[1]})")
        seen.add(pair)
        adjacency[u].append(v)
        adjacency[v].append(u)
    return Graph(
        n=n,
        edges=tuple(sorted(seen)),
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adjacency),
    )


def valency(graph: Graph) -> int | None:
    """The common valency, or None for an irregular graph."""
    degrees = {len(nbrs) for nbrs in graph.adjacency}
    return degrees.pop() if len(degrees) == 1 else None


def is_connected(graph: Graph) -> bool:
    if graph.n == 0:
        return True
    seen = {0}
    queue = [0]
    while queue:
        v = queue.pop()
        for w in graph.adjacency[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == graph.n


def _is_bipartite(graph: Graph) -> bool:
    """Whether the graph has a 2-coloring."""
    color: dict[int, int] = {}
    for root in range(graph.n):
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        for x in queue:
            for y in graph.adjacency[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def is_complete_bipartite(graph: Graph) -> bool:
    """K_{d,d} detection: a bipartite d-regular graph on 2d vertices has d
    vertices on each side, each joined to the whole other side."""
    d = valency(graph)
    return d is not None and graph.n == 2 * d and _is_bipartite(graph)


def is_complete(graph: Graph) -> bool:
    return graph.num_edges == graph.n * (graph.n - 1) // 2


def is_star(graph: Graph) -> bool:
    if graph.n < 2 or graph.num_edges != graph.n - 1:
        return False
    degrees = sorted(len(nbrs) for nbrs in graph.adjacency)
    return degrees[-1] == graph.n - 1 and all(d == 1 for d in degrees[:-1])


def is_automorphism(graph: Graph, images) -> bool:
    """Whether an image sequence (a kernel element, or any sequence) of a
    bijection on the vertices maps every edge to an edge."""
    if len(images) != graph.n:
        return False
    edge_set = graph.edge_set
    for u, v in graph.edges:
        a, b = images[u], images[v]
        if ((a, b) if a < b else (b, a)) not in edge_set:
            return False
    return True


def check_preserves_edges(graph: Graph, group: Group) -> None:
    """Generators-only check that a group acts by graph automorphisms;
    sound because automorphisms form a group."""
    if group.degree != graph.n:
        raise ValueError("group degree must equal the vertex count")
    for g in group.gens:
        if not is_automorphism(graph, g):
            raise ValueError("a generator of the group is not a graph automorphism")


# ---------------------------------------------------------------------------
# Automorphism search


def _refine(cells: tuple[tuple[int, ...], ...], adjacency) -> tuple[tuple[int, ...], ...]:
    """Equitable refinement of an ordered partition.

    Each pass groups the vertices of every cell by the sorted tuple of
    their neighbours' cell indices and splits cells in place, subcells
    ordered by that tuple's run-length form ((index, count), ...).  The
    ordering depends only on the colored-graph isomorphism class, so two
    states related by an automorphism refine in lockstep.
    """
    n = sum(len(c) for c in cells)
    while True:
        color = [0] * n
        for idx, cell in enumerate(cells):
            for v in cell:
                color[v] = idx
        color_of = color.__getitem__
        new_cells: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                groups.setdefault(tuple(sorted(map(color_of, adjacency[v]))), []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(groups, key=_run_lengths):
                    new_cells.append(tuple(sorted(groups[key])))
        if not changed:
            return tuple(new_cells)
        cells = tuple(new_cells)


def _run_lengths(key: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(value, count) for each run of equal values in a sorted tuple."""
    return tuple((value, len(list(run))) for value, run in groupby(key))


def _individualize(
    cells: tuple[tuple[int, ...], ...], pos: int, v: int, adjacency
) -> tuple[tuple[int, ...], ...]:
    cell = cells[pos]
    rest = tuple(x for x in cell if x != v)
    new = cells[:pos] + ((v,), rest) + cells[pos + 1 :]
    return _refine(new, adjacency)


def _shape(cells: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    return tuple(len(c) for c in cells)


def _target_pos(cells: tuple[tuple[int, ...], ...]) -> int | None:
    """Index of the first largest non-singleton cell, None when discrete.

    A large cell splits the partition hardest, so the descent and the
    search base are short: 4 points on Hoffman-Singleton (orbits 50, 42,
    30, 4), where a smallest cell peels a neighbourhood over 8 levels.
    """
    best = None
    best_size = 1
    for i, cell in enumerate(cells):
        if len(cell) > best_size:
            best, best_size = i, len(cell)
    return best


def automorphism_group(graph: Graph) -> Group:
    """Generators of the full automorphism group, as a built Group.

    Per level of the canonical descent, every non-canonical candidate in the
    target cell is either reached by a found automorphism (orbit check) or
    exhaustively refuted, so the per-level orbits are exact and the found
    transversal elements generate the group.
    """
    n = graph.n
    if n > SEARCH_VERTICES.limit:
        raise ScaleLimitError(SEARCH_VERTICES, n, "automorphism search")
    adjacency = graph.adjacency
    element = _kernel(n).element

    root = _refine((tuple(range(n)),), adjacency)

    # Canonical (left-most) descent.
    canon_states: list[tuple[tuple[int, ...], ...]] = [root]
    positions: list[int] = []
    base: list[int] = []
    while True:
        pos = _target_pos(canon_states[-1])
        if pos is None:
            break
        positions.append(pos)
        b = canon_states[-1][pos][0]
        base.append(b)
        canon_states.append(_individualize(canon_states[-1], pos, b, adjacency))
    canon_shapes = [_shape(st) for st in canon_states]
    canon_leaf = tuple(c[0] for c in canon_states[-1])
    depth_count = len(positions)

    def leaf_automorphism(leaf_cells):
        leaf = tuple(c[0] for c in leaf_cells)
        images = [0] * n
        for a, b in zip(canon_leaf, leaf):
            images[a] = b
        if len(set(images)) != n or not is_automorphism(graph, images):
            return None
        return element(images)

    def search(depth: int, cells):
        """First automorphism whose descent reaches this state, or None."""
        if _shape(cells) != canon_shapes[depth]:
            return None
        if depth == depth_count:
            return leaf_automorphism(cells)
        pos = positions[depth]
        for w in cells[pos]:
            result = search(depth + 1, _individualize(cells, pos, w, adjacency))
            if result is not None:
                return result
        return None

    gens: list = []
    level_orbits: list[int] = []
    for depth in reversed(range(depth_count)):
        cell = canon_states[depth][positions[depth]]
        b = base[depth]
        # Generators found so far all fix base[:depth] (deeper levels fix
        # more), so they witness orbit membership at this level.
        orbit = set(orbit_of((b,), gens))
        for w in cell:
            if w in orbit:
                continue
            found = search(
                depth + 1,
                _individualize(canon_states[depth], positions[depth], w, adjacency),
            )
            if found is not None:
                gens.append(found)
                orbit = set(orbit_of((b,), gens))
                if w not in orbit:
                    raise AssertionError("found automorphism does not reach target")
        level_orbits.append(len(orbit))

    # The chain's base starts with the first edge (repeats are dropped), so
    # the stabilizers of that edge and its arcs are read off the chain.
    first_edge = graph.edges[0] if graph.edges else ()
    group = _Chain(n, first_edge + tuple(base), gens).suffix_group(gens)
    expected = 1
    for size in level_orbits:
        expected *= size
    if group.order != expected:
        raise AssertionError("chain order disagrees with search orbits")
    for g in group.gens:
        if not is_automorphism(graph, g):
            raise AssertionError("search produced a non-automorphism")
    return group
