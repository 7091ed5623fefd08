"""Induced actions and permutation-group property tests.

An action is its image: the permutation group that the generators' images
on a domain generate.  The property tests take that group.  Block systems
need only generator images, so a graph's edges get no chain
(:func:`block_witness`).  Elements taken and returned are kernel elements
of :mod:`edgeprim.perms`, never the boundary type ``Permutation``; the
image of an element on a domain is a kernel element of the domain's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .perms import _kernel
from .groups import COSET_INDEX, Group, ScaleLimitError, _Chain, orbit_of


@dataclass(frozen=True, eq=False)
class BlockSystem:
    """A G-invariant partition of the domain into equal-size cells."""

    blocks: tuple[tuple[int, ...], ...]
    block_size: int

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def is_trivial(self, domain_size: int) -> bool:
        return self.block_size == 1 or self.block_size == domain_size


def restrict_to_invariant_set(group: Group, subset: Sequence[int]) -> Group:
    """The image of the restriction to an invariant point set, on the
    indices of its points in sorted order."""
    points = sorted(set(subset))
    if not points:
        raise ValueError("cannot restrict to an empty point set")
    index = {x: i for i, x in enumerate(points)}
    element = _kernel(len(points)).element
    try:
        gens = [element([index[g[x]] for x in points]) for g in group.gens]
    except KeyError as exc:
        raise ValueError(f"point set is not invariant: {exc} is outside it") from None
    # The image's order divides the group's; reaching it means faithful.
    image = _Chain(len(points), (), gens, group.order).suffix_group(gens)
    if group.order % image.order != 0:
        raise AssertionError("image order must divide group order")
    return image


def is_transitive(group: Group) -> bool:
    if group.degree == 0:
        raise ValueError("empty domain")
    return len(group.orbit(0)) == group.degree


def is_k_transitive(group: Group, k: int) -> bool:
    """Exact k-transitivity, k <= 5: on the chain rebased onto 0..k-1, level
    i is the orbit of i under the stabilizer of 0..i-1, so it must hold all
    n - i points not yet fixed."""
    if not 1 <= k <= 5:
        raise ValueError("k must be between 1 and 5")
    if group.degree < k:
        return False
    chain = group.rebase(range(k))
    return all(len(chain.basic_orbit(i)) == group.degree - i for i in range(k))


def is_frobenius(group: Group) -> bool:
    """Transitive, nontrivial point stabilizers, and stabilizers semiregular
    off their fixed point.  Regular actions are not Frobenius here: the
    convention requires a nontrivial complement."""
    if not is_transitive(group):
        raise ValueError("Frobenius test requires a transitive action")
    stab = group.point_stabilizer(0)
    if stab.order == 1:
        return False
    for orbit in stab.orbits():
        rep = orbit[0]
        if rep == 0:
            continue
        if stab.pointwise_stabilizer([0, rep]).order != 1:
            return False
    return True


def _blocks(gens: Sequence[Sequence[int]], alpha: int, beta: int) -> BlockSystem:
    """Minimal blocks of the transitive group that the image lists ``gens``
    generate, by union-find: merge alpha and beta, then close the relation
    under every generator until no merge applies.

    Every cell lies inside one block of the result, and block sizes divide
    the degree, so once a cell holds more than half the points the result
    is the whole domain, returned at once.
    """
    n = len(gens[0])
    parent = list(range(n))
    size = [1] * n
    queue: list[tuple[int, int]] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def merge(x: int, y: int) -> bool:
        """Merge the cells of x and y; whether the cell now passes half."""
        a, b = find(x), find(y)
        if a != b:
            parent[b] = a
            size[a] += size[b]
            queue.append((a, b))
        return 2 * size[a] > n

    whole = BlockSystem(blocks=(tuple(range(n)),), block_size=n)
    if merge(alpha, beta):
        return whole
    while queue:
        x, y = queue.pop()
        for g in gens:
            if merge(g[x], g[y]):
                return whole
    cells: dict[int, list[int]] = {}
    for x in range(n):
        cells.setdefault(find(x), []).append(x)
    blocks = tuple(sorted(tuple(sorted(c)) for c in cells.values()))
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise AssertionError("block refinement produced unequal cells")
    block_set = {frozenset(b) for b in blocks}
    for g in gens:
        for b in blocks:
            if frozenset(g[x] for x in b) not in block_set:
                raise AssertionError("cells are not permuted by a generator")
    return BlockSystem(blocks=blocks, block_size=sizes.pop())


def block_witness(
    gens: Sequence[Sequence[int]], stabilizer_gens: Sequence[Sequence[int]]
) -> BlockSystem | None:
    """A nontrivial block system of the transitive group generated by the
    image lists ``gens``, or None when it is primitive; ``stabilizer_gens``
    generate the stabilizer of 0.

    The first nontrivial minimal system through {0, beta} is returned, for
    beta the least point of each of the stabilizer's orbits in turn.  This
    suffices: any nontrivial block through 0 meets one of those orbits off
    0, and the minimal system for that pair refines it.
    """
    n = len(gens[0])
    if n < 2:
        raise ValueError("domain must have at least 2 points")
    seen: set[int] = set()
    for beta in range(n):
        if beta not in seen:
            seen.update(orbit_of((beta,), stabilizer_gens))
            if beta and not (system := _blocks(gens, 0, beta)).is_trivial(n):
                return system
    return None


def is_primitive(group: Group) -> tuple[bool, BlockSystem | None]:
    """Primitivity with an imprimitivity witness on failure."""
    if not is_transitive(group):
        raise ValueError("primitivity is defined for transitive actions")
    witness = block_witness(group.gens, group.point_stabilizer(0).gens)
    return witness is None, witness


def edge_images(edges: Sequence[tuple[int, int]], elements: Iterable) -> list:
    """The kernel elements that vertex permutations, given as kernel
    elements, induce on the indices of ``edges``, an invariant list of
    pairs (u, v) with u < v."""
    index = {e: i for i, e in enumerate(edges)}
    element = _kernel(len(edges)).element
    return [
        element([index[(g[u], g[v]) if g[u] < g[v] else (g[v], g[u])] for u, v in edges])
        for g in elements
    ]


def right_cosets(group: Group, sub: Group) -> Iterator:
    """The canonical representatives of the right cosets of sub in the
    group, each yielded as it is first met, breadth-first from sub over
    the group's generators, so a caller may stop early.

    The canonical representative of a coset Hg is the element minimizing
    the image sequence of the subgroup's base, found by descending the
    subgroup's stabilizer chain; it is unique because base images determine
    subgroup elements.  Elements are kernel elements of the group's degree.
    """
    k = _kernel(group.degree)
    first = _canonical(k, sub, k.identity)
    reps, seen = [first], {first}
    gen_tables = [k.table(g) for g in group.gens]
    for rep in reps:
        yield rep
        for g in gen_tables:
            nxt = _canonical(k, sub, k.mul(rep, g))
            if nxt not in seen:
                seen.add(nxt)
                reps.append(nxt)


def _canonical(k, sub: Group, g):
    """The canonical representative of the right coset of sub holding g."""
    rep = g
    for level, point in enumerate(sub.base):
        best = None
        best_delta = None
        for delta in sub.basic_orbit(level):
            img = rep[delta]
            if best is None or img < best:
                best, best_delta = img, delta
        if best_delta is not None and best_delta != point:
            rep = k.mul(sub.representative(level, best_delta), k.table(rep))
    return rep


class CosetTable:
    """Right cosets of a subgroup, identified by the canonical
    representatives of :func:`right_cosets`, in its order."""

    def __init__(self, group: Group, sub: Group):
        if group.degree != sub.degree:
            raise ValueError("degree mismatch")
        order, sub_order = group.order, sub.order
        if order % sub_order != 0:
            raise ValueError("candidate is not a subgroup")
        index = order // sub_order
        if index > COSET_INDEX.limit:
            raise ScaleLimitError(COSET_INDEX, index, "coset table")
        self.group = group
        self.sub = sub
        self._kernel = _kernel(group.degree)
        reps = list(right_cosets(group, sub))
        if len(reps) != index:
            raise AssertionError("coset enumeration found a wrong number of cosets")
        self.reps = reps
        self.lookup = {rep: i for i, rep in enumerate(reps)}
        self.index = index

    def canonical(self, g):
        return _canonical(self._kernel, self.sub, g)

    def coset_of(self, g) -> int:
        return self.lookup[self.canonical(g)]

    def image_of(self, g):
        """The permutation induced on coset indices by right multiplication,
        as a kernel element of degree ``index``."""
        mul, g_table = self._kernel.mul, self._kernel.table(g)
        return _kernel(self.index).element(
            [self.lookup[self.canonical(mul(rep, g_table))] for rep in self.reps]
        )
