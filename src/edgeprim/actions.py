"""Group actions on derived domains and permutation-group property tests.

An :class:`Action` packages the acting group, a labelled domain (each label
a 1-tuple: a point of an invariant set, or a coset index), the induced
permutation group on label indices, and the kernel order.  Labels are
sorted so the induced image is deterministic.  Block systems need only
generator images, so a graph's edges get no chain (:func:`block_witness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .perms import Permutation, _compose_t, _identity_t
from .groups import Group, ScaleLimitError, build_group


@dataclass(frozen=True, eq=False)
class Action:
    group: Group
    domain_labels: tuple[tuple[int, ...], ...]
    image: Group
    kernel_order: int

    @property
    def domain_size(self) -> int:
        return len(self.domain_labels)


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


def _image_action(group: Group, labels: tuple, image_gens: list[Permutation]) -> Action:
    """The action whose image the generators' images generate."""
    # The image's order divides the group's; reaching it means faithful.
    image = build_group(image_gens, order=group.order)
    if group.order % image.order != 0:
        raise AssertionError("image order must divide group order")
    return Action(group, labels, image, group.order // image.order)


def restrict_to_invariant_set(group: Group, subset: Sequence[int]) -> Action:
    """Restriction to an invariant point set, labelled by 1-tuples."""
    points = sorted(set(subset))
    index = {x: i for i, x in enumerate(points)}
    try:
        gens = [Permutation(tuple(index[g.images[x]] for x in points)) for g in group.generators]
    except KeyError as exc:
        raise ValueError(f"point set is not invariant: {exc} is outside it") from None
    return _image_action(group, tuple((x,) for x in points), gens)


def natural_action(group: Group) -> Action:
    """The action on the points themselves: the group is its own image."""
    return Action(group, tuple((x,) for x in range(group.degree)), group, 1)


def is_transitive(action: Action) -> bool:
    if action.domain_size == 0:
        raise ValueError("empty domain")
    return len(action.image.orbit(0)) == action.domain_size


def is_k_transitive(action: Action, k: int) -> bool:
    """Exact k-transitivity via iterated point stabilizers, k <= 5."""
    if not 1 <= k <= 5:
        raise ValueError("k must be between 1 and 5")
    if action.domain_size < k:
        return False
    current = action.image
    remaining = list(range(action.domain_size))
    for fixed in range(k):
        orbit = set(current.orbit(remaining[0]))
        if not all(x in orbit for x in remaining):
            return False
        current = current.point_stabilizer(remaining[0])
        remaining = remaining[1:]
        if not remaining:
            break
    return True


def is_semiregular(action: Action) -> bool:
    """Every point stabilizer is trivial (checked on orbit representatives)."""
    img = action.image
    return all(img.point_stabilizer(o[0]).order == 1 for o in img.orbits())


def is_regular(action: Action) -> bool:
    return is_transitive(action) and is_semiregular(action)


def is_frobenius(action: Action) -> bool:
    """Transitive, nontrivial point stabilizers, and stabilizers semiregular
    off their fixed point.  Regular actions are not Frobenius here: the
    convention requires a nontrivial complement."""
    if not is_transitive(action):
        raise ValueError("Frobenius test requires a transitive action")
    img = action.image
    stab = img.point_stabilizer(0)
    if stab.order == 1:
        return False
    for orbit in stab.orbits():
        rep = orbit[0]
        if rep == 0:
            continue
        if stab.pointwise_stabilizer([0, rep]).order != 1:
            return False
    return True


def is_three_halves_transitive(action: Action) -> bool:
    """Transitive with all point-stabilizer orbits off the fixed point of
    equal length greater than 1."""
    if not is_transitive(action):
        raise ValueError("3/2-transitivity requires a transitive action")
    if action.domain_size == 1:
        return False
    stab = action.image.point_stabilizer(0)
    lengths = {len(o) for o in stab.orbits() if o != (0,)}
    return len(lengths) == 1 and lengths != {1}


def minimal_blocks(action: Action, alpha: int, beta: int) -> BlockSystem:
    """The minimal block system whose block contains {alpha, beta}."""
    if not is_transitive(action):
        raise ValueError("block systems are defined for transitive actions")
    n = action.domain_size
    if alpha == beta or not (0 <= alpha < n and 0 <= beta < n):
        raise ValueError("alpha and beta must be distinct domain points")
    return _blocks([g.images for g in action.image.generators], alpha, beta)


def _blocks(gens: Sequence[Sequence[int]], alpha: int, beta: int) -> BlockSystem:
    """Minimal blocks of the transitive group that the image lists ``gens``
    generate, by union-find: merge alpha and beta, then close the relation
    under every generator until no merge applies."""
    n = len(gens[0])
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(alpha, beta)]
    parent[find(beta)] = find(alpha)
    while queue:
        x, y = queue.pop()
        for g in gens:
            a, b = find(g[x]), find(g[y])
            if a != b:
                parent[b] = a
                queue.append((a, b))
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
    seen = set()
    for beta in range(n):
        if beta in seen:
            continue
        seen.add(beta)
        orbit = [beta]
        for x in orbit:
            for g in stabilizer_gens:
                if g[x] not in seen:
                    seen.add(g[x])
                    orbit.append(g[x])
        if beta and not (system := _blocks(gens, 0, beta)).is_trivial(n):
            return system
    return None


def is_primitive(action: Action) -> tuple[bool, BlockSystem | None]:
    """Primitivity with an imprimitivity witness on failure."""
    if not is_transitive(action):
        raise ValueError("primitivity is defined for transitive actions")
    image = action.image
    witness = block_witness(
        [g.images for g in image.generators],
        [g.images for g in image.point_stabilizer(0).generators],
    )
    return witness is None, witness


def edge_images(edges: Sequence[tuple[int, int]], perms: Iterable[Permutation]) -> list:
    """The permutations that vertex permutations induce on the indices of
    ``edges``, an invariant list of pairs (u, v) with u < v."""
    index = {e: i for i, e in enumerate(edges)}
    return [
        tuple(index[(g[u], g[v]) if g[u] < g[v] else (g[v], g[u])] for u, v in edges)
        for g in (p.images for p in perms)
    ]


class CosetTable:
    """Right cosets of a subgroup, identified by canonical representatives.

    The canonical representative of a coset Hg is the element minimizing
    the image sequence of the subgroup's base, found by descending the
    subgroup's stabilizer chain; it is unique because base images determine
    subgroup elements.
    """

    def __init__(self, group: Group, sub: Group, max_index: int = 10**5):
        if group.degree != sub.degree:
            raise ValueError("degree mismatch")
        order, sub_order = group.order, sub.order
        if order % sub_order != 0:
            raise ValueError("candidate is not a subgroup")
        index = order // sub_order
        if index > max_index:
            raise ScaleLimitError(f"coset index {index} exceeds cap {max_index}")
        self.group = group
        self.sub = sub
        self._base = sub.base
        self._transversals = sub.transversals
        ident = self.canonical(_identity_t(group.degree))
        reps = [ident]
        lookup = {ident: 0}
        gen_tuples = [g.images for g in group.generators]
        head = 0
        while head < len(reps):
            rep = reps[head]
            head += 1
            for g in gen_tuples:
                nxt = self.canonical(_compose_t(rep, g))
                if nxt not in lookup:
                    lookup[nxt] = len(reps)
                    reps.append(nxt)
        if len(reps) != index:
            raise AssertionError("coset enumeration found a wrong number of cosets")
        self.reps = reps
        self.lookup = lookup
        self.index = index

    def canonical(self, g: tuple[int, ...]) -> tuple[int, ...]:
        rep = g
        for point, trans in zip(self._base, self._transversals):
            best = None
            best_delta = None
            for delta in trans:
                img = rep[delta]
                if best is None or img < best:
                    best, best_delta = img, delta
            if best_delta is not None and best_delta != point:
                rep = _compose_t(trans[best_delta].images, rep)
        return rep

    def coset_of(self, g: tuple[int, ...]) -> int:
        return self.lookup[self.canonical(g)]

    def image_of(self, g: tuple[int, ...]) -> tuple[int, ...]:
        """The permutation induced on coset indices by right multiplication."""
        return tuple(
            self.lookup[self.canonical(_compose_t(rep, g))] for rep in self.reps
        )


def coset_action(group: Group, sub: Group, max_index: int = 10**5) -> Action:
    """The action of the group on the cosets of a subgroup; labels are
    coset-index 1-tuples."""
    table = CosetTable(group, sub, max_index)
    gens = [Permutation(table.image_of(g.images)) for g in group.generators]
    return _image_action(group, tuple((i,) for i in range(table.index)), gens)


def maximality_via_primitivity(group: Group, sub: Group, max_index: int = 10**5) -> bool:
    """Whether sub is maximal in group: the coset action is primitive iff so."""
    if sub.order == group.order:
        raise ValueError("subgroup must be proper")
    action = coset_action(group, sub, max_index)
    primitive, _witness = is_primitive(action)
    return primitive
