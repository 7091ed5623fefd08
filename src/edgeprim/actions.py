"""Group actions on derived domains and permutation-group property tests.

An :class:`Action` packages the acting group, a labelled domain (each label
an integer tuple: a sorted pair for an edge, an (s+1)-tuple for an s-arc, a
1-tuple for a restricted point), the induced permutation group on label
indices, and the kernel order.  Labels are ordered lexicographically so the
induced image is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

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


def _induced_action(
    group: Group,
    labels: Sequence[tuple[int, ...]],
    apply_label: Callable[[tuple[int, ...], tuple[int, ...]], tuple[int, ...]],
) -> Action:
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("duplicate labels in action domain")
    image_gens = []
    for g in group.generators:
        images = [0] * len(labels)
        for i, lab in enumerate(labels):
            moved = apply_label(g.images, lab)
            j = index.get(moved)
            if j is None:
                raise ValueError(
                    f"label domain is not invariant: {lab} maps to {moved}"
                )
            images[i] = j
        image_gens.append(Permutation(tuple(images)))
    if not image_gens:
        image_gens = [Permutation(_identity_t(len(labels)))]
    order = group.order
    # The image's order divides the group's; reaching it means faithful.
    image = build_group(image_gens, order=order)
    image_order = image.order
    if order % image_order != 0:
        raise AssertionError("image order must divide group order")
    return Action(
        group=group,
        domain_labels=labels,
        image=image,
        kernel_order=order // image_order,
    )


def _apply_sorted_pair(g: tuple[int, ...], lab: tuple[int, ...]) -> tuple[int, ...]:
    a, b = g[lab[0]], g[lab[1]]
    return (a, b) if a < b else (b, a)


def _apply_tuple(g: tuple[int, ...], lab: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(g[x] for x in lab)


def act_on_2sets(group: Group) -> Action:
    """The induced action on all 2-subsets of the natural domain."""
    if group.degree < 2:
        raise ValueError("degree must be at least 2")
    labels = [
        (a, b) for a, b in itertools.combinations(range(group.degree), 2)
    ]
    return _induced_action(group, labels, _apply_sorted_pair)


def act_on_pairs(group: Group, pairs: Sequence[tuple[int, int]]) -> Action:
    """Action on an invariant set of 2-subsets (e.g. a graph's edge set)."""
    labels = sorted(tuple(sorted(p)) for p in pairs)
    return _induced_action(group, labels, _apply_sorted_pair)


def act_on_tuples(group: Group, tuples: Sequence[tuple[int, ...]]) -> Action:
    """Action on an invariant set of ordered tuples (e.g. s-arcs)."""
    labels = sorted(tuple(t) for t in tuples)
    return _induced_action(group, labels, _apply_tuple)


def restrict_to_invariant_set(group: Group, subset: Sequence[int]) -> Action:
    """Restriction to an invariant point set, labelled by 1-tuples."""
    labels = [(x,) for x in sorted(set(subset))]
    return _induced_action(group, labels, _apply_tuple)


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
    """The minimal block system whose block contains {alpha, beta}.

    Union-find refinement: start by merging alpha and beta, then close the
    relation under every generator until no merge applies.
    """
    if not is_transitive(action):
        raise ValueError("block systems are defined for transitive actions")
    n = action.domain_size
    if alpha == beta or not (0 <= alpha < n and 0 <= beta < n):
        raise ValueError("alpha and beta must be distinct domain points")
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    gens = [g.images for g in action.image.generators]
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


def is_primitive(action: Action) -> tuple[bool, BlockSystem | None]:
    """Primitivity with an imprimitivity witness on failure.

    Seeds (alpha, beta) range over one representative per orbit of the
    stabilizer of alpha, which suffices: any nontrivial block through alpha
    contains some beta in one of those orbits, and the minimal system for
    that pair refines it.
    """
    if not is_transitive(action):
        raise ValueError("primitivity is defined for transitive actions")
    n = action.domain_size
    if n < 2:
        raise ValueError("domain must have at least 2 points")
    alpha = 0
    stab = action.image.point_stabilizer(alpha)
    for orbit in stab.orbits():
        beta = orbit[0]
        if beta == alpha:
            continue
        system = minimal_blocks(action, alpha, beta)
        if not system.is_trivial(n):
            return False, system
    return True, None


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
    image_gens = [Permutation(table.image_of(g.images)) for g in group.generators]
    if not image_gens:
        image_gens = [Permutation(_identity_t(table.index))]
    image = build_group(image_gens, order=group.order)
    return Action(
        group=group,
        domain_labels=tuple((i,) for i in range(table.index)),
        image=image,
        kernel_order=group.order // image.order,
    )


def maximality_via_primitivity(group: Group, sub: Group, max_index: int = 10**5) -> bool:
    """Whether sub is maximal in group: the coset action is primitive iff so."""
    if sub.order == group.order:
        raise ValueError("subgroup must be proper")
    action = coset_action(group, sub, max_index)
    primitive, _witness = is_primitive(action)
    return primitive
