"""Finitely generated permutation groups with stabilizer chains.

A :class:`Group` carries a base and strong generating set built by a
deterministic Schreier-Sims procedure: no randomization, base points chosen
as the smallest point moved by the residue that creates each level, orbits
explored breadth-first in generator order.  Two builds from the same
generator sequence therefore produce identical bases and transversals,
which is what makes downstream certificates replayable.

Transversal convention: ``transversals[i][beta]`` is a permutation ``t``
with ``t(base[i]) == beta``.  Products read left to right (``compose(p, q)``
applies ``p`` first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .perms import (
    Permutation,
    _compose_t,
    _identity_t,
    _inverse_t,
    _is_identity_t,
)


class ScaleLimitError(RuntimeError):
    """An operation would exceed its enumeration bound; never a wrong answer."""


DEFAULT_ENUMERATION_CUTOFF = 10**6


class _Chain:
    """Mutable Schreier-Sims working state; frozen into a Group when done."""

    def __init__(self, degree: int, base_prefix: Sequence[int] = ()):
        self.degree = degree
        self.identity = _identity_t(degree)
        self.points: list[int] = []
        self.transversals: list[dict[int, tuple[int, ...]]] = []
        # inverses[i][beta] is the inverse of transversals[i][beta].
        self.inverses: list[dict[int, tuple[int, ...]]] = []
        self.done: list[set[tuple[int, int]]] = []
        self.strong: list[tuple[int, ...]] = []
        self.level_of: list[int] = []
        seen = set()
        for pt in base_prefix:
            if pt in seen:
                continue
            seen.add(pt)
            self._new_level(pt)

    def _new_level(self, point: int) -> None:
        self.points.append(point)
        self.transversals.append({point: self.identity})
        self.inverses.append({point: self.identity})
        self.done.append(set())

    def _level_gen_ids(self, i: int) -> list[int]:
        return [j for j, lvl in enumerate(self.level_of) if lvl >= i]

    def _extend_transversal(self, i: int) -> None:
        # Extend, never rebuild: existing coset representatives must stay
        # fixed so that already-processed Schreier pairs remain valid.
        trans = self.transversals[i]
        inv = self.inverses[i]
        gens = [self.strong[j] for j in self._level_gen_ids(i)]
        queue = list(trans)
        head = 0
        while head < len(queue):
            a = queue[head]
            head += 1
            t = trans[a]
            for g in gens:
                b = g[a]
                if b not in trans:
                    trans[b] = u = _compose_t(t, g)
                    inv[b] = _inverse_t(u)
                    queue.append(b)

    def sift(self, p: tuple[int, ...], start: int = 0) -> tuple[tuple[int, ...], int]:
        """Strip p through the chain; return (residue, level stopped at).

        The residue fixes ``points[:level]``.  Membership holds iff the
        residue is the identity after a full pass.
        """
        for i in range(start, len(self.points)):
            u_inv = self.inverses[i].get(p[self.points[i]])
            if u_inv is None:
                return p, i
            p = _compose_t(p, u_inv)
        return p, len(self.points)

    def _install(self, g: tuple[int, ...], level: int) -> None:
        if level == len(self.points):
            moved = min(i for i, x in enumerate(g) if i != x)
            self._new_level(moved)
        self.strong.append(g)
        self.level_of.append(level)

    def _complete(self, i: int) -> None:
        """Process level-i Schreier generators until none are pending.

        Levels deeper than i must already be complete; installs made here
        land strictly deeper and are completed before this level resumes.
        """
        while True:
            self._extend_transversal(i)
            trans = self.transversals[i]
            inv = self.inverses[i]
            gen_ids = self._level_gen_ids(i)
            dirty = False
            for a in list(trans):
                for j in gen_ids:
                    if (a, j) in self.done[i]:
                        continue
                    self.done[i].add((a, j))
                    g = self.strong[j]
                    b = g[a]
                    sg = _compose_t(_compose_t(trans[a], g), inv[b])
                    if _is_identity_t(sg):
                        continue
                    residue, depth = self.sift(sg, i + 1)
                    if not _is_identity_t(residue):
                        self._install(residue, depth)
                        for lvl in range(depth, i, -1):
                            self._complete(lvl)
                        dirty = True
            if not dirty:
                return

    def add_generator(self, g: tuple[int, ...]) -> bool:
        """Extend the chain by g; False (and no change) when g is already in it."""
        if _is_identity_t(g):
            return False
        residue, depth = self.sift(g)
        if _is_identity_t(residue):
            return False
        self._install(residue, depth)
        for lvl in range(depth, -1, -1):
            self._complete(lvl)
        return True

    def order(self) -> int:
        return math.prod(len(t) for t in self.transversals)

    def suffix_group(self, k: int, degree: int) -> "Group":
        """The stabilizer of points[:k] as a Group sharing this chain's tail."""
        gens = [
            Permutation(self.strong[j])
            for j in range(len(self.strong))
            if self.level_of[j] >= k
        ]
        if not gens:
            gens = [Permutation(_identity_t(degree))]
        return Group(
            degree=degree,
            generators=tuple(gens),
            base=tuple(self.points[k:]),
            strong_generators=tuple(gens),
            transversals=tuple(
                {b: Permutation(t) for b, t in trans.items()}
                for trans in self.transversals[k:]
            ),
        )


@dataclass(frozen=True, eq=False)
class Group:
    """A permutation group with a valid stabilizer chain.

    Treat all fields, including the transversal dicts, as immutable.
    """

    degree: int
    generators: tuple[Permutation, ...]
    base: tuple[int, ...]
    strong_generators: tuple[Permutation, ...]
    transversals: tuple[dict[int, Permutation], ...]

    @property
    def order(self) -> int:
        return math.prod(len(t) for t in self.transversals)

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} != {self.degree}")
        residue = p.images
        for point, trans in zip(self.base, self.transversals):
            u = trans.get(residue[point])
            if u is None:
                return False
            residue = _compose_t(residue, _inverse_t(u.images))
        return _is_identity_t(residue)

    def is_trivial(self) -> bool:
        return self.order == 1

    def orbit(self, point: int) -> tuple[int, ...]:
        """The G-orbit of a point, sorted."""
        self._check_point(point)
        seen = {point}
        queue = [point]
        head = 0
        gens = [g.images for g in self.strong_generators]
        while head < len(queue):
            a = queue[head]
            head += 1
            for g in gens:
                b = g[a]
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        return tuple(sorted(seen))

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """All orbits on {0..degree-1}, each sorted, ordered by minimum."""
        remaining = set(range(self.degree))
        out = []
        while remaining:
            o = self.orbit(min(remaining))
            out.append(o)
            remaining -= set(o)
        return tuple(out)

    def point_stabilizer(self, point: int) -> "Group":
        self._check_point(point)
        return self.pointwise_stabilizer((point,))

    def pointwise_stabilizer(self, points: Sequence[int]) -> "Group":
        for p in points:
            self._check_point(p)
        prefix = tuple(dict.fromkeys(points))
        chain = _Chain(self.degree, prefix)
        for g in self.strong_generators:
            chain.add_generator(g.images)
        return chain.suffix_group(len(prefix), self.degree)

    def setwise_stabilizer(self, points: Sequence[int]) -> "Group":
        """Exact stabilizer of a small set of points.

        The pointwise stabilizer is extended by one coset representative for
        each realizable permutation pattern of the set, found by backtrack
        over the chain.  For a 2-set this is the pointwise stabilizer plus at
        most one swapping element, so the index over the pointwise stabilizer
        is 1 or 2.
        """
        import itertools

        pts = sorted(set(points))
        if not pts:
            raise ValueError("setwise stabilizer of the empty set is not supported")
        for p in pts:
            self._check_point(p)
        gens = list(self.pointwise_stabilizer(pts).generators)
        src = tuple(pts)
        for image in itertools.permutations(pts):
            if image == src:
                continue
            rep = element_mapping(self, src, image)
            if rep is not None:
                gens.append(rep)
        return build_group(gens or [Permutation(_identity_t(self.degree))])

    def _check_point(self, point: int) -> None:
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range for degree {self.degree}")

    def __repr__(self) -> str:
        return (
            f"Group(degree={self.degree}, order={self.order}, "
            f"generators={len(self.generators)})"
        )


def build_group(
    generators: Iterable[Permutation], base_prefix: Sequence[int] = ()
) -> Group:
    """Deterministic Schreier-Sims construction from a generator sequence."""
    gens = list(generators)
    if not gens:
        raise ValueError("empty generator list")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"degree mismatch: {g.degree} != {degree}")
    chain = _Chain(degree, base_prefix)
    for g in gens:
        chain.add_generator(g.images)
    return _freeze(chain, gens)


def _freeze(chain: _Chain, generators: Sequence[Permutation]) -> Group:
    """The chain's group, keeping the caller's generator sequence as the
    public generating set."""
    group = chain.suffix_group(0, chain.degree)
    return Group(
        degree=chain.degree,
        generators=tuple(generators),
        base=group.base,
        strong_generators=group.strong_generators,
        transversals=group.transversals,
    )


def trivial_group(degree: int) -> Group:
    return build_group([Permutation(_identity_t(degree))])


def element_mapping(
    group: Group, src: Sequence[int], dst: Sequence[int]
) -> Permutation | None:
    """Some g in the group with src[i]^g = dst[i] for all i, or None.

    Recursive transversal search: pick a representative sending src[0] to
    dst[0], then solve the translated problem in the stabilizer of src[0].
    """
    if len(src) != len(dst):
        raise ValueError("src and dst must have equal length")
    if not src:
        return Permutation(_identity_t(group.degree))
    chain = _Chain(group.degree, (src[0],))
    for g in group.strong_generators:
        chain.add_generator(g.images)
    trans = chain.transversals[0]
    rep = trans.get(dst[0])
    if rep is None:
        return None
    if len(src) == 1:
        return Permutation(rep)
    stab = chain.suffix_group(1, group.degree)
    rep_inv = _inverse_t(rep)
    inner = element_mapping(
        stab, tuple(src[1:]), tuple(rep_inv[d] for d in dst[1:])
    )
    if inner is None:
        return None
    return Permutation(_compose_t(inner.images, rep))


def is_subgroup(group: Group, sub: Group) -> bool:
    if group.degree != sub.degree:
        raise ValueError("degree mismatch")
    return all(group.contains(g) for g in sub.generators)


def same_subgroup(a: Group, b: Group) -> bool:
    return a.order == b.order and is_subgroup(a, b)


def is_normal(group: Group, sub: Group) -> bool:
    """Whether sub is normal in group (sub must be a subgroup).

    Conjugating generators by generators is sufficient and exact.
    """
    if not is_subgroup(group, sub):
        raise ValueError("candidate is not a subgroup")
    for g in group.generators:
        g_inv = _inverse_t(g.images)
        for h in sub.generators:
            conj = _compose_t(_compose_t(g_inv, h.images), g.images)
            if not sub.contains(Permutation(conj)):
                return False
    return True


def normal_closure(group: Group, seeds: Iterable[Permutation]) -> Group:
    """Smallest normal subgroup of group containing the seed elements.

    One chain grows by every conjugate it does not yet contain; its
    generating set is the seeds followed by those conjugates in the order
    they were met, so the result equals ``build_group`` of that sequence.
    """
    seed_list = [s for s in seeds if not s.is_identity()]
    for s in seed_list:
        if not group.contains(s):
            raise ValueError("seed element is not in the group")
    if not seed_list:
        return trivial_group(group.degree)
    chain = _Chain(group.degree)
    for s in seed_list:
        chain.add_generator(s.images)
    gens = list(seed_list)
    gen_pairs = [(_inverse_t(g.images), g.images) for g in group.generators]
    frontier = [s.images for s in seed_list]
    while frontier:
        new: list[tuple[int, ...]] = []
        for h in frontier:
            for g_inv, g in gen_pairs:
                conj = _compose_t(_compose_t(g_inv, h), g)
                if chain.add_generator(conj):
                    new.append(conj)
                    gens.append(Permutation(conj))
        frontier = new
    return _freeze(chain, gens)


def derived_subgroup(group: Group) -> Group:
    """Normal closure of the commutators of the generators."""
    commutators = []
    seen = set()
    gens = [g.images for g in group.generators]
    for a in gens:
        a_inv = _inverse_t(a)
        for b in gens:
            if a == b:
                continue
            comm = _compose_t(
                _compose_t(_compose_t(a_inv, _inverse_t(b)), a), b
            )
            if not _is_identity_t(comm) and comm not in seen:
                seen.add(comm)
                commutators.append(Permutation(comm))
    if not commutators:
        return trivial_group(group.degree)
    return normal_closure(group, commutators)


def perfect_core(group: Group) -> Group:
    """Limit of the derived series: the largest perfect subgroup in it."""
    current = group
    while True:
        nxt = derived_subgroup(current)
        if nxt.order == current.order:
            return current
        current = nxt


def is_abelian(group: Group) -> bool:
    gens = [g.images for g in group.generators]
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            if _compose_t(a, b) != _compose_t(b, a):
                return False
    return True


def reduce_generators(group: Group) -> Group:
    """Same group, re-built from a greedily chosen small generating subset."""
    chosen: list[Permutation] = []
    partial = None
    for g in list(group.generators) + list(group.strong_generators):
        if g.is_identity():
            continue
        if partial is not None and partial.contains(g):
            continue
        chosen.append(g)
        partial = build_group(chosen)
        if partial.order == group.order:
            break
    if partial is None:
        return trivial_group(group.degree)
    return partial
