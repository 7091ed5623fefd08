"""Finitely generated permutation groups with stabilizer chains.

A :class:`Group` carries a base and strong generating set built by a
deterministic Schreier-Sims procedure (:meth:`_Chain._complete`, the one
orbit-and-Schreier loop): no randomization, base points chosen as the
smallest point moved by the residue that creates each level, orbits
explored breadth-first in generator order.  Two builds from the same
generator sequence therefore produce identical bases and transversals,
which is what makes downstream certificates replayable; the seeded
:func:`_is_whole` only proves subgroups whole, and freezes no chain.

Transversal convention: :meth:`Group.representative` (i, beta) is a kernel
element ``t`` with ``t[base[i]] == beta``, for beta in
:meth:`Group.basic_orbit` (i).  Those level reads are the only way in: no
module but this one knows how a chain stores its levels.  Products read
left to right (``compose(p, q)`` applies ``p`` first).

Every element here is a raw element of the permutation kernel
(:func:`edgeprim.perms._kernel`): ``bytes`` composed by ``bytes.translate``
up to degree 255, image tuples past it.  The frozen :class:`Group` keeps
its generators, strong generators and transversal elements in that form,
and each representative's inverse table so that :meth:`Group.contains`
sifts without inverting anything.  The functions here take and return
kernel elements.  :class:`Permutation` appears only at the boundary:
:func:`build_group` converts it once, and :attr:`Group.generators` hands
the generators back as validated permutations.

Known-order stop.  A chain may be given the order of a group that contains
every generator added to it, and it stops as soon as the product of its
transversal sizes reaches that order.  This is exact (Seress, *Permutation
Group Algorithms*, 2003, ch. 4): with strong generators S, the products of
one representative per level are distinct elements of <S>, so the product
of the transversal sizes is at most |<S>|.  Once it equals the bound, <S>
is the bounding group, every element of it sifts to the identity, every
level orbit is complete, and every Schreier generator still pending would
sift to the identity.  The stopped chain therefore has the same base,
transversals, strong generators and generator levels as the full build.
Only orders already proved may be passed: the order of the group being
rebased, or the order of an ambient group as an upper bound for a subgroup
or an image, where reaching it proves the result is the whole group.

Rebasing.  :meth:`Group.rebase` moves the chain onto given points, and
every stabilizer and element mapping here is read off the moved chain.  A
walk down the inverse tables (:func:`_walk`) finds the longest j with some
g in G sending base[:j] to points[:j], and g.  Since g^-1 G g = G,
conjugating the levels by g (read left to right: g^-1, then h, then g)
gives a chain of the same group with base g(base): every strong generator,
transversal element and inverse table h becomes g^-1 h g, keyed on g's
images (Seress 2003, ch. 5).  Only the levels a caller reads are
conjugated.  The levels from j on are the stabilizer of points[:j]; when
the walk stops short, one chain bounded by that stabilizer's order moves
them onto the remaining points.  A base image thus needs no Schreier-Sims
run, and the base itself no conjugation either.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple, Sequence

from .perms import Permutation, _cycles, _kernel


class Cap(NamedTuple):
    """A scale cap: registry name, limit, what it bounds, and the template
    of a refusal's message, filled from ``step``, ``value`` and ``limit``."""

    name: str
    limit: int
    bounds: str
    template: str


# The caps, each limit written once; ``--cutoff`` sets the enumeration limit
# per run, and no flag moves another.  graph-vertices admits the coset graphs
# ``construct`` writes, up to coset-index vertices, for ``analyze --group``.
_ENUMERATING = "{step} needs element enumeration: order {value} exceeds cutoff {limit}"
GRAPH_VERTICES = Cap(
    "graph-vertices", 10**4, "vertices of graph files and families, and group-file degree",
    "{step}, above the cap of {limit}")
SEARCH_VERTICES = Cap(
    "search-vertices", 1000, "vertices of a graph whose automorphisms are searched",
    "{step} capped at {limit} vertices; graph has {value}")
COSET_INDEX = Cap(
    "coset-index", 10**4, "index of a coset table, so the vertices of a coset graph",
    "coset index {value} exceeds cap {limit}")
ENUMERATION = Cap(
    "enumeration", 10**6, "order of a group whose elements are enumerated", _ENUMERATING)
NORMAL_SWEEP = Cap(
    "normal-sweep", 10**5, "order of a group whose normal subgroups are swept", _ENUMERATING)
CAPS = (GRAPH_VERTICES, SEARCH_VERTICES, COSET_INDEX, ENUMERATION, NORMAL_SWEEP)
DEFAULT_ENUMERATION_CUTOFF = ENUMERATION.limit


class ScaleLimitError(RuntimeError):
    """A step refused at a cap of :data:`CAPS`, never answered wrongly: the
    ``cap``, the ``value`` past it, the ``limit`` in force (the run's cutoff
    for :data:`ENUMERATION`) and the ``step``; ``str()`` fills the template."""

    def __init__(self, cap: Cap, value: int, step: str, limit: int | None = None):
        super().__init__(cap, value, step, cap.limit if limit is None else limit)
        self.cap, self.value, self.step, self.limit = self.args

    def __str__(self) -> str:
        return self.cap.template.format(step=self.step, value=self.value, limit=self.limit)


class _Chain:
    """Mutable Schreier-Sims working state; frozen into a Group when done.

    Works on raw kernel elements: transversal representatives are elements,
    their inverses and the strong generators are tables (see
    :func:`edgeprim.perms._kernel`).  With ``order`` given, the chain stops
    growing once it reaches it (the known-order stop in the module
    docstring), and every later generator is taken to be in it already.
    """

    def __init__(
        self,
        degree: int,
        base_prefix: Sequence[int] = (),
        generators: Iterable = (),
        order: int | None = None,
    ):
        self.degree = degree
        self.kernel = k = _kernel(degree)
        self.identity = k.identity
        self.points: list[int] = []
        self.transversals: list[dict[int, object]] = []
        # inverses[i][beta] is the inverse table of transversals[i][beta].
        self.inverses: list[dict[int, object]] = []
        # done[i] = (points, generators): level i has processed the pairs of
        # its first `points` orbit points and first `generators` generators.
        self.done: list[tuple[int, int]] = []
        self.strong: list[object] = []
        self.level_of: list[int] = []
        # The product of the transversal sizes, and the proven order of a
        # group containing every generator added (None when unknown).
        self.size = 1
        self.bound = order
        for pt in dict.fromkeys(base_prefix):
            self._new_level(pt)
        for g in generators:
            self.add_generator(g)

    def _new_level(self, point: int) -> None:
        self.points.append(point)
        self.transversals.append({point: self.identity})
        self.inverses.append({point: self.kernel.table(self.identity)})
        self.done.append((0, 0))

    def full(self) -> bool:
        """Whether the chain has reached its bound, so it is complete."""
        return self.size == self.bound

    def sift(self, p, start: int = 0) -> tuple[object, int]:
        """Strip p through the chain from level ``start`` (see :func:`_sift`)."""
        return _sift(self.kernel.mul, self.points, self.inverses, p, start)

    def _absorb(self, p, start: int, caps: Sequence[int] | None = None) -> bool:
        """Sift p from level ``start``; install a residue other than the
        identity as a strong generator and complete its levels up to start,
        or only grow their orbits below ``caps`` (see :func:`_is_whole`)."""
        residue, depth = self.sift(p, start)
        if residue == self.identity:
            return False
        if depth == len(self.points):
            self._new_level(min(i for i, x in enumerate(residue) if i != x))
        self.strong.append(self.kernel.table(residue))
        self.level_of.append(depth)
        for lvl in range(depth, start - 1, -1):
            if caps is None or len(self.transversals[lvl]) < caps[lvl]:
                self._complete(lvl, schreier=caps is None)
            if self.full():
                break
        return True

    def _complete(self, i: int, schreier: bool = True) -> None:
        """Grow level i's orbit and sift its Schreier generators until none
        are pending; deeper levels must already be complete.  Without
        ``schreier`` the walk only grows the orbit.

        A breadth-first walk of the orbit takes each point a with each
        generator g of level i or deeper.  A new image b = a^g becomes a
        tree edge, with representative t_a g; any other pair's Schreier
        generator t_a g t_b^-1 is sifted below the level, and a residue
        other than the identity is installed and its levels completed.  A
        walk takes the generators present when it starts, skips the pairs
        of earlier walks (representatives never change), and repeats while
        it installs.
        """
        mul, identity = self.kernel.mul, self.identity
        trans, inv = self.transversals[i], self.inverses[i]
        orbit = list(trans)
        while True:
            done_points, done_gens = self.done[i]
            gens = [g for g, lvl in zip(self.strong, self.level_of) if lvl >= i]
            installed = False
            # The orbit grows while it is walked; a list iterator sees that.
            for index, a in enumerate(orbit):
                t = trans[a]
                for g in gens[done_gens:] if index < done_points else gens:
                    b = g[a]
                    b_inv = inv.get(b)
                    if b_inv is None:
                        trans[b] = u = mul(t, g)
                        inv[b] = self.kernel.inverse_table(u)
                        orbit.append(b)
                        self.size = self.size // (len(orbit) - 1) * len(orbit)
                        if self.full():
                            return
                        continue
                    if not schreier:
                        continue
                    sg = mul(mul(t, g), b_inv)
                    if sg != identity and self._absorb(sg, i + 1):
                        if self.full():
                            return
                        installed = True
            self.done[i] = (len(orbit), len(gens))
            if not installed:
                return

    def add_generator(self, g) -> bool:
        """Extend the chain by g; False (and no change) when g is already in it."""
        return not self.full() and self._absorb(g, 0)

    def strong_elements(self) -> list:
        """The strong generators, as elements."""
        return [g[: self.degree] for g in self.strong]

    def suffix_group(self, generators: Sequence = ()) -> "Group":
        """The chain frozen into a Group, generated by the elements
        ``generators`` if given, else by its strong generators."""
        strong = tuple(self.strong_elements()) or (self.identity,)
        # The levels are copied: a chain may grow after it is frozen.
        return Group(
            self.degree, tuple(generators) or strong, tuple(self.points), strong,
            tuple(map(dict, self.transversals)), tuple(map(dict, self.inverses)),
        )


@dataclass(frozen=True, eq=False)
class Group:
    """A permutation group with a valid stabilizer chain.

    ``gens`` and ``strong_gens`` are the generators and strong generators
    as kernel elements.  Treat all fields, including the transversal dicts,
    as immutable.
    """

    degree: int
    gens: tuple
    base: tuple[int, ...]
    strong_gens: tuple
    # Per level, the kernel element of each coset representative.
    transversals: tuple[dict[int, object], ...]
    # Per level, the kernel inverse table of each transversal element.
    _inverse_tables: tuple[dict[int, object], ...] = field(repr=False, compare=False)

    @functools.cached_property
    def generators(self) -> tuple[Permutation, ...]:
        """The generators as validated permutations, for output."""
        return tuple(map(Permutation, self.gens))

    @functools.cached_property
    def order(self) -> int:
        return math.prod(len(t) for t in self.transversals)

    def contains(self, residue) -> bool:
        """Membership of a kernel element, sifted down the chain."""
        if len(residue) != self.degree:
            raise ValueError(f"degree mismatch: {len(residue)} != {self.degree}")
        k = _kernel(self.degree)
        return _sift(k.mul, self.base, self._inverse_tables, residue)[0] == k.identity

    def basic_orbit(self, level: int):
        """The orbit of base[level] under the stabilizer of the earlier base
        points, in the order the chain met it."""
        return self.transversals[level].keys()

    def representative(self, level: int, point: int):
        """The level's t with t[base[level]] == point."""
        return self.transversals[level][point]

    def inverse_table(self, level: int, point: int):
        """The representative's inverse table; None off the level's orbit."""
        return self._inverse_tables[level].get(point)

    def representatives(self, level: int):
        """The level's representatives, in :meth:`basic_orbit` order."""
        return self.transversals[level].values()

    def orbit(self, point: int) -> tuple[int, ...]:
        """The G-orbit of a point, sorted."""
        self._check_point(point)
        return tuple(sorted(orbit_of((point,), self.strong_gens)))

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """All orbits on {0..degree-1}, each sorted, ordered by minimum."""
        remaining = set(range(self.degree))
        out = []
        while remaining:
            o = self.orbit(min(remaining))
            out.append(o)
            remaining -= set(o)
        return tuple(out)

    def rebase(self, points: Sequence[int]) -> "Group":
        """The same group (same ``gens``) on a chain whose base starts with
        the given points, duplicates dropped; this group itself when its
        base already does (see the module docstring)."""
        base, strong, transversals, inverses = self._moved(points, slice(None))
        if strong is self.strong_gens:
            return self
        return Group(self.degree, self.gens, base, strong, transversals, inverses)

    def _moved(self, points: Sequence[int], levels: slice) -> tuple:
        """(base, strong generators, transversals, inverse tables) of
        :meth:`rebase`, with the base, transversals and inverse tables cut
        to the given levels; only those levels are conjugated.  The strong
        generators are this group's own tuple exactly when nothing moved."""
        for p in points:
            self._check_point(p)
        prefix = tuple(dict.fromkeys(points))
        k = _kernel(self.degree)
        j, g_inv = _walk(k, self._inverse_tables, prefix)
        kept = len(self.base) if j == len(prefix) else j
        base, strong = self.base[:kept], self.strong_gens
        if g_inv != k.identity:
            g = k.table(k.inverse(g_inv))

            def conj(h_table):
                return k.mul(k.mul(g_inv, h_table), g)

            base = tuple(g[b] for b in base)
            strong = tuple(conj(k.table(s)) for s in strong)
        if kept < len(prefix):
            tail = [s for s in strong if all(s[b] == b for b in base)]
            order = math.prod(len(t) for t in self.transversals[j:])
            chain = _Chain(self.degree, prefix[j:], tail, order)
            strong = tuple([s for s in strong if s not in tail] + chain.strong_elements())
            base += tuple(chain.points)

        def level(i):
            if i >= kept:
                return chain.transversals[i - kept], chain.inverses[i - kept]
            trans, inv = self.transversals[i], self._inverse_tables[i]
            if g_inv == k.identity:
                return trans, inv
            return (
                {g[b]: conj(k.table(t)) for b, t in trans.items()},
                {g[b]: k.table(conj(t_inv)) for b, t_inv in inv.items()},
            )

        read = [level(i) for i in range(len(base))[levels]]
        return (
            base[levels], strong or (k.identity,),
            tuple(t for t, _inv in read), tuple(inv for _t, inv in read),
        )

    def point_stabilizer(self, point: int) -> "Group":
        return self.pointwise_stabilizer((point,))

    def pointwise_stabilizer(self, points: Sequence[int]) -> "Group":
        """The stabilizer of every given point: the levels of
        :meth:`rebase` after them."""
        prefix = tuple(dict.fromkeys(points))
        base, strong, transversals, inverses = self._moved(prefix, slice(len(prefix), None))
        strong = tuple(s for s in strong if all(s[p] == p for p in prefix))
        strong = strong or (_kernel(self.degree).identity,)
        return Group(self.degree, strong, base, strong, transversals, inverses)

    def setwise_stabilizer(self, points: Sequence[int]) -> "Group":
        """Exact stabilizer of a small set of points p_0 < ... < p_{m-1}.

        On the chain rebased onto them, one walk per ordering of the set
        finds the orderings that elements realize.  The elements fixing
        p_0..p_{i-1} send p_i exactly where the realized orderings starting
        with p_0..p_{i-1} do, so one such element per point reached gives
        level i, and the levels of the pointwise stabilizer follow.
        """
        pts = tuple(sorted(set(points)))
        if not pts:
            raise ValueError("setwise stabilizer of the empty set is not supported")
        chain, m = self.rebase(pts), len(pts)
        fixing = chain.pointwise_stabilizer(pts)
        k = _kernel(self.degree)
        # Per level, the inverse of one element for each point reached.
        levels = [{p: k.identity} for p in pts]
        for image in itertools.permutations(pts):
            j, g_inv = _walk(k, chain._inverse_tables, image)
            i = next((i for i in range(m) if image[i] != pts[i]), m)
            if j == m and i < m:
                levels[i].setdefault(image[i], g_inv)
        trans = tuple({q: k.inverse(g_inv) for q, g_inv in lvl.items()} for lvl in levels)
        inverses = tuple({q: k.table(g_inv) for q, g_inv in lvl.items()} for lvl in levels)
        moving = tuple(t for lvl in trans for t in lvl.values() if t != k.identity)
        strong = moving + fixing.gens
        return Group(
            self.degree, strong, pts + fixing.base, strong,
            trans + fixing.transversals, inverses + fixing._inverse_tables,
        )

    def _check_point(self, point: int) -> None:
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range for degree {self.degree}")

    def __repr__(self) -> str:
        return (
            f"Group(degree={self.degree}, order={self.order}, "
            f"generators={len(self.gens)})"
        )


def build_group(generators: Iterable[Permutation], base_prefix: Sequence[int] = ()) -> Group:
    """Deterministic Schreier-Sims construction from a sequence of
    permutations, each converted once to a kernel element."""
    gens = list(generators)
    if not gens:
        raise ValueError("empty generator list")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"degree mismatch: {g.degree} != {degree}")
    elements = [g.element for g in gens]
    return _Chain(degree, base_prefix, elements).suffix_group(elements)


def trivial_group(degree: int) -> Group:
    return _Chain(degree).suffix_group()


def orbit_of(points: Iterable[int], gens: Sequence) -> list[int]:
    """The union of the points' orbits under the group that the image
    lists ``gens`` generate, breadth-first: the points, then each image in
    the order it is met (Seress 2003, section 4.1)."""
    orbit = list(dict.fromkeys(points))
    seen = set(orbit)
    for a in orbit:
        for g in gens:
            b = g[a]
            if b not in seen:
                seen.add(b)
                orbit.append(b)
    return orbit


def element_mapping(group: Group, src: Sequence[int], dst: Sequence[int]):
    """Some g in the group with src[i]^g = dst[i] for all i, as a kernel
    element, or None: dst walked down the group rebased onto src."""
    if len(src) != len(dst):
        raise ValueError("src and dst must have equal length")
    for p in dst:
        group._check_point(p)
    pairs = dict(zip(src, dst))
    if [pairs[s] for s in src] != list(dst):
        return None
    k = _kernel(group.degree)
    inverses = group._moved(tuple(pairs), slice(len(pairs)))[3]
    j, g_inv = _walk(k, inverses, tuple(pairs.values()))
    return k.inverse(g_inv) if j == len(pairs) else None


def _sift(mul, points: Sequence[int], inverses: Sequence[dict], p, start: int = 0):
    """(residue, level stopped at) for p stripped down a chain's levels
    from ``start``, given its base points and inverse tables per level.
    The residue fixes ``points[:level]``; p is in the chain's group iff it
    is the identity (a stop short of the end leaves a point moved).
    """
    for i in range(start, len(points)):
        u_inv = inverses[i].get(p[points[i]])
        if u_inv is None:
            return p, i
        p = mul(p, u_inv)
    return p, len(points)


def _walk(k, inverses: Sequence[dict], points: Sequence[int]):
    """(j, g^-1) for the longest j with some element g of a chain sending
    its base[i] to points[i] for every i < j, given the chain's inverse
    tables per level; g^-1 is a kernel element.

    Exact: the elements sending base[:i] to points[:i] form the coset
    g_i G_(base[:i]), whose images of base[i] are g_i of level i's orbit,
    and the level holds a representative for every point of that orbit.
    """
    g_inv, j = k.identity, 0
    for inv, p in zip(inverses, points):
        u_inv = inv.get(g_inv[p])
        if u_inv is None:
            break
        g_inv = k.mul(g_inv, u_inv)
        j += 1
    return j, g_inv


def is_subgroup(group: Group, sub: Group) -> bool:
    if group.degree != sub.degree:
        raise ValueError("degree mismatch")
    return all(group.contains(g) for g in sub.gens)


def same_subgroup(a: Group, b: Group) -> bool:
    return a.order == b.order and is_subgroup(a, b)


def is_normal(group: Group, sub: Group) -> bool:
    """Whether sub is normal in group (sub must be a subgroup).

    Conjugating generators by generators is sufficient and exact.
    """
    if not is_subgroup(group, sub):
        raise ValueError("candidate is not a subgroup")
    k = _kernel(group.degree)
    subs = [k.table(h) for h in sub.gens]
    for g_inv, g in _conjugators(group):
        for h in subs:
            if not sub.contains(k.mul(k.mul(g_inv, h), g)):
                return False
    return True


def _conjugators(group: Group) -> list:
    """(g^-1 as element, g as table) for each generator g: the conjugate
    of an element table h by g is ``mul(mul(g_inv, h), g)``."""
    k = _kernel(group.degree)
    return [(k.inverse(e), k.table(e)) for e in group.gens]


def normal_closure(group: Group, seeds: Iterable, order: int | None = None) -> Group:
    """Smallest normal subgroup of group containing the seed kernel elements.

    One chain grows by every conjugate it does not yet contain; its
    generating set is the seeds followed by those conjugates in the order
    they were met, so the result equals ``build_group`` of that sequence.
    The chain is bounded by ``order``, a proven order of a group holding
    the closure, else by the group's: once it reaches it, conjugation stops.
    """
    k = _kernel(group.degree)
    gens = [s for s in seeds if s != k.identity]
    for s in gens:
        if not group.contains(s):
            raise ValueError("seed element is not in the group")
    chain = _Chain(group.degree, (), gens, order or group.order)
    frontier = list(gens)
    gen_pairs = _conjugators(group)
    while frontier:
        new = []
        for h in frontier:
            if chain.full():
                break
            h_table = k.table(h)
            for g_inv, g in gen_pairs:
                conj = k.mul(k.mul(g_inv, h_table), g)
                if chain.add_generator(conj):
                    new.append(conj)
        gens += new
        frontier = new
    return chain.suffix_group(gens)


# The seed of _is_whole, the most elements it sifts, the sifts in a row that
# may leave its chain unchanged, and the pairs reduce_generators tries.
_FILL_SEED = 1995
_FILL_BUDGET = 64
_FILL_STALL = 8
_FILL_PAIRS = 4


def _is_whole(group: Group, elements: Iterable) -> bool:
    """True only when the elements, all in one subgroup H, prove H = G.

    They are sifted into a chain on G's base that installs residues and
    grows each orbit still short of G's by tree edges alone, forming no
    Schreier generator.  Its transversal elements lie in H, so, as for the
    known-order stop in the module docstring, its orbit product is at most
    |H|; twice it above |G| proves H = G, as a proper subgroup has index at
    least 2 (Babai, Cooperman, Finkelstein, Luks & Seress, *Fast Monte
    Carlo algorithms for permutation groups*, JCSS 1995).  The chain is
    never frozen: its orbits may be short and its Schreier pairs unsifted.
    """
    chain, stalled = _Chain(group.degree, group.base), 0
    caps = [len(trans) for trans in group.transversals]
    for x in itertools.islice(elements, _FILL_BUDGET):
        stalled = 0 if chain._absorb(x, 0, caps) else stalled + 1
        if 2 * chain.size > group.order or stalled == _FILL_STALL:
            break
    return 2 * chain.size > group.order


def _uniforms(group: Group, rng: random.Random) -> Iterator:
    """Uniform random elements of the group, each with its inverse: one
    random representative per level."""
    k = _kernel(group.degree)
    levels = [[(t, inv[x]) for x, t in trans.items()]
              for trans, inv in zip(group.transversals, group._inverse_tables)]
    while True:
        g = g_inv = k.identity
        for u, u_inv in map(rng.choice, levels):
            g, g_inv = k.mul(u, k.table(g)), k.mul(g_inv, u_inv)
        yield g, g_inv


def _closure_is_whole(group: Group, seeds: Sequence) -> bool:
    """Whether :func:`_is_whole` proves the seeds' normal closure whole from
    conjugates of random seeds by uniform elements (False says nothing)."""
    k, rng = _kernel(group.degree), random.Random(_FILL_SEED)
    tables = [k.table(s) for s in seeds]
    return _is_whole(group, (
        k.mul(k.mul(g_inv, rng.choice(tables)), k.table(g)) for g, g_inv in _uniforms(group, rng)
    ))


def _words(pair: Sequence, rng: random.Random) -> Iterator:
    """Random words in the pair: product replacement with an accumulator
    (Celler, Leedham-Green, Murray, Niemeyer & O'Brien, 1995)."""
    k = _kernel(len(pair[0]))
    state, r = list(pair) * 2, k.identity
    while True:
        i, j = rng.sample(range(len(state)), 2)
        state[i] = k.mul(state[i], k.table(state[j]))
        r = k.mul(r, k.table(state[i]))
        yield r


def _commutators(group: Group) -> list:
    """The distinct nontrivial commutators of the generators, in order."""
    k = _kernel(group.degree)
    pairs = _conjugators(group)
    commutators = dict.fromkeys(
        k.mul(k.mul(k.mul(a_inv, k.table(b_inv)), a), b)
        for a_inv, a in pairs for b_inv, b in pairs if a != b
    )
    return [c for c in commutators if c != k.identity]


def derived_subgroup(group: Group) -> Group:
    """Normal closure of the commutators of the generators."""
    return normal_closure(group, _commutators(group))


def perfect_core(group: Group) -> Group:
    """Limit of the derived series: the largest perfect subgroup in it.

    Each step is re-built on few generators, as a derived subgroup keeps
    every commutator and conjugate it was closed from.  A step after the
    first is not built when :func:`_closure_is_whole` proves the group
    perfect; the first is bounded by half the order when a generator is
    odd, as every commutator is even.
    """
    odd = any((sum(map(len, c)) - len(c)) % 2 for c in map(_cycles, group.gens))
    current, nxt = group, normal_closure(group, _commutators(group), group.order // (1 + odd))
    while nxt.order != current.order:
        current = reduce_generators(nxt)
        commutators = _commutators(current)
        if commutators and _closure_is_whole(current, commutators):
            break
        nxt = normal_closure(current, commutators)
    return current


def is_abelian(group: Group) -> bool:
    # A product of two tables is the table of the product.
    tables = [table for _inverse, table in _conjugators(group)]
    mul = _kernel(group.degree).mul
    return all(
        mul(a, b) == mul(b, a) for i, a in enumerate(tables) for b in tables[i + 1 :]
    )


def reduce_generators(group: Group) -> Group:
    """The same group on at most two generators: itself if it has so few,
    else a seeded pair of uniform elements that :func:`_is_whole` proves
    generates it, on this group's own chain.

    Failing that, one chain, bounded by the group's order, grows by each
    generator and strong generator it does not yet contain, until it is
    full; the result is then ``build_group`` of the chosen sequence.
    """
    if len(group.gens) <= 2:
        return group
    rng = random.Random(_FILL_SEED)
    uniform = _uniforms(group, rng)
    for (a, _), (b, _) in itertools.islice(zip(uniform, uniform), _FILL_PAIRS):
        if _is_whole(group, _words((a, b), rng)):
            return replace(group, gens=(a, b))
    chain = _Chain(group.degree, order=group.order)
    chosen = [g for g in group.gens + group.strong_gens if chain.add_generator(g)]
    return chain.suffix_group(chosen)
