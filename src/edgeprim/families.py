"""Named graphs and groups: standard families, small Galois fields,
projective and affine groups on lines, and generic coset graphs.

Field elements are coefficient tuples over fixed bundled moduli, so every
element encoding, and hence every permutation labelling built from one, is
reproducible across runs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .perms import Permutation, _kernel
from .groups import (
    Group,
    _Chain,
    build_group,
    derived_subgroup,
    is_subgroup,
    orbit_of,
)
from .actions import CosetTable
from .graphs import Graph, build_graph, is_connected
from .structure import _iter_elements_bytes, prime_factors


# ---------------------------------------------------------------------------
# Standard graphs


def complete_graph(m: int) -> Graph:
    if m < 2:
        raise ValueError("complete graph needs at least 2 vertices")
    return build_graph(m, itertools.combinations(range(m), 2))


def complete_bipartite(d: int) -> Graph:
    """K_{d,d} with parts {0..d-1} and {d..2d-1}."""
    if d < 1:
        raise ValueError("part size must be positive")
    return build_graph(2 * d, ((i, d + j) for i in range(d) for j in range(d)))


def cycle_graph(m: int) -> Graph:
    if m < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(m, ((i, (i + 1) % m) for i in range(m)))


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- 5+i."""
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)]
    )
    return build_graph(10, edges)


_FANO_LINES = tuple(
    tuple(sorted(((1 + j) % 7, (2 + j) % 7, (4 + j) % 7))) for j in range(7)
)


def heawood() -> Graph:
    """Incidence graph of the 7-point projective plane: points 0..6,
    lines 7..13 (line j+7 is the difference-set translate {1,2,4}+j)."""
    edges = []
    for j, line in enumerate(_FANO_LINES):
        for p in line:
            edges.append((p, 7 + j))
    return build_graph(14, edges)


def hoffman_singleton() -> Graph:
    """Pentagon/pentagram construction on 50 vertices.

    Pentagon P_h occupies vertices 5h..5h+4 with edges j ~ j+-1 (mod 5);
    pentagram Q_i occupies 25+5i..25+5i+4 with edges j ~ j+-2 (mod 5);
    vertex j of P_h is joined to vertex h*i + j (mod 5) of Q_i.

    The convention is pinned by the Moore-graph property triple (7-regular,
    girth 5, diameter 2), which determines the graph up to isomorphism.
    """
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))
    for i in range(5):
        for j in range(5):
            edges.append((25 + 5 * i + j, 25 + 5 * i + (j + 2) % 5))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    return build_graph(50, edges)


# ---------------------------------------------------------------------------
# Small Galois fields

# Monic irreducible moduli, coefficients low degree first, constant term
# included, leading 1 omitted: x^k = -(listed polynomial).
_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1),          # x^2 + x + 1
    (2, 3): (1, 1, 0),       # x^3 + x + 1
    (2, 4): (1, 1, 0, 0),    # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0),  # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 0, 0, 0),  # x^6 + x + 1
    (3, 2): (1, 0),          # x^2 + 1
    (3, 3): (1, 2, 0),       # x^3 + 2x + 1
    (5, 2): (2, 0),          # x^2 + 2
    (7, 2): (1, 0),          # x^2 + 1
}

_MAX_Q = 64


@dataclass(frozen=True, eq=False)
class FiniteField:
    """GF(p^k) with elements as length-k coefficient tuples over GF(p).

    Addition and multiplication read tables of all q^2 pairs, built once
    from the polynomial arithmetic (:meth:`_poly_add`, :meth:`_poly_mul`).
    """

    p: int
    k: int
    modulus: tuple[int, ...]
    _add: dict = field(init=False, repr=False)
    _mul: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.q > _MAX_Q:
            raise ValueError(f"field size {self.q} out of supported range (<= {_MAX_Q})")
        pairs = list(itertools.product(self.elements(), repeat=2))
        object.__setattr__(self, "_add", {ab: self._poly_add(*ab) for ab in pairs})
        object.__setattr__(self, "_mul", {ab: self._poly_mul(*ab) for ab in pairs})

    @property
    def q(self) -> int:
        return self.p**self.k

    def elements(self) -> list[tuple[int, ...]]:
        return [
            tuple(reversed(coeffs))
            for coeffs in itertools.product(range(self.p), repeat=self.k)
        ]

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.k

    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.k - 1)

    def from_int(self, value: int) -> tuple[int, ...]:
        """Base-p digits of an integer in 0..q-1, low digit first."""
        if not 0 <= value < self.q:
            raise ValueError(f"{value} out of range")
        digits = []
        for _ in range(self.k):
            digits.append(value % self.p)
            value //= self.p
        return tuple(digits)

    def to_int(self, element: tuple[int, ...]) -> int:
        return sum(c * self.p**i for i, c in enumerate(element))

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return self._add[a, b]

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return self._mul[a, b]

    def _poly_add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((-x) % self.p for x in a)

    def _poly_mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, m in enumerate(self.modulus):
                    prod[i - self.k + j] = (prod[i - self.k + j] - c * m) % self.p
        return tuple(prod[: self.k])

    def power(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        if a == self.zero():
            raise ZeroDivisionError("inverse of zero")
        return self.power(a, self.q - 2)

    def element_order(self, a: tuple[int, ...]) -> int:
        if a == self.zero():
            raise ValueError("zero has no multiplicative order")
        acc = a
        for n in range(1, self.q):
            if acc == self.one():
                return n
            acc = self.mul(acc, a)
        raise AssertionError("order search failed")

    def primitive_element(self) -> tuple[int, ...]:
        """Smallest (by integer encoding) generator of the cyclic group."""
        for value in range(1, self.q):
            el = self.from_int(value)
            if self.element_order(el) == self.q - 1:
                return el
        raise AssertionError("no primitive element found; modulus not irreducible?")

    def frobenius(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return self.power(a, self.p)


@functools.lru_cache(maxsize=None)
def gf(p: int, k: int = 1) -> FiniteField:
    if prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    if k < 1 or p**k > _MAX_Q:
        raise ValueError(f"field size {p}^{k} out of supported range (<= {_MAX_Q})")
    if k == 1:
        field = FiniteField(p=p, k=1, modulus=(0,))
    else:
        modulus = _MODULI.get((p, k))
        if modulus is None:
            raise ValueError(f"no bundled modulus for GF({p}^{k})")
        field = FiniteField(p=p, k=k, modulus=modulus)
    return field


def _field_for_q(q: int) -> FiniteField:
    primes = prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, k = primes[0], 1
    while p**k < q:
        k += 1
    return gf(p, k)


# ---------------------------------------------------------------------------
# Projective and affine groups on small lines

# Projective line points: element x of GF(q) is point to_int(x); infinity is q.


def _projective_perms(field: FiniteField) -> tuple[Permutation, Permutation, Permutation]:
    """Images of z -> z+1, z -> lam*z (lam primitive), z -> -1/z."""
    q = field.q
    inf = q
    lam = field.primitive_element()
    one = field.one()

    translate = [0] * (q + 1)
    scale = [0] * (q + 1)
    invert = [0] * (q + 1)
    for value in range(q):
        x = field.from_int(value)
        translate[value] = field.to_int(field.add(x, one))
        scale[value] = field.to_int(field.mul(lam, x))
        if value == 0:
            invert[value] = inf
        else:
            invert[value] = field.to_int(field.neg(field.inv(x)))
    translate[inf] = inf
    scale[inf] = inf
    invert[inf] = 0
    return (
        Permutation(tuple(translate)),
        Permutation(tuple(scale)),
        Permutation(tuple(invert)),
    )


def _checked(name: str, group: Group, expected: int) -> Group:
    """The group, after checking its order against the known one."""
    if group.order != expected:
        raise AssertionError(f"{name} order {group.order} != {expected}")
    return group


def pgl2(q: int) -> Group:
    """PGL(2,q) on the q+1 points of the projective line."""
    group = build_group(_projective_perms(_field_for_q(q)))
    return _checked(f"PGL(2,{q})", group, q * (q * q - 1))


def psl2(q: int) -> Group:
    """PSL(2,q): equal to PGL(2,q) for even q, its derived subgroup when odd."""
    group = pgl2(q)
    if q % 2 == 0:
        return group
    return _checked(f"PSL(2,{q})", derived_subgroup(group), q * (q * q - 1) // 2)


def _affine_perms(field: FiniteField) -> list[Permutation]:
    """Images of x -> x+1 and x -> lam*x (lam primitive) on the field: the
    projective translate and scale, which fix infinity, cut to the field."""
    return [Permutation(g.images[: field.q]) for g in _projective_perms(field)[:2]]


def agl1(q: int) -> Group:
    """AGL(1,q) = {x -> a x + b} on the q field elements."""
    group = build_group(_affine_perms(_field_for_q(q)))
    return _checked(f"AGL(1,{q})", group, q * (q - 1))


def agammal1(q: int) -> Group:
    """AGL(1,q) extended by the Frobenius field automorphism."""
    field = _field_for_q(q)
    frob = [field.to_int(field.frobenius(field.from_int(v))) for v in range(q)]
    group = build_group(_affine_perms(field) + [Permutation(tuple(frob))])
    return _checked(f"AGammaL(1,{q})", group, q * (q - 1) * field.k)


# ---------------------------------------------------------------------------
# Coset graphs


@dataclass(frozen=True, eq=False)
class CosetGraphSpec:
    """Data for a coset graph: vertices are cosets of the subgroup, and two
    cosets are adjacent when their quotient lies in the double coset of the
    connector."""

    group: Group
    subgroup: Group
    connector: Permutation


def coset_graph(spec: CosetGraphSpec) -> tuple[Graph, Group]:
    """Build the coset graph and the group's image on its vertices.

    Adjacency: cosets Hx ~ Hy iff y x^{-1} lies in H a H, so the neighbors
    of Hx are the cosets H a h x.  The relation must be symmetric (double
    coset closed under inversion); otherwise the data describes a directed
    graph and is rejected.  Valency |H : H meet H^a| is asserted against an
    independent intersection computation when the subgroup is enumerable,
    and graph connectivity is asserted equivalent to the subgroup and
    connector generating the whole group.
    """
    group, sub, a = spec.group, spec.subgroup, spec.connector.element
    if not is_subgroup(group, sub):
        raise ValueError("subgroup is not contained in the group")
    if sub.contains(a):
        raise ValueError("connector must lie outside the subgroup")
    if not group.contains(a):
        raise ValueError("connector must lie in the group")

    table = CosetTable(group, sub)
    index = table.index
    k = _kernel(group.degree)

    # Neighbors of the base coset: the sub-orbit of Ha under right
    # multiplication by subgroup generators.
    nbrs = orbit_of((table.coset_of(a),), [table.image_of(h) for h in sub.gens])

    # Translate the base neighborhood by coset representatives; the
    # adjacency relation is invariant under the (transitive) vertex action,
    # and the representative of coset v carries the base coset to v.
    directed: set[tuple[int, int]] = set()
    for v, rep in enumerate(table.reps):
        rep_table = k.table(rep)
        for w in nbrs:
            directed.add((v, table.coset_of(k.mul(table.reps[w], rep_table))))
    for v, w in directed:
        if (w, v) not in directed:
            raise ValueError(
                "double coset is not closed under inversion: the coset "
                "relation is directed"
            )
    edges = sorted({(v, w) if v < w else (w, v) for v, w in directed})
    graph = build_graph(index, edges)

    if sub.order <= 10**5:
        meet = _conjugate_intersection(sub, a)
        if len(nbrs) * meet != sub.order:
            raise AssertionError(
                "coset graph valency disagrees with |H : H meet H^a|"
            )

    gens = sub.gens + (a,)
    generated = _Chain(group.degree, (), gens, group.order).suffix_group(gens)
    if is_connected(graph) != (generated.order == group.order):
        raise AssertionError(
            "connectivity must match whether subgroup and connector generate"
        )

    image_gens = [table.image_of(g) for g in group.gens]
    image = _Chain(index, (), image_gens, group.order).suffix_group(image_gens)
    return graph, image


def _conjugate_intersection(sub: Group, a) -> int:
    """|H meet H^a| by filtering the enumerated elements of H."""
    k = _kernel(sub.degree)
    a_inv, a_table = k.inverse(a), k.table(a)
    return sum(
        sub.contains(k.mul(k.mul(a_inv, k.table(h)), a_table))
        for h in _iter_elements_bytes(sub)
    )
