"""Permutations of {0, ..., n-1}: the validated boundary type and the
kernel elements that the group machinery computes with.

A :class:`Permutation` is stored as a tuple of images: ``p.images[x]`` is
the image of ``x``.  Products are read left to right: ``compose(p, q)``
applies ``p`` first, then ``q``.  All permutations are immutable and
hashable, and ``Permutation(...)`` and :func:`from_cycles` validate their
input.  ``Permutation`` is the type in which an element enters the package
(group files, coset specs, named families) and leaves it
(``Group.generators``).

Inside the package an element is a raw element of one private kernel per
degree (:func:`_kernel`).  Up to degree 255 it is an n-byte ``bytes`` and a
product is one ``bytes.translate`` call; past that it is an image tuple and
a product is one ``operator.itemgetter`` call.  Both forms index like the
image tuple, ``tuple(e)`` is the image tuple, and they compare equal exactly
when the permutations are equal and sort in the same order as the image
tuples.  A ``bytes`` element never equals a tuple.  ``p.element`` is the
kernel element of a ``Permutation``, and ``Permutation(e)`` validates one.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable

_BYTE_RANGE = bytes(range(256))


def _inverse_t(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


@functools.lru_cache(maxsize=64)
def _identity_t(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _cycles(images) -> tuple[tuple[int, ...], ...]:
    """Nontrivial cycles of an image sequence, each starting at its
    smallest point."""
    seen = set()
    out = []
    for i, j in enumerate(images):
        if i in seen or j == i:
            continue
        cycle = [i]
        while j != i:
            seen.add(j)
            cycle.append(j)
            j = images[j]
        out.append(tuple(cycle))
    return tuple(out)


def _order(images) -> int:
    return math.lcm(*map(len, _cycles(images)))


@functools.lru_cache(maxsize=64)
def _kernel(n: int) -> SimpleNamespace:
    """Raw permutation arithmetic at degree n.

    A *table* is an element prepared as a right operand:
    ``mul(p, table(q))`` applies p first, then q, and ``table(p)[:n]`` is p
    again.  Up to degree 255 an element is n bytes and its table the
    256-byte ``bytes.translate`` table (the element followed by the fixed
    points n..255); past 255 both are the image tuple.  ``element`` turns
    an image tuple into an element and ``tuple`` turns it back.
    """
    if n > 255:
        # One itemgetter call per product; it returns a tuple since n > 1.
        return SimpleNamespace(
            identity=_identity_t(n),
            mul=lambda p, q: operator.itemgetter(*p)(q),
            table=lambda p: p,
            inverse=_inverse_t, inverse_table=_inverse_t, element=tuple,
        )
    ident, tail = _BYTE_RANGE[:n], _BYTE_RANGE[n:]
    return SimpleNamespace(
        identity=ident, mul=bytes.translate, table=lambda p: p + tail,
        inverse=lambda p: bytes.maketrans(p, ident)[:n],
        inverse_table=lambda p: bytes.maketrans(p, ident), element=bytes,
    )


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., n-1}, given by its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        if n == 0:
            raise ValueError("permutation must have positive degree")
        seen = [False] * n
        for x in images:
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise ValueError(f"images {images!r} are not a bijection on 0..{n - 1}")
            seen[x] = True

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def element(self):
        """This permutation as a kernel element of its degree."""
        return _kernel(self.degree).element(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        return Permutation(_inverse_t(self.images))

    def is_identity(self) -> bool:
        return self.images == _identity_t(len(self.images))

    def order(self) -> int:
        return _order(self.images)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest point."""
        return _cycles(self.images)

    def __repr__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return f"Permutation(identity, degree={self.degree})"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
        return f"Permutation({text}, degree={self.degree})"


def identity(n: int) -> Permutation:
    return Permutation(_identity_t(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p first, then q."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return Permutation(tuple(map(q.images.__getitem__, p.images)))


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


def from_cycles(n: int, cycles: Iterable[Iterable[int]]) -> Permutation:
    """Build a permutation of degree n from disjoint cycles."""
    images = list(range(n))
    touched = set()
    for cycle in cycles:
        cycle = list(cycle)
        for x in cycle:
            if not 0 <= x < n:
                raise ValueError(f"point {x} out of range for degree {n}")
            if x in touched:
                raise ValueError(f"point {x} appears in more than one cycle")
            touched.add(x)
        for a, b in zip(cycle, cycle[1:]):
            images[a] = b
        if cycle:
            images[cycle[-1]] = cycle[0]
    return Permutation(tuple(images))
