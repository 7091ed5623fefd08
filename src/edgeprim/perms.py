"""Permutations of {0, ..., n-1}.

A permutation is stored as a tuple of images: ``p.images[x]`` is the image
of ``x``.  Products are read left to right: ``compose(p, q)`` applies ``p``
first, then ``q``.  All permutations are immutable and hashable.
``Permutation(...)`` and :func:`from_cycles` validate their input; images
that the group machinery computed itself are wrapped unchecked.

The group machinery does its arithmetic on raw elements through one private
kernel per degree (:func:`_kernel`).  Up to degree 255 an element is an
n-byte ``bytes`` and a product is one ``bytes.translate`` call; past that
an element is an image tuple and a product is one ``operator.itemgetter``
call.  Both forms index like the image tuple, compare equal exactly when
the permutations are equal and sort in the same order as the image tuples.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable

_BYTE_RANGE = bytes(range(256))


def _compose_t(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(q[x] for x in p)


def _inverse_t(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


@functools.lru_cache(maxsize=64)
def _identity_t(n: int) -> tuple[int, ...]:
    return tuple(range(n))


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

    @classmethod
    def _trusted(cls, images) -> "Permutation":
        """Wrap images known to be a bijection (a tuple or a kernel
        element), without validating them."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", tuple(images))
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        return Permutation._trusted(_inverse_t(self.images))

    def is_identity(self) -> bool:
        return self.images == _identity_t(len(self.images))

    def order(self) -> int:
        cycles = self.cycles()
        return math.lcm(*(len(c) for c in cycles)) if cycles else 1

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = set()
        out = []
        for i in range(self.degree):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return tuple(out)

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
    return Permutation._trusted(_compose_t(p.images, q.images))


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
