"""Structural operations on small groups: classes, normalizers, simplicity.

Enumeration here is explicit and gated.  The conjugacy classes come from
one walk of the group's elements, and the normal subgroup lattice is
closed on sets of class indices, with one stabilizer chain built per
normal subgroup found (see :func:`normal_subgroups`).  A normalizer walks
one representative per right coset of the subgroup, not the group (see
:func:`normalizer`).  Simplicity goes down the group's own stabilizer
chain: at each level it walks only the cosets of two-point stabilizers
that can hold a generator of a semiregular normal subgroup, picked out by
their fixed points, and it computes no conjugacy classes; a seeded fill
proves most candidates' normal closures whole without building them (see
:func:`is_simple`).  The centralizer of a subgroup is a backtrack over the
images of its orbit representatives, pruned down the group's chain (see
:func:`centralizer`).  :func:`_check_cutoff` gates every entry point on
the group's order, against the ``enumeration`` cap (the run's cutoff) or
the ``normal-sweep`` cap of :data:`edgeprim.groups.CAPS`: exceeding it
raises :class:`ScaleLimitError` rather than a wrong or partial answer.

Every element taken or returned here is a kernel element of
:mod:`edgeprim.perms`, not a ``Permutation``, which is only the boundary
type: one body serves every degree, and up to degree 255 each product is
one ``bytes.translate`` call, which keeps full enumerations of groups like
a 252000-element degree-50 group in the seconds range.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterator

from .perms import _cycles, _kernel, _order
from .actions import right_cosets
from .groups import (
    DEFAULT_ENUMERATION_CUTOFF,
    ENUMERATION,
    NORMAL_SWEEP,
    Cap,
    Group,
    ScaleLimitError,
    _Chain,
    _closure_is_whole,
    _conjugators,
    is_abelian,
    is_subgroup,
    normal_closure,
    perfect_core,
    trivial_group,
)


def _check_cutoff(group: Group, cutoff: int, what: str, cap: Cap = ENUMERATION) -> None:
    if group.order > cutoff:
        raise ScaleLimitError(cap, group.order, what, cutoff)


def _iter_elements_bytes(group: Group) -> Iterator:
    """All elements as raw kernel elements (``bytes`` up to degree 255,
    image tuples past it), deterministic order."""
    k = _kernel(group.degree)
    mul, table = k.mul, k.table
    levels = [list(group.representatives(i)) for i in range(len(group.base))] or [[k.identity]]
    last = len(levels) - 1

    def rec(i: int, acc) -> Iterator:
        if i == last:
            yield from map(mul, levels[i], repeat(acc))
            return
        for rep in levels[i]:
            yield from rec(i + 1, table(mul(rep, acc)))

    yield from rec(0, table(k.identity))


def elements(group: Group, cutoff: int = DEFAULT_ENUMERATION_CUTOFF) -> list:
    _check_cutoff(group, cutoff, "element listing")
    return list(_iter_elements_bytes(group))


def normalizer(
    group: Group, sub: Group, cutoff: int = DEFAULT_ENUMERATION_CUTOFF
) -> Group:
    """N_group(sub), over the right cosets of sub.

    An element g normalizes sub = H iff every element of the coset Hg does,
    since H normalizes itself; so one representative per coset, from
    :func:`edgeprim.actions.right_cosets`, decides each coset, and at most
    |G:H| representatives are walked instead of |G| elements (Seress,
    *Permutation Group Algorithms*, 2003; Holt, Eick & O'Brien, *Handbook
    of Computational Group Theory*, 2005).  One chain, bounded by the
    group's order, grows by each normalizing representative it does not yet
    contain, and the walk stops once the chain is the whole group.  The
    result equals ``build_group`` of sub's generators followed by the
    representatives added, in the order the walk meets them.  The walk
    keeps every representative it meets, so its memory grows with the
    index, which the order gate bounds.
    """
    if not is_subgroup(group, sub):
        raise ValueError("candidate is not a subgroup")
    _check_cutoff(group, cutoff, "normalizer")
    k = _kernel(group.degree)
    sub_tables = [h for _inverse, h in _conjugators(sub)]
    gens = list(sub.gens)
    chain = _Chain(group.degree, (), gens, group.order)
    for p in right_cosets(group, sub):
        if chain.full():
            break
        if chain.sift(p)[0] == k.identity:
            continue
        inv, p_table = k.inverse(p), k.table(p)
        if all(sub.contains(k.mul(k.mul(inv, h), p_table)) for h in sub_tables):
            chain.add_generator(p)
            gens.append(p)
    return chain.suffix_group(gens)


def centralizer(
    group: Group, sub: Group, cutoff: int = DEFAULT_ENUMERATION_CUTOFF
) -> Group:
    """C_group(sub), by a backtrack over the images of orbit representatives.

    Let sub = T have orbits O_1..O_k with least points a_1..a_k.  An
    element c of the group commuting with T has T_{c(a)} = T_a, so
    b_i = c(a_i) is a point of a_i's orbit under the group, fixed by
    T_{a_i}, whose T-orbit has |O_i| points (a_i, if it is the only one).
    c(a_i^h) = b_i^h, built breadth-first over T's generators, is then a
    bijection exactly when the b_i lie in distinct T-orbits (Seress,
    *Permutation Group Algorithms*, 2003, section 6.1).  The other b_i are
    chosen in turn down the group rebased onto their a_i, one walk step
    per level, dropping a prefix that no element of the group realizes:
    this is exact, and each level keeps at most |group| prefixes, so the
    cutoff on the group's order bounds the search.  The maps in the group
    generate C_group(T); the search stops once they generate the group.
    """
    if not is_subgroup(group, sub):
        raise ValueError("candidate is not a subgroup")
    _check_cutoff(group, cutoff, "centralizer")
    n = sub.degree
    k = _kernel(n)
    orbits = sub.orbits()
    orbit_of = {x: i for i, orbit in enumerate(orbits) for x in orbit}
    reach = {x: orbit for orbit in group.orbits() for x in orbit}
    firsts = [orbit[0] for orbit in orbits]
    reps, choices = [], []
    for a, orbit in zip(firsts, orbits):
        # For a fixed point a, T_a = T fixes every point of a one-point orbit.
        fixers = sub.point_stabilizer(a).strong_gens if len(orbit) > 1 else ()
        choice = [
            b for b in reach[a]
            if len(orbits[orbit_of[b]]) == len(orbit) and all(h[b] == b for h in fixers)
        ]
        if len(choice) > 1:
            reps.append(a)
            choices.append(choice)
    rebased = group.rebase(reps)
    sub_gens = [g for _inverse, g in _conjugators(sub)]
    chain, kept = _Chain(n, order=group.order), []
    # Depth first, so the maps are met in lexicographic order of the images.
    stack = [((), k.identity)]
    while stack and not chain.full():
        images_of_reps, g_inv = stack.pop()
        i = len(images_of_reps)
        if i < len(reps):
            used = {orbit_of[b] for b in images_of_reps}
            for b in reversed(choices[i]):
                u_inv = None if orbit_of[b] in used else rebased.inverse_table(i, g_inv[b])
                if u_inv is not None:
                    stack.append((images_of_reps + (b,), k.mul(g_inv, u_inv)))
            continue
        starts = dict(zip(firsts, firsts)) | dict(zip(reps, images_of_reps))
        images = [starts.get(x, -1) for x in range(n)]
        queue = list(starts)
        for x in queue:
            for g in sub_gens:
                y = g[x]
                if images[y] < 0:
                    images[y] = g[images[x]]
                    queue.append(y)
        c = k.element(images) if sorted(images) == list(range(n)) else None
        if c is None or any(
            k.mul(k.table(c), g) != k.mul(g, k.table(c)) for g in sub_gens
        ):
            raise AssertionError(
                f"images {images_of_reps} of the orbit representatives {reps} "
                "give no centralizing permutation"
            )
        if group.contains(c) and chain.add_generator(c):
            kept.append(c)
    return chain.suffix_group(kept)


def conjugacy_classes(
    group: Group, cutoff: int = DEFAULT_ENUMERATION_CUTOFF
) -> list[tuple[object, int]]:
    """(representative, class size) pairs; representatives are kernel
    elements, the first class members met in enumeration order, so the
    output is deterministic."""
    _check_cutoff(group, cutoff, "conjugacy class enumeration")
    return [(members[0], len(members)) for members in _classes(group)[0]]


def _classes(group: Group) -> tuple[list[list], dict]:
    """The conjugacy classes from one walk of the elements, and the index
    of each element's class.

    Each class lists its members breadth-first from the first one the walk
    meets, conjugating by the group's generators, so the walk costs one
    conjugation per element and generator: callers that walk often, such
    as the lemma suite, hand over a reduced generating set.
    """
    k = _kernel(group.degree)
    mul, table = k.mul, k.table
    gen_pairs = _conjugators(group)
    class_of: dict = {}
    classes: list[list] = []
    for b in _iter_elements_bytes(group):
        if b in class_of:
            continue
        index = len(classes)
        class_of[b] = index
        members = [b]
        for x in members:
            x_table = table(x)
            for gi, g in gen_pairs:
                y = mul(mul(gi, x_table), g)
                if y not in class_of:
                    class_of[y] = index
                    members.append(y)
        classes.append(members)
    return classes, class_of


def is_simple(group: Group, cutoff: int = DEFAULT_ENUMERATION_CUTOFF) -> bool:
    """Exact simplicity test down the group's own stabilizer chain.

    No conjugacy classes are computed and the group is never walked.  For
    each level i of the chain, let b be its base point, D the orbit of b
    under G_(i) (the stabilizer of the earlier base points) and H = G_(i+1)
    = (G_(i))_b.  Every candidate below must have the whole group as its
    normal closure; the group is simple iff all of them do.

    Completeness (Seress, *Permutation Group Algorithms*, 2003, ch. 6).
    Take a proper nontrivial normal subgroup N and the deepest level i with
    M = N meet G_(i) nontrivial; it exists, since G_(0) = G and the
    stabilizer of the whole base is trivial.  M is normal in G_(i) and
    M meet H = 1, so M is semiregular on D: the stabilizer in M of a point
    of D is conjugate in G_(i) to M_b = 1.  H fixes b and normalizes M, so
    the M-orbit of b is H-invariant; it holds the representative beta of
    some H-orbit on D - {b}, and M has exactly one element c sending b to
    beta.  Conjugating c by H_beta gives an element of M with the same
    property, so c commutes with H_beta.  Hence c lies in the coset
    H t_beta (t_beta the transversal element sending b to beta), commutes
    with H_beta, fixes no point of D, and its normal closure lies in N.
    Conversely, in a simple group every nontrivial element has the whole
    group as its normal closure.

    Pruning.  An element commuting with H_beta permutes Fix(H_beta), which
    holds beta.  Writing an element of H t_beta as c = h u_gamma t_beta,
    with h in H_beta and u_gamma the element sending beta to gamma in the
    transversal of H rebased at beta, gives beta^c = gamma^(t_beta).  So
    only the points gamma of beta's H-orbit whose image under t_beta is a
    point of Fix(H_beta) other than beta are walked, each over the
    elements h of H_beta.  The seeded fill of
    :func:`edgeprim.groups._closure_is_whole` proves most closures whole
    before any is built, so False always comes from a built normal closure.

    Normal closure is a class invariant, so once c passes, each of its
    conjugates that the same level could meet is marked and skipped: for a
    point x of D, with y the image of x^c under t_x^-1 and u_y in H sending
    the representative of y's H-orbit to y, the conjugate of c by
    t_x^-1 u_y^-1 lies in that representative's coset, and it depends only
    on the cycle of c through x.
    """
    order = group.order
    if order == 1:
        raise ValueError("simplicity is undefined for the trivial group")
    if prime_factors(order) == [order]:
        return True
    if is_abelian(group):
        return False
    _check_cutoff(group, cutoff, "simplicity test")
    return all(
        _level_closures_are_whole(group, level)
        for level in range(len(group.base))
        if len(group.basic_orbit(level)) > 1
    )


def _level_closures_are_whole(group: Group, level: int) -> bool:
    """Whether every candidate of :func:`is_simple` at this chain level
    has the whole group as its normal closure."""
    order = group.order
    k = _kernel(group.degree)
    mul, table = k.mul, k.table
    b = group.base[level]
    # to[x] is t_x as a table, back[x] its inverse; home[y] is u_y and the
    # inverse table of u_y, for every y in D - {b}.
    to = {x: table(group.representative(level, x)) for x in group.basic_orbit(level)}
    back = {x: group.inverse_table(level, x) for x in to}
    stab = group.pointwise_stabilizer(group.base[: level + 1])
    home = {}
    cosets = []
    for orbit in stab.orbits():
        beta = orbit[0]
        if beta == b or beta not in to:
            continue
        local = stab.rebase((beta,))
        home.update(
            (y, (local.representative(0, y), local.inverse_table(0, y)))
            for y in local.basic_orbit(0)
        )
        stab_beta = local.point_stabilizer(beta)
        commuting = stab_beta.strong_gens
        t = to[beta]
        # u_gamma t_beta for each gamma whose image under t_beta is a
        # point of Fix(H_beta) other than beta.
        starts = [
            table(mul(u, t))
            for gamma, u in zip(local.basic_orbit(0), local.representatives(0))
            if t[gamma] != beta and all(h[t[gamma]] == t[gamma] for h in commuting)
        ]
        if starts:
            cosets.append((stab_beta, starts, list(map(table, commuting))))
    passed: set = set()
    for stab_beta, starts, commuting in cosets:
        g0 = commuting[0]
        moved = next((x for x in range(group.degree) if g0[x] != x), 0)
        for start in starts:
            for h in _iter_elements_bytes(stab_beta):
                c = mul(h, start)
                if c in passed or c[g0[moved]] != g0[c[moved]]:
                    continue
                c_table = table(c)
                if any(mul(c_table, g) != mul(g, c_table) for g in commuting) or any(
                    c[x] == x for x in to
                ):
                    continue
                if not _closure_is_whole(group, [c]) and normal_closure(group, [c]).order != order:
                    return False
                on_cycle: set = set()
                for x in to:
                    if x in on_cycle:
                        continue
                    y = x
                    while y not in on_cycle:
                        on_cycle.add(y)
                        y = c[y]
                    u, u_back = home[back[x][c[x]]]
                    passed.add(mul(mul(mul(mul(u, to[x]), c_table), back[x]), u_back))
    return True


def normal_subgroups(group: Group) -> list[Group]:
    """All nontrivial normal subgroups, by order, the group itself last
    (as ``group``); a scan of order at most the ``normal-sweep`` cap.

    A normal subgroup is a union of conjugacy classes, so the lattice is
    closed on sets of class indices.  The subgroup generated by a class C
    starts from {1, C} and adds, for each member class X and each c in C,
    the class of c x for x the representative of X: C is closed under
    conjugation and c x^g = (c^(g^-1) x)^g, so one representative per
    class is exact.  A class holding x^e with e prime to the order of an
    x already closed generates the same subgroup and is skipped.  Every
    normal subgroup is a join of these closures, so closing them under
    pairwise join enumerates the whole lattice: the join of A and B is
    A ∪ B closed in the same way under the classes generating B, and a
    nested pair joins to the larger of the two.  Each subgroup found is
    then built once, on one chain bounded by its order, the sum of its
    class sizes, from the elements of the classes generating it.
    Closures come in class order and joins in pair order, and the sort
    by order is stable.
    """
    _check_cutoff(group, NORMAL_SWEEP.limit, "normal subgroup sweep", NORMAL_SWEEP)
    k = _kernel(group.degree)
    classes, class_of = _classes(group)
    reps = [k.table(members[0]) for members in classes]
    one = class_of[k.identity]

    def close(start, generating) -> frozenset:
        members = set(start)
        queue = list(members)
        for x in queue:
            if len(members) == len(classes):
                break
            for c in generating:
                for e in classes[c]:
                    y = class_of[k.mul(e, reps[x])]
                    if y not in members:
                        members.add(y)
                        queue.append(y)
        return frozenset(members)

    found: list[frozenset] = []
    generated_by: list[tuple] = []
    skip = {one}
    for c, members in enumerate(classes):
        if c in skip:
            continue
        x = members[0]
        m, p = _order(x), x
        for e in range(1, m):
            if math.gcd(e, m) == 1:
                skip.add(class_of[p])
            p = k.mul(p, reps[c])
        closure = close({one, c}, (c,))
        if closure not in found:
            found.append(closure)
            generated_by.append((c,))
    # joined[i]: the partners j < joined[i] of subgroup i are joined.
    joined: list[int] = [0] * len(found)
    changed = True
    while changed:
        changed = False
        for i in range(len(found)):
            end = len(found)
            for j in range(max(i + 1, joined[i]), end):
                a, b = found[i], found[j]
                if a <= b or b <= a:
                    continue
                join = close(a | b, generated_by[j])
                if join not in found:
                    found.append(join)
                    generated_by.append(tuple(dict.fromkeys(generated_by[i] + generated_by[j])))
                    joined.append(0)
                    changed = True
            joined[i] = end
    out = []
    for members, generating in zip(found, generated_by):
        if len(members) == len(classes):
            out.append(group)
            continue
        chain = _Chain(group.degree, (), (), sum(len(classes[c]) for c in members))
        gens = [e for c in generating for e in classes[c] if chain.add_generator(e)]
        out.append(chain.suffix_group(gens))
    out.sort(key=lambda n: n.order)
    return out


def sylow_subgroup(
    group: Group, p: int, cutoff: int = DEFAULT_ENUMERATION_CUTOFF
) -> Group:
    """A Sylow p-subgroup, grown by p-elements of the current normalizer.

    One chain grows by each new p-element; the result equals
    ``build_group`` of those elements in the order they were found.
    """
    if prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    _check_cutoff(group, cutoff, "Sylow subgroup search")
    target = _p_part(group.order, p)
    chain = _Chain(group.degree)
    gens = []
    current = trivial_group(group.degree)
    while current.order < target:
        ambient = group if current.order == 1 else normalizer(group, current, cutoff)
        grown = False
        for x in _iter_elements_bytes(ambient):
            m = _order(x)
            pp = _p_part(m, p)
            if pp == 1:
                continue
            y = _power(x, m // pp)
            if chain.add_generator(y):
                gens.append(y)
                current = chain.suffix_group(gens)
                grown = True
                break
        if not grown:
            raise AssertionError("Sylow growth stalled; normalizer argument violated")
    assert current.order == target
    return current


def _power(x, e: int):
    """The e-th power of a kernel element, read off its cycles."""
    images = list(range(len(x)))
    for cycle in _cycles(x):
        for i, a in enumerate(cycle):
            images[a] = cycle[(i + e) % len(cycle)]
    return _kernel(len(x)).element(images)


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_p_group(group: Group) -> tuple[bool, int | None]:
    """(True, p) if the order is a prime power, (True, None) for order 1."""
    factors = prime_factors(group.order)
    if not factors:
        return True, None
    if len(factors) == 1:
        return True, factors[0]
    return False, None


def is_soluble(group: Group) -> bool:
    return perfect_core(group).order == 1


def is_cyclic(group: Group, cutoff: int = DEFAULT_ENUMERATION_CUTOFF) -> bool:
    """Whether some single element generates the group (enumeration search)."""
    if group.order == 1:
        return True
    _check_cutoff(group, cutoff, "cyclicity test")
    order = group.order
    return any(_order(x) == order for x in _iter_elements_bytes(group))
