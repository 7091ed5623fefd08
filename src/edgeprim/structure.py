"""Element-enumeration operations on small groups.

Most operations here walk the full element list of a group.  Two do not.
Simplicity goes down the group's own stabilizer chain: at each level it
walks only the cosets of two-point stabilizers that can hold a generator
of a semiregular normal subgroup, picked out by their fixed points, and it
computes no conjugacy classes (see :func:`is_simple`).  The centralizer of
a subgroup is a backtrack over the images of its orbit representatives,
pruned down the group's chain (see :func:`centralizer`).  Every entry
point is still gated by an explicit cutoff (default 10^6): exceeding it
raises :class:`ScaleLimitError` rather than returning a wrong or partial
answer.

Every element taken or returned here is a kernel element of
:mod:`edgeprim.perms`, not a ``Permutation``, which is only the boundary
type: one body serves every degree, and up to degree 255 each product is
one ``bytes.translate`` call, which keeps full enumerations of groups like
a 252000-element degree-50 group in the seconds range.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator

from .perms import _cycles, _kernel, _order
from .groups import (
    DEFAULT_ENUMERATION_CUTOFF,
    Group,
    ScaleLimitError,
    _Chain,
    _conjugators,
    is_abelian,
    is_subgroup,
    normal_closure,
    perfect_core,
    same_subgroup,
    trivial_group,
)


def _check_cutoff(group: Group, cutoff: int, what: str) -> None:
    if group.order > cutoff:
        raise ScaleLimitError(
            f"{what} needs element enumeration: order {group.order} exceeds "
            f"cutoff {cutoff}"
        )


def _iter_elements_bytes(group: Group) -> Iterator:
    """All elements as raw kernel elements (``bytes`` up to degree 255,
    image tuples past it), deterministic order."""
    k = _kernel(group.degree)
    mul, table = k.mul, k.table
    levels = [list(trans.values()) for trans in group.transversals] or [[k.identity]]
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
    """N_group(sub), by enumerating the ambient group's elements.

    One chain, bounded by the group's order, grows by each normalizing
    element it does not yet contain; the enumeration stops once the chain
    is the whole group.  The result equals ``build_group`` of sub's
    generators followed by the elements added, in enumeration order.
    """
    if not is_subgroup(group, sub):
        raise ValueError("candidate is not a subgroup")
    _check_cutoff(group, cutoff, "normalizer")
    k = _kernel(group.degree)
    sub_tables = [h for _inverse, h in _conjugators(sub)]
    gens = list(sub.gens)
    chain = _Chain(group.degree, (), gens, group.order)
    for p in _iter_elements_bytes(group):
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
    inverses = group.rebase(reps)._inverse_tables
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
                u_inv = None if orbit_of[b] in used else inverses[i].get(g_inv[b])
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
    k = _kernel(group.degree)
    mul, table = k.mul, k.table
    gen_pairs = _conjugators(group)
    seen: set = set()
    out = []
    for b in _iter_elements_bytes(group):
        if b in seen:
            continue
        cls = {b}
        queue = [b]
        while queue:
            x_table = table(queue.pop())
            for gi, g in gen_pairs:
                y = mul(mul(gi, x_table), g)
                if y not in cls:
                    cls.add(y)
                    queue.append(y)
        seen |= cls
        out.append((b, len(cls)))
    return out


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
    elements h of H_beta.

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
    if _is_prime(order):
        return True
    if is_abelian(group):
        return False
    _check_cutoff(group, cutoff, "simplicity test")
    return all(
        _level_closures_are_whole(group, level)
        for level, trans in enumerate(group.transversals)
        if len(trans) > 1
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
    to = {x: table(t) for x, t in group.transversals[level].items()}
    back = group._inverse_tables[level]
    stab = group.pointwise_stabilizer(group.base[: level + 1])
    home = {}
    cosets = []
    for orbit in stab.orbits():
        beta = orbit[0]
        if beta == b or beta not in to:
            continue
        local = stab.rebase((beta,))
        home.update(
            (y, (u, local._inverse_tables[0][y])) for y, u in local.transversals[0].items()
        )
        stab_beta = local.point_stabilizer(beta)
        commuting = stab_beta.strong_gens
        t = to[beta]
        # u_gamma t_beta for each gamma whose image under t_beta is a
        # point of Fix(H_beta) other than beta.
        starts = [
            table(mul(u, t))
            for gamma, u in local.transversals[0].items()
            if t[gamma] != beta and all(h[t[gamma]] == t[gamma] for h in commuting)
        ]
        if starts:
            cosets.append((stab_beta, starts, list(map(table, commuting))))
    passed: set = set()
    for stab_beta, starts, commuting in cosets:
        for start in starts:
            for h in _iter_elements_bytes(stab_beta):
                c = mul(h, start)
                if c in passed:
                    continue
                c_table = table(c)
                if any(mul(c_table, g) != mul(g, c_table) for g in commuting) or any(
                    c[x] == x for x in to
                ):
                    continue
                if normal_closure(group, [c]).order != order:
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


def _class_closures(group: Group, cutoff: int) -> list[Group]:
    out: list[Group] = []
    identity = _kernel(group.degree).identity
    for rep, _size in conjugacy_classes(group, cutoff):
        if rep == identity:
            continue
        n = normal_closure(group, [rep])
        if not any(same_subgroup(n, seen) for seen in out):
            out.append(n)
    return out


def normal_subgroups(group: Group, bound: int = 10**5) -> list[Group]:
    """All normal subgroups (including the group itself), order ≤ bound scan.

    Every normal subgroup is a join of class closures, so closing the set of
    single-class closures under pairwise join enumerates the whole lattice.
    """
    _check_cutoff(group, bound, "normal subgroup sweep")
    found = _class_closures(group, bound)
    changed = True
    while changed:
        changed = False
        for i in range(len(found)):
            for j in range(i + 1, len(found)):
                gens = found[i].gens + found[j].gens
                join = _Chain(group.degree, (), gens, group.order).suffix_group(gens)
                if not any(same_subgroup(join, seen) for seen in found):
                    found.append(join)
                    changed = True
    found.sort(key=lambda g: g.order)
    return found


def sylow_subgroup(
    group: Group, p: int, cutoff: int = DEFAULT_ENUMERATION_CUTOFF
) -> Group:
    """A Sylow p-subgroup, grown by p-elements of the current normalizer.

    One chain grows by each new p-element; the result equals
    ``build_group`` of those elements in the order they were found.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    _check_cutoff(group, cutoff, "Sylow subgroup search")
    target = _p_part(group.order, p)
    chain = _Chain(group.degree)
    gens = []
    current = trivial_group(group.degree)
    while current.order < target:
        ambient = group if current.is_trivial() else normalizer(group, current, cutoff)
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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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
