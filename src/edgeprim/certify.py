"""Machine-checkable certificates for symmetry properties of graphs.

Every check returns a :class:`Certificate` with a verdict in
{pass, fail, scale-limit, not-applicable} and a flat evidence map of exact
integers and booleans.  Checks read the facts of one :class:`Analysis` of
(group, graph, config), which computes each fact once: re-running a pass
certificate from its recorded inputs reproduces identical evidence bit for
bit.  Hypothesis failures yield not-applicable, never a vacuous pass.
The decorator :func:`_check` is the one place a certificate is issued.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

from . import families, fileio
from .perms import _kernel, _order
from .groups import (
    DEFAULT_ENUMERATION_CUTOFF,
    NORMAL_SWEEP,
    Group,
    ScaleLimitError,
    _Chain,
    is_abelian,
    is_normal,
    is_subgroup,
    perfect_core,
    reduce_generators,
    same_subgroup,
)
from .structure import (
    _iter_elements_bytes,
    _p_part,
    centralizer,
    conjugacy_classes,
    is_cyclic,
    is_p_group,
    is_simple,
    is_soluble,
    normal_subgroups,
    normalizer,
    prime_factors,
    sylow_subgroup,
)
from .actions import (
    block_witness,
    edge_images,
    is_k_transitive,
    is_primitive,
    is_frobenius,
    is_transitive,
    restrict_to_invariant_set,
)
from .graphs import (
    Graph,
    automorphism_group,
    check_preserves_edges,
    is_complete,
    is_complete_bipartite,
    is_connected,
    is_star,
    valency,
)
from .version import CERTIFICATE_SCHEMA_VERSION, TOOL_VERSION

PASS = "pass"
FAIL = "fail"
SCALE_LIMIT = "scale-limit"
NOT_APPLICABLE = "not-applicable"

# The s-arc ladder's top rung: no finite graph of valency at least 3 is
# 8-arc-transitive (Weiss 1981), so a group transitive on 8-arcs fails.
S_ARC_CAP = 8


@dataclass(frozen=True)
class RunConfig:
    enumeration_cutoff: int = DEFAULT_ENUMERATION_CUTOFF
    fixture_dir: Path = Path("fixtures")

    def __post_init__(self) -> None:
        if self.enumeration_cutoff < 10**3:
            raise ValueError("enumeration cutoff must be at least 1000")
        object.__setattr__(self, "fixture_dir", Path(self.fixture_dir))


DEFAULT_CONFIG = RunConfig()


@dataclass
class Certificate:
    check_name: str
    inputs: dict
    verdict: str
    evidence: dict
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json_text(self.to_dict())


def json_text(payload) -> str:
    """The one JSON form of every output: sorted keys, indent 2, a final
    newline, so equal payloads give equal bytes."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class LocalAction(NamedTuple):
    """The stabilizer of a vertex, its image on the neighborhood, and the
    kernel of that action."""

    stabilizer: Group
    image: Group
    kernel: Group


class Analysis:
    """A group acting on a graph (or only on its points, when ``graph`` is
    None) under one run configuration.  A group that does not act on the
    graph by automorphisms is rejected here, with ``ValueError``, for every
    check and every local fact (:meth:`local`, :meth:`arc_kernel`).

    Every fact the checks share is computed on first use and then kept: the
    group on a reduced generating set, the first edge with its setwise and
    pointwise stabilizers, the local action at a vertex, the analysis of
    each normal subgroup on the same graph, and the certificate of each
    graph-level check.  Composite checks read their sub-results here
    instead of recomputing them.  Only subgroups and certificates are kept,
    never element lists.
    """

    def __init__(
        self,
        group: Group,
        graph: Graph | None = None,
        inputs: dict | None = None,
        config: RunConfig = DEFAULT_CONFIG,
    ) -> None:
        if graph is not None:
            check_preserves_edges(graph, group)
            # Every stabilizer of the analysed edge is then a chain read.
            group = group.rebase(graph.edges[0] if graph.edges else ())
        self.group = group
        self.graph = graph
        self.inputs = dict(inputs or {})
        self.config = config
        self._certificates: dict[str, Certificate] = {}
        self._local: dict[int, LocalAction] = {}
        self._normals: dict[Group, Analysis] = {}

    def certificate(self, name: str, verdict: str, evidence: dict) -> Certificate:
        return Certificate(
            check_name=name,
            inputs=dict(self.inputs),
            verdict=verdict,
            evidence=evidence,
            config={
                "enumeration_cutoff": self.config.enumeration_cutoff,
                "s_cap": S_ARC_CAP,
                "schema_version": CERTIFICATE_SCHEMA_VERSION,
                "tool_version": TOOL_VERSION,
            },
        )

    @property
    def edge(self) -> tuple[int, int]:
        return self.graph.edges[0]

    @functools.cached_property
    def reduced(self) -> Group:
        """The group on a small generating set, for steps that loop over
        generators."""
        return reduce_generators(self.group)

    @functools.cached_property
    def edge_stabilizer(self) -> Group:
        return self.group.setwise_stabilizer(self.edge)

    @functools.cached_property
    def arc_stabilizer(self) -> Group:
        return self.group.pointwise_stabilizer(self.edge)

    @functools.cached_property
    def vertex_transitive(self) -> bool:
        return len(self.group.orbit(0)) == self.graph.n

    @property
    def edge_transitive(self) -> bool:
        return self.group.order == self.graph.num_edges * self.edge_stabilizer.order

    @property
    def arc_transitive(self) -> bool:
        return self.group.order == 2 * self.graph.num_edges * self.arc_stabilizer.order

    @property
    def edge_primitive(self) -> bool:
        return is_edge_primitive(self).verdict == PASS

    def local(self, v: int) -> LocalAction:
        """The vertex stabilizer on the neighborhood, with its kernel."""
        if v not in self._local:
            if not 0 <= v < self.graph.n:
                raise ValueError(f"vertex {v} out of range")
            nbrs = self.graph.adjacency[v]
            stab = self.group.point_stabilizer(v)
            image = restrict_to_invariant_set(stab, nbrs)
            kernel = self.group.pointwise_stabilizer((v,) + nbrs)
            if stab.order != image.order * kernel.order:
                raise AssertionError("local action orders are inconsistent")
            self._local[v] = LocalAction(stab, image, kernel)
        return self._local[v]

    def arc_kernel(self, u: int, v: int) -> Group:
        """Elements fixing both neighborhoods of the edge {u, v} pointwise."""
        adjacency = self.graph.adjacency
        if ((u, v) if u < v else (v, u)) not in self.graph.edge_set:
            raise ValueError(f"{{{u}, {v}}} is not an edge")
        return self.group.pointwise_stabilizer(sorted(set(adjacency[u]) | set(adjacency[v])))

    def of_normal(self, normal: Group) -> Analysis:
        """The analysis of a nontrivial normal subgroup on the same graph,
        kept per subgroup object so that the pair checks of one subgroup
        share its normality check and its stabilizers; this analysis itself
        when the subgroup is the whole group."""
        if normal not in self._normals:
            if normal.order == 1:
                raise ValueError("normal subgroup must be nontrivial")
            if not is_subgroup(self.group, normal):
                raise ValueError("candidate is not a subgroup")
            if normal.order == self.group.order:
                # Not kept: an analysis holding itself would outlive its use.
                return self
            if not is_normal(self.group, normal):
                raise ValueError("subgroup is not normal")
            # A subgroup of a checked group of automorphisms needs no check.
            sub = Analysis(normal, None, self.inputs, self.config)
            sub.graph = self.graph
            self._normals[normal] = sub
        return self._normals[normal]


class _Inapplicable(Exception):
    """A hypothesis of a check fails; the message is the gate."""


def _check(name: str):
    """Issue the certificate of the check ``name``: the one place one is
    built.  The decorated body fills an empty evidence map, its last
    argument, and returns its verdict, a bool for pass or fail.  A failed
    hypothesis (:class:`_Inapplicable`) and a refusal at a cap
    (``ScaleLimitError``) become not-applicable and scale-limit, with the
    evidence gathered before them.  A graph-level check, on the analysis
    alone, is computed once per analysis: later calls, including those from
    composite checks, return the same certificate."""

    def decorate(body):
        @functools.wraps(body)
        def check(analysis: Analysis, *normal: Group) -> Certificate:
            if not normal and name in analysis._certificates:
                return analysis._certificates[name]
            evidence: dict = {}
            try:
                verdict = body(analysis, *normal, evidence)
            except _Inapplicable as gate:
                verdict, evidence["violated_hypothesis"] = NOT_APPLICABLE, str(gate)
            except ScaleLimitError as exc:
                verdict, evidence["scale_limit"] = SCALE_LIMIT, str(exc)
            if not isinstance(verdict, str):
                verdict = PASS if verdict else FAIL
            cert = analysis.certificate(name, verdict, evidence)
            if not normal:
                analysis._certificates[name] = cert
            return cert

        del check.__wrapped__  # its signature is the wrapper's, without the evidence map
        return check

    return decorate


# ---------------------------------------------------------------------------
# Graph-level checks


@_check("edge-primitive")
def is_edge_primitive(analysis: Analysis, evidence: dict) -> bool:
    """Primitivity of the edge action, with a block witness on failure,
    from the images on edge indices (edge 0 is the analysed edge) of a
    reduced generating set of the group and of the edge stabilizer's
    generators."""
    group, graph = analysis.group, analysis.graph
    if graph.num_edges == 0:
        raise ValueError("graph has no edges")
    evidence.update(edge_count=graph.num_edges, group_order=group.order)
    if not analysis.edge_transitive:
        raise _Inapplicable("group is not edge-transitive")
    stab = analysis.edge_stabilizer
    evidence["edge_stabilizer_order"] = stab.order
    gens = analysis.reduced.gens
    k = len(gens)
    images = edge_images(graph.edges, gens + stab.gens)
    evidence["edge_action_kernel_order"] = _edge_kernel_order(group, graph, images[:k])
    witness = block_witness(images[:k], images[k:])
    evidence["primitive"] = witness is None
    if witness is None:
        star = is_star(graph)
        evidence["graph_is_star"] = star
        if not star:
            evidence["arc_transitive"] = analysis.arc_transitive
        return True
    evidence["witness_block_size"] = witness.block_size
    evidence["witness_num_blocks"] = witness.num_blocks
    evidence["witness_blocks"] = sorted(
        sorted(list(graph.edges[i]) for i in block) for block in witness.blocks
    )
    return False


def _edge_kernel_order(group: Group, graph: Graph, images: list) -> int:
    """The kernel order of an edge-transitive group's edge action, given
    its generators' images on the edges.

    An element fixing every edge fixes each vertex of valency >= 2, the
    meet of two of its edges, and so each neighbour of one.  If there is
    such a vertex, every edge has one as an end, so the kernel is the
    pointwise stabilizer of the non-isolated vertices.  Otherwise the graph
    is a matching, and the image on its edges is built.
    """
    if all(len(nbrs) < 2 for nbrs in graph.adjacency):
        image = _Chain(graph.num_edges, (), images, group.order).suffix_group(images)
        return group.order // image.order
    covered = [v for v, nbrs in enumerate(graph.adjacency) if nbrs]
    return 1 if len(covered) == graph.n else group.pointwise_stabilizer(covered).order


@_check("s-degree")
def s_transitivity_degree(analysis: Analysis, evidence: dict) -> bool:
    """Largest s <= S_ARC_CAP with the group transitive on s-arcs.

    Transitivity at each s is decided by exact counting: the group is
    transitive on s-arcs iff its order equals the s-arc count times the
    order of one s-arc stabilizer.  The graph is d-regular here, so it has
    n d (d-1)^(s-1) s-arcs: d choices of the first step and d - 1 of each
    later one.  The s-arc read at rung s is the first s + 1 vertices of
    :func:`_least_arc`.  No induced group on arcs is built.
    """
    group, graph = analysis.group, analysis.graph
    evidence["group_order"] = group.order
    d = valency(graph)
    if not is_connected(graph):
        raise _Inapplicable("graph is disconnected")
    if d is None:
        raise _Inapplicable("graph is irregular")
    evidence["valency"] = d
    if d < 3:
        raise _Inapplicable("valency < 3")
    evidence["vertex_transitive"] = analysis.vertex_transitive
    evidence["arc_transitive"] = analysis.arc_transitive

    arc = _least_arc(graph)
    degree = 0
    ladder = []
    for s in range(1, S_ARC_CAP + 1):
        count = graph.n * d * (d - 1) ** (s - 1)
        stab = group.pointwise_stabilizer(tuple(dict.fromkeys(arc[: s + 1])))
        ok = group.order == count * stab.order
        ladder.append(
            {"s": s, "arc_count": count, "stabilizer_order": stab.order, "transitive": ok}
        )
        if not ok:
            break
        degree = s
    evidence["ladder"] = ladder
    evidence["s_degree"] = degree
    if degree >= 2:
        # With d >= 3 every 7-arc extends to an 8-arc, so a group transitive
        # on 8-arcs is transitive on 7-arcs and below: the ladder reached 8
        # exactly when the group is transitive on 8-arcs.
        evidence["probe_s8_transitive"] = degree == 8
        evidence["weiss_cap_ok"] = degree <= 7
    return degree <= 7


def _least_arc(graph: Graph) -> tuple[int, ...]:
    """The lexicographically least S_ARC_CAP-arc of a graph of minimum
    valency at least 2: from the arc (0, first neighbour of 0), each step
    takes the first neighbour that is not the previous vertex, and that
    step never dead-ends."""
    arc = [0, graph.adjacency[0][0]]
    while len(arc) <= S_ARC_CAP:
        prev, last = arc[-2], arc[-1]
        arc.append(next(w for w in graph.adjacency[last] if w != prev))
    return tuple(arc)


@_check("local-structure")
def local_structure(analysis: Analysis, evidence: dict) -> bool:
    """Local action orders, kernels, and the group-extension order identity.

    Evidence at a vertex v with neighbor u: |G_v|, the local image
    |G_v^{nbhd}|, the kernel orders, local primitivity/2-transitivity, the
    prime-power verdict on the two-sided kernel, and the exact identity
    |G_v| = |K_uv| * |K_v on nbhd(u)| * |G_v^{nbhd}|.
    """
    group, graph = analysis.group, analysis.graph
    if graph.num_edges == 0:
        raise ValueError("graph has no edges")
    transitive = evidence["vertex_transitive"] = analysis.vertex_transitive
    reps = [0] if transitive else [o[0] for o in group.orbits()]
    per_vertex = {
        str(v): _local_evidence(analysis, v) for v in reps if graph.adjacency[v]
    }
    if transitive:
        evidence.update(per_vertex["0"])
        return evidence["extension_identity_ok"] and evidence["arc_kernel_is_p_group"]
    evidence["per_vertex"] = per_vertex
    raise _Inapplicable("group is not vertex-transitive")


def _local_evidence(analysis: Analysis, v: int) -> dict:
    graph = analysis.graph
    u = graph.adjacency[v][0]
    local = analysis.local(v)
    stab, image = local.stabilizer, local.image
    kernel_uv = analysis.arc_kernel(u, v)
    kernel_v_on_u = restrict_to_invariant_set(local.kernel, graph.adjacency[u])
    p_group, prime = is_p_group(kernel_uv)
    out: dict = {
        "vertex": v,
        "neighbor": u,
        "order_vertex_stabilizer": stab.order,
        "order_local_image": image.order,
        "order_vertex_kernel": local.kernel.order,
        "order_arc_kernel": kernel_uv.order,
        "order_vertex_kernel_on_other_side": kernel_v_on_u.order,
        "arc_kernel_is_p_group": p_group,
        "arc_kernel_prime": prime,
    }
    if image.degree >= 2 and is_transitive(image):
        primitive, _w = is_primitive(image)
        out["locally_primitive"] = primitive
        out["locally_2_transitive"] = is_k_transitive(image, 2)
    else:
        out["locally_primitive"] = image.degree < 2
        out["locally_2_transitive"] = False
    out["extension_identity_ok"] = (
        stab.order == kernel_uv.order * kernel_v_on_u.order * image.order
    )
    return out


@_check("almost-simple")
def almost_simple_certificate(analysis: Analysis, evidence: dict) -> bool:
    """Simple perfect core with trivial centralizer.

    This certifies T <= G <= Aut(T) for a nonabelian simple T: the perfect
    core is nontrivial, simple, normal, and self-centralizing-up-to-
    triviality, which pins G into the automorphism group of its socle.
    """
    group, cutoff = analysis.group, analysis.config.enumeration_cutoff
    evidence["group_order"] = group.order
    reduced = analysis.reduced
    core = perfect_core(reduced)
    evidence["core_order"] = core.order
    if core.order == 1:
        evidence["core_simple"] = False
        return False
    evidence["core_index"] = group.order // core.order
    evidence["core_simple"] = is_simple(core, cutoff)
    if not evidence["core_simple"]:
        return False
    evidence["core_normal"] = is_normal(reduced, core)
    evidence["centralizer_order"] = centralizer(reduced, core, cutoff).order
    return evidence["core_normal"] and evidence["centralizer_order"] == 1


@_check("main-theorem")
def main_theorem_check(analysis: Analysis, evidence: dict) -> bool | str:
    """Edge-primitive plus 2-arc-transitive forces complete bipartite or
    almost simple; verify whichever branch applies.  A fixture satisfying
    the hypotheses with neither branch is a genuine counterexample and
    yields fail."""
    graph = analysis.graph
    evidence["group_order"] = analysis.group.order
    d = valency(graph)
    if d is None or d < 3 or not is_connected(graph):
        raise _Inapplicable("graph is not connected d-regular with d >= 3")
    evidence["valency"] = d
    evidence["edge_primitive"] = analysis.edge_primitive
    if not evidence["edge_primitive"]:
        raise _Inapplicable("not edge-primitive")
    sd = s_transitivity_degree(analysis)
    degree = sd.evidence.get("s_degree", 0)
    evidence["s_degree"] = degree
    if sd.verdict != PASS or degree < 2:
        raise _Inapplicable("not 2-arc-transitive")
    if is_complete_bipartite(graph):
        evidence["branch"] = "complete-bipartite"
        return True
    asc = almost_simple_certificate(analysis)
    evidence["branch"] = "almost-simple"
    evidence["almost_simple"] = asc.verdict == PASS
    evidence["core_order"] = asc.evidence.get("core_order")
    # almost-simple has no gate: its pass, fail or scale-limit is this one.
    return asc.verdict


@_check("prime-valency")
def prime_valency_check(analysis: Analysis, evidence: dict) -> bool | str:
    """For prime valency: 2-arc-transitive, or the complete-graph branch
    with the projective-linear order and valency > 11."""
    group, graph = analysis.group, analysis.graph
    evidence["group_order"] = group.order
    d = valency(graph)
    evidence["valency"] = d
    if d is None or prime_factors(d) != [d]:
        raise _Inapplicable("valency is not prime")
    evidence["edge_primitive"] = analysis.edge_primitive
    if not evidence["edge_primitive"]:
        raise _Inapplicable("not edge-primitive")
    if is_complete_bipartite(graph):
        raise _Inapplicable("graph is complete bipartite")
    degree = s_transitivity_degree(analysis).evidence.get("s_degree", 0)
    evidence["s_degree"] = degree
    if degree >= 2:
        evidence["branch"] = "2-arc-transitive"
        return True
    evidence["branch"] = "complete-graph"
    complete = is_complete(graph) and graph.n == d + 1
    evidence["graph_is_complete_d_plus_1"] = complete
    expected_order = d * (d * d - 1) // 2
    evidence["order_matches_psl2"] = group.order == expected_order
    evidence["valency_greater_11"] = d > 11
    asc = almost_simple_certificate(analysis)
    if asc.verdict == SCALE_LIMIT:
        return SCALE_LIMIT
    evidence["almost_simple"] = asc.verdict == PASS
    return complete and group.order == expected_order and d > 11 and asc.verdict == PASS


@_check("three-arc")
def three_arc_criterion(analysis: Analysis, evidence: dict) -> bool:
    """For 2-arc-transitive groups with faithful vertex stabilizers:
    3-arc-transitivity holds iff the valency is 7, the vertex stabilizer
    has alternating-7 core, and the edge stabilizer is not symmetric-6.

    Both sides are evaluated independently.  The gate on a trivial vertex
    kernel makes the vertex stabilizer isomorphic to its local image in
    S_d, where the core is taken; a perfect subgroup of S_7 of order 2520
    is exactly A_7, so the core's order is the A_7 witness.
    Whether the edge stabilizer is S_6 is decided exactly by
    :func:`_is_sym6`.
    """
    graph = analysis.graph
    evidence["group_order"] = analysis.group.order
    d = valency(graph)
    evidence["valency"] = d
    if d is None or d < 3 or not is_connected(graph):
        raise _Inapplicable("graph is not connected d-regular with d >= 3")
    sd = s_transitivity_degree(analysis)
    degree = sd.evidence.get("s_degree", 0)
    evidence["s_degree"] = degree
    if sd.verdict != PASS or degree < 2:
        raise _Inapplicable("not 2-arc-transitive")
    local = analysis.local(0)
    evidence["order_vertex_kernel"] = local.kernel.order
    if local.kernel.order != 1:
        raise _Inapplicable("vertex stabilizer is not faithful on the neighborhood")
    left = degree >= 3
    evidence["three_arc_transitive"] = left

    evidence["order_vertex_stabilizer"] = local.stabilizer.order
    core = perfect_core(local.image)
    evidence["order_vertex_stabilizer_core"] = core.order
    edge_stab = analysis.edge_stabilizer
    evidence["order_edge_stabilizer"] = edge_stab.order

    right = False
    if d == 7:
        evidence["vertex_core_matches_alt7"] = core.order == 2520
        if core.order == 2520:
            right = not _is_sym6(edge_stab)
            evidence["edge_stabilizer_differs_from_sym6"] = right
    evidence["right_side"] = right
    evidence["sides_agree"] = left == right
    return left == right


def _is_sym6(group: Group) -> bool:
    """Whether the group is isomorphic to S_6, decided exactly.

    S_6 has the Coxeter presentation of type A_5: involutions s_1..s_5
    with s_i s_(i+1) of order 3 and s_i s_j = s_j s_i for |i - j| > 1
    (Moore 1897; Coxeter & Moser, *Generators and Relations for Discrete
    Groups*, section 6.2).  The search takes s_1 from one representative
    per class of involutions and s_2..s_5 from all involutions.

    A hit is a proof: the s_i generate a quotient of S_6, whose kernel is
    1, A_6 or S_6; the kernel misses the 3-cycle that maps to s_1 s_2, so
    it is trivial, and <s_i> is S_6 of order 720, the whole group.  A miss
    is a proof: an isomorphism sends the Coxeter generators to a solution,
    and conjugating that solution moves s_1 to its class representative,
    so the exhaustive search would have met it.

    Only groups of order 720 are searched, below the smallest allowed
    enumeration cutoff (1000), so no cutoff is taken and nothing raises.
    """
    if group.order != 720:
        return False
    k = _kernel(group.degree)

    def mul(p, q):
        return k.mul(p, k.table(q))

    involutions = [g for g in _iter_elements_bytes(group) if _order(g) == 2]

    def extend(chain: list) -> bool:
        if len(chain) == 5:
            return True
        last = chain[-1]
        return any(
            extend(chain + [s])
            for s in involutions
            if _order(mul(last, s)) == 3
            and all(mul(s, t) == mul(t, s) for t in chain[:-1])
        )

    return any(extend([rep]) for rep, _size in conjugacy_classes(group) if _order(rep) == 2)


# ---------------------------------------------------------------------------
# (group, normal subgroup) checks


@_check("counting")
def counting_identity_check(analysis: Analysis, normal: Group, evidence: dict) -> bool:
    """Exact stabilizer-order identities for a nontrivial normal subgroup
    of an edge-primitive group: 2|N_v| = d|N_edge| in the vertex-transitive
    case, |N_v| = d|N_edge| = d|N_arc| otherwise; and N_v is neither trivial
    nor the whole edge stabilizer."""
    sub = analysis.of_normal(normal)
    evidence.update(group_order=analysis.group.order, normal_order=normal.order)
    if not analysis.edge_primitive:
        raise _Inapplicable("group is not edge-primitive")
    d = valency(analysis.graph)
    evidence["valency"] = d
    n_v = normal.point_stabilizer(sub.edge[1])
    n_uv, n_edge = sub.arc_stabilizer, sub.edge_stabilizer
    evidence["order_Nv"] = n_v.order
    evidence["order_N_arc"] = n_uv.order
    evidence["order_N_edge"] = n_edge.order
    transitive = sub.vertex_transitive
    evidence["normal_vertex_transitive"] = transitive
    if transitive:
        evidence["identity"] = f"2*{n_v.order} == {d}*{n_edge.order}"
        identity_ok = 2 * n_v.order == d * n_edge.order
    else:
        evidence["identity"] = f"{n_v.order} == {d}*{n_edge.order} == {d}*{n_uv.order}"
        identity_ok = n_v.order == d * n_edge.order == d * n_uv.order
    evidence["identity_ok"] = identity_ok
    evidence["Nv_nontrivial"] = n_v.order > 1
    evidence["Nv_differs_from_N_edge"] = not same_subgroup(n_v, n_edge)
    return identity_ok and evidence["Nv_nontrivial"] and evidence["Nv_differs_from_N_edge"]


@_check("selfnorm")
def selfnorm_check(analysis: Analysis, normal: Group, evidence: dict) -> bool:
    """Either the graph is complete bipartite, or the arc stabilizer in the
    normal subgroup is nontrivial and the edge stabilizer self-normalized."""
    sub = analysis.of_normal(normal)
    evidence.update(group_order=analysis.group.order, normal_order=normal.order)
    if not analysis.edge_primitive:
        raise _Inapplicable("group is not edge-primitive")
    if is_complete_bipartite(analysis.graph):
        evidence["branch"] = "complete-bipartite"
        return True
    evidence["branch"] = "self-normalized"
    n_uv, n_edge = sub.arc_stabilizer, sub.edge_stabilizer
    evidence["order_N_arc"] = n_uv.order
    evidence["order_N_edge"] = n_edge.order
    evidence["N_arc_nontrivial"] = n_uv.order > 1
    norm = normalizer(normal, n_edge, analysis.config.enumeration_cutoff)
    evidence["normalizer_order"] = norm.order
    evidence["self_normalized"] = same_subgroup(norm, n_edge)
    return evidence["N_arc_nontrivial"] and evidence["self_normalized"]


@_check("sylow-arc")
def sylow_arc_check(analysis: Analysis, normal: Group, evidence: dict) -> bool:
    """Normal Sylow subgroups of the edge stabilizer are full Sylow
    subgroups of the normal subgroup; the edge stabilizer is nonabelian;
    and an abelian arc stabilizer forces arc-transitivity."""
    sub = analysis.of_normal(normal)
    evidence.update(group_order=analysis.group.order, normal_order=normal.order)
    if not analysis.edge_primitive:
        raise _Inapplicable("group is not edge-primitive")
    if is_complete_bipartite(analysis.graph):
        raise _Inapplicable("graph is complete bipartite")
    n_uv, n_edge = sub.arc_stabilizer, sub.edge_stabilizer
    evidence["order_N_arc"] = n_uv.order
    evidence["order_N_edge"] = n_edge.order
    sylow_rows = []
    all_ok = True
    for p in prime_factors(n_edge.order):
        syl = sylow_subgroup(n_edge, p, analysis.config.enumeration_cutoff)
        normal_in_stab = is_normal(n_edge, syl)
        row = {
            "prime": p,
            "sylow_order": syl.order,
            "normal_in_edge_stabilizer": normal_in_stab,
        }
        if normal_in_stab and syl.order > 1:
            full = _p_part(normal.order, p)
            row["full_sylow_order"] = full
            row["is_full_sylow"] = syl.order == full
            all_ok = all_ok and syl.order == full
        sylow_rows.append(row)
    evidence["sylow_rows"] = sylow_rows
    nonabelian = not is_abelian(n_edge)
    evidence["N_edge_nonabelian"] = nonabelian
    all_ok = all_ok and nonabelian
    arc_abelian = is_abelian(n_uv)
    evidence["N_arc_abelian"] = arc_abelian
    if arc_abelian:
        arc_trans = sub.arc_transitive
        evidence["normal_arc_transitive"] = arc_trans
        all_ok = all_ok and arc_trans
    return all_ok


@_check("affine-normal")
def affine_normal_check(analysis: Analysis, normal: Group, evidence: dict) -> bool:
    """For a 2-transitive affine group: an imprimitive nontrivial normal
    subgroup is a soluble Frobenius group with cyclic point stabilizer.

    The classical statement carries a further alternative (semilinear
    one-dimensional containment, or central stabilizers over non-prime
    fields) whose exact scoping is ambiguous; it is reported as unchecked
    rather than judged.
    """
    group = analysis.group
    analysis.of_normal(normal)  # rejects a trivial or non-normal subgroup
    evidence.update(
        group_order=group.order, normal_order=normal.order, degree=group.degree,
        residual_clause_checked=False,
    )
    if not is_k_transitive(group, 2):
        raise _Inapplicable("group is not 2-transitive")
    # A 2-transitive group is primitive, so its nontrivial normal subgroups are transitive.
    stab = normal.point_stabilizer(0)
    evidence["order_N0"] = stab.order
    if stab.order == 1:
        raise _Inapplicable("normal subgroup is regular")
    primitive, witness = is_primitive(normal)
    evidence["normal_primitive"] = primitive
    if primitive:
        raise _Inapplicable("normal subgroup is primitive")
    evidence["witness_block_size"] = witness.block_size
    evidence["soluble"] = is_soluble(normal)
    evidence["frobenius"] = is_frobenius(normal)
    evidence["stabilizer_cyclic"] = is_cyclic(stab, analysis.config.enumeration_cutoff)
    return evidence["soluble"] and evidence["frobenius"] and evidence["stabilizer_cyclic"]


# ---------------------------------------------------------------------------
# Lemma suite over the shipped fixture manifest

@dataclass(frozen=True)
class SuiteRow:
    fixture: str
    check: str
    subject: str
    certificate: Certificate


SUITE_NAMES = ("counting", "selfnorm", "sylow", "weiss", "affine")


# Fixture name -> (graph builder, or None for a group-only fixture; group
# builder, or None for the graph's full automorphism group).
_FIXTURES = {
    "k5": (lambda: families.complete_graph(5), None),
    "k33": (lambda: families.complete_bipartite(3), None),
    "k8-pgl2-7": (lambda: families.complete_graph(8), lambda: families.pgl2(7)),
    "k14-psl2-13": (lambda: families.complete_graph(14), lambda: families.psl2(13)),
    "heawood": (families.heawood, None),
    "hs": (families.hoffman_singleton, None),
    "agl1-5": (None, lambda: families.agl1(5)),
    "agl1-9": (None, lambda: families.agl1(9)),
    "agammal1-8": (None, lambda: families.agammal1(8)),
}


def _load_fixture(name: str, make_graph, make_group, config: RunConfig) -> tuple:
    """Load or materialize a fixture's files, returning the graph (None for
    a group-only fixture), the acting group, and an inputs descriptor with
    content hashes.  A group file is read on a chain based at the graph's
    first edge, the edge its analysis is based at."""
    config.fixture_dir.mkdir(parents=True, exist_ok=True)
    inputs: dict = {}

    def load(kind: str, read, write, build):
        path = config.fixture_dir / f"{name}.{kind}"
        if path.exists():
            obj = read(path)
        else:
            obj = build()
            write(obj, path)
        inputs[f"{kind}_file"] = path.name
        inputs[f"{kind}_sha256"] = fileio.sha256_of_file(path)
        return obj

    graph = None
    if make_graph is not None:
        graph = load("graph", fileio.read_graph, fileio.write_graph, make_graph)
    edge = graph.edges[0] if graph is not None and graph.edges else ()
    group = load(
        "group", lambda path: fileio.read_group(path, edge), fileio.write_group,
        make_group or (lambda: automorphism_group(graph)),
    )
    return graph, group, inputs


def run_lemma_suite(
    suites: list[str] | None = None, config: RunConfig = DEFAULT_CONFIG
) -> list[SuiteRow]:
    """Run the requested lemma suites over the fixture manifest.

    Fixture files are generated on demand into the configured directory so
    certificates can reference immutable inputs by content hash.  Each
    fixture gets one :class:`Analysis`, so its rows share edge-primitivity
    and the stabilizers of each normal subgroup.  The normal subgroups of
    a group of order at most the ``normal-sweep`` cap are swept on the
    analysis's reduced generating set, which edge-primitivity reads too,
    so the class walk and each subgroup's generators start from few
    generators; the whole group comes back as that reduced group.
    """
    wanted = list(suites) if suites else list(SUITE_NAMES)
    for s in wanted:
        if s not in SUITE_NAMES:
            raise ValueError(f"unknown suite {s!r}; choose from {SUITE_NAMES}")
    # Built per call, not at import, so that a check rebound on this module
    # (a test's patch, a tracer) is the one the suite calls.
    pair_checks = {
        "counting": counting_identity_check,
        "selfnorm": selfnorm_check,
        "sylow": sylow_arc_check,
        "affine": affine_normal_check,
    }
    rows: list[SuiteRow] = []
    for name, (make_graph, make_group) in _FIXTURES.items():
        kinds = ("counting", "selfnorm", "sylow") if make_graph else ("affine",)
        pairs = [s for s in kinds if s in wanted]
        weiss = make_graph is not None and "weiss" in wanted
        if not (pairs or weiss):
            continue
        graph, group, inputs = _load_fixture(name, make_graph, make_group, config)
        analysis = Analysis(group, graph, inputs, config)
        if weiss:
            rows.append(SuiteRow(name, "weiss", "G", s_transitivity_degree(analysis)))
        if not pairs or group.order > NORMAL_SWEEP.limit:
            continue
        for normal in normal_subgroups(analysis.reduced):
            subject = f"N(order={normal.order})"
            for s in pairs:
                rows.append(SuiteRow(name, s, subject, pair_checks[s](analysis, normal)))
    return rows
