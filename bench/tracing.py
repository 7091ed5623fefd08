"""Spans and counters for the traced run, recorded from outside edgeprim.

Wrappers are installed on the names where edgeprim looks its functions up:
module globals (``edgeprim.certify.is_edge_primitive``,
``edgeprim.graphs.build_group``, ...), the ``cli.CHECKS`` table and class
attributes (``Group.pointwise_stabilizer``).  Calls that edgeprim makes to
itself are therefore seen without editing it.  Spans (name, start, end,
parent) and counts are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

from edgeprim import actions, certify, cli, families, fileio, graphs, groups, perms, structure

# Certificate check name -> the certify function that issues it.
CHECK_FUNCTIONS = {
    "edge-primitive": "is_edge_primitive",
    "s-degree": "s_transitivity_degree",
    "local-structure": "local_structure",
    "almost-simple": "almost_simple_certificate",
    "main-theorem": "main_theorem_check",
    "prime-valency": "prime_valency_check",
    "three-arc": "three_arc_criterion",
    "counting": "counting_identity_check",
    "selfnorm": "selfnorm_check",
    "sylow-arc": "sylow_arc_check",
    "affine-normal": "affine_normal_check",
}

STRUCTURE_FUNCTIONS = (
    "is_simple", "centralizer", "normalizer", "conjugacy_classes",
    "normal_subgroups", "sylow_subgroup", "fingerprint",
)

# Span name -> functions it covers, as (owner, attribute).
SPANS = {
    **{f"certify.{check}": [(certify, fn)] for check, fn in CHECK_FUNCTIONS.items()},
    **{f"structure.{fn}": [(structure, fn)] for fn in STRUCTURE_FUNCTIONS},
    "groups.stabilizer": [
        (groups.Group, "point_stabilizer"),
        (groups.Group, "pointwise_stabilizer"),
        (groups.Group, "setwise_stabilizer"),
        (groups, "element_mapping"),
    ],
    "groups.normal_closure": [(groups, "normal_closure")],
    "groups.perfect_core": [(groups, "perfect_core")],
    "groups.reduce_generators": [(groups, "reduce_generators")],
    "actions.induced_action": [
        (actions, "act_on_pairs"),
        (actions, "act_on_2sets"),
        (actions, "act_on_tuples"),
        (actions, "restrict_to_invariant_set"),
    ],
    "actions.is_primitive": [(actions, "is_primitive")],
    "actions.is_k_transitive": [(actions, "is_k_transitive")],
    "graphs.automorphism_group": [(graphs, "automorphism_group")],
    "graphs.s_arcs": [(graphs, "count_s_arcs"), (graphs, "first_s_arc")],
    "families.build": [
        (families, fn)
        for fn in (
            "complete_graph", "complete_bipartite", "cycle_graph", "petersen",
            "heawood", "hoffman_singleton", "pgl2", "psl2", "agl1", "agammal1",
            "coset_graph",
        )
    ],
    "fileio.write": [(fileio, "write_graph"), (fileio, "write_group")],
    "cli": [(cli, "main")],
}
READ_FUNCTIONS = ("read_graph", "read_group", "read_coset_spec", "sha256_of_file")
# Element generators at the bottom of every enumeration; private, so a
# missing one is skipped and its count reads 0.
ELEMENT_GENERATORS = ("_iter_elements_bytes", "_iter_elements_tuples")

COUNT_KEYS = (
    "groups.build_group.gens_sifted",
    "groups.contains.calls",
    "perms.permutations_built",
    "structure.elements_enumerated",
    "fileio.bytes_read",
)

# (metric, unit, better) for every per-layer metric the traced run reports.
LAYER_METRICS = (
    *[
        (f"certify.{check}.{stat}", unit, "lower")
        for check in CHECK_FUNCTIONS
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("span_s", "s"))
    ],
    ("certify.check_calls_per_cert", "ratio", "lower"),
    *[(f"structure.{fn}.self_s", "s", "lower") for fn in STRUCTURE_FUNCTIONS],
    ("structure.elements_enumerated", "count", "lower"),
    ("structure.cutoff_headroom", "ratio", "lower"),
    ("groups.build_group.calls", "count", "lower"),
    ("groups.build_group.gens_sifted", "count", "lower"),
    ("groups.build_group.self_s", "s", "lower"),
    ("groups.stabilizer.calls", "count", "lower"),
    ("groups.stabilizer.self_s", "s", "lower"),
    ("groups.normal_closure.self_s", "s", "lower"),
    ("groups.perfect_core.self_s", "s", "lower"),
    ("groups.reduce_generators.self_s", "s", "lower"),
    ("groups.contains.calls", "count", "lower"),
    ("actions.induced_action.self_s", "s", "lower"),
    ("actions.is_primitive.calls", "count", "lower"),
    ("actions.is_primitive.self_s", "s", "lower"),
    ("actions.is_k_transitive.self_s", "s", "lower"),
    ("graphs.automorphism_group.calls", "count", "lower"),
    ("graphs.automorphism_group.self_s", "s", "lower"),
    ("graphs.s_arcs.self_s", "s", "lower"),
    ("perms.permutations_built", "count", "lower"),
    ("families.build_s", "s", "lower"),
    ("fileio.read_s", "s", "lower"),
    ("fileio.write_s", "s", "lower"),
    ("fileio.bytes_read", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _namespaces() -> list[dict]:
    spaces = [
        vars(module)
        for name, module in sorted(sys.modules.items())
        if name == "edgeprim" or name.startswith("edgeprim.")
    ]
    spaces.append(cli.CHECKS)
    return spaces


class Patches:
    """Rebound names, restorable in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def everywhere(self, original, replacement) -> None:
        """Rebind every edgeprim name and ``cli.CHECKS`` entry bound to ``original``."""
        for space in _namespaces():
            for key, value in list(space.items()):
                if value is original:
                    space[key] = replacement
                    self._undo.append((space, key, original))

    def at(self, space: dict, key: str, replacement) -> None:
        self._undo.append((space, key, space[key]))
        space[key] = replacement

    def attribute(self, owner: type, name: str, replacement) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()


class OpTimer:
    """Times top-level calls through chosen names; nested calls are not ops."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._depth = 0
        self._patches = Patches()

    def wrap(self, fn):
        times = self.times

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(perf_counter() - start)
                self._depth -= 1

        return timed

    def install(self, sites: list[tuple[dict, str]]) -> None:
        for space, key in sites:
            self._patches.at(space, key, self.wrap(space[key]))

    def restore(self) -> None:
        self._patches.restore()


class Tracer:
    """In-memory spans and counts from wrappers on edgeprim's names."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.cutoff_headroom = 0.0
        self._stack: list[int] = []
        self._patches = Patches()

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            index = len(spans)
            spans.append([name, start, start, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _counted_yields(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            yielded = 0
            try:
                for item in fn(*args, **kwargs):
                    yielded += 1
                    yield item
            finally:
                counts["structure.elements_enumerated"] += yielded

        return counted

    def _sifting(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def build(generators, *args, **kwargs):
            gens = list(generators)
            counts["groups.build_group.gens_sifted"] += len(gens)
            return fn(gens, *args, **kwargs)

        return build

    def _reading(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def read(path, *args, **kwargs):
            counts["fileio.bytes_read"] += os.path.getsize(path)
            return fn(path, *args, **kwargs)

        return read

    def _gate(self, fn):
        @functools.wraps(fn)
        def gate(group, cutoff, *args, **kwargs):
            self.cutoff_headroom = max(self.cutoff_headroom, group.order / cutoff)
            return fn(group, cutoff, *args, **kwargs)

        return gate

    def _rebind(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        if isinstance(owner, type):
            self._patches.attribute(owner, attr, make(original))
        else:
            self._patches.everywhere(original, make(original))

    def install(self) -> None:
        for name, targets in SPANS.items():
            for owner, attr in targets:
                self._rebind(owner, attr, lambda fn, name=name: self.span(name, fn))
        self._rebind(
            groups, "build_group",
            lambda fn: self.span("groups.build_group", self._sifting(fn)),
        )
        for attr in READ_FUNCTIONS:
            self._rebind(fileio, attr, lambda fn: self.span("fileio.read", self._reading(fn)))
        for attr in ELEMENT_GENERATORS:
            self._rebind(structure, attr, self._counted_yields)
        self._rebind(structure, "_check_cutoff", self._gate)
        self._rebind(groups.Group, "contains", lambda fn: self._counted("groups.contains.calls", fn))
        self._rebind(
            perms.Permutation, "__post_init__",
            lambda fn: self._counted("perms.permutations_built", fn),
        )

    def restore(self) -> None:
        self._patches.restore()

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: self time (span minus child spans), span time
        (spans not inside a span of the same name) and call count."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        span_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, parent), inner in zip(spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
            calls[name] = calls.get(name, 0) + 1
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                span_s[name] = span_s.get(name, 0.0) + end - start
        return self_s, span_s, calls

    def dump(self, path, header: dict) -> None:
        payload = dict(header)
        payload["counts"] = self.counts
        payload["cutoff_headroom"] = self.cutoff_headroom
        payload["spans"] = self.spans
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh)


def layer_metrics(
    setup: Tracer, passes: Tracer, n_passes: int, n_certs: int, overhead_s: float
) -> dict[str, float]:
    """Per-layer metrics, per pass.  ``families.build_s`` and
    ``fileio.write_s`` are set-up work and come from the traced set-up."""
    self_s, span_s, calls = passes.totals()
    setup_self, _, _ = setup.totals()
    per = 1.0 / n_passes
    out: dict[str, float] = {}
    check_calls = 0
    for check in CHECK_FUNCTIONS:
        key = f"certify.{check}"
        out[f"{key}.calls"] = calls.get(key, 0) * per
        out[f"{key}.self_s"] = self_s.get(key, 0.0) * per
        out[f"{key}.span_s"] = span_s.get(key, 0.0) * per
        check_calls += calls.get(key, 0)
    out["certify.check_calls_per_cert"] = check_calls / n_certs if n_certs else 0.0
    for metric, _unit, _better in LAYER_METRICS:
        if metric in out:
            continue
        stem, _, stat = metric.rpartition(".")
        if metric in passes.counts:
            out[metric] = passes.counts[metric] * per
        elif stat == "self_s":
            out[metric] = self_s.get(stem, 0.0) * per
        elif stat == "calls":
            out[metric] = calls.get(stem, 0) * per
    out["structure.cutoff_headroom"] = passes.cutoff_headroom
    out["families.build_s"] = setup_self.get("families.build", 0.0)
    out["fileio.write_s"] = setup_self.get("fileio.write", 0.0)
    out["fileio.read_s"] = self_s.get("fileio.read", 0.0) * per
    out["trace.overhead_s"] = overhead_s
    return out
