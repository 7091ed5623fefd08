"""The three workloads: seeded inputs, one timed pass, and answer checks.

Every workload is a closed loop with one caller.  ``setup`` makes the
inputs of pass 0 (it is what ``setup_s`` times), ``pass_input(i)`` makes
the inputs of pass ``i`` outside the timed region, ``run_pass`` is the timed
region, and ``check`` compares a pass's answers with answers that
relabelling cannot change.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from math import factorial
from pathlib import Path
from time import perf_counter

from edgeprim import certify, cli, families, fileio, graphs
from edgeprim.graphs import Graph, build_graph
from edgeprim.groups import Group, build_group
from edgeprim.perms import Permutation

from tracing import OpTimer


def relabelling(n: int, rng: random.Random) -> list[int]:
    pi = list(range(n))
    rng.shuffle(pi)
    return pi


def relabel_graph(graph: Graph, pi: list[int]) -> Graph:
    return build_graph(graph.n, [(pi[u], pi[v]) for u, v in graph.edges])


def relabel_group(group: Group, pi: list[int]) -> Group:
    """The group conjugated by pi: each generator g becomes pi(x) -> pi(g(x))."""
    inv = [0] * len(pi)
    for x, y in enumerate(pi):
        inv[y] = x
    return build_group(
        Permutation(tuple(pi[g.images[inv[y]]] for y in range(len(pi))))
        for g in group.generators
    )


class Workload:
    """Shared state and defaults; subclasses set the class attributes."""

    name: str
    tail_percentile: int  # percentile reported as op_s.tail
    min_ops: int  # operations a run makes at least
    certs_per_op: int  # certificates one operation issues

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.timer = OpTimer()
        self._inputs: dict = {}

    def op_sites(self) -> list[tuple[dict, str]]:
        """Names whose top-level calls are the operations, if not timed in run_pass."""
        return []

    def prepare(self) -> None:
        """Work after set-up that is neither set-up nor timed."""

    def finish(self) -> list[str]:
        """Checks that run after every timed pass; problems found."""
        return []


class HsAnalyze(Workload):
    """``edgeprim analyze`` with all seven checks on a relabelled
    Hoffman-Singleton graph, the paper's headline certificate.  One
    operation is one analyze invocation; per-check times come from the
    traced run (``certify.<check>.span_s``)."""

    name = "hs-analyze"
    tail_percentile = 100  # one operation a pass: the slowest invocation
    min_ops = 1
    certs_per_op = 7
    CHECKS = (
        "edge-primitive,s-degree,local-structure,almost-simple,"
        "main-theorem,prime-valency,three-arc"
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._graph: Graph | None = None

    def setup(self) -> None:
        self._graph = families.hoffman_singleton()
        self._inputs = {}
        self.pass_input(0)

    def pass_input(self, i: int) -> Path:
        if i not in self._inputs:
            rng = random.Random(f"hs-analyze/{self.seed}/{i}")
            path = self.workdir / f"hs-{i}.graph"
            fileio.write_graph(relabel_graph(self._graph, relabelling(50, rng)), path)
            self._inputs[i] = path
        return self._inputs[i]

    def op_sites(self) -> list[tuple[dict, str]]:
        return [(vars(cli), "main")]

    def run_pass(self, path: Path) -> tuple[int, str]:
        # One pass stands for one `edgeprim analyze` process, so the
        # reference-fingerprint memo starts empty as it would there.
        memo = getattr(certify, "_reference_fingerprint", None)
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["analyze", "--graph", str(path), "--check", self.CHECKS, "--json"])
        return code, out.getvalue()

    def ops_per_pass(self) -> int:
        return 1

    def check(self, result: tuple[int, str]) -> tuple[int, list[str]]:
        """(failed ops, reasons).  Pins: seven pass verdicts; Aut(HS) of
        order 252000, vertex and edge stabilizers 5040 and 1440, 175 edges,
        exactly 3-arc-transitive with no 8-arc probe, perfect core 126000
        with trivial centralizer."""
        code, text = result
        if code != 0:
            return 1, [f"exit code {code}"]
        try:
            certs = {c["check_name"]: c for c in json.loads(text)}
        except (ValueError, KeyError, TypeError) as exc:
            return 1, [f"unreadable certificates: {exc}"]
        pins = {
            "edge-primitive": {"group_order": 252000, "edge_stabilizer_order": 1440,
                               "edge_count": 175, "primitive": True},
            "s-degree": {"group_order": 252000, "s_degree": 3, "probe_s8_transitive": False},
            "local-structure": {"order_vertex_stabilizer": 5040},
            "almost-simple": {"group_order": 252000, "core_order": 126000,
                              "centralizer_order": 1},
            "main-theorem": {"group_order": 252000, "s_degree": 3, "core_order": 126000},
            "prime-valency": {"group_order": 252000, "s_degree": 3},
            "three-arc": {"order_vertex_stabilizer": 5040, "order_edge_stabilizer": 1440,
                          "three_arc_transitive": True},
        }
        reasons = []
        for check, want in pins.items():
            cert = certs.get(check)
            if cert is None or cert["verdict"] != "pass":
                reasons.append(f"{check}: {cert and cert['verdict']}")
                continue
            wrong = {k: cert["evidence"].get(k) for k, v in want.items()
                     if cert["evidence"].get(k) != v}
            if wrong:
                reasons.append(f"{check}: {wrong}")
        return (1 if reasons else 0), reasons

    def output_text(self, result: tuple[int, str]) -> str:
        return f"exit {result[0]}\n{result[1]}"


# Fixture manifest of `certify.run_lemma_suite`: name -> (graph, group or
# None for the full automorphism group), and the affine group fixtures.
# Builders look `families.*` up at call time, so a traced set-up sees them.
LEMMA_GRAPHS = {
    "k5": (lambda: families.complete_graph(5), None),
    "k33": (lambda: families.complete_bipartite(3), None),
    "k8-pgl2-7": (lambda: families.complete_graph(8), lambda: families.pgl2(7)),
    "k14-psl2-13": (lambda: families.complete_graph(14), lambda: families.psl2(13)),
    "heawood": (lambda: families.heawood(), None),
    "hs": (lambda: families.hoffman_singleton(), None),
}
LEMMA_GROUPS = {
    "agl1-5": lambda: families.agl1(5),
    "agl1-9": lambda: families.agl1(9),
    "agammal1-8": lambda: families.agammal1(8),
}
WEISS_DEGREES = {"k5": 2, "k33": 3, "k8-pgl2-7": 2, "k14-psl2-13": 1, "heawood": 4, "hs": 3}


class LemmaSweep(Workload):
    """``certify.run_lemma_suite`` over all five suites, each pass on its own
    seeded relabelling of the fixture manifest."""

    name = "lemma-sweep"
    tail_percentile = 90
    min_ops = 100  # at least ten certificates beyond the tail percentile
    certs_per_op = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._manifest: tuple[dict, dict] | None = None
        self._reference: Counter | None = None
        self._reference_problems: list[str] = []

    def setup(self) -> None:
        fixtures = {}
        for name, (make_graph, make_group) in LEMMA_GRAPHS.items():
            graph = make_graph()
            group = make_group() if make_group else graphs.automorphism_group(graph)
            fixtures[name] = (graph, group)
        self._manifest = (fixtures, {name: make() for name, make in LEMMA_GROUPS.items()})
        self._inputs = {}
        self.pass_input(0)

    def _write_manifest(self, directory: Path, rng: random.Random | None) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        fixtures, group_fixtures = self._manifest
        for name, (graph, group) in fixtures.items():
            if rng is not None:
                pi = relabelling(graph.n, rng)
                graph, group = relabel_graph(graph, pi), relabel_group(group, pi)
            fileio.write_graph(graph, directory / f"{name}.graph")
            fileio.write_group(group, directory / f"{name}.group")
        for name, group in group_fixtures.items():
            if rng is not None:
                group = relabel_group(group, relabelling(group.degree, rng))
            fileio.write_group(group, directory / f"{name}.group")
        return directory

    def pass_input(self, i: int) -> Path:
        if i not in self._inputs:
            rng = random.Random(f"lemma-sweep/{self.seed}/{i}")
            self._inputs[i] = self._write_manifest(self.workdir / f"pass-{i}", rng)
        return self._inputs[i]

    def op_sites(self) -> list[tuple[dict, str]]:
        names = ("s_transitivity_degree", "counting_identity_check", "selfnorm_check",
                 "sylow_arc_check", "affine_normal_check")
        return [(vars(certify), name) for name in names]

    def run_pass(self, directory: Path) -> list:
        return certify.run_lemma_suite(None, certify.RunConfig(fixture_dir=directory))

    @staticmethod
    def _verdicts(rows) -> Counter:
        return Counter((r.fixture, r.check, r.subject, r.certificate.verdict) for r in rows)

    def prepare(self) -> None:
        """Run the suite once on the manifest as built, outside any timing.
        Its verdict multiset is what every relabelled pass must reproduce."""
        rows = self.run_pass(self._write_manifest(self.workdir / "reference", None))
        self._reference = self._verdicts(rows)
        self._reference_problems = self._pinned_problems(rows)

    @staticmethod
    def _pinned_problems(rows) -> list[str]:
        """Rows with a fail verdict or a Weiss s-degree other than the pinned one."""
        problems = []
        for r in rows:
            degree = r.certificate.evidence.get("s_degree")
            if r.certificate.verdict == "fail":
                problems.append(f"{r.fixture} {r.check} {r.subject}: fail")
            elif r.check == "weiss" and degree != WEISS_DEGREES.get(r.fixture):
                problems.append(f"{r.fixture} weiss: s-degree {degree}")
        return problems

    def ops_per_pass(self) -> int:
        return sum(self._reference.values())

    def output_text(self, rows) -> str:
        return "".join(
            f"{r.fixture} {r.check} {r.subject}\n{r.certificate.to_json()}" for r in rows
        )

    def check(self, rows) -> tuple[int, list[str]]:
        got = self._verdicts(rows)
        missing, extra = self._reference - got, got - self._reference
        reasons = [f"missing {k}" for k in missing] + [f"unexpected {k}" for k in extra]
        pinned = self._pinned_problems(rows)
        failed = max(sum(missing.values()), sum(extra.values())) + len(pinned)
        return min(failed, max(len(rows), self.ops_per_pass())), reasons + pinned

    def finish(self) -> list[str]:
        return [f"reference manifest: {p}" for p in self._reference_problems]


def _matching(m: int) -> Graph:
    return build_graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def _cycles(m: int, k: int) -> Graph:
    return build_graph(
        m * k, [(c * m + i, c * m + (i + 1) % m) for c in range(k) for i in range(m)]
    )


def _complete(n: int) -> Graph:
    return build_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def _complete_bipartite(d: int) -> Graph:
    return build_graph(2 * d, [(i, d + j) for i in range(d) for j in range(d)])


def _paley(q: int) -> Graph:
    squares = {x * x % q for x in range(1, q)}
    return build_graph(q, [(a, b) for a in range(q) for b in range(a + 1, q)
                           if (b - a) % q in squares])


def _random_regular(n: int, d: int, rng: random.Random) -> Graph:
    """Uniform simple d-regular graph by the pairing model with rejection."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(edges) == n * d // 2:
            return build_graph(n, sorted(edges))


def symmetric_graphs() -> list[tuple[str, Graph, int]]:
    """High-symmetry graphs with long bases, each with its closed-form
    automorphism group order."""
    out = [(f"matching-{m}", _matching(m), 2**m * factorial(m)) for m in (8, 12, 16, 20)]
    out += [(f"cycles-{m}x{k}", _cycles(m, k), (2 * m) ** k * factorial(k))
            for m, k in ((5, 4), (6, 5), (7, 6), (4, 8), (8, 4))]
    out += [(f"complete-{n}", _complete(n), factorial(n)) for n in (8, 12, 16, 20)]
    out += [(f"complete-bipartite-{d}", _complete_bipartite(d), 2 * factorial(d) ** 2)
            for d in (5, 7, 8, 10)]
    out += [(f"paley-{q}", _paley(q), q * (q - 1) // 2) for q in (13, 29, 37, 41, 53, 61)]
    return out


CUBIC_SIZES = (50, 70, 90, 110, 130, 150)


def count_automorphisms(graph: Graph) -> int:
    """|Aut(graph)| by networkx VF2++, sharing no code with edgeprim.

    Each vertex is labelled with its distance profile (size of, and edges
    inside, every BFS layer).  Automorphisms preserve the labels, so
    label-preserving self-isomorphisms are exactly the automorphisms; the
    labels only prune the search."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges)
    for v in g:
        layers: dict[int, set] = {}
        for w, d in nx.single_source_shortest_path_length(g, v).items():
            layers.setdefault(d, set()).add(w)
        g.nodes[v]["profile"] = tuple(
            (len(layer), sum(1 for a in layer for b in g[a] if b in layer))
            for _d, layer in sorted(layers.items())
        )
    return sum(1 for _ in nx.vf2pp_all_isomorphisms(g, g, node_label="profile"))


class AutSearch(Workload):
    """``graphs.automorphism_group`` on seeded random cubic graphs (rigid in
    practice, so refinement does the work) and on relabelled high-symmetry
    graphs with long bases (so Schreier-Sims on the found generators does).
    Every pass draws new cubic graphs and new relabellings."""

    name = "aut-search"
    tail_percentile = 90
    min_ops = 100  # at least ten calls beyond the tail percentile
    certs_per_op = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._symmetric: list[tuple[str, Graph, int]] = []
        self._unverified: list[tuple[str, Graph, int]] = []

    def setup(self) -> None:
        self._symmetric = symmetric_graphs()
        self._inputs = {}
        self.pass_input(0)

    def pass_input(self, i: int) -> list[tuple[str, Graph, int | None]]:
        """Pass i's graphs as (label, graph, closed-form order or None)."""
        if i not in self._inputs:
            rng = random.Random(f"aut-search/{self.seed}/{i}")
            cubic = [(f"cubic-{n}", _random_regular(n, 3, rng), None) for n in CUBIC_SIZES]
            self._inputs[i] = cubic + [
                (label, relabel_graph(g, relabelling(g.n, rng)), order)
                for label, g, order in self._symmetric
            ]
        return self._inputs[i]

    def run_pass(self, inputs: list[tuple[str, Graph, int | None]]) -> list:
        results = []
        for label, graph, order in inputs:
            start = perf_counter()
            try:
                group = graphs.automorphism_group(graph)
            except Exception as exc:  # a failed operation, counted by check()
                group = exc
            self.timer.times.append(perf_counter() - start)
            results.append((label, graph, order, group))
        return results

    def ops_per_pass(self) -> int:
        return len(CUBIC_SIZES) + len(self._symmetric)

    def output_text(self, results: list) -> str:
        return "".join(
            fileio.group_to_text(g) if isinstance(g, Group) else f"{g!r}\n"
            for _label, _graph, _order, g in results
        )

    def check(self, results: list) -> tuple[int, list[str]]:
        """Closed-form orders now; random-graph orders are kept for
        ``finish``, which counts them independently after the timed passes."""
        reasons = []
        for label, graph, order, group in results:
            if isinstance(group, Exception):
                reasons.append(f"{label}: {type(group).__name__}: {group}")
            elif order is None:
                self._unverified.append((label, graph, group.order))
            elif group.order != order:
                reasons.append(f"{label}: order {group.order} != {order}")
        return len(reasons), reasons

    def finish(self) -> list[str]:
        counted: dict[int, int] = {}
        reasons = []
        for label, graph, order in self._unverified:
            if id(graph) not in counted:
                counted[id(graph)] = count_automorphisms(graph)
            if order != counted[id(graph)]:
                reasons.append(f"{label}: order {order} != {counted[id(graph)]} (networkx)")
        return reasons


WORKLOADS = {w.name: w for w in (HsAnalyze, LemmaSweep, AutSearch)}
