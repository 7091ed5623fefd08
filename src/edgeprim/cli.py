"""Command-line front end.

Commands: ``construct`` (write canonical fixture files), ``analyze`` (run
graph-level checks and emit certificates), ``lemmas`` (run the lemma suite
over the fixture manifest), ``group`` (order/orbits/blocks utility).

Exit codes: 0 success (pass or not-applicable verdicts only), 1 check
failure, 2 usage error, 3 scale limit.  Usage errors are bad options,
unreadable, malformed or non-ASCII files, unwritable outputs, and a group
that does not act on the graph by automorphisms, which every check rejects.
:func:`main` maps exceptions to exit codes for every command.  JSON output
is byte-identical across runs with the same configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import fileio
from .groups import DEFAULT_ENUMERATION_CUTOFF, GRAPH_VERTICES, Group, ScaleLimitError
from .graphs import Graph, automorphism_group
from .actions import is_primitive, is_transitive
from .families import (
    CosetGraphSpec,
    build_group,
    complete_bipartite,
    complete_graph,
    coset_graph,
    cycle_graph,
    heawood,
    hoffman_singleton,
    petersen,
)
from .certify import (
    FAIL,
    NOT_APPLICABLE,
    SCALE_LIMIT,
    Analysis,
    Certificate,
    RunConfig,
    SUITE_NAMES,
    is_edge_primitive,
    json_text,
    local_structure,
    main_theorem_check,
    almost_simple_certificate,
    prime_valency_check,
    run_lemma_suite,
    s_transitivity_degree,
    three_arc_criterion,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SCALE_LIMIT = 3

SIMPLE_FAMILIES = {
    "petersen": petersen,
    "heawood": heawood,
    "hoffman-singleton": hoffman_singleton,
}

# kind -> (builder, usage, vertices per unit of the parameter)
PARAMETRIC_FAMILIES = {
    "complete": (complete_graph, "complete:<n>", 1),
    "complete-bipartite": (complete_bipartite, "complete-bipartite:<d>", 2),
    "cycle": (cycle_graph, "cycle:<n>", 1),
}

CHECKS = {
    "edge-primitive": is_edge_primitive,
    "s-degree": s_transitivity_degree,
    "local-structure": local_structure,
    "almost-simple": almost_simple_certificate,
    "main-theorem": main_theorem_check,
    "prime-valency": prime_valency_check,
    "three-arc": three_arc_criterion,
}


def _family_registry_text() -> str:
    names = sorted(SIMPLE_FAMILIES) + [
        spec for _fn, spec, _per in PARAMETRIC_FAMILIES.values()
    ] + ["coset:<specfile>"]
    return "known families: " + ", ".join(sorted(names))


def _build_family(family: str) -> tuple[Graph, Group | None]:
    if family in SIMPLE_FAMILIES:
        return SIMPLE_FAMILIES[family](), None
    if ":" in family:
        kind, arg = family.split(":", 1)
        if kind in PARAMETRIC_FAMILIES:
            fn, spec, per = PARAMETRIC_FAMILIES[kind]
            if not arg.isdigit():
                raise ValueError(f"expected an integer parameter in {spec!r}")
            # Checked before building, so that no file is written that
            # `analyze` would refuse.
            n = per * int(arg)
            if n > GRAPH_VERTICES.limit:
                raise ScaleLimitError(GRAPH_VERTICES, n, f"{family}: graph has {n} vertices")
            return fn(int(arg)), None
        if kind == "coset":
            group, sub_gens, connector = fileio.read_coset_spec(arg)
            sub = build_group(sub_gens)
            return coset_graph(CosetGraphSpec(group=group, subgroup=sub, connector=connector))
    raise KeyError(family)


def cmd_construct(args: argparse.Namespace) -> int:
    try:
        graph, companion = _build_family(args.family)
    except KeyError:
        print(f"unknown family {args.family!r}", file=sys.stderr)
        print(_family_registry_text(), file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    fileio.write_graph(graph, out)
    print(f"wrote {out} (n={graph.n}, edges={graph.num_edges})")
    if companion is not None:
        group_out = out.with_suffix(out.suffix + ".group")
        fileio.write_group(companion, group_out)
        print(f"wrote {group_out} (degree={companion.degree}, order={companion.order})")
    return EXIT_OK


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        enumeration_cutoff=args.cutoff,
        fixture_dir=Path(getattr(args, "fixture_dir", "fixtures")),
    )


def _emit_certificates(
    certs: list[Certificate], args: argparse.Namespace
) -> None:
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for cert in certs:
            (out_dir / f"{cert.check_name}.json").write_text(
                cert.to_json(), encoding="ascii"
            )
    elif args.json:
        sys.stdout.write(json_text([c.to_dict() for c in certs]))
    else:
        for cert in certs:
            summary = ", ".join(
                f"{k}={v}" for k, v in sorted(cert.evidence.items())
                if isinstance(v, (int, bool, str)) and k != "violated_hypothesis"
            )
            print(f"{cert.check_name}: {cert.verdict}  [{summary}]")
            if cert.verdict == NOT_APPLICABLE:
                print(f"  gate: {cert.evidence.get('violated_hypothesis')}")


def _verdict_exit(verdicts: list[str]) -> int:
    if SCALE_LIMIT in verdicts:
        return EXIT_SCALE_LIMIT
    if FAIL in verdicts:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    check_names = [c.strip() for c in args.check.split(",") if c.strip()]
    if not check_names:
        print("error: no checks given", file=sys.stderr)
        return EXIT_USAGE
    unknown = [c for c in check_names if c not in CHECKS]
    if unknown:
        print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
        print("known checks: " + ", ".join(sorted(CHECKS)), file=sys.stderr)
        return EXIT_USAGE
    graph = fileio.read_graph(args.graph)
    inputs = {
        "graph_file": Path(args.graph).name,
        "graph_sha256": fileio.sha256_of_file(args.graph),
    }
    if args.group:
        # Read on the analysed edge, where the analysis bases its chain.
        group = fileio.read_group(args.group, graph.edges[0] if graph.edges else ())
        inputs["group_file"] = Path(args.group).name
        inputs["group_sha256"] = fileio.sha256_of_file(args.group)
    else:
        group = automorphism_group(graph)
        inputs["group_file"] = None
        inputs["group_source"] = "automorphism-group"
    analysis = Analysis(group, graph, inputs, config)
    certs = [CHECKS[name](analysis) for name in check_names]
    _emit_certificates(certs, args)
    return _verdict_exit([c.verdict for c in certs])


def cmd_lemmas(args: argparse.Namespace) -> int:
    suites = None if args.suite == "all" else [s.strip() for s in args.suite.split(",")]
    rows = run_lemma_suite(suites, _config_from_args(args))
    if args.json:
        sys.stdout.write(json_text([asdict(r) for r in rows]))
    else:
        width = max((len(r.fixture) for r in rows), default=8)
        for r in rows:
            print(
                f"{r.fixture:<{width}}  {r.check:<10} {r.subject:<16} "
                f"{r.certificate.verdict}"
            )
        counts: dict[str, int] = {}
        for r in rows:
            counts[r.certificate.verdict] = counts.get(r.certificate.verdict, 0) + 1
        print("summary: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return _verdict_exit([r.certificate.verdict for r in rows])


def cmd_group(args: argparse.Namespace) -> int:
    group = fileio.read_group(args.group)
    print(f"degree: {group.degree}")
    print(f"order: {group.order}")
    print(f"base: {list(group.base)}")
    if args.orbits:
        for orbit in group.orbits():
            print(f"orbit: {list(orbit)}")
    if args.blocks:
        if not is_transitive(group):
            print("blocks: group is intransitive")
            return EXIT_USAGE
        primitive, witness = is_primitive(group)
        if primitive:
            print("blocks: primitive (no nontrivial block system)")
        else:
            cells = [list(b) for b in witness.blocks]
            print(f"blocks: size {witness.block_size}: {cells}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeprim",
        description="Construct graph/group fixtures and certify their symmetry properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="write a named family to a graph file")
    p_construct.add_argument("--family", required=True, help=_family_registry_text())
    p_construct.add_argument("--out", required=True, help="output graph file path")
    p_construct.set_defaults(func=cmd_construct)

    p_analyze = sub.add_parser("analyze", help="run checks on a graph (+ optional group) file")
    p_analyze.add_argument("--graph", required=True)
    p_analyze.add_argument("--group", help="group file; defaults to the full automorphism group")
    p_analyze.add_argument("--check", required=True, help="comma-separated check names")
    p_analyze.add_argument("--cutoff", type=int, default=DEFAULT_ENUMERATION_CUTOFF)
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.add_argument("--out", help="directory for per-check certificate files")
    p_analyze.set_defaults(func=cmd_analyze)

    p_lemmas = sub.add_parser("lemmas", help="run the lemma suite over the fixture manifest")
    p_lemmas.add_argument(
        "--suite", default="all",
        help=f"'all' or comma-separated from {', '.join(SUITE_NAMES)}",
    )
    p_lemmas.add_argument("--fixture-dir", default="fixtures", dest="fixture_dir")
    p_lemmas.add_argument("--cutoff", type=int, default=DEFAULT_ENUMERATION_CUTOFF)
    p_lemmas.add_argument("--json", action="store_true")
    p_lemmas.set_defaults(func=cmd_lemmas)

    p_group = sub.add_parser("group", help="order/orbits/blocks utility for a group file")
    p_group.add_argument("--group", required=True)
    p_group.add_argument("--orbits", action="store_true")
    p_group.add_argument("--blocks", action="store_true")
    p_group.set_defaults(func=cmd_group)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # The one place an exception becomes an exit code, for every command.
    try:
        return args.func(args)
    except ScaleLimitError as exc:
        print(f"scale limit: {exc}", file=sys.stderr)
        return EXIT_SCALE_LIMIT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
