"""Run one edgeprim benchmark workload and print its metrics.

    python3 bench/run.py --workload hs-analyze --seed 1 --seconds 20 --trace 0

Workloads: hs-analyze, lemma-sweep, aut-search (see bench/README.md).
With ``--trace 0`` the end-to-end metrics are measured with nothing but
per-operation timers installed; with ``--trace 1`` the same passes are run
untraced and then traced, and the per-layer metrics are reported.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a record of
the machine, revision, seed and operation counts.  Spans of a traced run
are written to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import edgeprim.cli; print(time.perf_counter() - start)"
)


def import_edgeprim() -> None:
    """Import edgeprim from this checkout's sources, and from nowhere else."""
    if not (SRC / "edgeprim" / "__init__.py").is_file():
        raise SystemExit(f"bench: edgeprim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import edgeprim.cli  # noqa: F401  (imports every edgeprim module)

    if Path(edgeprim.cli.__file__).resolve().parent != SRC / "edgeprim":
        raise SystemExit(f"bench: imported edgeprim from {edgeprim.cli.__file__}, not {SRC}")


def import_seconds() -> float:
    """Time to import edgeprim in a fresh interpreter, as a user's command pays it."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout)


@dataclass
class Pass:
    wall: float
    cpu: float
    op_times: list[float]
    attempted: int
    failed: int
    output: str | None  # sha256 of the pass's answers as text
    reasons: list[str] = field(default_factory=list)


def cpu_seconds() -> float:
    """User plus system time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_passes(workload, seconds: float, count: int | None = None) -> list[Pass]:
    """Passes until ``seconds`` of timed work and ``min_ops`` operations are
    done, or exactly ``count`` passes.  Pass i always gets input i."""
    workload.timer.install(workload.op_sites())
    try:
        return _passes(workload, seconds, count)
    finally:
        workload.timer.restore()


def _passes(workload, seconds: float, count: int | None) -> list[Pass]:
    passes: list[Pass] = []
    elapsed, ops = 0.0, 0
    while (
        len(passes) < count
        if count is not None
        else elapsed < seconds or ops < workload.min_ops
    ):
        inputs = workload.pass_input(len(passes))
        workload.timer.times.clear()
        cpu0, start = cpu_seconds(), perf_counter()
        try:
            result, error = workload.run_pass(inputs), None
        except Exception:  # the whole pass failed; every operation counts
            result, error = None, traceback.format_exc()
        wall, cpu = perf_counter() - start, cpu_seconds() - cpu0
        op_times = list(workload.timer.times)
        attempted = max(workload.ops_per_pass(), len(op_times))
        if error is None:
            failed, reasons = workload.check(result)
            output = hashlib.sha256(workload.output_text(result).encode()).hexdigest()
        else:
            failed, reasons, output = attempted, [error], None
        passes.append(Pass(wall, cpu, op_times, attempted, failed, output, reasons))
        elapsed += wall
        ops += len(op_times)
    return passes


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def end_to_end(workload, passes: list[Pass], setup_s: float, rss_mb: float) -> dict:
    ops = [t for p in passes for t in p.op_times]
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_s.p50": (statistics.median(ops), "s"),
        "op_s.tail": (percentile(ops, workload.tail_percentile), "s"),
        "setup_s": (setup_s, "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def measure(workload, args) -> tuple[dict, list[Pass], list[str]]:
    """Untraced run: set-up (import in a fresh interpreter, then inputs)
    repeated, then timed passes."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = perf_counter()
        workload.setup()
        setup_times.append(imported + perf_counter() - start)
    workload.prepare()
    passes = run_passes(workload, args.seconds)
    rss_mb = peak_rss_mb()  # before the answer checks, which import networkx
    problems = workload.finish()
    setup_s = statistics.median(setup_times)
    return end_to_end(workload, passes, setup_s, rss_mb), passes, problems


def measure_traced(workload, args) -> tuple[dict, list[Pass], list[str]]:
    """Untraced passes, then the same passes traced; per-layer metrics."""
    from tracing import LAYER_METRICS, Tracer, layer_metrics

    setup_trace = Tracer()
    setup_trace.install()
    workload.setup()
    setup_trace.restore()
    workload.prepare()

    plain = run_passes(workload, args.seconds)
    tracer = Tracer()
    tracer.install()
    traced = run_passes(workload, args.seconds, count=len(plain))
    tracer.restore()

    problems = workload.finish()
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a.output is None or a.output != b.output:
            problems.append(f"pass {i}: traced output differs from untraced output")
    overhead = (
        statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain)
    )
    n_certs = workload.certs_per_op * sum(len(p.op_times) for p in traced)
    values = layer_metrics(setup_trace, tracer, len(traced), n_certs, overhead)
    units = {name: unit for name, unit, _better in LAYER_METRICS}
    WORK.mkdir(exist_ok=True)
    header = {"workload": workload.name, "seed": args.seed, "passes": len(traced)}
    tracer.dump(WORK / f"trace-{workload.name}-seed{args.seed}.json", header)
    setup_trace.dump(WORK / f"trace-{workload.name}-seed{args.seed}-setup.json", header)
    return {name: (values[name], units[name]) for name in units}, plain + traced, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_edgeprim()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, passes, problems = measure_traced(workload, args)
        else:
            metrics, passes, problems = measure(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for i, p in enumerate(passes):
        for reason in p.reasons:
            print(f"pass {i}: {reason}", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    correct = failed == 0 and not problems

    ops = sum(len(p.op_times) for p in passes)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    print(f"{'fail_share':<36} {failed / attempted:>14.6g} share ({failed}/{attempted})")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "passes": len(passes),
        "operations": ops,
        "tail_percentile": workload.tail_percentile,
        "fail_share": failed / attempted,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
