"""Pinned certificate bytes.

Each file under ``tests/golden/`` is the exact stdout of one ``edgeprim``
command run on inputs written under fixed file names, so the file names and
content hashes recorded in the certificates are reproducible.  A change to
any certificate byte, verdict or exit code fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgeprim
from edgeprim.cli import main
from edgeprim.families import pgl2, psl2
from edgeprim.fileio import read_group, write_group
from edgeprim.groups import build_group
from edgeprim.perms import Permutation

GOLDEN = Path(__file__).parent / "golden"
ALL_CHECKS = (
    "edge-primitive,s-degree,local-structure,almost-simple,"
    "main-theorem,prime-valency,three-arc"
)

# golden name -> (family, group builder or None for Aut(graph), exit code)
ANALYZE_CASES = {
    "petersen": ("petersen", None, 1),
    "heawood": ("heawood", None, 0),
    "complete-5": ("complete:5", None, 0),
    "complete-bipartite-3": ("complete-bipartite:3", None, 1),
    "complete-8-pgl2-7": ("complete:8", lambda: pgl2(7), 0),
    "complete-14-psl2-13": ("complete:14", lambda: psl2(13), 0),
}

# --cutoff -> exit code for Hoffman-Singleton with all checks: below the
# core's order 126000 `almost-simple` and `main-theorem` are scale-limit,
# and at 200000 the centralizer of the core in Aut(HS) (order 252000) is.
HS_CUTOFFS = {1000: 3, 200000: 3, 10**6: 0}


@pytest.mark.parametrize("name", sorted(ANALYZE_CASES))
def test_analyze_all_checks_matches_golden(name, tmp_path, capsys):
    family, make_group, exit_code = ANALYZE_CASES[name]
    graph_path = tmp_path / f"{name}.graph"
    assert main(["construct", "--family", family, "--out", str(graph_path)]) == 0
    argv = ["analyze", "--graph", str(graph_path), "--check", ALL_CHECKS, "--json"]
    if make_group is not None:
        group_path = tmp_path / f"{name}.group"
        write_group(make_group(), group_path)
        argv += ["--group", str(group_path)]
    capsys.readouterr()
    assert main(argv) == exit_code
    assert capsys.readouterr().out == (GOLDEN / f"analyze-{name}.json").read_text("ascii")


@pytest.mark.parametrize("cutoff", sorted(HS_CUTOFFS))
def test_analyze_hoffman_singleton_matches_golden(cutoff, tmp_path, capsys):
    graph_path = tmp_path / "hoffman-singleton.graph"
    argv = ["construct", "--family", "hoffman-singleton", "--out", str(graph_path)]
    assert main(argv) == 0
    capsys.readouterr()
    argv = ["analyze", "--graph", str(graph_path), "--check", ALL_CHECKS, "--json"]
    assert main(argv + ["--cutoff", str(cutoff)]) == HS_CUTOFFS[cutoff]
    golden = GOLDEN / f"analyze-hoffman-singleton-cutoff-{cutoff}.json"
    assert capsys.readouterr().out == golden.read_text("ascii")


def test_lemmas_all_matches_golden(tmp_path, capsys):
    argv = ["lemmas", "--suite", "all", "--json", "--fixture-dir", str(tmp_path / "fixtures")]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "lemmas-all.json").read_text("ascii")


@pytest.mark.parametrize(
    "commands",
    [
        [
            ["construct", "--family", "hoffman-singleton", "--out", "hs.graph"],
            ["analyze", "--graph", "hs.graph", "--check", ALL_CHECKS, "--json"],
        ],
        [["lemmas", "--suite", "all", "--json", "--fixture-dir", "fixtures"]],
    ],
    ids=["analyze-hs", "lemmas-all"],
)
def test_output_does_not_depend_on_the_hash_seed(commands, tmp_path):
    """The same commands in fresh interpreters with different string hash
    seeds print the same bytes: no set or dict order of strings leaks into
    a certificate."""
    src = str(Path(edgeprim.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("0", "7"):
        cwd = tmp_path / f"seed-{seed}"
        cwd.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        for command in commands:
            done = subprocess.run(
                [sys.executable, "-m", "edgeprim.cli", *command],
                cwd=cwd, env=env, capture_output=True, check=True,
            )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] and outputs[0].startswith(b"[")


def test_lemma_rows_depend_on_the_group_not_its_generators(tmp_path, capsys):
    """The `heawood` and `hs` fixture groups are written from the generators
    the automorphism search finds.  Rewriting them from the chain's strong
    generators (the same group) changes only the recorded input hashes."""
    fixtures = tmp_path / "fixtures"
    argv = ["lemmas", "--suite", "all", "--json", "--fixture-dir", str(fixtures)]

    def rows_without_group_hash():
        capsys.readouterr()
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)
        hashes = [row["certificate"]["inputs"].pop("group_sha256") for row in rows]
        return rows, hashes

    rows, hashes = rows_without_group_hash()
    for name in ("heawood", "hs"):
        path = fixtures / f"{name}.group"
        before = path.read_text("ascii")
        strong = read_group(path).strong_gens
        write_group(build_group(map(Permutation, strong)), path)
        assert path.read_text("ascii") != before
    new_rows, new_hashes = rows_without_group_hash()
    assert new_rows == rows
    changed = [row["fixture"] for row, a, b in zip(rows, hashes, new_hashes) if a != b]
    assert set(changed) == {"heawood", "hs"}
    assert len(changed) == sum(row["fixture"] in ("heawood", "hs") for row in rows)
