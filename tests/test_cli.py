import hashlib
import json
from pathlib import Path

import pytest

from edgeprim import ScaleLimitError, build_graph, build_group, from_cycles
from edgeprim.certify import SUITE_NAMES
from edgeprim.cli import build_parser, main
from edgeprim.fileio import read_graph, read_group, write_graph, write_group
from edgeprim.families import complete_bipartite, complete_graph, petersen


def run(argv):
    return main(argv)


def refusal(argv) -> ScaleLimitError:
    """The error behind argv's exit 3, as its command raises it to main."""
    args = build_parser().parse_args(argv)
    with pytest.raises(ScaleLimitError) as exc:
        args.func(args)
    return exc.value


def test_construct_hoffman_singleton(tmp_path, capsys):
    out = tmp_path / "hs.graph"
    assert run(["construct", "--family", "hoffman-singleton", "--out", str(out)]) == 0
    g = read_graph(out)
    assert g.n == 50 and g.num_edges == 175


def test_construct_complete(tmp_path):
    out = tmp_path / "k4.graph"
    assert run(["construct", "--family", "complete:4", "--out", str(out)]) == 0
    assert read_graph(out).num_edges == 6


def test_construct_unknown_family_lists_registry(tmp_path, capsys):
    rc = run(["construct", "--family", "mystery", "--out", str(tmp_path / "x.graph")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "known families" in err and "hoffman-singleton" in err


def test_construct_coset_spec(tmp_path):
    s4 = build_group([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])
    write_group(s4, tmp_path / "s4.group")
    spec = {
        "group_file": "s4.group",
        "subgroup_generators": [[1, 0, 2, 3], [1, 2, 0, 3]],
        "connector": [0, 1, 3, 2],
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "k4.graph"
    assert run(["construct", "--family", f"coset:{tmp_path / 'spec.json'}", "--out", str(out)]) == 0
    graph = read_graph(out)
    assert graph.n == 4 and graph.num_edges == 6
    companion = read_group(tmp_path / "k4.graph.group")
    assert companion.order == 24


def test_analyze_exit_codes(tmp_path, capsys):
    good = tmp_path / "k4.graph"
    write_graph(complete_graph(4), good)
    assert run(["analyze", "--graph", str(good), "--check", "s-degree"]) == 0
    out = capsys.readouterr().out
    assert "s_degree=2" in out

    bad = tmp_path / "pet.graph"
    write_graph(petersen(), bad)
    assert run(["analyze", "--graph", str(bad), "--check", "edge-primitive"]) == 1

    assert run(["analyze", "--graph", str(tmp_path / "nope.graph"), "--check", "s-degree"]) == 2

    broken = tmp_path / "broken.graph"
    broken.write_text("graph\nn 3\ne 0 0\n")
    assert run(["analyze", "--graph", str(broken), "--check", "s-degree"]) == 2

    not_bijective = tmp_path / "bad.group"
    not_bijective.write_text("group\ndegree 4\ng 1 0 2 3\ng 0 0 2 3\n")
    argv = ["analyze", "--graph", str(good), "--group", str(not_bijective), "--check", "s-degree"]
    capsys.readouterr()
    assert run(argv) == 2
    assert "bijection" in capsys.readouterr().err

    assert run(["analyze", "--graph", str(good), "--check", "unknown-check"]) == 2


def test_analyze_oversized_graph_is_a_scale_limit(tmp_path, capsys, monkeypatch):
    from edgeprim import fileio

    def must_not_build(n, edges):
        raise AssertionError(f"build_graph called with n={n}")

    monkeypatch.setattr(fileio, "build_graph", must_not_build)
    huge = tmp_path / "huge.graph"
    huge.write_text("graph\nn 1000000000\n")
    capsys.readouterr()
    argv = ["analyze", "--graph", str(huge), "--check", "s-degree"]
    assert run(argv) == 3
    step = f"{huge}:2: graph has 1000000000 vertices"
    assert capsys.readouterr().err == f"scale limit: {step}, above the cap of 10000\n"
    e = refusal(argv)
    assert (e.cap.name, e.value, e.limit, e.step) == ("graph-vertices", 10**9, 10**4, step)


def test_analyze_reads_a_graph_above_the_search_cap_with_its_group(tmp_path, capsys):
    # Coset graphs reach 10^4 vertices and come with a group file, so a
    # graph past the automorphism-search cap (1000) still analyzes.
    from edgeprim.families import cycle_graph

    n = 1001
    graph, group = tmp_path / "c1001.graph", tmp_path / "d1001.group"
    write_graph(cycle_graph(n), graph)
    rotation = from_cycles(n, [tuple(range(n))])
    reflection = from_cycles(n, [(i, n - i) for i in range(1, (n + 1) // 2)])
    write_group(build_group([rotation, reflection]), group)
    capsys.readouterr()
    argv = ["analyze", "--graph", str(graph), "--group", str(group)]
    assert run(argv + ["--check", "edge-primitive"]) == 1
    assert "edge-primitive: fail" in capsys.readouterr().out
    # Without a group the automorphism search refuses it instead, naming
    # both the cap and the graph's size.
    argv = ["analyze", "--graph", str(graph), "--check", "edge-primitive"]
    assert run(argv) == 3
    assert capsys.readouterr().err == (
        "scale limit: automorphism search capped at 1000 vertices; graph has 1001\n"
    )
    e = refusal(argv)
    assert (e.cap.name, e.value, e.limit, e.step) == (
        "search-vertices", 1001, 1000, "automorphism search"
    )


def test_local_structure_on_edgeless_graph_is_a_usage_error(tmp_path, capsys):
    edgeless = tmp_path / "empty.graph"
    edgeless.write_text("graph\nn 3\n")
    assert run(["analyze", "--graph", str(edgeless), "--check", "local-structure"]) == 2
    assert "graph has no edges" in capsys.readouterr().err


def test_edge_primitive_on_a_single_edge_is_a_usage_error(tmp_path, capsys):
    k2 = tmp_path / "k2.graph"
    k2.write_text("graph\nn 2\ne 0 1\n")
    assert run(["analyze", "--graph", str(k2), "--check", "edge-primitive"]) == 2
    assert capsys.readouterr().err == "error: domain must have at least 2 points\n"


def test_analyze_json_deterministic(tmp_path, capsys):
    path = tmp_path / "hw.graph"
    assert run(["construct", "--family", "heawood", "--out", str(path)]) == 0
    capsys.readouterr()
    assert run(["analyze", "--graph", str(path), "--check", "edge-primitive,s-degree", "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["analyze", "--graph", str(path), "--check", "edge-primitive,s-degree", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert [c["check_name"] for c in payload] == ["edge-primitive", "s-degree"]
    assert payload[0]["verdict"] == "pass"
    assert payload[0]["inputs"]["graph_sha256"]


def test_analyze_with_group_file(tmp_path, capsys):
    from edgeprim import psl2

    graph_path = tmp_path / "k14.graph"
    write_graph(complete_graph(14), graph_path)
    group_path = tmp_path / "psl213.group"
    write_group(psl2(13), group_path)
    rc = run([
        "analyze", "--graph", str(graph_path), "--group", str(group_path),
        "--check", "s-degree,prime-valency", "--json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {c["check_name"]: c for c in payload}
    assert by_name["s-degree"]["evidence"]["s_degree"] == 1
    assert by_name["prime-valency"]["verdict"] == "pass"


def test_analyze_certificate_directory(tmp_path):
    path = tmp_path / "k4.graph"
    write_graph(complete_graph(4), path)
    out_dir = tmp_path / "certs"
    assert run(["analyze", "--graph", str(path), "--check", "s-degree", "--out", str(out_dir)]) == 0
    data = json.loads((out_dir / "s-degree.json").read_text())
    assert data["verdict"] == "pass"
    assert data["config"]["schema_version"] == 1


def test_lemmas_small_suite(tmp_path, capsys):
    rc = run([
        "lemmas", "--suite", "affine", "--fixture-dir", str(tmp_path / "fx"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "agl1-9" in out and "pass" in out


def test_lemmas_unknown_suite(tmp_path, capsys):
    assert run(["lemmas", "--suite", "bogus", "--fixture-dir", str(tmp_path)]) == 2


def test_bad_config_values_exit_usage(tmp_path):
    path = tmp_path / "k4.graph"
    write_graph(complete_graph(4), path)
    assert run(["analyze", "--graph", str(path), "--check", "s-degree", "--cutoff", "10"]) == 2
    # The s-arc ladder's cap is fixed at 8, so there is no option to set it.
    for command in (["analyze", "--graph", str(path), "--check", "s-degree"], ["lemmas"]):
        assert run(command + ["--s-cap", "8"]) == 2


def test_construct_documented_coset_example(tmp_path):
    from pathlib import Path

    spec = Path(__file__).resolve().parent.parent / "docs" / "examples" / "k5-coset.json"
    out = tmp_path / "k5.graph"
    assert run(["construct", "--family", f"coset:{spec}", "--out", str(out)]) == 0
    graph = read_graph(out)
    assert graph.n == 5 and graph.num_edges == 10
    assert read_group(tmp_path / "k5.graph.group").order == 60


def test_analyze_hoffman_singleton_three_checks(tmp_path, capsys):
    graph_path = tmp_path / "hs.graph"
    assert run(["construct", "--family", "hoffman-singleton", "--out", str(graph_path)]) == 0
    capsys.readouterr()
    rc = run([
        "analyze", "--graph", str(graph_path),
        "--check",
        "edge-primitive,s-degree,local-structure,almost-simple,"
        "main-theorem,prime-valency,three-arc",
        "--json",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "934018f8cd131e75f77893d2c8d3785d26ee6e4c6a6a9c4778eb638266f9f0f9"
    )
    payload = json.loads(out)
    by_name = {c["check_name"]: c for c in payload}
    assert by_name["edge-primitive"]["verdict"] == "pass"
    assert by_name["s-degree"]["evidence"]["s_degree"] == 3
    assert by_name["main-theorem"]["verdict"] == "pass"


def test_lemmas_all_suite_has_zero_failures(tmp_path, capsys):
    rc = run(["lemmas", "--suite", "all", "--fixture-dir", str(tmp_path / "fx")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fail" not in out.split("summary:")[1]


def test_group_utility(tmp_path, capsys):
    group_path = tmp_path / "d12.group"
    d12 = build_group([from_cycles(6, [(0, 1, 2, 3, 4, 5)]), from_cycles(6, [(1, 5), (2, 4)])])
    write_group(d12, group_path)
    assert run(["group", "--group", str(group_path), "--orbits", "--blocks"]) == 0
    out = capsys.readouterr().out
    assert "order: 12" in out
    assert "orbit: [0, 1, 2, 3, 4, 5]" in out
    assert "blocks: size" in out


@pytest.mark.parametrize(
    "generators, exit_code, stdout",
    [
        (
            [from_cycles(5, [(0, 1)]), from_cycles(5, [(0, 1, 2, 3, 4)])],
            0,
            "degree: 5\norder: 120\nbase: [0, 1, 2, 3]\n"
            "blocks: primitive (no nontrivial block system)\n",
        ),
        (
            [from_cycles(6, [(0, 1, 2, 3, 4, 5)]), from_cycles(6, [(1, 5), (2, 4)])],
            0,
            "degree: 6\norder: 12\nbase: [1, 0]\nblocks: size 3: [[0, 2, 4], [1, 3, 5]]\n",
        ),
        (
            [from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)])],
            2,
            "degree: 4\norder: 4\nbase: [2, 0]\nblocks: group is intransitive\n",
        ),
    ],
    ids=["S5 primitive", "D12 witness", "intransitive"],
)
def test_group_blocks_output(generators, exit_code, stdout, tmp_path, capsys):
    path = tmp_path / "g.group"
    write_group(build_group(generators), path)
    assert run(["group", "--group", str(path), "--blocks"]) == exit_code
    assert capsys.readouterr().out == stdout


def test_construct_refuses_a_family_above_the_graph_file_cap(tmp_path, capsys):
    # `analyze` refuses a graph file above the graph-vertices cap, so
    # `construct` refuses to write one, before building the graph.
    for family, n in (("cycle:10001", 10001), ("complete-bipartite:5001", 10002)):
        out = tmp_path / "big.graph"
        argv = ["construct", "--family", family, "--out", str(out)]
        assert run(argv) == 3
        step = f"{family}: graph has {n} vertices"
        assert capsys.readouterr().err == f"scale limit: {step}, above the cap of 10000\n"
        e = refusal(argv)
        assert (e.cap.name, e.value, e.limit, e.step) == ("graph-vertices", n, 10**4, step)
        assert not out.exists()
    out = tmp_path / "c10000.graph"
    assert run(["construct", "--family", "cycle:10000", "--out", str(out)]) == 0
    assert read_graph(out).n == 10000


def test_analyze_rejects_an_unknown_check_before_reading_or_searching(
    tmp_path, capsys, monkeypatch
):
    from edgeprim import cli

    path = tmp_path / "matching.graph"
    write_graph(build_graph(120, [(2 * i, 2 * i + 1) for i in range(60)]), path)

    def refuse(*_args, **_kwargs):
        raise AssertionError("called before the check names were validated")

    monkeypatch.setattr(cli, "automorphism_group", refuse)
    monkeypatch.setattr(cli.fileio, "read_graph", refuse)
    rc = run(["analyze", "--graph", str(path), "--check", "edge-primitve"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "unknown checks: edge-primitve\n"
        "known checks: almost-simple, edge-primitive, local-structure, main-theorem, "
        "prime-valency, s-degree, three-arc\n"
    )


@pytest.mark.parametrize(
    "group_lines, exit_code, verdict, evidence",
    [
        # S8 from the automorphism search: edge stabilizer S6 x S2.
        (None, 1, "fail", {"right_side": True, "order_edge_stabilizer": 1440}),
        # A8 = <(0 1 2), (1 2 3 4 5 6 7)>: edge stabilizer (S6 x S2) meet A8,
        # which is isomorphic to S6, so the right side is false like the left.
        (
            "group\ndegree 8\ng 1 2 0 3 4 5 6 7\ng 0 2 3 4 5 6 7 1\n",
            0,
            "pass",
            {
                "edge_stabilizer_differs_from_sym6": False,
                "right_side": False,
                "order_edge_stabilizer": 720,
            },
        ),
    ],
    ids=["S8", "A8"],
)
def test_three_arc_on_k8(group_lines, exit_code, verdict, evidence, tmp_path, capsys):
    graph = tmp_path / "k8.graph"
    assert run(["construct", "--family", "complete:8", "--out", str(graph)]) == 0
    argv = ["analyze", "--graph", str(graph), "--check", "three-arc", "--json"]
    if group_lines is not None:
        group = tmp_path / "a8.group"
        group.write_text(group_lines)
        argv += ["--group", str(group)]
    capsys.readouterr()
    assert run(argv) == exit_code
    [cert] = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == verdict
    assert {k: cert["evidence"][k] for k in evidence} == evidence
    assert cert["evidence"]["s_degree"] == 2
    assert cert["evidence"]["three_arc_transitive"] is False


def test_analyze_rejects_an_empty_check_list_before_reading(tmp_path, capsys, monkeypatch):
    from edgeprim import cli

    def refuse(*_args, **_kwargs):
        raise AssertionError("called before the check names were validated")

    monkeypatch.setattr(cli, "automorphism_group", refuse)
    monkeypatch.setattr(cli.fileio, "read_graph", refuse)
    for checks in (",", "", " , "):
        assert run(["analyze", "--graph", str(tmp_path / "k4.graph"), "--check", checks]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no checks given\n" and captured.out == ""


def test_group_blocks_on_a_single_point_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "one.group"
    path.write_text("group\ndegree 1\ng 0\n")
    assert run(["group", "--group", str(path), "--blocks"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "degree: 1\norder: 1\nbase: []\n"
    assert captured.err == "error: domain must have at least 2 points\n"


def test_group_file_above_the_degree_cap_is_a_scale_limit(tmp_path, capsys):
    path = tmp_path / "big.group"
    path.write_text("group\ndegree 10001\ng 0\n")
    assert run(["group", "--group", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"scale limit: {path}:2: group has degree 10001, above the cap of 10000\n"
    )
    e = refusal(["group", "--group", str(path)])
    assert (e.cap.name, e.value, e.limit, e.step) == (
        "graph-vertices", 10001, 10**4, f"{path}:2: group has degree 10001"
    )


def _usage_error(argv, capsys):
    """Run argv, expect exit 2 and exactly one stderr line, an `error: ` one."""
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_io_and_encoding_errors_are_usage_errors(tmp_path, capsys):
    write_graph(petersen(), tmp_path / "pet.graph")
    (tmp_path / "file").write_text("not a directory\n")
    below_file = str(tmp_path / "file" / "sub")
    non_ascii = tmp_path / "latin1.graph"
    non_ascii.write_bytes("graph\nn 2\n# é\n".encode("latin-1"))
    for argv in (
        ["construct", "--family", f"coset:{tmp_path / 'missing.json'}",
         "--out", str(tmp_path / "x.graph")],
        ["construct", "--family", "petersen", "--out", str(tmp_path / "missing" / "x.graph")],
        ["analyze", "--graph", str(tmp_path / "pet.graph"), "--check", "s-degree",
         "--out", below_file],
        ["lemmas", "--suite", "weiss", "--fixture-dir", below_file],
    ):
        assert "[Errno" in _usage_error(argv, capsys)
    _usage_error(["analyze", "--graph", str(non_ascii), "--check", "s-degree"], capsys)
    _usage_error(["group", "--group", str(non_ascii)], capsys)


A5_ON_FIVE_OF_TEN = "group\ndegree 10\ng 1 2 0 3 4 5 6 7 8 9\ng 1 2 3 4 0 5 6 7 8 9\n"


@pytest.mark.parametrize(
    "graph, group_lines, check, message",
    [
        (petersen(), A5_ON_FIVE_OF_TEN, "almost-simple",
         "a generator of the group is not a graph automorphism"),
        (complete_bipartite(4), "group\ndegree 8\ng 4 1 2 3 0 5 6 7\n", "prime-valency",
         "a generator of the group is not a graph automorphism"),
        (complete_graph(4), "group\ndegree 5\ng 1 2 3 4 0\n", "almost-simple",
         "group degree must equal the vertex count"),
        # The first edge (4, 5) is beyond the group's degree, so the group
        # is read without it as a base prefix, and the graph check rejects it.
        (build_graph(6, [(4, 5)]), "group\ndegree 4\ng 1 0 2 3\n", "edge-primitive",
         "group degree must equal the vertex count"),
    ],
    ids=["Petersen A5", "K44 transposition", "degree 5 on K4", "degree 4 below the edge"],
)
def test_every_check_rejects_a_group_that_does_not_act_on_the_graph(
    graph, group_lines, check, message, tmp_path, capsys
):
    write_graph(graph, tmp_path / "x.graph")
    (tmp_path / "x.group").write_text(group_lines)
    argv = ["analyze", "--graph", str(tmp_path / "x.graph"), "--group",
            str(tmp_path / "x.group"), "--check", check]
    assert _usage_error(argv, capsys) == f"error: {message}\n"


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_each_suite_alone_gives_its_rows_of_the_full_run(suite, tmp_path, capsys):
    golden = json.loads((Path(__file__).parent / "golden" / "lemmas-all.json").read_text())
    argv = ["lemmas", "--suite", suite, "--json", "--fixture-dir", str(tmp_path / "fx")]
    capsys.readouterr()
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out) == [r for r in golden if r["check"] == suite]
