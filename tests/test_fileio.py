import json

import pytest

from edgeprim import ScaleLimitError, build_group, from_cycles, heawood, petersen
from edgeprim import fileio
from edgeprim.groups import COSET_INDEX, GRAPH_VERTICES
from edgeprim.fileio import (
    FileFormatError,
    graph_to_text,
    group_to_text,
    parse_graph,
    parse_group,
    read_coset_spec,
    read_graph,
    read_group,
    write_graph,
    write_group,
)


def test_graph_round_trip(tmp_path):
    g = petersen()
    path = tmp_path / "p.graph"
    write_graph(g, path)
    back = read_graph(path)
    assert back.n == g.n and back.edges == g.edges


def test_graph_canonical_text_is_sorted():
    text = graph_to_text(heawood())
    lines = [l for l in text.splitlines() if l.startswith("e ")]
    assert lines == sorted(lines, key=lambda l: tuple(map(int, l.split()[1:])))


def test_graph_parse_errors_carry_line_numbers():
    with pytest.raises(FileFormatError) as exc:
        parse_graph("graph\nn 3\ne 0 0\n", "bad.graph")
    assert exc.value.line == 3 and "loop" in str(exc.value)
    with pytest.raises(FileFormatError) as exc:
        parse_graph("graph\nn 3\ne 0 1\ne 1 0\n", "bad.graph")
    assert exc.value.line == 4 and "duplicate" in str(exc.value)
    with pytest.raises(FileFormatError) as exc:
        parse_graph("graph\nn 2\ne 0 5\n", "bad.graph")
    assert exc.value.line == 3 and "out of range" in str(exc.value)
    with pytest.raises(FileFormatError):
        parse_graph("nope\n")


def test_graph_vertex_cap_is_checked_before_allocation(monkeypatch):
    # Building the graph would allocate one adjacency list per vertex; the
    # cap must refuse the count first.
    def must_not_build(n, edges):
        raise AssertionError(f"build_graph called with n={n}")

    monkeypatch.setattr(fileio, "build_graph", must_not_build)
    with pytest.raises(ScaleLimitError) as exc:
        parse_graph("graph\nn 1000000000\n", "huge.graph")
    e = exc.value
    assert (e.cap, e.value, e.limit) == (GRAPH_VERTICES, 10**9, 10**4)
    assert e.step == "huge.graph:2: graph has 1000000000 vertices"
    assert str(e) == "huge.graph:2: graph has 1000000000 vertices, above the cap of 10000"
    with pytest.raises(ScaleLimitError):
        parse_graph("graph\nn 10001\ne 0 1\n")
    monkeypatch.undo()
    # The cap is the largest graph the package writes (a coset graph of
    # index 10^4), not the automorphism-search cap of 1000.
    assert GRAPH_VERTICES.limit == COSET_INDEX.limit == 10**4
    assert parse_graph("graph\nn 1001\ne 0 1000\n").n == 1001
    assert parse_graph("graph\nn 10000\ne 0 9999\n").n == 10000


def test_group_round_trip(tmp_path):
    g = build_group([from_cycles(5, [(0, 1)]), from_cycles(5, [(0, 1, 2, 3, 4)])])
    path = tmp_path / "s5.group"
    write_group(g, path)
    back = read_group(path)
    assert back.degree == 5 and back.order == 120


def test_group_read_on_a_base_prefix(tmp_path):
    # The chain starts at the given points when all are below the degree;
    # a group read on a graph's first edge is already based there, so the
    # analysis keeps it.  A point beyond the degree leaves the base alone.
    from edgeprim import Analysis, automorphism_group

    text = "group\ndegree 5\ng 1 0 2 3 4\ng 1 2 3 4 0\n"
    assert parse_group(text, base=(3, 1)).base[:2] == (3, 1)
    assert parse_group(text, base=(3, 5)).base == parse_group(text).base
    graph = heawood()
    path = tmp_path / "heawood.group"
    write_group(automorphism_group(graph), path)
    group = read_group(path, graph.edges[0])
    assert group.base[:2] == graph.edges[0]
    assert Analysis(group, graph).group is group


def test_group_canonical_text_sorts_generators():
    g = build_group([from_cycles(3, [(0, 1, 2)]), from_cycles(3, [(0, 1)])])
    lines = [l for l in group_to_text(g).splitlines() if l.startswith("g ")]
    assert lines == sorted(lines)


def test_group_parse_errors():
    with pytest.raises(FileFormatError) as exc:
        parse_group("group\ndegree 3\ng 0 1\n", "bad.group")
    assert exc.value.line == 3
    with pytest.raises(FileFormatError) as exc:
        parse_group("group\ndegree 3\ng 0 0 1\n", "bad.group")
    assert exc.value.line == 3 and "bijection" in str(exc.value)
    with pytest.raises(FileFormatError):
        parse_group("group\ndegree 3\n", "bad.group")


def test_group_degree_cap_is_checked_before_any_generator():
    # A chain costs memory quadratic in the degree, so the degree line is
    # refused before a generator is read, here a malformed one.
    with pytest.raises(ScaleLimitError) as exc:
        parse_group("group\ndegree 10001\ng 0\n", "huge.group")
    e = exc.value
    assert (e.cap, e.value, e.limit) == (GRAPH_VERTICES, 10001, 10**4)
    assert e.step == "huge.group:2: group has degree 10001"
    assert str(e) == "huge.group:2: group has degree 10001, above the cap of 10000"
    identity = " ".join(map(str, range(10**4)))
    assert parse_group(f"group\ndegree 10000\ng {identity}\n").order == 1


def test_coset_spec_reader(tmp_path):
    s4 = build_group([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])
    write_group(s4, tmp_path / "s4.group")
    spec = {
        "group_file": "s4.group",
        "subgroup_generators": [[1, 0, 2, 3], [1, 2, 0, 3]],
        "connector": [0, 1, 3, 2],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    group, sub_gens, connector = read_coset_spec(spec_path)
    assert group.order == 24
    assert len(sub_gens) == 2
    assert connector(2) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(FileFormatError):
        read_coset_spec(bad)


_SPEC_TAIL = '"subgroup_generators": [[1, 0, 2]], "connector": [0, 2, 1]}'

# (reader, file text, line, message): every reader error path, with the
# skipped blank and '#' lines counted in the line numbers.
READER_ERRORS = [
    ("graph", "", 1, "expected 'graph' header"),
    ("graph", "nope\nn 3\n", 1, "expected 'graph' header"),
    ("graph", "graph\nn 3\n\nn 3\n", 4, "duplicate 'n' line"),
    ("graph", "graph\nn three\n", 2, "expected 'n <count>'"),
    ("graph", "graph\nn 3 4\n", 2, "expected 'n <count>'"),
    ("graph", "graph\nn 0\n", 2, "graph needs at least one vertex"),
    ("graph", "graph\n# no size yet\ne 0 1\n", 3, "edge before 'n' line"),
    ("graph", "graph\nn 3\ne 0 1 2\n", 3, "expected 'e <u> <v>'"),
    ("graph", "graph\nn 3\ne 0 x\n", 3, "edge endpoints must be integers"),
    ("graph", "graph\nn 3\nv 0\n", 3, "unknown record 'v'"),
    ("graph", "graph\n\n# only comments\n", 3, "missing 'n' line"),
    ("group", "", 1, "expected 'group' header"),
    ("group", "graph\ndegree 3\n", 1, "expected 'group' header"),
    ("group", "group\ndegree 3\n  # indented comment\ndegree 3\n", 4, "duplicate 'degree' line"),
    ("group", "group\ndegree -3\n", 2, "expected 'degree <n>'"),
    ("group", "group\ndegree 0\n", 2, "degree must be positive"),
    ("group", "group\n\ng 0 1\n", 3, "generator before 'degree' line"),
    ("group", "group\ndegree 2\ng 0 1.0\n", 3, "generator images must be integers"),
    ("group", "group\ndegree 2\ng 0 1 2\n", 3, "generator has 3 images, expected 2"),
    ("group", "group\ndegree 2\nh 1 0\n", 3, "unknown record 'h'"),
    ("group", "group\n# comment\n", 2, "missing 'degree' line"),
    ("group", "group\ndegree 2\n\n", 3, "missing generator lines"),
    ("spec", "{\n", 2, "invalid JSON: Expecting property name enclosed in double quotes"),
    ("spec", "5", 1, "expected a JSON object"),
    ("spec", '["s3.group"]', 1, "expected a JSON object"),
    ("spec", '{"group_file": "s3.group", "connector": [0, 2, 1]}', 1,
     "missing key 'subgroup_generators'"),
    ("spec", '{"group_file": 5, ' + _SPEC_TAIL, 1, "'group_file' must be a string"),
    ("spec", '{"group_file": "s3.group", "subgroup_generators": [[1, 1, 2]], '
     '"connector": [0, 2, 1]}', 1,
     "bad permutation data: images (1, 1, 2) are not a bijection on 0..2"),
    ("spec", '{"group_file": "s3.group", "subgroup_generators": 5, "connector": [0, 2, 1]}', 1,
     "bad permutation data: 'int' object is not iterable"),
    ("spec", '{"group_file": "s3.group", "subgroup_generators": [], "connector": [0, 2, 1]}', 1,
     "'subgroup_generators' is empty"),
    ("spec", '{"group_file": "s3.group", "subgroup_generators": [[1, 0]], "connector": [0, 2, 1]}',
     1, "subgroup generator has degree 2, expected 3"),
    ("spec", '{"group_file": "s3.group", "subgroup_generators": [[1, 0, 2]], "connector": [1, 0]}',
     1, "connector has degree 2, expected 3"),
]


@pytest.mark.parametrize(
    "kind,text,line,message", READER_ERRORS,
    ids=[f"{kind} {i}: {message}" for i, (kind, _, _, message) in enumerate(READER_ERRORS)],
)
def test_reader_errors_name_the_file_and_line(kind, text, line, message, tmp_path):
    (tmp_path / "s3.group").write_text("group\ndegree 3\ng 1 2 0\ng 1 0 2\n")
    path = tmp_path / f"bad.{kind}"
    path.write_text(text)
    read = {"graph": read_graph, "group": read_group, "spec": read_coset_spec}[kind]
    with pytest.raises(FileFormatError) as exc:
        read(path)
    assert str(exc.value) == f"{path}:{line}: {message}"
    assert (exc.value.path, exc.value.line) == (str(path), line)


def test_readers_skip_blank_and_comment_lines(tmp_path):
    graph = parse_graph("graph\n\n# a path\nn 3\n  \ne 0 1\n# middle\ne 1 2\n")
    assert graph.edges == ((0, 1), (1, 2))
    group = parse_group("group\n# S3\n\ndegree 3\ng 1 2 0\n\n# a transposition\ng 1 0 2\n")
    assert group.order == 6
    path = tmp_path / "spec.json"
    (tmp_path / "s3.group").write_text("group\n\n# S3\ndegree 3\ng 1 2 0\ng 1 0 2\n")
    path.write_text('{"group_file": "s3.group", ' + _SPEC_TAIL)
    assert read_coset_spec(path)[0].order == 6
