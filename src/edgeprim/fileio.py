"""Canonical text formats for graphs, groups and coset-graph specs.

Graph files: a ``graph`` header line, ``n <count>``, then one ``e <u> <v>``
line per edge.  Group files: a ``group`` header, ``degree <n>``, then one
``g <img0> <img1> ...`` line per generator.  Canonical writers sort edges
and generators lexicographically, so identical objects always serialize to
identical bytes.  Readers reject malformed input with line-numbered errors.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Sequence

from .perms import Permutation
from .groups import GRAPH_VERTICES, Group, ScaleLimitError, build_group
from .graphs import Graph, build_graph


class FileFormatError(ValueError):
    """Malformed graph/group/spec file; carries the offending line number."""

    def __init__(self, path: str | Path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def graph_to_text(graph: Graph) -> str:
    lines = ["graph", f"n {graph.n}"]
    for u, v in sorted(graph.edges):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def write_graph(graph: Graph, path: str | Path) -> None:
    Path(path).write_text(graph_to_text(graph), encoding="ascii")


def parse_graph(text: str, source: str | Path = "<string>") -> Graph:
    """Parse a graph file; a vertex count above the ``graph-vertices`` cap
    raises :class:`ScaleLimitError` before anything is allocated."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "graph":
        raise FileFormatError(source, 1, "expected 'graph' header")
    n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for num, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise FileFormatError(source, num, "duplicate 'n' line")
            if len(parts) != 2 or not parts[1].isdigit():
                raise FileFormatError(source, num, "expected 'n <count>'")
            n = int(parts[1])
            if n < 1:
                raise FileFormatError(source, num, "graph needs at least one vertex")
            if n > GRAPH_VERTICES.limit:
                raise ScaleLimitError(GRAPH_VERTICES, n, f"{source}:{num}: graph has {n} vertices")
        elif parts[0] == "e":
            if n is None:
                raise FileFormatError(source, num, "edge before 'n' line")
            if len(parts) != 3:
                raise FileFormatError(source, num, "expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise FileFormatError(source, num, "edge endpoints must be integers")
            if not (0 <= u < n and 0 <= v < n):
                raise FileFormatError(
                    source, num, f"edge ({u}, {v}) out of range for n={n}"
                )
            if u == v:
                raise FileFormatError(source, num, f"loop at vertex {u}")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise FileFormatError(source, num, f"duplicate edge ({u}, {v})")
            seen.add(pair)
            edges.append(pair)
        else:
            raise FileFormatError(source, num, f"unknown record {parts[0]!r}")
    if n is None:
        raise FileFormatError(source, len(lines), "missing 'n' line")
    return build_graph(n, edges)


def read_graph(path: str | Path) -> Graph:
    return parse_graph(Path(path).read_text(encoding="ascii"), path)


def group_to_text(group: Group) -> str:
    lines = ["group", f"degree {group.degree}"]
    gen_rows = sorted(g.images for g in group.generators if not g.is_identity())
    if not gen_rows:
        gen_rows = [tuple(range(group.degree))]
    for images in gen_rows:
        lines.append("g " + " ".join(map(str, images)))
    return "\n".join(lines) + "\n"


def write_group(group: Group, path: str | Path) -> None:
    Path(path).write_text(group_to_text(group), encoding="ascii")


def parse_group(
    text: str, source: str | Path = "<string>", base: Sequence[int] = ()
) -> Group:
    """Parse a group file; a degree above the ``graph-vertices`` cap raises
    :class:`ScaleLimitError` before any generator is read.

    The chain's base starts with the points ``base`` when every one is
    below the degree, such as the edge a graph's analysis is based at, so
    that the chain need not be moved there; otherwise they are ignored,
    and a graph the group cannot act on is rejected by the graph's check.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != "group":
        raise FileFormatError(source, 1, "expected 'group' header")
    degree = None
    gens: list[Permutation] = []
    for num, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "degree":
            if degree is not None:
                raise FileFormatError(source, num, "duplicate 'degree' line")
            if len(parts) != 2 or not parts[1].isdigit():
                raise FileFormatError(source, num, "expected 'degree <n>'")
            degree = int(parts[1])
            if degree < 1:
                raise FileFormatError(source, num, "degree must be positive")
            if degree > GRAPH_VERTICES.limit:
                raise ScaleLimitError(
                    GRAPH_VERTICES, degree, f"{source}:{num}: group has degree {degree}"
                )
        elif parts[0] == "g":
            if degree is None:
                raise FileFormatError(source, num, "generator before 'degree' line")
            try:
                images = tuple(int(x) for x in parts[1:])
            except ValueError:
                raise FileFormatError(source, num, "generator images must be integers")
            if len(images) != degree:
                raise FileFormatError(
                    source, num,
                    f"generator has {len(images)} images, expected {degree}",
                )
            try:
                gens.append(Permutation(images))
            except ValueError as exc:
                raise FileFormatError(source, num, str(exc))
        else:
            raise FileFormatError(source, num, f"unknown record {parts[0]!r}")
    if degree is None:
        raise FileFormatError(source, len(lines), "missing 'degree' line")
    if not gens:
        raise FileFormatError(source, len(lines), "missing generator lines")
    return build_group(gens, base if all(p < degree for p in base) else ())


def read_group(path: str | Path, base: Sequence[int] = ()) -> Group:
    return parse_group(Path(path).read_text(encoding="ascii"), path, base)


def sha256_of_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_coset_spec(path: str | Path) -> tuple[Group, list[Permutation], Permutation]:
    """Coset-graph spec: JSON referencing a group file, subgroup generators
    and a connector permutation (both as 0-based image lists)."""
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FileFormatError(path, exc.lineno, f"invalid JSON: {exc.msg}")
    if not isinstance(data, dict):
        raise FileFormatError(path, 1, "expected a JSON object")
    for key in ("group_file", "subgroup_generators", "connector"):
        if key not in data:
            raise FileFormatError(path, 1, f"missing key {key!r}")
    if not isinstance(data["group_file"], str):
        raise FileFormatError(path, 1, "'group_file' must be a string")
    group_path = p.parent / data["group_file"]
    group = read_group(group_path)
    try:
        sub_gens = [Permutation(tuple(images)) for images in data["subgroup_generators"]]
        connector = Permutation(tuple(data["connector"]))
    except (TypeError, ValueError) as exc:
        raise FileFormatError(path, 1, f"bad permutation data: {exc}")
    return group, sub_gens, connector
