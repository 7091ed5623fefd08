"""Every scale cap lives in one table, ``edgeprim.groups.CAPS``.

Each ``ScaleLimitError`` in ``src/edgeprim`` is built from a name of that
table (or from a parameter whose default is one, as in
``structure._check_cutoff``), never from a hand-written message, so the
message, the limit and the registry name of a refusal have one source.
The README's cap table must agree with it.
"""

import ast
from pathlib import Path

import edgeprim
from edgeprim import groups
from edgeprim.groups import CAPS, ENUMERATION

README = Path(__file__).resolve().parents[1] / "README.md"
TABLE_NAMES = {name for name, value in vars(groups).items() if isinstance(value, groups.Cap)}


def _called(func) -> str | None:
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _violations(tree, params=frozenset()):
    """(line, first argument) of each ScaleLimitError(...) not built from
    a table name; ``params`` are the enclosing function's parameters that
    default to one."""
    for node in ast.iter_child_nodes(tree):
        inner = params
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            defaults += zip(args.kwonlyargs, args.kw_defaults)
            inner = frozenset(
                a.arg for a, d in defaults if isinstance(d, ast.Name) and d.id in TABLE_NAMES
            )
        if isinstance(node, ast.Call) and _called(node.func) == "ScaleLimitError":
            first = node.args[0] if node.args else None
            if not (isinstance(first, ast.Name) and first.id in TABLE_NAMES | params):
                yield node.lineno, ast.unparse(first) if first is not None else "(none)"
        yield from _violations(node, inner)


def test_every_refusal_names_a_cap_of_the_table():
    package = Path(edgeprim.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{line}: {first}"
        for path in modules
        for line, first in _violations(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, "ScaleLimitError not built from a table cap:\n" + "\n".join(found)


def test_the_guard_sees_messages_and_unknown_caps():
    source = (
        'raise ScaleLimitError("coset index too large")\n'
        'raise ScaleLimitError(f"order {n} exceeds cutoff")\n'
        "raise ScaleLimitError(SOME_CAP, n, 'step')\n"
        "raise groups.ScaleLimitError(cap, n, 'step')\n"
        "raise ScaleLimitError()\n"
        "raise ScaleLimitError(COSET_INDEX, n, 'coset table')\n"
        "def gate(n, cap=ENUMERATION):\n"
        "    raise ScaleLimitError(cap, n, 'step')\n"
        "def other(n, cap=None):\n"
        "    raise ScaleLimitError(cap, n, 'step')\n"
    )
    found = sorted(_violations(ast.parse(source)))
    assert found == [
        (1, "'coset index too large'"),
        (2, "f'order {n} exceeds cutoff'"),
        (3, "SOME_CAP"),
        (4, "cap"),
        (5, "(none)"),
        (10, "cap"),
    ]


def test_readme_names_every_cap_with_its_limit():
    section = README.read_text().split("## Scale limits", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            name, limit, bounds, flag = (cell.strip() for cell in line.strip("|").split("|"))
            rows[name] = (limit, bounds, flag)
    assert list(rows) == [f"`{cap.name}`" for cap in CAPS]
    for cap in CAPS:
        flag = "`--cutoff`" if cap is ENUMERATION else "none"
        assert rows[f"`{cap.name}`"] == (f"{cap.limit:,}", cap.bounds, flag)
