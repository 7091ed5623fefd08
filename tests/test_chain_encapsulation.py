"""Only ``edgeprim.groups`` knows how a stabilizer chain stores and grows its
levels.  Every other module reads a chain through the level reads of
``Group`` (``basic_orbit``, ``representative``, ``inverse_table``,
``representatives``), so a change of storage touches one module.
"""

import ast
from pathlib import Path

import edgeprim

CHAIN_FIELDS = {"transversals", "_inverse_tables", "inverses", "done", "level_of"}
CHAIN_STEPS = {"_install", "_complete"}


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in CHAIN_FIELDS:
            yield node.lineno, f".{node.attr}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in CHAIN_STEPS:
                yield node.lineno, f"{name}()"


def test_only_groups_reads_chain_internals():
    package = Path(edgeprim.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "groups.py")
    assert len(modules) >= 9
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in _violations(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, "chain internals read outside groups.py:\n" + "\n".join(found)


def test_the_guard_sees_reads_and_calls():
    source = "x = group.transversals[0]\nchain._complete(1)\ny = chain.done\n_install(g, 0)\n"
    found = sorted(_violations(ast.parse(source)))
    assert found == [(1, ".transversals"), (2, "_complete()"), (3, ".done"), (4, "_install()")]
