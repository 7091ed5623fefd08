"""Only ``certify._check`` issues a certificate.

Every check body fills its evidence and returns a verdict; the decorator
turns a failed hypothesis and a refusal at a cap into their verdicts and
builds the certificate through ``Analysis.certificate``, the one builder of
the config snapshot.  So in ``certify.py`` only ``_check`` calls
``.certificate(`` or catches ``ScaleLimitError``, and ``Certificate(`` is
constructed only in ``Analysis.certificate``.
"""

import ast
from pathlib import Path

from edgeprim import certify


def _called(func) -> str | None:
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _violations(tree, scope=()):
    """(line, what) of each certificate built or refusal caught outside its
    one place; ``scope`` is the names of the enclosing classes and defs."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        in_check = scope[:1] == ("_check",)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "certificate":
                if not in_check:
                    yield node.lineno, ".certificate()"
            if _called(node.func) == "Certificate" and scope != ("Analysis", "certificate"):
                yield node.lineno, "Certificate()"
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            if "ScaleLimitError" in ast.unparse(node.type) and not in_check:
                yield node.lineno, "except ScaleLimitError"
        yield from _violations(node, inner)


def test_only_check_issues_certificates():
    path = Path(certify.__file__)
    tree = ast.parse(path.read_text())
    found = [f"{path.name}:{line}: {what}" for line, what in _violations(tree)]
    assert not found, "certificate issued outside _check:\n" + "\n".join(found)
    for gone in ("not_applicable", "scale_limit"):
        assert not hasattr(certify.Analysis, gone)
    assert not hasattr(certify, "_once")


def test_the_guard_sees_each_kind_of_violation():
    source = (
        "def _check(name):\n"
        "    def decorate(body):\n"
        "        def check(analysis):\n"
        "            try:\n"
        "                pass\n"
        "            except ScaleLimitError:\n"
        "                pass\n"
        "            return analysis.certificate(name, 'pass', {})\n"
        "class Analysis:\n"
        "    def certificate(self, name, verdict, evidence):\n"
        "        return Certificate(name, {}, verdict, evidence)\n"
        "def is_edge_primitive(analysis, evidence):\n"
        "    return analysis.certificate('edge-primitive', 'pass', evidence)\n"
        "def selfnorm_check(analysis, normal, evidence):\n"
        "    try:\n"
        "        pass\n"
        "    except (ValueError, groups.ScaleLimitError) as exc:\n"
        "        return Certificate('selfnorm', {}, 'scale-limit', evidence)\n"
        "class Other:\n"
        "    def certificate(self):\n"
        "        return certify.Certificate('x', {}, 'pass', {})\n"
    )
    found = sorted(_violations(ast.parse(source)))
    assert found == [
        (13, ".certificate()"),
        (17, "except ScaleLimitError"),
        (18, "Certificate()"),
        (21, "Certificate()"),
    ]
