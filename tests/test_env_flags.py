"""Guard: the ``FEATGRAPH_*`` variables ``src/`` reads == docs/API.md's table.

A flag that selects between two implementations of one thing is a fork
nobody measures; this test makes adding one a visible, documented act.
It walks every module under ``src/`` for ``os.environ`` / ``os.getenv``
reads (``.get(...)``, ``[...]``, ``in``) whose key is a ``FEATGRAPH_*``
string -- written inline or through a module-level ``NAME = "FEATGRAPH_…"``
constant -- and requires that set to equal the "Environment variables"
table in ``docs/API.md`` in both directions.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SURVIVORS = {"FEATGRAPH_ANALYSIS_STRICT", "FEATGRAPH_NUM_WORKERS",
             "FEATGRAPH_SANITIZE"}


def _is_environ(node) -> bool:
    """``os.environ`` / bare ``environ``."""
    return ((isinstance(node, ast.Attribute) and node.attr == "environ")
            or (isinstance(node, ast.Name) and node.id == "environ"))


def _env_keys(tree):
    """Key expressions of every environment read in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            f = node.func
            if isinstance(f, ast.Attribute) and (
                    (f.attr in ("get", "pop", "setdefault")
                     and _is_environ(f.value)) or f.attr == "getenv"):
                yield node.args[0]
            elif isinstance(f, ast.Name) and f.id == "getenv":
                yield node.args[0]
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            yield node.slice
        elif isinstance(node, ast.Compare) and any(
                _is_environ(c) for c in node.comparators):
            yield node.left


def _flags_read_in_src() -> set:
    trees = [ast.parse(p.read_text(), str(p)) for p in SRC.rglob("*.py")]
    constants = {}
    for tree in trees:
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        constants[target.id] = node.value.value
    found = set()
    for tree in trees:
        for key in _env_keys(tree):
            if isinstance(key, ast.Constant):
                value = key.value
            elif isinstance(key, ast.Name):
                value = constants.get(key.id)
                assert value is not None, (
                    f"environment read through unresolvable name {key.id!r}")
            else:
                raise AssertionError(
                    "environment read with a computed key: "
                    + ast.unparse(key))
            if isinstance(value, str) and value.startswith("FEATGRAPH_"):
                found.add(value)
    return found


def _flags_in_api_table() -> set:
    text = (ROOT / "docs" / "API.md").read_text()
    section = text.split("## Environment variables", 1)[1].split("\n## ")[0]
    return set(re.findall(r"^\| `(FEATGRAPH_[A-Z_]+)` \|", section, re.M))


def test_env_reads_match_the_documented_table():
    read, documented = _flags_read_in_src(), _flags_in_api_table()
    assert read == documented, (
        f"read but undocumented: {sorted(read - documented)}; "
        f"documented but never read: {sorted(documented - read)}")
    assert read == SURVIVORS


def test_scanner_sees_every_read_form():
    src = ('import os\nK = "FEATGRAPH_A"\n'
           'os.environ.get(K)\nos.environ["FEATGRAPH_B"]\n'
           'os.getenv("FEATGRAPH_C")\n"FEATGRAPH_D" in os.environ\n')
    keys = [ast.unparse(k) for k in _env_keys(ast.parse(src))]
    assert sorted(keys) == ["'FEATGRAPH_B'", "'FEATGRAPH_C'",
                            "'FEATGRAPH_D'", "K"]
