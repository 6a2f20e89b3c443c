"""The package holds only what the pipeline runs.

The pipeline is the code behind the CLI commands (``src/crackdsm``),
``scripts/`` and the benchmark (``crackbench/``, its own tests excluded).
Every public module-level function or class of ``src/crackdsm``, and every
public method, must be named by an identifier somewhere in that code outside
its own definition.  A name only tests call belongs in a test helper module
such as ``tests/paper.py``.

The check reads identifiers from the syntax tree, so comments, docstrings and
strings do not count.  It cannot see a name that only other dead code calls,
nor tell apart two definitions that share a name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crackdsm"
PIPELINE = (PACKAGE, ROOT / "scripts", ROOT / "crackbench")


def _public_definitions(tree):
    """(label, name, node) for public functions, classes and methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _identifier_uses(tree):
    """(name, line) for every name, attribute and imported name in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def _pipeline_files():
    for top in PIPELINE:
        for path in sorted(top.rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path


def test_every_public_name_is_used_by_the_pipeline():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in _pipeline_files()}
    uses = {}
    for path, tree in trees.items():
        for name, line in _identifier_uses(tree):
            uses.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for label, name, node in _public_definitions(trees[path]):
            outside = [(p, line) for p, line in uses.get(name, [])
                       if p != path or not node.lineno <= line <= node.end_lineno]
            if not outside:
                unused.append(f"{path.stem}.{label}")
    assert unused == [], f"public names no pipeline code uses: {unused}"
