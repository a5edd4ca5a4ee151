"""Packaging guards: the library imports nothing outside the standard
library, and a model that takes a library reads its technology there."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "smemsynth"


def test_imports_are_stdlib_or_relative():
    """Every import in src/smemsynth/*.py is relative or names a standard
    library module, as pyproject's empty `dependencies` promises."""
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {n}" for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_no_tech_beside_lib():
    """No function in src/smemsynth/*.py takes both `lib` and `tech`: a
    Library carries its TechParams, so a second one could only mix two
    technologies in one evaluation."""
    both = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                if {"lib", "tech"} <= names:
                    both.append(f"{path.name}:{node.lineno}: "
                                f"{getattr(node, 'name', 'lambda')}")
    assert both == []
