"""The package's modules import each other at module top and without a cycle."""
import ast
import graphlib
from pathlib import Path

import constructa

SRC = Path(constructa.__file__).parent


def test_relative_imports_are_top_level_and_acyclic():
    graph: dict[str, set[str]] = {}
    nested = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        deps = graph.setdefault(path.stem, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                deps.update([node.module] if node.module else [alias.name for alias in node.names])
                if id(node) not in top:
                    nested.append(f"{path.name}:{node.lineno} from .{node.module or ''} import ...")
    assert nested == []
    # raises CycleError naming the modules of a cycle
    tuple(graphlib.TopologicalSorter(graph).static_order())
