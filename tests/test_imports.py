from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def _used(tree: ast.Module) -> set[str]:
    """Every name and dotted attribute chain the module reads, with the names
    in string annotations and in __all__."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name):
                parts.append(value.id)
                chain = list(reversed(parts))
                used.update(".".join(chain[:k]) for k in range(2, len(chain) + 1))
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign)):
            note = node.returns if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _used(ast.parse(note.value, mode="eval"))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return used


def _imported(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, what must be read) for every import: the bound name, or the
    dotted module path of a plain `import a.b`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    return out


def _names_read(tree: ast.AST) -> list[str]:
    """Every name and attribute the tree reads, once per reading."""
    return [node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for line, name in _imported(tree) if name not in used]
    assert not unused, unused


def test_package_holds_no_dead_definitions():
    """Every module-level function and class of the package is named in
    another package module, used in its own module outside its definition,
    or exported in invsys.__all__; what only the tests call lives in them.
    Every public method of a package class is matched by name: one whose
    name the package reads nowhere outside its own definition is dead."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "invsys").glob("*.py"))}
    used = {module: [_used(ast.Module([stmt], [])) for stmt in tree.body]
            for module, tree in trees.items()}  # __init__ reads the names in __all__
    dead = []
    for module, tree in trees.items():
        elsewhere = set().union(*(u for other, us in used.items() if other != module for u in us))
        for k, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            here = set().union(*(u for j, u in enumerate(used[module]) if j != k))
            qualified = f"{module}.{node.name}"
            if not (node.name in here or node.name in elsewhere
                    or any(u.endswith(qualified) for u in elsewhere)):
                dead.append(qualified)
    read = Counter(name for tree in trees.values() for name in _names_read(tree))
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and read[node.name] == _names_read(node).count(node.name)):
                    dead.append(f"{module}.{cls.name}.{node.name}")
    assert not dead, f"{len(dead)} definitions no package code reaches: {', '.join(dead)}"
