"""Every public name has a caller inside the package.

A name in a module's __all__ that no command, `verify` check or other
library function loads is deleted, not kept for the tests.  The package
sources are parsed, not imported, so a name counts as used only where some
package code loads it, as a bare name or as a module attribute.
"""

import ast
from pathlib import Path

import pennycontact

PACKAGE = Path(pennycontact.__file__).parent


def _public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


def _loaded_names(tree: ast.Module) -> set[str]:
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def test_every_public_name_is_loaded_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    public = {module: _public_names(tree) for module, tree in trees.items()}
    # a parse that found no __all__ would pass vacuously
    assert all(public[module] for module in ("__init__.py", "cli.py", "models.py", "specfun.py"))
    loaded = set().union(*(_loaded_names(tree) for tree in trees.values()))
    unused = [
        f"{module}:{name}"
        for module, names in public.items()
        for name in names
        if name not in loaded
    ]
    assert not unused, f"public names that no package code loads: {unused}"
