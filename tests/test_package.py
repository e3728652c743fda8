"""The package's public names: one list, each name importable from the package;
which package modules each module imports; and what importing the CLI loads."""

import ast
import os
import subprocess
import sys

from pathlib import Path

import lightchase

PUBLIC = {
    # engine
    "Board", "BoardSpec", "ChaseTranscript", "GeometryError", "chase_row", "format_grid",
    "new_from_grid", "new_uniform", "one_pass", "parse_grid", "press",
    # fib
    "AlphaResult", "FibPairState", "PrimePowerAlpha", "ScanBoundExceeded", "alpha_direct",
    "alpha_factored", "alpha_prime_power", "factorize", "fib_pair", "fib_pair_mod", "is_prime",
    "pisano_direct", "pisano_factored",
    # recurrence
    "ChaseParams", "ChaseSequence", "chase_sequence", "iter_s_mod", "s_closed", "s_exact", "s_mod",
    # solvability
    "SolvabilityReport", "characterize", "cross_validate", "is_one_pass_solvable",
    "solvable_classes", "solvable_rows_up_to", "sufficient_by_alpha",
    "__version__",
}


def test_public_names_are_pinned():
    assert len(lightchase.__all__) == len(PUBLIC) == 39
    assert set(lightchase.__all__) == PUBLIC


def test_every_public_name_resolves_on_the_package():
    for name in lightchase.__all__:
        assert getattr(lightchase, name) is not None, name


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter, so that nothing imported by the test run counts;
    # only the modules that `import lightchase.cli` adds are compared.  -S
    # skips site, which on some installs loads struct itself and would hide
    # an import of it by the package.
    code = ("import sys; before = set(sys.modules); import lightchase.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'array', 'struct', '_struct'} & "
            "(set(sys.modules) - before)))")
    root = os.path.dirname(os.path.dirname(lightchase.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []


# The two routes stay apart: fib, the formula route's base, imports no other
# module of the package; the simulator (engine) and the recursion
# (recurrence) build on fib alone, and only solvability and the CLI see both.
PACKAGE_IMPORTS = {
    "__init__": {"engine", "fib", "recurrence", "solvability"},
    "__main__": {"cli"},
    "cli": {"engine", "fib", "recurrence", "solvability"},
    "engine": {"fib"},
    "fib": set(),
    "recurrence": {"fib"},
    "solvability": {"engine", "fib", "recurrence"},
}


def _package_imports(path):
    """The package modules that the module at path imports, relatively or by full name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lightchase."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("lightchase."))
    return found


def test_each_module_imports_exactly_its_pinned_package_modules():
    modules = {path.stem: path for path in Path(lightchase.__file__).parent.glob("*.py")}
    assert set(modules) == set(PACKAGE_IMPORTS)
    for name, path in modules.items():
        assert _package_imports(path) == PACKAGE_IMPORTS[name], name
