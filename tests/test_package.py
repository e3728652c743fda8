"""The package's public names: one list, each name importable from the package; and
what importing the CLI loads."""

import os
import subprocess
import sys

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
    # only the modules that `import lightchase.cli` adds are compared.
    code = ("import sys; before = set(sys.modules); import lightchase.cli; "
            "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    root = os.path.dirname(os.path.dirname(lightchase.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
