"""The package's public names: one list, each name importable from the package."""

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
