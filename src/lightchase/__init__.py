"""Cylindrical Lights Out: one-pass light chasing and when it wins.

A library and CLI for the k-state Lights Out game on a cylinder (columns
wrap around).  It simulates the one-pass light-chasing strategy exactly,
computes the uniform-start row-state sequence S by recursion and by its
Fibonacci closed form, and decides which board heights are one-pass
solvable via the restricted period alpha(k) of the Fibonacci sequence,
with the simulator and the formulas continuously cross-checked against
each other.
"""

from .engine import (
    Board,
    BoardSpec,
    ChaseTranscript,
    GeometryError,
    chase_row,
    format_grid,
    new_from_grid,
    new_uniform,
    one_pass,
    parse_grid,
    press,
)
from .fib import (
    AlphaResult,
    FibPairState,
    PrimePowerAlpha,
    ScanBoundExceeded,
    alpha_direct,
    alpha_factored,
    alpha_prime_power,
    factorize,
    fib_pair,
    fib_pair_mod,
    is_prime,
    pisano_direct,
    pisano_factored,
)
from .recurrence import (
    ChaseParams,
    ChaseSequence,
    chase_sequence,
    iter_s_mod,
    s_closed,
    s_exact,
    s_mod,
)
from .solvability import (
    SolvabilityReport,
    characterize,
    cross_validate,
    is_one_pass_solvable,
    solvable_classes,
    solvable_rows_up_to,
    sufficient_by_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "Board",
    "BoardSpec",
    "ChaseTranscript",
    "GeometryError",
    "chase_row",
    "format_grid",
    "new_from_grid",
    "new_uniform",
    "one_pass",
    "parse_grid",
    "press",
    "AlphaResult",
    "FibPairState",
    "PrimePowerAlpha",
    "ScanBoundExceeded",
    "alpha_direct",
    "alpha_factored",
    "alpha_prime_power",
    "factorize",
    "fib_pair",
    "fib_pair_mod",
    "is_prime",
    "pisano_direct",
    "pisano_factored",
    "ChaseParams",
    "ChaseSequence",
    "chase_sequence",
    "iter_s_mod",
    "s_closed",
    "s_exact",
    "s_mod",
    "SolvabilityReport",
    "characterize",
    "cross_validate",
    "is_one_pass_solvable",
    "solvable_classes",
    "solvable_rows_up_to",
    "sufficient_by_alpha",
    "__version__",
]
