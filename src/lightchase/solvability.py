"""One-pass solvability of the uniform-start cylindrical game.

A game with `rows` rows and k light states is one-pass solvable exactly
when S(rows) = 0 (mod k).  Because the Fibonacci pair (F(i), F(i+1)) mod k
repeats with the Pisano period pi(k), so does S, and solvability depends
only on rows mod pi(k).  The restricted period alpha(k) pins down two
classes that are solvable for every start offset, rows = 0 or -1 mod
alpha(k); when k is prime those are the only solvable classes, while
composite k can pick up extra ones through zero divisors (e.g. k = 6,
q = 3, rows = 6).

is_one_pass_solvable evaluates S(rows) by its closed form, in O(log rows)
steps.  sufficient_by_alpha and characterize take alpha(k) and pi(k) from
the factorization of k; characterize then settles the question for any k
by enumerating S over one period.  cross_validate keeps the step-by-step
recursion s_mod, since it is the oracle the simulation is held against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import BoardSpec, new_uniform, one_pass
from .fib import alpha_factored, pisano_from_alpha
from .recurrence import iter_s_mod, s_closed, s_mod


def _check_params(k: int, q: int) -> None:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 0 <= q < k:
        raise ValueError(f"q must be in 0..k-1, got q={q} with k={k}")


@dataclass(frozen=True)
class SolvabilityReport:
    """Solvable row counts of the (k, q) game, as residue classes mod pi(k).

    residues lists every r in 0..period-1 with S(r) = 0 (mod k), found by
    enumeration.  complete is True when that set is exactly the classes
    r = 0 or -1 (mod alpha) predicted from the restricted period; for prime
    k this always holds, for composite k it can fail.
    """

    k: int
    q: int
    alpha: int
    period: int
    residues: tuple[int, ...]
    complete: bool


def is_one_pass_solvable(k: int, q: int, rows: int) -> bool:
    """Does the uniform (k, q) game with this many rows chase out in one pass?"""
    _check_params(k, q)
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    return s_closed(q, rows, k) == 0


def sufficient_by_alpha(k: int, rows: int) -> bool:
    """True when rows = 0 or -1 (mod alpha(k)): solvable for every offset q.

    False is inconclusive for composite k, where zero divisors can cancel
    the product F(rows) * F(rows+1) mod k without either factor vanishing.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    a = alpha_factored(k).alpha
    r = rows % a
    return r == 0 or r == a - 1


def _predicted_residues(alpha: int, period: int) -> set[int]:
    return {r for r in range(period) if r % alpha in (0, alpha - 1)}


def characterize(k: int, q: int) -> SolvabilityReport:
    """Enumerate one Pisano period of S mod k and classify solvable row counts.

    alpha(k) comes from the factorization of k, and pi(k) from alpha(k) and
    the order of F(alpha(k)+1) mod k, so k is factored once.
    """
    _check_params(k, q)
    alpha = alpha_factored(k).alpha
    period = pisano_from_alpha(alpha, k)
    it = iter_s_mod(q, k)
    residues = tuple(r for r, s in zip(range(period), it) if s == 0)
    complete = set(residues) == _predicted_residues(alpha, period)
    return SolvabilityReport(k, q, alpha, period, residues, complete)


def solvable_rows_up_to(k: int, q: int, n: int) -> list[int]:
    """All row counts in 1..n whose game is one-pass solvable, in one sweep."""
    _check_params(k, q)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    it = iter_s_mod(q, k)
    next(it)  # skip S(0); a board has at least one row
    return [r for r, s in zip(range(1, n + 1), it) if s == 0]


def cross_validate(k: int, q: int, rows: int, cols: int) -> bool:
    """Check the simulation against the formula on one uniform game.

    Runs one_pass on the real board and returns True iff the transcript's
    solved flag matches s_mod(q, rows, k) == 0 and every light in the final
    row sits at exactly that residue.
    """
    transcript = one_pass(new_uniform(BoardSpec(rows, cols, k, q)))
    expected = s_mod(q, rows, k)
    return transcript.solved == (expected == 0) and all(
        v == expected for v in transcript.final_row
    )
