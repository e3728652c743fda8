"""One-pass solvability of the uniform-start cylindrical game.

A game with `rows` rows and k light states is one-pass solvable exactly
when S(rows) = 0 (mod k).  The closed form S(r) = (-1)^r q F(r) F(r+1)
and gcd(F(r), F(r+1)) = 1 make that an exact rule: the prime power p^s
of k divides S(r) exactly when r = 0 or -1 (mod alpha(p^(s - v))), with
v = v_p(q) capped at s (a prime with v = s puts no condition on r).  The
solvable row counts are therefore the intersection of those residue
classes over the prime powers of k, one (modulus, classes) pair found by
the Chinese remainder theorem.  The two classes rows = 0 or -1 (mod
alpha(k)) are solvable for every start offset; when k is prime they are
the only ones for q != 0.  Composite k picks up extra classes: each prime
power may meet its condition through a different one of its two classes,
and the part of k that divides q drops out (the zero-divisor effect:
k = 6, q = 3, rows = 6).

is_one_pass_solvable evaluates S(rows) by its closed form, in O(log rows)
steps.  sufficient_by_alpha, solvable_classes, characterize and
solvable_rows_up_to work from the factorization of k and never step
through S; the enumeration of S over one Pisano period is kept in the
tests as their oracle.  characterize factors k once for alpha(k), pi(k)
and the (modulus, classes) pair; solvable_classes needs no pi(k) and folds
the trace of alpha_factored directly.  characterize and
solvable_rows_up_to count their answer from the classes and refuse,
through fib._check_list, a list longer than 10^6 before they build it.

cross_validate holds the simulation against the step-by-step recursion,
the oracle route.  Its sweep, _disagreements, runs one one_pass on the
uniform board of `rows` rows and reads S mod k beside it straight from
recurrence._terms, the recursion's one generator, since BoardSpec has
already checked k and q.  Chasing row r-2 never looks below row r-1, so
that single transcript holds the final row of every shorter uniform game
too: the start row for one row, row_states[r-2] for r rows.  The sweep
checks each of them against S(r) mod k, and the solved flag at r = rows,
so the CLI's verify runs one simulation per (k, q) rather than one per row
count.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from typing import NamedTuple

from .engine import BoardSpec, new_uniform, one_pass
from .fib import (PrimePowerAlpha, _alpha_prime_power, _at_least, _check_k, _check_k_q,
                  _check_list, _pisano, alpha_factored)
from .recurrence import _terms, s_closed

__all__ = [
    "SolvabilityReport",
    "characterize",
    "cross_validate",
    "is_one_pass_solvable",
    "solvable_classes",
    "solvable_rows_up_to",
    "sufficient_by_alpha",
]


class SolvabilityReport(NamedTuple):
    """Solvable row counts of the (k, q) game, as residue classes mod pi(k).

    r rows are solvable exactly when r mod modulus is in classes, the CRT
    pair from the prime powers of k; modulus divides alpha, which divides
    period.  residues expands those classes to every r in 0..period-1 with
    S(r) = 0 (mod k), ascending.  complete is True when that set is exactly
    the classes r = 0 or -1 (mod alpha); for prime k and q != 0 this always
    holds, for composite k it can fail even at q = 1.  A report built by
    hand from the first six fields leaves modulus None and classes empty.
    """

    k: int
    q: int
    alpha: int
    period: int
    residues: tuple[int, ...]
    complete: bool
    modulus: int | None = None
    classes: tuple[int, ...] = ()


def is_one_pass_solvable(k: int, q: int, rows: int) -> bool:
    """Does the uniform (k, q) game with this many rows chase out in one pass?"""
    _check_k_q(k, q)
    _at_least("rows", rows, 1)
    return s_closed(q, rows, k) == 0


def sufficient_by_alpha(k: int, rows: int) -> bool:
    """True when rows = 0 or -1 (mod alpha(k)): solvable for every offset q.

    False is inconclusive for composite k, where zero divisors can cancel
    the product F(rows) * F(rows+1) mod k without either factor vanishing.
    """
    _check_k(k)
    _at_least("rows", rows, 1)
    a = alpha_factored(k).alpha
    r = rows % a
    return r == 0 or r == a - 1


def _classes(q: int, trace: tuple[PrimePowerAlpha, ...]) -> tuple[int, tuple[int, ...]]:
    """Fold the conditions of the prime powers of k into one (modulus, classes) pair.

    trace is alpha_factored(k).trace.  The moduli a need not be coprime
    (alpha(3) = 4, alpha(7) = 8), so each CRT step keeps only the class
    pairs that agree mod their gcd.
    """
    modulus, classes = 1, (0,)
    for t in trace:
        # p^s divides q F(r) F(r+1) exactly when alpha(p^(s - v)) divides r
        # or r + 1, with p^v the part of p^s in q; v = s leaves r free.
        p, s = t.prime, t.exponent
        v = 0
        while v < s and q % p ** (v + 1) == 0:
            v += 1
        if v == s:
            continue
        a = t.alpha if v == 0 else _alpha_prime_power(p, s - v)[0]
        g = gcd(modulus, a)
        step = a // g
        inv = pow(modulus // g, -1, step)
        classes = tuple(sorted(
            c + modulus * ((target - c) // g * inv % step)
            for c in classes for target in (0, a - 1) if (target - c) % g == 0
        ))
        modulus *= step
    return modulus, classes


def characterize(k: int, q: int) -> SolvabilityReport:
    """Classify the solvable row counts of the (k, q) game over one Pisano period.

    k is factored once: alpha(k), pi(k) and the residue classes all come
    from that factorization, and no term of S is evaluated.  A period with
    more than 10^6 solvable residues is refused with ValueError before the
    list is built.
    """
    _check_k_q(k, q)
    factored = alpha_factored(k)
    alpha = factored.alpha
    period = _pisano(factored.trace)
    modulus, classes = _classes(q, factored.trace)
    count = len(classes) * (period // modulus)
    _check_list("characterize", count, "residues")
    residues = tuple(b + c for b in range(0, period, modulus) for c in classes)
    # The alpha classes are always solvable, so equal counts mean equal sets.
    complete = count == 2 * period // alpha
    return SolvabilityReport(k, q, alpha, period, residues, complete, modulus, classes)


def solvable_classes(k: int, q: int) -> tuple[int, tuple[int, ...]]:
    """(modulus, classes): the (k, q) game with r rows is one-pass solvable
    exactly when r mod modulus is in classes (ascending).

    modulus divides alpha(k); q = 0 gives (1, (0,)), every row count.
    """
    _check_k_q(k, q)
    return _classes(q, alpha_factored(k).trace)


def solvable_rows_up_to(k: int, q: int, n: int) -> list[int]:
    """All row counts in 1..n whose game is one-pass solvable, ascending.

    The work is proportional to the length of the answer, not to n.  An
    answer of more than 10^6 rows is refused with ValueError, counted from
    the classes before the list is built.  k and q are checked, then n,
    and only then is k factored.
    """
    _check_k_q(k, q)
    _at_least("n", n, 1)
    modulus, classes = _classes(q, alpha_factored(k).trace)
    rows = [range(c or modulus, n + 1, modulus) for c in classes]
    _check_list("solvable_rows_up_to", sum(map(len, rows)), "rows")
    return sorted(chain.from_iterable(rows))


def _disagreements(k: int, q: int, rows: int, cols: int) -> list[tuple[int, list[int], int]]:
    """(r, simulated final row, S(r) mod k) for each r in 1..rows where the
    uniform r-row game's simulation and formula disagree.

    One one_pass on the rows-row board gives every final row (see the
    module docstring); the solved flag is checked at r = rows.
    """
    board = new_uniform(BoardSpec(rows, cols, k, q))
    transcript = one_pass(board)
    finals = chain(board.grid[:1], transcript.row_states)
    terms = _terms(q, k)  # BoardSpec has checked k and q
    next(terms)  # S(0): no game has zero rows
    return [(r, row, s) for r, row, s in zip(range(1, rows + 1), finals, terms)
            if row.count(s) != cols or r == rows and transcript.solved != (s == 0)]


def cross_validate(k: int, q: int, rows: int, cols: int) -> bool:
    """Check the simulation against the formula on one uniform game.

    Runs one_pass on the real board and returns True iff every row count r
    in 1..rows agrees: the final row of the r-row game, read from that one
    transcript, sits at exactly S(r) mod k in every column, and the solved
    flag matches S(rows) = 0 (mod k).
    """
    return not _disagreements(k, q, rows, cols)
