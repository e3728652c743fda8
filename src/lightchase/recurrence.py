"""The row-state sequence of one-pass chasing, exact and modular.

On a uniform start every light in a row goes through the same states, so
the whole sweep collapses to one integer sequence: with start offset q,
the state of row i just after row i-1 is cleared satisfies

    S(0) = 0,  S(1) = -q,  S(i) = -q - S(i-2) - 3*S(i-1).

(Row i starts at -q, picks up -S(i-2) from the presses directly above it,
and -S(i-1) from each of its own button and its two side neighbors.)  The
board with `rows` rows is one-pass solvable exactly when S(rows) = 0 mod k.

The recursion is run by one generator, exact or reduced mod k; s_exact,
s_mod, iter_s_mod and chase_sequence all read their terms from it.
chase_sequence refuses, before it computes any term, a list of more than
10^6 terms mod k, or of more than 10^4 + 1 exact terms, whose last term
already has about 4,180 digits.

S also has the closed form S(i) = (-1)^i * q * F(i) * F(i+1) with F the
Fibonacci numbers, which makes modular evaluation cheap at astronomically
large i: fib's Lucas ladder (Lucas 1878) gives the pair (F(i), F(i+1)) with
two products per bit of i.  s_closed evaluates it, the second, independent
route.  Exact values are plain Python integers: they grow like the square
of F(i), far past any fixed width.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, NamedTuple

from .fib import _LIST_CAP, _at_least, _check_k, _check_k_q, _check_list, _doubling

__all__ = [
    "ChaseParams",
    "ChaseSequence",
    "chase_sequence",
    "iter_s_mod",
    "s_closed",
    "s_exact",
    "s_mod",
]


# Exact terms gain about 0.418 digits per index: S(10^4) has about 4,180.
_EXACT_TERMS_CAP = 10**4 + 1


def _check_q_i(q: int, i: int) -> None:
    _at_least("q", q, 0)
    _at_least("index", i, 0)


class _ChaseParamsFields(NamedTuple):
    q: int
    k: int | None = None


class ChaseParams(_ChaseParamsFields):
    """Start offset q and optional modulus k (k absent = exact integers).

    A named tuple (q, k); every instance is checked, also one made by
    _replace or _make.
    """

    __slots__ = ()

    def __new__(cls, q: int, k: int | None = None) -> ChaseParams:
        _at_least("q", q, 0)
        if k is not None:
            _check_k_q(k, q)
        return tuple.__new__(cls, (q, k))

    # namedtuple's own _make, which _replace calls, would skip __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class ChaseSequence(NamedTuple):
    """S(0)..S(n) for fixed parameters, exact or reduced mod k."""

    params: ChaseParams
    values: tuple[int, ...]


def _terms(q: int, k: int | None) -> Iterator[int]:
    """S(0), S(1), ... by the recursion, exact, or reduced mod k when k is given."""
    nq = -q % k if k else -q
    a, b = 0, nq
    while True:
        yield a
        a, b = b, nq - a - 3 * b
        if k:
            b %= k


def s_exact(q: int, i: int) -> int:
    """S(i) with exact integer arithmetic."""
    _check_q_i(q, i)
    return next(islice(_terms(q, None), i, None))


def s_mod(q: int, i: int, k: int) -> int:
    """S(i) mod k in 0..k-1, by running the recursion in Z_k."""
    _check_q_i(q, i)
    _check_k(k)
    return next(islice(_terms(q, k), i, None))


def iter_s_mod(q: int, k: int) -> Iterator[int]:
    """Yield S(0) mod k, S(1) mod k, ... indefinitely in O(1) state.

    The streaming form of s_mod, for sweeps that need a whole prefix of the
    sequence without paying O(i) per term.
    """
    _at_least("q", q, 0)
    _check_k(k)
    yield from _terms(q, k)


def s_closed(q: int, i: int, k: int | None = None) -> int:
    """S(i) via the closed form (-1)^i * q * F(i) * F(i+1).

    The Fibonacci pair comes from fib's Lucas ladder, one step per bit of
    i: with w = (-1)^n it takes the Lucas pair (V(n), V(n+1)) to the pair
    at 2n by V(2n) = V(n)^2 - 2w and V(2n+1) = V(n) V(n+1) - w, or to the
    pair at 2n + 1 by that V(2n+1) and V(2n+2) = V(n+1)^2 + 2w, and ends
    with F(i) = (2V(i+1) - V(i)) / 5 and F(i+1) = (V(i+1) + 2V(i)) / 5.
    With k given the ladder works mod 5k, where 2V(i+1) - V(i) and
    V(i+1) + 2V(i) are 5F(i) and 5F(i+1), so their residues are multiples
    of 5 and dividing by 5 gives F mod k exactly.  So i may be
    astronomically large; without k the product is exact.
    """
    _check_q_i(q, i)
    if k is not None:
        _check_k(k)
    fa, fb = _doubling(i, k)
    v = -q * fa * fb if i % 2 else q * fa * fb
    return v % k if k else v


def chase_sequence(params: ChaseParams, n: int) -> ChaseSequence:
    """S(0)..S(n) under the given parameters, in one recursion sweep.

    More than 10^6 terms mod k, or 10^4 + 1 exact terms, raise ValueError
    before any term is computed.
    """
    _at_least("n", n, 0)
    _check_list("chase_sequence", n + 1, "terms", _LIST_CAP if params.k else _EXACT_TERMS_CAP)
    return ChaseSequence(params, tuple(islice(_terms(params.q, params.k), n + 1)))
