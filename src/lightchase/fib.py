"""Fibonacci numbers mod k, the restricted period, and the Pisano period.

The restricted period alpha(k) is the least positive index i with
F(i) = 0 (mod k); the Pisano period pi(k) is the least P >= 1 with
(F(P), F(P+1)) = (0, 1) (mod k), after which the whole sequence repeats.
Single pair values come from one fast-doubling loop, exact (fib_pair) or
reduced mod k (fib_pair_mod), so indices far beyond iterative reach are
fine.

The logarithmic routes work from the factorization of k (deterministic
Miller-Rabin and Brent's Pollard rho).  For an odd prime p != 5, alpha(p)
is the least divisor d of p - (5|p) with F(d) = 0 (mod p), found by fast
doubling; Wall's theorem lifts it to alpha(p^s) = p^(s-1) * alpha(p) once
fast doubling shows alpha(p^2) != alpha(p); alpha(k) is the lcm over the
prime powers of k (alpha_factored); and pi(k) is alpha(k) times the order,
1, 2 or 4, of F(alpha(k)+1) mod k (pisano_factored).

The oracles walk the pair map: alpha_direct and pisano_direct share one
scan, hard-capped at 6k indices, the classical upper bound on pi(k), and
FibPairState checks fast doubling.  The scan tests each index up to the
answer once: the first 4,096 one at a time, the rest in stretches of up to
1,024 blocks of 512 indices ("lanes") stepped side by side, each lane one
fixed-width field of two big ints, as engine's packed route holds a row.
A lane's start pair is the previous lane's times the 512-step matrix,
which the scan reads off its own walk, never from fast doubling, so the
scan stays an independent check on fib_pair_mod.  The 6k bound and the
ScanBoundExceeded refusal are those of a one-step loop.

Everything here is a pure function over plain integers; there is no cache
or other shared state.  The integer, lower-bound and non-negativity checks
that the whole package raises ("... must be an integer, got ...", "... must
be >= ..., got ...", "... must be non-negative, got ...") are written once
here, in _check_int, _at_least and _non_negative.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from typing import NamedTuple

__all__ = [
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
]


class ScanBoundExceeded(RuntimeError):
    """A period scan ran past 6k steps.

    pi(k) <= 6k for every k, so hitting this means the scan itself is
    broken, not that the period does not exist.
    """


def _check_int(name: str, value: int, error: type[ValueError] = ValueError) -> None:
    if not isinstance(value, int):
        raise error(f"{name} must be an integer, got {value!r}")


def _at_least(name: str, value: int, least: int, error: type[ValueError] = ValueError) -> None:
    """Raise error("<name> must be >= <least>, got <value>") when value < least,
    after refusing a value that is not an int."""
    _check_int(name, value, error)
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")


def _non_negative(name: str, value: int) -> None:
    _check_int(name, value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


class FibPairState(NamedTuple):
    """A consecutive Fibonacci pair (F(i), F(i+1)) reduced mod k.

    advance() applies one step of the pair map (a, b) -> (b, a+b).  This is
    the O(i) route to any pair and serves as the independent check on the
    fast-doubling evaluator.
    """

    k: int
    i: int
    pair: tuple[int, int]

    @classmethod
    def start(cls, k: int) -> FibPairState:
        _at_least("modulus", k, 1)
        return cls(k, 0, (0, 1 % k))

    def advance(self) -> FibPairState:
        a, b = self.pair
        return FibPairState(self.k, self.i + 1, (b, (a + b) % self.k))


def _doubling(i: int, k: int | None) -> tuple[int, int]:
    """(F(i), F(i+1)) by fast doubling, reduced mod k when k is given.

    Each bit of i maps the pair at n to the pair at 2n, (F(n) (2F(n+1) -
    F(n)), F(n)^2 + F(n+1)^2), then steps once more when the bit is set.
    """
    _non_negative("index", i)
    if k is not None:
        _at_least("modulus", k, 1)
    a, b = 0, 1
    for bit in bin(i)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
        if k:
            a, b = a % k, b % k
    return a, b


def fib_pair(i: int) -> tuple[int, int]:
    """(F(i), F(i+1)) as exact integers, by fast doubling."""
    return _doubling(i, None)


def fib_pair_mod(i: int, k: int) -> tuple[int, int]:
    """(F(i) mod k, F(i+1) mod k) in O(log i) modular multiplications."""
    return _doubling(i, k)


class PrimePowerAlpha(NamedTuple):
    """One prime-power factor p**s and its restricted period, with the rule used."""

    prime: int
    exponent: int
    alpha: int
    rule: str


class AlphaResult(NamedTuple):
    """alpha(k) together with how it was obtained.

    method is "direct-scan" (walk the Fibonacci sequence mod k to its first
    zero) or "factored" (lcm over prime powers); trace carries the
    per-prime-power breakdown in the factored case.
    """

    k: int
    alpha: int
    method: str
    trace: tuple[PrimePowerAlpha, ...] = ()


def _walk(k: int, pair: bool, start: int, stop: int, a: int, b: int) -> tuple[int, int, int]:
    """Test indices start .. stop-1 one at a time, from (a, b) = (F(start), F(start+1)) mod k.

    Returns (n, a, b): n is the first index that passes _scan's test, or 0,
    and (a, b) the pair at the index where the walk stopped.
    """
    one = 1 % k
    for i in range(start, stop):
        if not a and (b == one or not pair):
            return i, a, b
        a, b = b, (a + b) % k
    return 0, a, b


def _pack(fields: list[int], w: int) -> int:
    """The int whose j-th w-bit field is fields[j], joined pairwise in rounds."""
    while len(fields) > 1:
        if len(fields) % 2:
            fields.append(0)
        fields = [lo | hi << w for lo, hi in zip(fields[::2], fields[1::2])]
        w *= 2
    return fields[0]


# _scan walks its first 8 blocks of _SCAN_BLOCK indices one index at a time,
# since fewer than about 8 lanes cost more per index than the plain walk, and
# then steps up to _SCAN_LANES blocks side by side.
_SCAN_BLOCK = 512
_SCAN_LANES = 1024


def _scan(k: int, pair: bool) -> int:
    """Least i >= 1 with F(i) = 0 (mod k), and also F(i+1) = 1 when pair; k >= 1.

    Every index from 1 to the answer is tested once, on a pair that the
    pair map (a, b) -> (b, a + b) made, and no index past 6k is tested.

    Head: the plain walk tests indices 1 .. 8B one at a time (B =
    _SCAN_BLOCK).  Passing index B it holds (F(B), F(B+1)), and so the
    B-step matrix [[F(B-1), F(B)], [F(B), F(B+1)]]: the pair map is linear,
    so applying it B times to the pair at n is multiplying by this matrix,
    which gives the pair at n + B.  The jump is read off the walk, not
    computed by fast doubling, so the scan stays an independent check on
    fib_pair_mod.

    Stretches: from the next untested index s, L = min(_SCAN_LANES, s // B,
    (6k + 1 - s) // B) lanes cover B indices each, so a stretch covers no
    more indices than the scan has so far, and none past 6k.  Lane j starts
    at index s + j*B, at the matrix times lane j - 1's start pair.  The
    lanes' F(n) are packed into x and their F(n+1) into y, one w-bit field
    a lane with 2k < 2^(w-1), so no field carries into the next.  Each step
    ANDs x + (2^(w-1) - 1) into acc, which clears a lane's top bit when its
    F(n) is 0; the pair test adds F(n) | (F(n+1) ^ 1) instead, which is 0
    only at (0, 1).  The step then adds the fields of x and y and subtracts
    k from each sum >= k with one guarded subtraction (SIMD within a
    register; Warren, Hacker's Delight, ch. 2).  After B steps, the lowest
    lane with a cleared bit holds the least index that passes; the plain
    walk tests that lane's B indices again, from its start pair, and returns
    the first that passes.  The fewer than B indices left below 6k are
    walked plainly, and an answer not found by 6k raises ScanBoundExceeded.
    """
    block, bound = _SCAN_BLOCK, 6 * k
    one = 1 % k
    n, f1, f2 = _walk(k, pair, 1, min(block, bound + 1), one, one)
    if n:
        return n
    f0 = (f2 - f1) % k  # [[f0, f1], [f1, f2]] is the B-step matrix
    s = min(8 * block, bound) + 1
    n, a, b = _walk(k, pair, block, s, f1, f2)
    if n:
        return n
    w = (2 * k).bit_length() + 1
    while lanes := min(_SCAN_LANES, s // block, (bound + 1 - s) // block):
        starts = []
        for _ in range(lanes):
            starts.append((a, b))
            a, b = (f0 * a + f1 * b) % k, (f1 * a + f2 * b) % k
        ones = ((1 << w * lanes) - 1) // ((1 << w) - 1)  # 1 in every field
        high = ones << (w - 1)
        nonzero, guard, top = high - ones, high - k * ones, w - 1
        x, y, acc = _pack([f for f, _ in starts], w), _pack([g for _, g in starts], w), high
        for _ in range(block):
            acc &= (x | (y ^ ones) if pair else x) + nonzero
            x, y = y, x + y
            y -= (((y + guard) & high) >> top) * k
        hit = high & ~acc
        if hit:
            j = ((hit & -hit).bit_length() - 1) // w
            return _walk(k, pair, s + j * block, s + (j + 1) * block, *starts[j])[0]
        s += lanes * block
    n = _walk(k, pair, s, bound + 1, a, b)[0]
    if n:
        return n
    what = f"Fibonacci pairs mod {k} did not cycle" if pair else f"no Fibonacci multiple of {k}"
    raise ScanBoundExceeded(
        f"{what} within {6 * k} terms; pi(k) <= 6k rules this out, so the scan is buggy"
    )


def alpha_direct(k: int) -> AlphaResult:
    """alpha(k) by scanning F(1), F(2), ... mod k until the first zero."""
    _at_least("modulus", k, 1)
    return AlphaResult(k, _scan(k, pair=False), "direct-scan")


def pisano_direct(k: int) -> int:
    """The Pisano period pi(k): least P >= 1 with (F(P), F(P+1)) = (0, 1) mod k."""
    _at_least("modulus", k, 1)
    return _scan(k, pair=True)


# The first 13 primes as strong-probable-prime bases decide primality for
# every n below _MR_BOUND (Sorenson and Webster, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981
# factorize divides out the primes below this before Pollard rho.
_SMALL_PRIME_BOUND = 1000
# Brent's variant of Pollard rho takes one gcd per this many steps.
_RHO_BATCH = 128
# Rho finds a prime factor p in about sqrt(p) steps, of about 1 us each at
# 100 bits; it gives up rather than pass this many steps for one split.
_RHO_BUDGET = 10**7


def is_prime(n: int) -> bool:
    """Exact primality test.

    Below 3,317,044,064,679,887,385,961,981, n is prime exactly when it is a
    strong probable prime to each of the bases 2, 3, 5, ..., 41.  From there
    on a base that witnesses compositeness still proves n composite, but a
    strong probable prime to all thirteen is not certified: that raises
    ValueError naming the bound.
    """
    _check_int("n", n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise ValueError(f"cannot certify that {n} is prime: Miller-Rabin with the bases "
                         f"2..41 is exact only below {_MR_BOUND}")
    return True


def _pollard_brent(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's variant of Pollard rho.

    The maps x -> x^2 + c are tried for c = 1, 2, ... in turn, so the divisor
    found is the same on every run.  A round that could take the steps
    spent past _RHO_BUDGET raises ValueError instead.
    """
    spent = 0
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if spent + 2 * r > _RHO_BUDGET:
                raise ValueError(f"cannot factor {n}: Pollard rho would pass its budget of "
                                 f"{_RHO_BUDGET} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            j = 0
            while j < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - j)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                j += _RHO_BATCH
            spent += r + min(j, r)
            r *= 2
        if g == n:
            # The batch overshot: redo its steps one gcd at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n > 1 with multiplicity, in no particular order; n is prime or odd."""
    if is_prime(n):
        return [n]
    d = _pollard_brent(n)
    return _prime_factors(d) + _prime_factors(n // d)


def factorize(k: int) -> list[tuple[int, int]]:
    """Prime factorization of k >= 2 as (prime, exponent) pairs, primes ascending.

    One loop divides out 2 and the odd d below 1000 until d*d passes what
    is left; Brent's Pollard rho splits any cofactor, and is_prime certifies
    each factor it finds.  Every prime returned is thus proved, and callers
    pass it on untested.  A split that would take rho past 10^7 steps (about
    sqrt(p) for the least prime p left) raises ValueError.
    """
    _check_int("k", k)
    if k < 2:
        raise ValueError(f"can only factorize integers >= 2, got {k}")
    primes = []
    n = k
    for d in chain((2,), range(3, _SMALL_PRIME_BOUND, 2)):
        if d * d > n:
            break
        while n % d == 0:
            n //= d
            primes.append(d)
    if n > 1:
        primes += _prime_factors(n)
    return [(p, primes.count(p)) for p in sorted(set(primes))]


def _alpha_odd_prime(p: int) -> int:
    """alpha(p) for a prime p other than 2 and 5: the least d | p - (5|p) with F(d) = 0 (mod p).

    alpha(p) divides p - (5|p), and F(d) = 0 (mod p) exactly when alpha(p)
    divides d, so dividing out each prime of p - (5|p) while F stays 0
    leaves alpha(p).  By reciprocity (5|p) = 1 exactly when p = +-1 (mod 5).
    """
    d = p - 1 if p % 5 in (1, 4) else p + 1
    for r, _ in factorize(d):
        while d % r == 0 and fib_pair_mod(d // r, p)[0] == 0:
            d //= r
    return d


def _alpha_prime_power(p: int, s: int) -> tuple[int, str]:
    """(alpha(p**s), the rule used) for s >= 1 and a prime p; the caller certifies p."""
    if p == 2:
        # alpha(2) = 3 and alpha(4) = 6 are the base cases; from s = 3 on,
        # alpha(2**s) = 2**(s-3) * alpha(4).
        if s == 1:
            return 3, "alpha(2) = 3"
        if s == 2:
            return 6, "alpha(4) = 6"
        return (1 << (s - 3)) * 6, "alpha(2^s) = 2^(s-3) * alpha(4)"
    if p == 5:
        a_p, rule = 5, "alpha(5) = 5"
    else:
        a_p, rule = _alpha_odd_prime(p), "least d | p - (5|p) with F(d) = 0"
    if s == 1:
        return a_p, rule
    # Wall: for odd p with alpha(p^2) != alpha(p), alpha(p^s) = p^(s-1) * alpha(p).
    # alpha(p) divides alpha(p^2), so they differ exactly when p^2 does not
    # divide F(alpha(p)).  A prime violating the hypothesis would be a
    # Wall-Sun-Sun prime; none is known, but the condition is checked rather
    # than assumed.
    if fib_pair_mod(a_p, p * p)[0] != 0:
        return p ** (s - 1) * a_p, "alpha(p^s) = p^(s-1) * alpha(p)"
    return alpha_direct(p**s).alpha, "direct scan (alpha(p^2) = alpha(p))"


def alpha_prime_power(p: int, s: int) -> int:
    """alpha(p**s) for prime p, via the prime-power rules where they apply."""
    _at_least("exponent", s, 1)
    _check_int("p", p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _alpha_prime_power(p, s)[0]


def alpha_factored(k: int) -> AlphaResult:
    """alpha(k) as lcm of alpha over the prime powers in k's factorization."""
    _check_int("k", k)
    if k < 2:
        raise ValueError(f"factored route needs k >= 2, got {k}")
    trace = []
    for p, s in factorize(k):
        a, rule = _alpha_prime_power(p, s)
        trace.append(PrimePowerAlpha(p, s, a, rule))
    return AlphaResult(k, lcm(*(t.alpha for t in trace)), "factored", tuple(trace))


def pisano_from_alpha(alpha: int, k: int) -> int:
    """pi(k) from alpha = alpha(k), k >= 2: alpha * e with e the least of 1, 2, 4
    such that F(alpha+1)^e = 1 (mod k).

    The pair at index alpha is (0, b) with b = F(alpha+1), so the pair at
    n * alpha is (0, b^n).  Cassini's identity gives b^2 = (-1)^alpha, so
    b^4 = 1.
    """
    b = fib_pair_mod(alpha, k)[1]
    return alpha * next(e for e in (1, 2, 4) if pow(b, e, k) == 1)


def pisano_factored(k: int) -> int:
    """pi(k) as alpha(k) * e, with alpha from alpha_factored and e in {1, 2, 4}."""
    _at_least("modulus", k, 1)
    if k == 1:
        return 1
    return pisano_from_alpha(alpha_factored(k).alpha, k)
