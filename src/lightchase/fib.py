"""Fibonacci numbers mod k, the restricted period, and the Pisano period.

The restricted period alpha(k) is the least positive index i with
F(i) = 0 (mod k); the Pisano period pi(k) is the least P >= 1 with
(F(P), F(P+1)) = (0, 1) (mod k), after which the whole sequence repeats.
Single pair values come from one loop, _doubling, a Lucas ladder that
doubles the index once a bit with two products (Lucas 1878), exact
(fib_pair) or reduced mod 5k and read off mod k (fib_pair_mod), so indices
far beyond iterative reach are fine.

The logarithmic routes work from the factorization of k (deterministic
Miller-Rabin and Brent's Pollard rho).  For an odd prime p != 5, alpha(p)
is the least divisor d of p - (5|p) with F(d) = 0 (mod p), found by the
ladder; the lifting rule v_p(F(n * alpha(p))) = v_p(F(alpha(p))) + v_p(n),
for every odd prime p, gives alpha(p^s) = p^s / gcd(p^s, F(alpha(p))) *
alpha(p), which is p^(s-1) * alpha(p) unless p^2 divides F(alpha(p)), as
it does for no prime known; alpha(k) is the lcm over the prime powers of k
(alpha_factored); and pi(k) is the lcm of pi(p^s), read off alpha(p^s)
with no further doubling (pisano_factored).
These routes never call the scans below, so each is a check on the other.

The oracles walk the pair map: alpha_direct and pisano_direct share one
scan to the first zero alpha of F mod k, hard-capped at 6k indices, the
classical upper bound on pi(k), and FibPairState checks the ladder.
The scan tests each index up to alpha once: the first 4,096 one at a
time, the rest in stretches of up to 1,024 blocks of 512 indices ("lanes")
stepped side by side, each lane one fixed-width field of two big ints, as
engine's packed route holds a row.  A lane's start pair is the previous
lane's times the 512-step matrix, which the scan reads off its own walk,
never from the ladder, so the scan stays an independent check on
fib_pair_mod.  pisano_direct walks no further: the pair at alpha is
(0, b), so the pair at m * alpha is (0, b^m), and pi(k) = alpha * ord_k(b),
found by multiplying.  The 6k bound and the ScanBoundExceeded refusal
are those of a one-step loop.

Everything here is a pure function over plain integers; there is no cache
or other shared state.  Every modulus here has one domain, k >= 1:
factorize(1) is [], alpha_factored(1) the lcm of no prime powers, 1, and
pisano_factored(1) = 1 follows, so each route answers k = 1 with no case
of its own.  The integer and lower-bound checks that the whole
package raises on an argument ("<name> must be an integer, got ...",
"<name> must be >= <least>, got ...") are written once here, in _check_int
and _at_least, the one lower-bound check: a count, index or offset that
may be 0 is checked as >= 0, a modulus k as >= 1 and a board's cols as
>= 3, each under the parameter's own name.  So are the game-parameter
checks, _check_k (k an int >= 2, _at_least's shorthand) and _check_k_q
(q an int in 0..k-1 too).  Each raises the error class it is given,
GeometryError for a board and ValueError everywhere else.  So is the one
bound on the length of a returned list: _check_list refuses, with
ValueError("... would list ...; the list is capped at ..."), any list
longer than _LIST_CAP = 10^6 (or a smaller cap it is given) before the
list is built.  Each check here and in engine quotes the argument it
refuses through _quote: at most 80 characters of its repr, or "<int too
long to quote>" for an int past the interpreter's int-to-str digit limit,
so a refusal stays one short line, with its own class and text, whatever
the argument.
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


def _quote(value: object) -> str:
    """At most 80 characters of repr(value), the way every refusal quotes a
    value; "<int too long to quote>" (with the value's own type name) when
    repr passes the interpreter's int-to-str digit limit, so the refusal
    keeps its own class and text."""
    try:
        return repr(value)[:80]
    except ValueError:
        return f"<{type(value).__name__} too long to quote>"


def _check_int(name: str, value: int, error: type[ValueError] = ValueError) -> None:
    if not isinstance(value, int):
        raise error(f"{name} must be an integer, got {_quote(value)}")


def _at_least(name: str, value: int, least: int, error: type[ValueError] = ValueError) -> None:
    """Raise error("<name> must be >= <least>, got <value>") when value < least,
    after refusing a value that is not an int; at most 80 characters of the
    value are quoted."""
    _check_int(name, value, error)
    if value < least:
        raise error(f"{name} must be >= {least}, got {_quote(value)}")


# The longest list built for one answer: characterize's residues,
# solvable_rows_up_to's rows and chase_sequence's terms mod k.  A longer one
# is refused first, by _check_list.
_LIST_CAP = 10**6


def _check_list(name: str, count: int, what: str, cap: int = _LIST_CAP) -> None:
    """Raise ValueError("<name> would list <count> <what>; the list is capped
    at <cap>") when count > cap, before the list is built."""
    if count > cap:
        raise ValueError(f"{name} would list {count} {what}; the list is capped at {cap}")


def _check_k(k: int, error: type[ValueError] = ValueError) -> None:
    _at_least("k", k, 2, error)


def _check_k_q(k: int, q: int, error: type[ValueError] = ValueError) -> None:
    """k >= 2 light states and a start offset q in 0..k-1, checked in that order."""
    _check_k(k, error)
    _check_int("q", q, error)
    if not 0 <= q < k:
        raise error(f"q must be in 0..k-1, got q={_quote(q)} with k={_quote(k)}")


class FibPairState(NamedTuple):
    """A consecutive Fibonacci pair (F(i), F(i+1)) reduced mod k.

    advance() applies one step of the pair map (a, b) -> (b, a+b).  This is
    the O(i) route to any pair and serves as the independent check on the
    Lucas ladder of fib_pair and fib_pair_mod.
    """

    k: int
    i: int
    pair: tuple[int, int]

    @classmethod
    def start(cls, k: int) -> FibPairState:
        _at_least("k", k, 1)
        return cls(k, 0, (0, 1 % k))

    def advance(self) -> FibPairState:
        a, b = self.pair
        return FibPairState(self.k, self.i + 1, (b, (a + b) % self.k))


def _doubling(i: int, k: int | None) -> tuple[int, int]:
    """(F(i), F(i+1)) by a Lucas ladder over the bits of i, reduced mod k when k is given.

    The ladder holds the pair (V(n), V(n+1)) of Lucas numbers (V(0) = 2,
    V(1) = 1, V(n+2) = V(n+1) + V(n)) and reads each bit of i from the top,
    moving n to 2n on a 0 and to 2n + 1 on a 1 by

        V(2n) = V(n)^2 - 2(-1)^n,
        V(2n+1) = V(n) V(n+1) - (-1)^n,
        V(2n+2) = V(n+1)^2 + 2(-1)^n

    (Lucas 1878, Amer. J. Math. 1): two products a bit, one of them a
    square.  The loop keeps w = (-1)^n, -1 just after a 1 bit.  At the
    end F(n) = (2V(n+1) - V(n)) / 5 and F(n+1) = (V(n+1) + 2V(n)) / 5.

    With k given the ladder reduces mod m = 5k.  Since 2V(n+1) - V(n) =
    5F(n), its residue mod 5k is 5F(n) mod 5k = 5 (F(n) mod k): dividing
    it by 5 is exact and gives F(n) mod k, and likewise F(n+1) mod k, for
    every k >= 1, k = 1 and the multiples of 5 included.  The callers check
    i and k; this loop does not.
    """
    m = 5 * k if k else 0
    u, v, w = 2, 1, 1
    for bit in bin(i)[2:]:
        if bit == "1":
            u, v, w = u * v - w, v * v + 2 * w, -1
        else:
            u, v, w = u * u - 2 * w, u * v - w, 1
        if m:
            u, v = u % m, v % m
    if m:
        return (2 * v - u) % m // 5, (v + 2 * u) % m // 5
    return (2 * v - u) // 5, (v + 2 * u) // 5


def fib_pair(i: int) -> tuple[int, int]:
    """(F(i), F(i+1)) as exact integers, by the Lucas ladder."""
    _at_least("index", i, 0)
    return _doubling(i, None)


def fib_pair_mod(i: int, k: int) -> tuple[int, int]:
    """(F(i) mod k, F(i+1) mod k) in O(log i) modular multiplications."""
    _at_least("index", i, 0)
    _at_least("k", k, 1)
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


def _walk(k: int, start: int, stop: int, a: int, b: int) -> tuple[int, int, int]:
    """Test indices start .. stop-1 one at a time, from (a, b) = (F(start), F(start+1)) mod k.

    Returns (n, a, b): n is the first index with F(n) = 0 (mod k), or 0,
    and (a, b) the pair at the index where the walk stopped.
    """
    for i in range(start, stop):
        if not a:
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


def _scan_refusal(what: str, bound: int) -> ScanBoundExceeded:
    return ScanBoundExceeded(
        f"{what} within {bound} terms; pi(k) <= 6k rules this out, so the scan is buggy"
    )


def _scan(k: int, bound: int, what: str) -> tuple[int, int]:
    """(alpha, F(alpha+1) mod k) for the least alpha >= 1 with F(alpha) = 0 (mod k); k >= 1.

    Every index from 1 to alpha is tested once, on a pair that the pair map
    (a, b) -> (b, a + b) made, and no index past bound is tested: a scan
    that reaches bound raises ScanBoundExceeded("<what> within <bound>
    terms; ...").  The public scans pass bound = 6k.

    Head: the plain walk tests indices 1 .. 8B one at a time (B =
    _SCAN_BLOCK).  Passing index B it holds (F(B), F(B+1)), and so the
    B-step matrix [[F(B-1), F(B)], [F(B), F(B+1)]]: the pair map is linear,
    so applying it B times to the pair at n is multiplying by this matrix,
    which gives the pair at n + B.  The jump is read off the walk, not
    computed by the Lucas ladder, so the scan stays an independent check on
    fib_pair_mod.

    Stretches: from the next untested index s, L = min(_SCAN_LANES, s // B,
    (bound + 1 - s) // B) lanes cover B indices each, so a stretch covers
    no more indices than the scan has so far, and none past bound.  Lane j
    starts at index s + j*B, at the matrix times lane j - 1's start pair.
    The lanes' F(n) are packed into x and their F(n+1) into y, one w-bit
    field a lane with 2k < 2^(w-1), so no field carries into the next.
    Each step ANDs x + (2^(w-1) - 1) into acc, which clears a lane's top
    bit when its F(n) is 0, then adds the fields of x and y and subtracts
    k from each sum >= k with one guarded subtraction (SIMD within a
    register; Warren, Hacker's Delight, ch. 2).  After B steps, the lowest
    lane with a cleared bit holds the first zero; the plain walk tests
    that lane's B indices again, from its start pair, and returns the
    first zero and the F(n+1) beside it.  The fewer than B indices left
    below bound are walked plainly.
    """
    block = _SCAN_BLOCK
    one = 1 % k
    n, f1, f2 = _walk(k, 1, min(block, bound + 1), one, one)
    if n:
        return n, f2
    f0 = (f2 - f1) % k  # [[f0, f1], [f1, f2]] is the B-step matrix
    s = min(8 * block, bound) + 1
    n, a, b = _walk(k, block, s, f1, f2)
    if n:
        return n, b
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
            acc &= x + nonzero
            x, y = y, x + y
            y -= (((y + guard) & high) >> top) * k
        hit = high & ~acc
        if hit:
            j = ((hit & -hit).bit_length() - 1) // w
            n, _, b = _walk(k, s + j * block, s + (j + 1) * block, *starts[j])
            return n, b
        s += lanes * block
    n, _, b = _walk(k, s, bound + 1, a, b)
    if n:
        return n, b
    raise _scan_refusal(what, bound)


def alpha_direct(k: int) -> AlphaResult:
    """alpha(k) by scanning F(1), F(2), ... mod k until the first zero."""
    _at_least("k", k, 1)
    return AlphaResult(k, _scan(k, 6 * k, f"no Fibonacci multiple of {k}")[0], "direct-scan")


def pisano_direct(k: int) -> int:
    """The Pisano period pi(k): least P >= 1 with (F(P), F(P+1)) = (0, 1) mod k.

    The scan walks only to the first zero alpha = alpha(k), where the pair
    is (0, b).  Since F(alpha-1) = F(alpha+1) = b there, the alpha-step
    matrix is b * I, so the pair at m * alpha is (0, b^m) and F has no zero
    between multiples of alpha: pi(k) = alpha * ord_k(b) (Wall 1960, Vinson
    1963).  The order comes from multiplying by b until 1, with no Lucas
    ladder, factorization or Cassini bound, so this route stays
    independent of pisano_factored.
    """
    _at_least("k", k, 1)
    what = f"Fibonacci pairs mod {k} did not cycle"
    alpha, b = _scan(k, 6 * k, what)
    period, c = alpha, b
    while c != 1 % k:
        if period + alpha > 6 * k:
            raise _scan_refusal(what, 6 * k)
        period, c = period + alpha, c * b % k
    return period


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
        raise ValueError(f"cannot certify that {_quote(n)} is prime: Miller-Rabin with the bases "
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
                raise ValueError(f"cannot factor {_quote(n)}: Pollard rho would pass its budget of "
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
    """Prime factorization of k >= 1 as (prime, exponent) pairs, primes ascending; [] for k = 1.

    One loop divides out 2 and the odd d below 1000 until d*d passes what
    is left, which is then 1 or a prime, since no prime below d divides it.
    A cofactor left after every d below 1000 is split by Brent's Pollard
    rho, and is_prime certifies each factor it finds.  Every prime returned
    is thus proved, and callers pass it on untested.  A split that would
    take rho past 10^7 steps (about sqrt(p) for the least prime p left)
    raises ValueError.
    """
    _at_least("k", k, 1)
    primes = []
    n = k
    for d in chain((2,), range(3, _SMALL_PRIME_BOUND, 2)):
        if d * d > n:
            if n > 1:
                primes.append(n)
            break
        while n % d == 0:
            n //= d
            primes.append(d)
    else:
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
        while d % r == 0 and _doubling(d // r, p)[0] == 0:
            d //= r
    return d


def _alpha_prime_power(p: int, s: int) -> tuple[int, str]:
    """(alpha(p**s), the rule used) for s >= 1 and a prime p; the caller certifies p.

    The Lucas ladder and one gcd lift alpha(p) to every odd prime power; the
    direct scan is never called, so alpha_factored stays independent of it.
    """
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
    # For odd p, v_p(F(n * alpha(p))) = v_p(F(alpha(p))) + v_p(n) (Lengyel
    # 1995, extending Wall 1960), and F(i) = 0 (mod p) only at multiples of
    # alpha(p).  So with p^e exactly dividing F(alpha(p)), alpha(p^s) is
    # p^max(0, s-e) * alpha(p), and g = gcd(F(alpha(p)) mod p^s, p^s) = p^min(e, s).
    # No prime with e >= 2 (a Wall-Sun-Sun prime) is known, so g = p in practice.
    g = gcd(_doubling(a_p, p**s)[0], p**s)
    lift = "p^(s-1)" if g == p else "p^s / gcd(p^s, F(alpha(p)))"
    return a_p * p**s // g, f"alpha(p^s) = {lift} * alpha(p)"


def alpha_prime_power(p: int, s: int) -> int:
    """alpha(p**s) for prime p, by the prime-power rules of alpha_factored."""
    _at_least("exponent", s, 1)
    _check_int("p", p)
    if not is_prime(p):
        raise ValueError(f"{_quote(p)} is not prime")
    return _alpha_prime_power(p, s)[0]


def alpha_factored(k: int) -> AlphaResult:
    """alpha(k) as lcm of alpha over the prime powers in k's factorization;
    k = 1 has none, and alpha(1) = lcm() = 1."""
    _at_least("k", k, 1)
    trace = []
    for p, s in factorize(k):
        a, rule = _alpha_prime_power(p, s)
        trace.append(PrimePowerAlpha(p, s, a, rule))
    return AlphaResult(k, lcm(*(t.alpha for t in trace)), "factored", tuple(trace))


def _pisano(trace: tuple[PrimePowerAlpha, ...]) -> int:
    """pi(k) as the lcm of pi(p^s) over trace, which is alpha_factored(k).trace.

    pi(2^s) = 3 * 2^(s-1).  For odd p, with a = alpha(p^s), pi(p^s) is 4a
    when a is odd, a when a = 2 (mod 4) and 2a when 4 divides a (Vinson
    1963, Fibonacci Quarterly 1(2)).
    """
    return lcm(*(3 << (t.exponent - 1) if t.prime == 2 else t.alpha * (2, 4, 1, 4)[t.alpha % 4]
                 for t in trace))


def pisano_factored(k: int) -> int:
    """pi(k) as the lcm of pi(p^s) over the prime powers of k, each read off
    alpha(p^s) from alpha_factored, with no Lucas ladder of its own."""
    return _pisano(alpha_factored(k).trace)
