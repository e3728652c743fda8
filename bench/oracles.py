"""Independent oracles for the benchmark's correctness checks.

Nothing here imports lightchase, and no oracle follows the package's own
route to an answer: Fibonacci values come from powers of the 2x2 matrix
[[1, 1], [1, 0]] (the package uses fast doubling and pair scans), primality
from Miller-Rabin (the package uses trial division), S from its closed form
q*F(r)*F(r+1) (the package also runs the recursion), restricted periods from
the divisors of p - (5|p) (the package scans), and a whole press matrix is
applied to a board at once by a 5-point cylinder stencil (the package
presses button by button).
"""

from __future__ import annotations

from math import lcm

# Miller-Rabin with these bases is exact for every n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _mat_mul(x, y, m):
    a, b, c, d = x
    e, f, g, h = y
    r = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return r if m is None else (r[0] % m, r[1] % m, r[2] % m, r[3] % m)


def fib(n: int, m: int | None = None) -> tuple[int, int]:
    """(F(n), F(n+1)), exact or mod m, from [[1,1],[1,0]]**n = [[F(n+1), F(n)], [F(n), F(n-1)]]."""
    result, base = (1, 0, 0, 1), (1, 1, 1, 0)
    while n:
        if n & 1:
            result = _mat_mul(result, base, m)
        base = _mat_mul(base, base, m)
        n >>= 1
    if m is None:
        return result[1], result[0]
    return result[1] % m, result[0] % m


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1; meant for n up to about 10**10."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factor(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def s_value(q: int, r: int, k: int | None = None) -> int:
    """S(r) = (-1)**r * q * F(r) * F(r+1), exact or reduced into 0..k-1."""
    f0, f1 = fib(r, k)
    v = q * f0 * f1
    if r % 2:
        v = -v
    return v if k is None else v % k


def legendre5(p: int) -> int:
    """(5|p) for an odd prime p != 5, by Euler's criterion."""
    return 1 if pow(5, (p - 1) // 2, p) == 1 else -1


def _alpha_prime(p: int) -> int:
    if p in (2, 5):
        return {2: 3, 5: 5}[p]
    # alpha(p) divides p - (5|p); the least divisor d with p | F(d) is alpha(p).
    return next(d for d in divisors(p - legendre5(p)) if fib(d, p)[0] == 0)


def alpha(k: int) -> int:
    """Restricted period of the Fibonacci sequence mod k.

    alpha(p**e) is alpha(p) * p**j for the least j with p**e | F(alpha(p) * p**j),
    and alpha(k) is the lcm over the prime powers of k.
    """
    out = 1
    for p, e in factor(k).items():
        a, m = _alpha_prime(p), p**e
        while fib(a, m)[0]:
            a *= p
        out = lcm(out, a)
    return out


def is_restricted_period(k: int, a: int) -> bool:
    """F(a) = 0 mod k, and F(a/p) != 0 mod k for every prime p dividing a."""
    if a < 1 or fib(a, k)[0] != 0:
        return False
    return all(fib(a // p, k)[0] != 0 for p in factor(a))


def is_pisano_period(k: int, period: int) -> bool:
    """(F(P), F(P+1)) = (0, 1) mod k, and not at P/p for any prime p dividing P."""
    one = (0, 1 % k)
    if period < 1 or fib(period, k) != one:
        return False
    return all(fib(period // p, k) != one for p in factor(period))


def solvable_moduli(k: int, q: int) -> list[int]:
    """Moduli m such that rows r is one-pass solvable iff r = 0 or -1 (mod m) for every m.

    Consecutive Fibonacci numbers are coprime, so p**s divides q*F(r)*F(r+1)
    exactly when alpha(p**(s - v_p(q))) divides r or r + 1.
    """
    moduli = []
    for p, s in factor(k).items():
        v = 0
        while v < s and q % p ** (v + 1) == 0:
            v += 1
        if s > v:
            moduli.append(alpha(p ** (s - v)))
    return moduli


def crt_solvable(moduli: list[int], r: int) -> bool:
    return all(r % m in (0, m - 1) for m in moduli)


def stencil(grid: list[list[int]], presses: list[list[int]], k: int) -> list[list[int]]:
    """The board after applying a whole press matrix: each light gains the
    presses of its own button and of its four neighbours, columns wrapping."""
    rows, cols = len(grid), len(grid[0])
    zero = [0] * cols
    out = []
    for r in range(rows):
        above = presses[r - 1] if r > 0 else zero
        below = presses[r + 1] if r < rows - 1 else zero
        here = presses[r]
        out.append([
            (grid[r][c] + here[c] + above[c] + below[c] + here[c - 1] + here[(c + 1) % cols]) % k
            for c in range(cols)
        ])
    return out
