"""Fibonacci pairs mod k, restricted and Pisano periods, factored alpha."""

from collections import Counter
from functools import cache
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightchase import fib
from lightchase.fib import (
    AlphaResult,
    FibPairState,
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
from lightchase.solvability import solvable_classes, sufficient_by_alpha

FIB_FIRST_16 = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610]


def test_fib_pair_exact_prefix():
    for i in range(15):
        assert fib_pair(i) == (FIB_FIRST_16[i], FIB_FIRST_16[i + 1])
    a, b = 0, 1
    for i in range(1001):
        assert fib_pair(i) == (a, b), i
        a, b = b, a + b


def test_fib_pair_mod_examples():
    assert fib_pair_mod(6, 4) == (0, 1)
    assert fib_pair_mod(0, 7) == (0, 1)
    assert fib_pair_mod(12, 3) == (0, 2)


def test_fib_pair_mod_unit_modulus():
    assert fib_pair_mod(9, 1) == (0, 0)


def test_pair_state_walks_the_sequence():
    state = FibPairState.start(10)
    for i in range(15):
        assert state.i == i
        assert state.pair == (FIB_FIRST_16[i] % 10, FIB_FIRST_16[i + 1] % 10)
        state = state.advance()


@settings(max_examples=80)
@given(i=st.integers(0, 10_000), k=st.integers(1, 10_000))
def test_fast_doubling_matches_pair_iteration(i, k):
    state = FibPairState.start(k)
    for _ in range(i):
        state = state.advance()
    assert fib_pair_mod(i, k) == state.pair


def test_ladder_matches_the_pair_walk_for_every_small_modulus():
    # Every k in 1..100 covers k = 1, the multiples of 5 and of 25 (where
    # the ladder's residues mod 5k must still divide by 5 exactly) and the
    # powers of 2; every i in 0..600 covers both bits after either sign.
    for k in range(1, 101):
        state = FibPairState.start(k)
        for i in range(601):
            assert fib_pair_mod(i, k) == state.pair, (i, k)
            state = state.advance()


def _matrix_pair(i, k):
    """(F(i), F(i+1)) mod k as the right column of [[0, 1], [1, 1]]^i, by
    square-and-multiply on 2 x 2 matrices."""
    def mul(x, y):
        return tuple(tuple(sum(x[r][j] * y[j][c] for j in range(2)) % k for c in range(2))
                     for r in range(2))

    power, base = ((1 % k, 0), (0, 1 % k)), ((0, 1), (1, 1))
    while i:
        if i & 1:
            power = mul(power, base)
        base = mul(base, base)
        i >>= 1
    return power[0][1], power[1][1]


@pytest.mark.parametrize("i", [10**100 + 7, 2**521 - 1], ids=["10^100+7", "2^521-1"])
@pytest.mark.parametrize("k", [2**64 + 13, 10**30, 3**200 + 2], ids=["2^64+13", "10^30", "3^200+2"])
def test_ladder_matches_a_matrix_power_at_huge_indices(i, k):
    assert fib_pair_mod(i, k) == _matrix_pair(i, k)


def test_alpha_direct_examples():
    assert alpha_direct(3).alpha == 4
    assert alpha_direct(4).alpha == 6
    assert alpha_direct(5).alpha == 5
    assert alpha_direct(13).alpha == 7
    assert alpha_direct(999983).alpha == 333328
    assert alpha_direct(1) == AlphaResult(1, 1, "direct-scan")
    assert alpha_direct(3).method == "direct-scan"
    assert alpha_direct(3).trace == ()


def test_pisano_examples():
    assert pisano_direct(3) == 8
    assert pisano_direct(4) == 6
    assert pisano_direct(1) == 1
    assert pisano_direct(2) == 3
    assert pisano_direct(5) == 20
    assert pisano_direct(999961) == 999960


def test_pisano_hits_the_6k_extreme():
    # pi(k) = 6k exactly for k = 2 * 5^n, the classical worst case; the
    # answer is the last index the scan bound admits, so the bound must be
    # inclusive for this to return at all.
    for k in (10, 50, 250, 1250, 6250, 31250, 156250):
        assert pisano_direct(k) == 6 * k, k


def _first_zero_and_period(k):
    """alpha(k) and pi(k) by one FibPairState walk, one index at a time."""
    state = FibPairState.start(k).advance()
    alpha = None
    while True:
        if state.pair[0] == 0:
            alpha = alpha or state.i
            if state.pair[1] == 1 % k:
                return alpha, state.i
        state = state.advance()


@cache
def _walked_up_to_2000():
    return {k: _first_zero_and_period(k) for k in range(1, 2001)}


def test_scans_match_a_pair_state_walk():
    # k = 1 and 2 are included; from k = 683 on, 6k passes the plain head
    # and answers land in lanes and in the tail below 6k.
    for k, (alpha, period) in _walked_up_to_2000().items():
        assert alpha_direct(k).alpha == alpha, k
        assert pisano_direct(k) == period, k


@pytest.mark.parametrize("block, lanes", list(product((3, 7), (1, 2, 5))))
def test_tiny_lanes_match_a_pair_state_walk(monkeypatch, block, lanes):
    # Lanes of 3 or 7 indices, at most 1, 2 or 5 of them a stretch: first
    # zeros land on each lane's first and last index and on stretch
    # boundaries, and pi(k) = 6k is 4 * alpha(k).
    monkeypatch.setattr(fib, "_SCAN_BLOCK", block)
    monkeypatch.setattr(fib, "_SCAN_LANES", lanes)
    for k, (alpha, period) in _walked_up_to_2000().items():
        assert alpha_direct(k).alpha == alpha, k
        assert pisano_direct(k) == period, k
    for k in (10, 50, 250, 1250, 6250):
        assert pisano_direct(k) == 6 * k, k


def test_answers_at_the_edges_of_the_head():
    # alpha(F(n)) = n for n >= 3, and pi(F(n)) is 2n or 4n, so k = F(n)
    # puts answers one before, on and one after the first block (B - 1, B,
    # B + 1), the end of the plain head (8B - 1, 8B, 8B + 1) and the first
    # stretch boundaries (8B + B, 16B, 16B + 1).
    block = fib._SCAN_BLOCK
    for n in (block - 1, block, block + 1, 8 * block - 1, 8 * block, 8 * block + 1,
              9 * block, 16 * block, 16 * block + 1):
        k = fib_pair(n)[0]
        alpha, period = _first_zero_and_period(k)
        assert alpha == n
        assert alpha_direct(k).alpha == n, n
        assert pisano_direct(k) == period, n


@pytest.mark.parametrize("block, lanes", [(3, 5), (7, 2), (fib._SCAN_BLOCK, fib._SCAN_LANES)])
def test_stretches_stay_within_6k(monkeypatch, block, lanes):
    # A stretch covers no more indices than the scan has covered before it,
    # and none past the bound; the plain walk of the tail then ends at it.
    # The bounds are 6k for k = 1250, 6250 and 31250.  The first zero mod
    # 2 * 5^9 is at 5,859,375, past each, so the scan walks to the bound and
    # refuses.
    monkeypatch.setattr(fib, "_SCAN_BLOCK", block)
    monkeypatch.setattr(fib, "_SCAN_LANES", lanes)
    walk, pack = fib._walk, fib._pack
    k = 2 * 5**9
    for bound in (7500, 37500, 187500):
        walks, packs = [], []
        monkeypatch.setattr(fib, "_walk", lambda *a: walks.append(a[1:3]) or walk(*a))
        monkeypatch.setattr(fib, "_pack", lambda f, w: packs.append(len(f)) or pack(f, w))
        with pytest.raises(ScanBoundExceeded) as info:
            fib._scan(k, bound, f"no Fibonacci multiple of {k}")
        assert str(info.value).startswith(f"no Fibonacci multiple of {k} within {bound} terms")
        s = walks[1][1]
        assert s == 8 * block + 1
        for count in packs[::2]:
            assert 1 <= count <= lanes and count * block < s <= bound - count * block + 1, bound
            s += count * block
        assert walks[2:] == [(s, bound + 1)], bound
    # With the bound at or just past a first zero, the zero is found by the
    # plain walk of the tail or of the last lane of a stretch.
    alpha, b = 46875, fib_pair_mod(46875, 31250)[1]
    for bound in (alpha, alpha + block // 2, alpha + block - 1):
        assert fib._scan(31250, bound, "") == (alpha, b), bound


def test_scans_refuse_past_6k(monkeypatch):
    # A walk that never reports a hit, and 6k below one block, so no lane
    # runs: both scans reach 6k and refuse.
    monkeypatch.setattr(fib, "_walk", lambda k, start, stop, a, b: (0, a, b))
    assert 6 * 10 < fib._SCAN_BLOCK
    bound = "within 60 terms; pi(k) <= 6k rules this out, so the scan is buggy"
    for scan, what in ((alpha_direct, "no Fibonacci multiple of 10"),
                       (pisano_direct, "Fibonacci pairs mod 10 did not cycle")):
        with pytest.raises(ScanBoundExceeded) as info:
            scan(10)
        assert type(info.value) is ScanBoundExceeded
        assert str(info.value) == f"{what} {bound}"


def test_pisano_order_refuses_past_6k(monkeypatch):
    # A first zero at 7 with F(8) = 2, and 2 has no order mod 10: the
    # multiples of 7 pass 60 before the pair (0, 1) comes back.
    monkeypatch.setattr(fib, "_scan", lambda k, bound, what: (7, 2))
    with pytest.raises(ScanBoundExceeded) as info:
        pisano_direct(10)
    assert type(info.value) is ScanBoundExceeded
    assert str(info.value) == ("Fibonacci pairs mod 10 did not cycle within 60 terms; "
                               "pi(k) <= 6k rules this out, so the scan is buggy")


def test_pisano_really_is_a_period():
    for k in (2, 3, 7, 12, 30):
        period = pisano_direct(k)
        assert fib_pair_mod(period, k) == (0, 1 % k)
        for i in (0, 1, 5, 11):
            assert fib_pair_mod(i + period, k) == fib_pair_mod(i, k)


def test_alpha_divides_pisano():
    for k in range(1, 301):
        assert pisano_direct(k) % alpha_direct(k).alpha == 0


def test_pisano_factored_matches_direct_scan():
    for k in range(1, 2001):
        assert pisano_factored(k) == pisano_direct(k), k


def test_pisano_factored_doubles_only_for_alpha(monkeypatch):
    # pi(k) is read off alpha_factored's trace: no fast doubling beyond what
    # alpha_factored(k) itself does (which, for a prime power, includes the
    # lifting step's doubling mod p^s).
    calls = []
    doubling = fib._doubling
    monkeypatch.setattr(fib, "_doubling", lambda i, k: calls.append((i, k)) or doubling(i, k))
    for k in (2, 12, 49, 1200, 2 * 5**40, 3**7 * 7**3 * 11, 10**12 + 39, 999983 * 1000003):
        alpha_factored(k)
        by_alpha = calls.copy()
        calls.clear()
        pisano_factored(k)
        assert calls == by_alpha, k
        calls.clear()


def test_pisano_factored_at_twice_a_power_of_five():
    # pi(k) <= 6k, with equality exactly at k = 2 * 5^n.
    for n in (*range(1, 30), 100, 1000):
        k = 2 * 5**n
        assert pisano_factored(k) == 6 * k, n


def test_factorize_examples():
    assert factorize(1200) == [(2, 4), (3, 1), (5, 2)]
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(2) == [(2, 1)]
    assert factorize(1) == []
    with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
        factorize(0)


def test_factorize_reconstructs_input():
    for k in range(2, 2000):
        product = 1
        for p, s in factorize(k):
            assert is_prime(p)
            product *= p**s
        assert product == k


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == primes


def _is_prime_by_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_division_below_2e5():
    for n in range(200_000):
        assert is_prime(n) == _is_prime_by_division(n), n


@pytest.mark.parametrize(
    "n",
    [
        3215031751,                  # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,         # ... to every prime base up to 31
        318665857834031151167461,    # ... to every prime base up to 37; 41 catches it
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_above_the_miller_rabin_bound():
    # From 3.3e24 on, a base that witnesses compositeness still decides.
    assert not is_prime(43**16)
    assert not is_prime(1009 * 1013**8)
    # A strong probable prime to every base is not certified there.
    with pytest.raises(ValueError, match="only below 3317044064679887385961981"):
        is_prime(10**25 + 13)


@pytest.mark.parametrize(
    "n, expected",
    [
        (2**64 + 1, [(274177, 1), (67280421310721, 1)]),
        (999983 * 1000003, [(999983, 1), (1000003, 1)]),
        (2**5 * 1009**3 * 1013, [(2, 5), (1009, 3), (1013, 1)]),
    ],
)
def test_factorize_beyond_small_primes(n, expected):
    assert factorize(n) == expected


def test_factorize_keeps_the_prime_trial_division_leaves(monkeypatch):
    # Once d*d passes what trial division leaves, that is 1 or a prime and
    # is not tested again; a cofactor left past every d below 1000 still
    # goes through rho, and is_prime certifies each prime rho finds.
    calls = []
    monkeypatch.setattr(fib, "is_prime", lambda n: calls.append(n) or is_prime(n))
    assert factorize(25013) == [(25013, 1)]
    assert factorize(2 * 3 * 25013) == [(2, 1), (3, 1), (25013, 1)]
    assert factorize(2**10) == [(2, 10)]
    assert calls == []
    assert factorize(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]
    assert {1000003, 1000033} <= set(calls)


@pytest.mark.parametrize(
    "n, expected",
    [
        (1009 * 1049, [(1009, 1), (1049, 1)]),
        (1019**2 * 3, [(3, 1), (1019, 2)]),
    ],
)
def test_factorize_when_a_rho_batch_overshoots(n, expected):
    # Rho meets both primes of what trial division leaves within one batch
    # of _RHO_BATCH steps, so gcd gives n and the batch is redone one gcd at
    # a time.
    assert factorize(n) == expected


@pytest.mark.parametrize("batch", [1, 128, 10**9])
def test_factorize_does_not_depend_on_the_rho_batch(monkeypatch, batch):
    # 10**9 makes each round of rho a single batch.
    monkeypatch.setattr(fib, "_RHO_BATCH", batch)
    primes = [p for p in range(1000, 1200) if _is_prime_by_division(p)]
    cases = [(p, q) for i, p in enumerate(primes) for q in primes[i:]]
    cases += [(p, p, p) for p in primes]
    cases += list(zip(primes, primes[3:], primes[7:])) + [(p, p, q) for p, q in zip(primes, primes[1:])]
    for factors in cases:
        assert factorize(prod(factors)) == sorted(Counter(factors).items()), factors


@pytest.mark.parametrize(
    "p, s, expected",
    [
        (2, 1, 3),
        (2, 2, 6),
        (2, 3, 6),
        (2, 4, 12),
        (3, 1, 4),
        (5, 3, 125),
    ],
)
def test_alpha_prime_power_examples(p, s, expected):
    assert alpha_prime_power(p, s) == expected


def test_alpha_of_powers_of_five():
    for s in range(1, 7):
        assert alpha_prime_power(5, s) == 5**s


def test_alpha_prime_power_matches_direct_scan():
    cases = [(2, s) for s in range(1, 7)] + [(3, s) for s in range(1, 5)]
    cases += [(5, 1), (5, 2), (5, 3), (7, 2), (11, 2), (13, 2)]
    for p, s in cases:
        assert alpha_prime_power(p, s) == alpha_direct(p**s).alpha, (p, s)


def test_alpha_prime_power_matches_direct_scan_over_primes():
    for p in range(2, 2000):
        if is_prime(p):
            assert alpha_prime_power(p, 1) == alpha_direct(p).alpha, p
            if p < 150:
                assert alpha_prime_power(p, 2) == alpha_direct(p * p).alpha, p


def test_factored_routes_never_scan(monkeypatch):
    # The factored routes are the check on the scans, so none may call one.
    def answers():
        out = [(alpha_factored(k), pisano_factored(k), sufficient_by_alpha(k, 10),
                solvable_classes(k, 1), solvable_classes(k, k // 2)) for k in range(2, 2001)]
        primes = [p for p in range(3, 200) if is_prime(p)]
        return out + [alpha_prime_power(p, s) for p in primes for s in range(1, 5)]

    expected = answers()

    def scan(k, bound, what):
        raise AssertionError(f"a factored route scanned k = {k}")

    monkeypatch.setattr(fib, "_scan", scan)
    assert answers() == expected


def test_scans_never_use_the_factored_routes(monkeypatch):
    # The scans are the check on the factored routes, so neither may use
    # fast doubling or factorize, pisano_direct's order of F(alpha+1) included.
    def refuse(*args):
        raise AssertionError("a direct scan used fast doubling or factorize")

    walked = _walked_up_to_2000()
    monkeypatch.setattr(fib, "_doubling", refuse)
    monkeypatch.setattr(fib, "factorize", refuse)
    for k, (alpha, period) in walked.items():
        assert alpha_direct(k).alpha == alpha, k
        assert pisano_direct(k) == period, k
    for k in (10, 50, 250, 1250, 6250, 31250, 156250):
        assert alpha_direct(k).alpha == 3 * k // 2, k
        assert pisano_direct(k) == 6 * k, k


def test_lifting_when_p_squared_divides_f_alpha(monkeypatch):
    # No prime p with p^2 | F(alpha(p)) is known; pretend F(8) = 147 = 3 * 7^2
    # modulo 7^s for s >= 2 (it is 21 = 3 * 7), so that alpha(7^s) = 7^(s-2) * 8.
    doubling = fib._doubling

    def lifted(i, k):
        if i == 8 and k % 49 == 0:
            return 147 % k, doubling(i, k)[1]
        return doubling(i, k)

    monkeypatch.setattr(fib, "_doubling", lifted)
    monkeypatch.setattr(fib, "_scan", lambda k, bound, what: pytest.fail("scanned"))
    assert alpha_prime_power(7, 1) == 8
    assert alpha_prime_power(7, 2) == 8
    assert alpha_prime_power(7, 3) == 56
    assert alpha_prime_power(7, 5) == 8 * 7**3
    (term,) = alpha_factored(7**3).trace
    assert term.rule == "alpha(p^s) = p^s / gcd(p^s, F(alpha(p))) * alpha(p)"


def test_alpha_factored_examples():
    assert alpha_factored(12).alpha == 12   # lcm(6, 4)
    assert alpha_factored(1200).alpha == 300  # lcm(12, 4, 25)
    assert alpha_factored(6).alpha == 12    # lcm(3, 4)
    assert alpha_factored(6).method == "factored"


def test_alpha_factored_trace_is_complete():
    result = alpha_factored(1200)
    assert [(t.prime, t.exponent, t.alpha) for t in result.trace] == [
        (2, 4, 12),
        (3, 1, 4),
        (5, 2, 25),
    ]
    assert all(t.rule for t in result.trace)


def test_factored_alpha_certifies_no_prime_again(monkeypatch):
    # factorize proves each prime it returns; alpha_factored does not test it again.
    calls = []
    monkeypatch.setattr(fib, "is_prime", lambda n: calls.append(n) or is_prime(n))
    assert alpha_factored(1200).alpha == 300
    assert calls == []


def test_alpha_factored_unit_modulus():
    # k = 1 has no prime powers: alpha(1) is the lcm of none, 1.
    assert alpha_factored(1) == AlphaResult(1, 1, "factored", ())
    assert pisano_factored(1) == 1
    with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
        alpha_factored(0)


def test_factored_agrees_with_direct_scan_sample():
    for k in range(1, 1501):
        assert alpha_factored(k).alpha == alpha_direct(k).alpha, k


def test_cassini_exact_small():
    for i in range(1, 101):
        f_i, f_next = fib_pair(i)
        f_prev = f_next - f_i
        assert f_prev * f_next - f_i * f_i == (-1) ** i


def test_cassini_mod_k_small():
    for k in (2, 3, 7, 25, 50):
        state = FibPairState.start(k).advance()  # (F(1), F(2))
        f_prev = 0
        for i in range(1, 1001):
            f_i, f_next = state.pair
            assert (f_prev * f_next - f_i * f_i) % k == (-1) ** i % k
            f_prev = f_i
            state = state.advance()


def test_zero_exactly_at_multiples_of_alpha():
    """F(i) = 0 (mod k) iff alpha(k) divides i."""
    for k in range(1, 201):
        alpha = alpha_direct(k).alpha
        state = FibPairState.start(k)
        for i in range(1, 3 * pisano_direct(k) + 1):
            state = state.advance()
            assert (state.pair[0] == 0) == (i % alpha == 0), (k, i)
