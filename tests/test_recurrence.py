"""The row-state sequence: recursion, modular form, and the closed form."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lightchase.engine import BoardSpec, new_uniform, one_pass
from lightchase.recurrence import (
    ChaseParams,
    chase_sequence,
    iter_s_mod,
    s_closed,
    s_exact,
    s_mod,
)

# First eleven row states for the brightest uniform start (q = 1), exact.
BRIGHTEST_START = [0, -1, 2, -6, 15, -40, 104, -273, 714, -1870, 4895]


def test_s_exact_brightest_start_prefix():
    assert [s_exact(1, i) for i in range(11)] == BRIGHTEST_START


def test_s_exact_zero_offset_stays_zero():
    assert all(s_exact(0, i) == 0 for i in range(20))


def test_s_exact_scales_with_q():
    assert s_exact(2, 3) == -12


@pytest.mark.parametrize(
    "q, i, k, expected",
    [
        (1, 4, 5, 0),    # 15 divisible by five
        (1, 7, 2, 1),    # -273 is odd
        (3, 6, 6, 0),    # 3 * 104 = 312 = 0 (mod 6)
        (0, 9, 7, 0),
    ],
)
def test_s_mod_examples(q, i, k, expected):
    assert s_mod(q, i, k) == expected


def test_s_mod_matches_exact_reduction():
    for q in range(4):
        for i in range(30):
            for k in (2, 3, 7, 10):
                assert s_mod(q, i, k) == s_exact(q, i) % k


def test_iter_s_mod_streams_the_sequence():
    it = iter_s_mod(1, 5)
    assert [next(it) for _ in range(6)] == [s_mod(1, i, 5) for i in range(6)]


def test_s_closed_exact_values():
    assert s_closed(1, 9) == -1870  # (-1)^9 * 34 * 55
    assert s_closed(1, 0) == 0
    assert s_closed(2, 3) == -12


def test_s_closed_at_huge_index():
    # Frozen from the O(i) iterative recursion before the fast path existed.
    assert s_closed(2, 10**6, k=997) == 30
    assert s_mod(2, 10**6, 997) == 30


def test_closed_form_equals_recursion_exact():
    for q in range(11):
        for i in range(61):
            assert s_closed(q, i) == s_exact(q, i)


def test_closed_form_equals_recursion_mod_k():
    for k in range(2, 51):
        for q in (1, min(3, k - 1)):
            it = iter_s_mod(q, k)
            for i in range(10 * k + 1):
                assert next(it) == s_closed(q, i, k)


@given(q=st.integers(0, 50), i=st.integers(0, 200))
def test_linear_in_q(q, i):
    assert s_exact(q, i) == q * s_exact(1, i)


@given(q=st.integers(1, 20), i=st.integers(1, 120))
def test_sign_alternates(q, i):
    value = s_exact(q, i)
    assert (value < 0) == (i % 2 == 1)
    assert value != 0


def test_final_row_state_equals_s_mod():
    """The simulated last row sits at exactly S(rows) mod k, in every column."""
    for k, q in [(2, 1), (3, 2), (4, 1), (5, 3), (6, 3), (7, 0)]:
        for rows in range(1, 13):
            for cols in (3, 4, 5):
                transcript = one_pass(new_uniform(BoardSpec(rows, cols, k, q)))
                expected = s_mod(q, rows, k)
                assert transcript.final_row == [expected] * cols


def test_chase_params_validation():
    with pytest.raises(ValueError):
        ChaseParams(-1)
    with pytest.raises(ValueError):
        ChaseParams(1, 1)
    with pytest.raises(ValueError):
        ChaseParams(5, 5)
    assert ChaseParams(5).k is None


def test_chase_sequence_exact_and_mod():
    exact = chase_sequence(ChaseParams(1), 10)
    assert list(exact.values) == BRIGHTEST_START
    reduced = chase_sequence(ChaseParams(1, 5), 4)
    assert list(reduced.values) == [0, 4, 2, 4, 0]
    assert chase_sequence(ChaseParams(0), 5).values == (0,) * 6


def test_chase_sequence_satisfies_recursion():
    seq = chase_sequence(ChaseParams(3, 11), 40).values
    assert seq[0] == 0 and seq[1] == (-3) % 11
    for i in range(2, len(seq)):
        assert seq[i] == (-3 - seq[i - 2] - 3 * seq[i - 1]) % 11
