"""Solvability decisions, residue-class characterization, and the oracle bridge."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightchase import fib, solvability
from lightchase.engine import BoardSpec, new_uniform, one_pass
from lightchase.fib import alpha_direct, is_prime, pisano_direct
from lightchase.recurrence import iter_s_mod, s_mod
from lightchase.solvability import (
    _disagreements,
    characterize,
    cross_validate,
    is_one_pass_solvable,
    solvable_classes,
    solvable_rows_up_to,
    sufficient_by_alpha,
)


def enumerated_residues(k, q, period):
    """The oracle: every r in 0..period-1 with S(r) = 0 (mod k), step by step."""
    return tuple(r for r, s in zip(range(period), iter_s_mod(q, k)) if s == 0)


def assert_matches_enumeration(k, q):
    report = characterize(k, q)
    assert report.period == pisano_direct(k)
    assert report.alpha == alpha_direct(k).alpha
    residues = enumerated_residues(k, q, report.period)
    assert report.residues == residues, (k, q)
    alpha_classes = {r for r in range(report.period) if r % report.alpha in (0, report.alpha - 1)}
    assert report.complete == (set(residues) == alpha_classes), (k, q)


@pytest.mark.parametrize(
    "k, q, rows, expected",
    [
        (5, 1, 9, True),
        (5, 1, 4, True),
        (2, 1, 4, False),
        (2, 1, 7, False),
        (6, 3, 6, True),   # zero divisors: 3 * F(6) * F(7) = 312 = 0 (mod 6)
        (4, 1, 7, False),
    ],
)
def test_is_one_pass_solvable(k, q, rows, expected):
    assert is_one_pass_solvable(k, q, rows) is expected


def test_is_one_pass_solvable_matches_the_recursion():
    for k in range(2, 31):
        for q in range(k):
            for rows in range(1, 301):
                assert is_one_pass_solvable(k, q, rows) == (s_mod(q, rows, k) == 0), (k, q, rows)


def test_is_one_pass_solvable_at_huge_rows_for_prime_k():
    """For prime k and q != 0, the alpha classes are exactly the solvable ones."""
    outcomes = set()
    for k in [p for p in range(2, 60) if is_prime(p)] + [10007]:
        alpha = alpha_direct(k).alpha
        for rows in (10**100, alpha * 10**100, alpha * 10**100 - 1):
            expected = sufficient_by_alpha(k, rows)
            outcomes.add(expected)
            for q in range(1, min(k, 20)):
                assert is_one_pass_solvable(k, q, rows) == expected, (k, q, rows)
    assert outcomes == {False, True}


def test_is_one_pass_solvable_validates_input():
    with pytest.raises(ValueError):
        is_one_pass_solvable(1, 0, 3)
    with pytest.raises(ValueError):
        is_one_pass_solvable(5, 5, 3)
    with pytest.raises(ValueError):
        is_one_pass_solvable(5, 1, 0)


def test_sufficient_by_alpha_examples():
    assert sufficient_by_alpha(3, 7)      # 7 = -1 (mod 4)
    assert sufficient_by_alpha(12, 11)    # 11 = -1 (mod 12)
    assert sufficient_by_alpha(12, 24)
    assert not sufficient_by_alpha(12, 13)


def test_sufficiency_is_not_necessity():
    assert not sufficient_by_alpha(6, 6)
    assert is_one_pass_solvable(6, 3, 6)


def test_sufficient_rows_really_solve_for_every_q():
    for k in (2, 3, 4, 5, 6, 10, 12):
        for rows in range(1, 61):
            if sufficient_by_alpha(k, rows):
                for q in range(k):
                    assert is_one_pass_solvable(k, q, rows), (k, q, rows)


def test_characterize_three_states():
    report = characterize(3, 1)
    assert report.alpha == 4
    assert report.period == 8
    assert report.residues == (0, 3, 4, 7)
    assert report.complete


def test_characterize_five_states():
    report = characterize(5, 1)
    assert report.period == 20
    assert report.residues == (0, 4, 5, 9, 10, 14, 15, 19)
    assert report.complete


def test_characterize_six_states_offset_three():
    """Composite k picks up solvable classes beyond the two alpha classes."""
    report = characterize(6, 3)
    assert report.alpha == 12
    assert report.period == 24
    predicted = {r for r in range(24) if r % 12 in (0, 11)}
    assert predicted < set(report.residues)
    assert report.residues == tuple(r for r in range(24) if r % 3 in (0, 2))
    assert not report.complete


def test_characterize_zero_offset_is_degenerate():
    report = characterize(5, 0)
    assert report.residues == tuple(range(report.period))
    assert not report.complete


def test_characterize_matches_enumeration():
    for k in range(2, 151):
        for q in range(k):
            assert_matches_enumeration(k, q)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 10**4).filter(lambda k: not is_prime(k)), st.data())
def test_characterize_matches_enumeration_composite_k(k, data):
    assert_matches_enumeration(k, data.draw(st.integers(0, k - 1)))


def test_characterize_six_states_offset_one():
    """Composite k can fail completeness even at q = 1: the classes mod 12
    come from alpha(2) = 3 and alpha(3) = 4, not from alpha(6) = 12 alone."""
    report = characterize(6, 1)
    assert report.residues == (0, 3, 8, 11, 12, 15, 20, 23)
    assert (report.modulus, report.classes) == (12, (0, 3, 8, 11))
    assert not report.complete


def test_solvable_classes_invariants():
    for k in range(2, 61):
        alpha = alpha_direct(k).alpha
        for q in range(k):
            modulus, classes = solvable_classes(k, q)
            report = characterize(k, q)
            assert (report.modulus, report.classes) == (modulus, classes)
            assert alpha % modulus == 0
            assert list(classes) == sorted(set(classes))
            assert 0 in classes and all(0 <= c < modulus for c in classes)
            assert (modulus - 1) in classes or modulus == 1
            assert report.residues == tuple(
                r for r in range(report.period) if r % modulus in classes)
    assert solvable_classes(12, 0) == (1, (0,))
    assert solvable_classes(6, 3) == (3, (0, 2))


def test_characterize_refuses_a_report_too_large_to_build():
    # pi(2^60) = 3 * 2^59, and with q = 2^59 two classes mod 3 are solvable:
    # 2^60 residues, refused before any is built.
    with pytest.raises(ValueError) as info:
        characterize(2**60, 2**59)
    assert str(info.value) == (
        f"characterize would list {2**60} residues; the list is capped at 1000000")


def test_characterize_a_power_of_two_without_fast_doubling(monkeypatch):
    # alpha(2^s) and pi(2^s) are closed forms in s, so a 4,300-digit k
    # answers from its factorization alone, with no doubling mod k.
    def refuse(*args):
        raise AssertionError("characterize used fast doubling")

    monkeypatch.setattr(fib, "_doubling", refuse)
    s = 14284
    report = characterize(2**s, 1)
    alpha = 3 << (s - 2)
    assert (report.alpha, report.period, report.modulus) == (alpha, 2 * alpha, alpha)
    assert report.residues == (0, alpha - 1, alpha, 2 * alpha - 1)
    assert report.classes == (0, alpha - 1)
    assert report.complete


def test_solvable_classes_for_huge_prime_k():
    k = 10**12 + 39
    modulus, classes = solvable_classes(k, 1)
    assert classes == (0, modulus - 1)
    assert is_one_pass_solvable(k, 1, modulus) and is_one_pass_solvable(k, 1, modulus - 1)
    assert not is_one_pass_solvable(k, 1, modulus + 1)
    report = characterize(k, 1)
    assert report.complete and report.residues == (0, modulus - 1)


def test_solvable_classes_validates_input():
    with pytest.raises(ValueError):
        solvable_classes(1, 0)
    with pytest.raises(ValueError):
        solvable_classes(5, 5)


def test_characterize_always_contains_alpha_classes():
    for k in range(2, 25):
        for q in range(k):
            report = characterize(k, q)
            assert 0 in report.residues
            for r in range(report.period):
                if r % report.alpha in (0, report.alpha - 1):
                    assert r in report.residues, (k, q, r)


def test_residues_depend_on_q_for_composite_k():
    assert characterize(4, 1).residues == (0, 5)
    assert characterize(4, 2).residues == (0, 2, 3, 5)


def test_solvable_rows_examples():
    assert solvable_rows_up_to(5, 1, 10) == [4, 5, 9, 10]
    assert solvable_rows_up_to(4, 1, 6) == [5, 6]
    assert solvable_rows_up_to(2, 1, 9) == [2, 3, 5, 6, 8, 9]


def test_solvable_rows_matches_pointwise_checks():
    for k, q in [(2, 1), (5, 1), (6, 3), (9, 4)]:
        sweep = solvable_rows_up_to(k, q, 50)
        pointwise = [r for r in range(1, 51) if is_one_pass_solvable(k, q, r)]
        assert sweep == pointwise


def test_solvable_rows_matches_enumeration():
    for k in range(2, 151):
        for q in range(k):
            sweep = [r for r in enumerated_residues(k, q, 301) if r]
            assert solvable_rows_up_to(k, q, 300) == sweep, (k, q)


def test_solvable_rows_at_the_edges():
    assert solvable_rows_up_to(7, 0, 5) == [1, 2, 3, 4, 5]
    assert solvable_rows_up_to(7, 1, 1) == []
    assert solvable_rows_up_to(7, 1, 7) == [7]
    with pytest.raises(ValueError):
        solvable_rows_up_to(7, 1, 0)


def test_solvable_rows_cap_counts_the_rows_listed_not_n():
    # alpha(7) = 8: rows = 0 or 7 (mod 8), two rows in every eight.
    rows = solvable_rows_up_to(7, 1, 4 * 10**6)
    assert len(rows) == 10**6
    assert rows[-2:] == [4 * 10**6 - 1, 4 * 10**6]
    with pytest.raises(ValueError, match="would list 1000001 rows"):
        solvable_rows_up_to(7, 1, 4 * 10**6 + 7)


def test_s_mod_is_periodic_with_pisano_period():
    for k, q in [(2, 1), (3, 2), (5, 1), (6, 3), (10, 7)]:
        period = pisano_direct(k)
        for i in range(period + 1):
            assert s_mod(q, i, k) == s_mod(q, i + period, k)


def test_cross_validate_examples():
    assert cross_validate(4, 1, 5, 5)
    assert cross_validate(2, 1, 7, 3)
    assert cross_validate(9, 4, 23, 6)


def test_cross_validate_small_grid():
    for k in range(2, 9):
        for q in range(k):
            for cols in (3, 4, 5):
                for rows in range(1, 31):
                    assert cross_validate(k, q, rows, cols), (k, q, rows, cols)


def test_disagreements_read_every_shorter_board(monkeypatch):
    # With the formula side shifted by one every row count disagrees, so the
    # sweep reports the final row it read for each r; each must be what an
    # independent one_pass of the r-row board ends with.
    monkeypatch.setattr(solvability, "_terms",
                        lambda q, k: ((s + 1) % k for s in iter_s_mod(q, k)))
    for k in range(2, 9):
        for q in range(k):
            for cols in (3, 4, 5):
                expected = [
                    (r, one_pass(new_uniform(BoardSpec(r, cols, k, q))).final_row,
                     (s_mod(q, r, k) + 1) % k)
                    for r in range(1, 31)
                ]
                for rows in range(1, 31):
                    assert _disagreements(k, q, rows, cols) == expected[:rows], (k, q, rows, cols)


def test_disagreements_check_the_solved_flag(monkeypatch):
    def flipped(board):
        transcript = one_pass(board)
        transcript.solved = not transcript.solved
        return transcript

    monkeypatch.setattr(solvability, "one_pass", flipped)
    # Five rows of the (4, 1) game chase out: S(5) = 0 (mod 4).
    assert _disagreements(4, 1, 5, 5) == [(5, [0] * 5, 0)]
    assert not cross_validate(4, 1, 5, 5)
