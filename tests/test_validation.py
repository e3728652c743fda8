"""Argument validation: the exception class and exact message of every check.

Each row names a public callable, arguments that break one rule (or several,
to pin which rule is checked first), and the exception it must raise.  The
class is compared exactly: board geometry raises GeometryError (CLI exit 2),
every other bad argument a plain ValueError or IndexError (CLI exit 1).
"""

import pytest

from lightchase import (
    Board,
    BoardSpec,
    ChaseParams,
    FibPairState,
    GeometryError,
    alpha_direct,
    alpha_factored,
    alpha_prime_power,
    characterize,
    chase_row,
    chase_sequence,
    cross_validate,
    factorize,
    fib_pair,
    fib_pair_mod,
    format_grid,
    is_one_pass_solvable,
    is_prime,
    iter_s_mod,
    new_from_grid,
    one_pass,
    parse_grid,
    pisano_direct,
    pisano_factored,
    press,
    s_closed,
    s_exact,
    s_mod,
    solvable_classes,
    solvable_rows_up_to,
    sufficient_by_alpha,
)
from lightchase.cli import main

BOARD = Board(2, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
# Only a directly built Board can hold a float; press and chase_row copy it
# through new_from_grid, which refuses it.
FLOAT_BOARD = Board(5, [[1.5, 2, 3], [0, 0, 0]])
K_1 = "k must be >= 2, got 1"

CASES = [
    # engine
    (BoardSpec, (0, 3, 2, 0), GeometryError, "rows must be >= 1, got 0"),
    (BoardSpec, (-1, 2, 1, 5), GeometryError, "rows must be >= 1, got -1"),
    (BoardSpec, (3, 2, 1, 5), GeometryError, "cols must be >= 3, got 2"),
    (BoardSpec, (3, 3, 1, 0), GeometryError, K_1),
    (BoardSpec, (3, 3, 1, 5), GeometryError, K_1),
    (BoardSpec, (3, 3, 4, 4), GeometryError, "q must be in 0..k-1, got q=4 with k=4"),
    (BoardSpec, (3, 3, 4, -1), GeometryError, "q must be in 0..k-1, got q=-1 with k=4"),
    (new_from_grid, (1, [[0, 0, 0]]), GeometryError, K_1),
    (new_from_grid, (1, []), GeometryError, K_1),
    (new_from_grid, (3.0, [[1, 2, 4]]), GeometryError, "k must be an integer, got 3.0"),
    (BoardSpec, (3, 3, 3.0, 0), GeometryError, "k must be an integer, got 3.0"),
    (new_from_grid, (2, []), ValueError, "grid must be non-empty"),
    (new_from_grid, (2, [[]]), ValueError, "grid must be non-empty"),
    (new_from_grid, (2, [[0, 0, 0], [0, 0]]), ValueError, "grid has ragged rows"),
    (new_from_grid, (2, [[0, 0], [0, 0]]), GeometryError, "cols must be >= 3, got 2"),
    (press, (BOARD, 3, 0), IndexError, "row 3 out of range 0..2"),
    (press, (BOARD, 0, -1), IndexError, "col -1 out of range 0..2"),
    (press, (BOARD, 0, 0, -1), ValueError, "times must be >= 0, got -1"),
    (chase_row, (BOARD, 2), IndexError, "cannot chase row 2: no row below it"),
    (chase_row, (BOARD, -1), IndexError, "cannot chase row -1: no row below it"),
    (one_pass, (Board(2, [[0, 0, 0], [0, 0]]),), ValueError, "grid has ragged rows"),
    (parse_grid, ("0 3 2\n",), ValueError, "declared rows must be >= 1, got 0"),
    (parse_grid, ("-" + "9" * 4000 + " 1 1\n",), ValueError,
     "declared rows must be >= 1, got -" + "9" * 79),
    # fib
    (FibPairState.start, (0,), ValueError, "k must be >= 1, got 0"),
    (fib_pair, (-1,), ValueError, "index must be >= 0, got -1"),
    (fib_pair_mod, (-1, 5), ValueError, "index must be >= 0, got -1"),
    (fib_pair_mod, (3, 0), ValueError, "k must be >= 1, got 0"),
    (fib_pair_mod, (-1, 0), ValueError, "index must be >= 0, got -1"),
    (alpha_direct, (0,), ValueError, "k must be >= 1, got 0"),
    (pisano_direct, (0,), ValueError, "k must be >= 1, got 0"),
    (pisano_factored, (-3,), ValueError, "k must be >= 1, got -3"),
    (factorize, (1,), ValueError, K_1),
    (alpha_prime_power, (3, 0), ValueError, "exponent must be >= 1, got 0"),
    (alpha_prime_power, (4, 0), ValueError, "exponent must be >= 1, got 0"),
    (alpha_prime_power, (4, 1), ValueError, "4 is not prime"),
    (alpha_factored, (1,), ValueError, K_1),
    # recurrence
    (ChaseParams, (-1,), ValueError, "q must be >= 0, got -1"),
    (ChaseParams, (-1, 1), ValueError, "q must be >= 0, got -1"),
    (ChaseParams, (0, 1), ValueError, K_1),
    (ChaseParams, (1, 5.0), ValueError, "k must be an integer, got 5.0"),
    (ChaseParams, (5, 5), ValueError, "q must be in 0..k-1, got q=5 with k=5"),
    (s_exact, (-1, 3), ValueError, "q must be >= 0, got -1"),
    (s_exact, (1, -1), ValueError, "index must be >= 0, got -1"),
    (s_exact, (-1, -1), ValueError, "q must be >= 0, got -1"),
    (s_mod, (-1, 3, 5), ValueError, "q must be >= 0, got -1"),
    (s_mod, (1, -1, 5), ValueError, "index must be >= 0, got -1"),
    (s_mod, (1, 3, 1), ValueError, K_1),
    (s_mod, (1, -1, 1), ValueError, "index must be >= 0, got -1"),
    (lambda q, k: next(iter_s_mod(q, k)), (-1, 5), ValueError, "q must be >= 0, got -1"),
    (lambda q, k: next(iter_s_mod(q, k)), (1, 1), ValueError, K_1),
    (s_closed, (-1, 3), ValueError, "q must be >= 0, got -1"),
    (s_closed, (1, -1), ValueError, "index must be >= 0, got -1"),
    (s_closed, (1, 3, 1), ValueError, K_1),
    (s_closed, (1, 3, 0), ValueError, "k must be >= 2, got 0"),
    (s_closed, (1, -1, 1), ValueError, "index must be >= 0, got -1"),
    (chase_sequence, (ChaseParams(1), -1), ValueError, "n must be >= 0, got -1"),
    (chase_sequence, (ChaseParams(1, 5), -2), ValueError, "n must be >= 0, got -2"),
    # solvability
    (is_one_pass_solvable, (1, 0, 3), ValueError, K_1),
    (is_one_pass_solvable, (1, 0, 0), ValueError, K_1),
    (is_one_pass_solvable, (5, 5, 3), ValueError, "q must be in 0..k-1, got q=5 with k=5"),
    (is_one_pass_solvable, (5, -1, 3), ValueError, "q must be in 0..k-1, got q=-1 with k=5"),
    (is_one_pass_solvable, (5, 1, 0), ValueError, "rows must be >= 1, got 0"),
    (sufficient_by_alpha, (1, 3), ValueError, K_1),
    (sufficient_by_alpha, (1, 0), ValueError, K_1),
    (sufficient_by_alpha, (5, 0), ValueError, "rows must be >= 1, got 0"),
    (solvable_classes, (1, 0), ValueError, K_1),
    (solvable_classes, (6, 6), ValueError, "q must be in 0..k-1, got q=6 with k=6"),
    (characterize, (1, 0), ValueError, K_1),
    (characterize, ("6", 1), ValueError, "k must be an integer, got '6'"),
    (characterize, (6, -1), ValueError, "q must be in 0..k-1, got q=-1 with k=6"),
    (solvable_rows_up_to, (1, 0, 5), ValueError, K_1),
    (solvable_rows_up_to, (1, 0, 0), ValueError, K_1),
    (solvable_rows_up_to, (5, 5, 5), ValueError, "q must be in 0..k-1, got q=5 with k=5"),
    (solvable_rows_up_to, (5, 1, 0), ValueError, "n must be >= 1, got 0"),
    # n is checked before k is factored: 10^25 + 13 cannot be certified prime.
    (solvable_rows_up_to, (10**25 + 13, 1, 0), ValueError, "n must be >= 1, got 0"),
    (cross_validate, (1, 0, 3, 3), GeometryError, K_1),
    (cross_validate, (5, 1, 0, 3), GeometryError, "rows must be >= 1, got 0"),
    (cross_validate, (5, 1, 3, 2), GeometryError, "cols must be >= 3, got 2"),
    (cross_validate, (5, 5, 3, 3), GeometryError, "q must be in 0..k-1, got q=5 with k=5"),
    # non-int parameters, refused by the check that reads them
    (is_one_pass_solvable, (7, 1.5, 4), ValueError, "q must be an integer, got 1.5"),
    (BoardSpec, (4, 3, 7, 1.5), GeometryError, "q must be an integer, got 1.5"),
    (BoardSpec, (2.0, 3, 7, 1), GeometryError, "rows must be an integer, got 2.0"),
    (BoardSpec, (3, 3.5, 4, 1), GeometryError, "cols must be an integer, got 3.5"),
    (cross_validate, (5, 1.0, 3, 3), GeometryError, "q must be an integer, got 1.0"),
    (s_mod, (1.5, 4, 7), ValueError, "q must be an integer, got 1.5"),
    (s_closed, (1, 4.0, 7), ValueError, "index must be an integer, got 4.0"),
    (ChaseParams, (1, 7.0), ValueError, "k must be an integer, got 7.0"),
    (chase_sequence, (ChaseParams(1), 3.0), ValueError, "n must be an integer, got 3.0"),
    (fib_pair_mod, (10, 7.0), ValueError, "k must be an integer, got 7.0"),
    (fib_pair, ("3",), ValueError, "index must be an integer, got '3'"),
    (alpha_direct, (7.0,), ValueError, "k must be an integer, got 7.0"),
    (alpha_factored, (7.0,), ValueError, "k must be an integer, got 7.0"),
    (alpha_factored, (1.5,), ValueError, "k must be an integer, got 1.5"),
    (alpha_factored, ("12",), ValueError, "k must be an integer, got '12'"),
    (alpha_factored, (None,), ValueError, "k must be an integer, got None"),
    (alpha_prime_power, (7.0, 1), ValueError, "p must be an integer, got 7.0"),
    (alpha_prime_power, (7.0, 0), ValueError, "exponent must be >= 1, got 0"),
    (factorize, (12.0,), ValueError, "k must be an integer, got 12.0"),
    (is_prime, (7.0,), ValueError, "n must be an integer, got 7.0"),
    (press, (BOARD, 0, 0, 1.5), ValueError, "times must be an integer, got 1.5"),
    (new_from_grid, (5, [[1.5, 2, 3], [0, 0, 0]]), ValueError,
     "grid entries must be integers, got 1.5"),
    (new_from_grid, (5, [[1, 2, 3], [0, "4", 0]]), ValueError,
     "grid entries must be integers, got '4'"),
    (press, (FLOAT_BOARD, 0, 0), ValueError, "grid entries must be integers, got 1.5"),
    (chase_row, (FLOAT_BOARD, 0), ValueError, "grid entries must be integers, got 1.5"),
    # A directly built Board with no rows, or with rows of no columns,
    # which every constructor refuses.
    (one_pass, (Board(5, []),), ValueError, "grid must be non-empty"),
    (one_pass, (Board(5, [[]]),), ValueError, "grid must be non-empty"),
    (one_pass, (Board(5, [[], []]),), ValueError, "grid must be non-empty"),
    (format_grid, (Board(5, []),), ValueError, "grid must be non-empty"),
    (format_grid, (Board(5.0, [[0, 1, 2]]),), GeometryError, "k must be an integer, got 5.0"),
    (format_grid, (Board(5, [[0, 1], [1, 0]]),), GeometryError, "cols must be >= 3, got 2"),
    (solvable_classes, (6, 3.0), ValueError, "q must be an integer, got 3.0"),
    (solvable_rows_up_to, (5, 1, 7.5), ValueError, "n must be an integer, got 7.5"),
    (solvable_rows_up_to, (2, 0, 10**6 + 1), ValueError,
     "solvable_rows_up_to would list 1000001 rows; the list is capped at 1000000"),
    (chase_sequence, (ChaseParams(1, 5), 10**6), ValueError,
     "chase_sequence would list 1000001 terms; the list is capped at 1000000"),
    (chase_sequence, (ChaseParams(1), 10**4 + 1), ValueError,
     "chase_sequence would list 10002 terms; the list is capped at 10001"),
    (sufficient_by_alpha, (5, 4.0), ValueError, "rows must be an integer, got 4.0"),
    # A refusal quotes at most 80 characters of the value it refuses.
    (alpha_direct, (-10**200,), ValueError, "k must be >= 1, got -1" + "0" * 78),
    (alpha_factored, ("x" * 200,), ValueError, "k must be an integer, got '" + "x" * 79),
    (BoardSpec, (3, 3, 10**100, 10**100), GeometryError,
     f"q must be in 0..k-1, got q={'1' + '0' * 79} with k={'1' + '0' * 79}"),
]


def _case_id(case):
    fn, args = case[0], case[1]
    name = "iter_s_mod" if fn.__name__ == "<lambda>" else fn.__qualname__
    return f"{name}{args!r}"[:60]


@pytest.mark.parametrize("fn, args, error, message", CASES, ids=[_case_id(c) for c in CASES])
def test_bad_argument_raises_exact_class_and_message(fn, args, error, message):
    with pytest.raises(Exception) as info:
        fn(*args)
    assert type(info.value) is error
    assert str(info.value) == message


def test_s_mod_accepts_an_offset_above_k():
    # Only q >= 0 is checked: S(3) = -6q, and -42 = 3 (mod 5).
    assert s_mod(7, 3, 5) == 3
    assert s_closed(7, 3, 5) == 3


CLI_CASES = [
    ("solvable --k 1 --q 0 --classes", 1, K_1),
    ("solvable --k 5 --q 1 --max-rows 0", 1, "n must be >= 1, got 0"),
    ("simulate --rows 3 --cols 3 --k 1 --q 0", 2, K_1),
    ("simulate --rows 0 --cols 3 --k 2 --q 0", 2, "rows must be >= 1, got 0"),
    ("simulate --rows 3 --cols 3 --k 3 --q 3", 2, "q must be in 0..k-1, got q=3 with k=3"),
    ("sequence --q 5 --n 3 --k 3", 1, "q must be in 0..k-1, got q=5 with k=3"),
    ("sequence --q -1 --n 3 --exact", 1, "q must be >= 0, got -1"),
    ("sequence --q 1 --n -1 --k 5", 1, "n must be >= 0, got -1"),
    ("alpha 0", 1, "k must be >= 1, got 0"),
    ("alpha 1 --method factored", 1, K_1),
    ("alpha 1 --method both", 1, K_1),
    ("verify --k-max 1 --rows-max 5", 1, "--k-max must be >= 2, got 1"),
    ("verify --k-max 4 --rows-max 0", 1, "--rows-max must be >= 1, got 0"),
    ("verify --k-max 4 --rows-max 5 --cols 2", 1, "--cols must be >= 3, got 2"),
]


@pytest.mark.parametrize("argv, code, message", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_cli_exit_code_follows_the_exception_class(argv, code, message, capsys):
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_SOLVABLE_USAGE = (
    "usage: lightchase solvable [-h] --k K --q Q (--max-rows MAX_ROWS | --classes)\n"
    "                           [--json] [--quiet-meta]\n"
)
_SEQUENCE_USAGE = (
    "usage: lightchase sequence [-h] --q Q --n N (--k K | --exact) [--json]\n"
    "                           [--quiet-meta]\n"
)
_ALPHA_USAGE = (
    "usage: lightchase alpha [-h] [--method {direct,factored,both}] [--json]\n"
    "                        [--quiet-meta]\n"
    "                        k\n"
)
_TOP_USAGE = "usage: lightchase [-h] command ...\n"

ARGPARSE_CASES = [
    ("solvable --k x --q 1 --max-rows 5",
     _SOLVABLE_USAGE + "lightchase solvable: error: argument --k: invalid int value: 'x'\n"),
    # Each of solvable and sequence takes exactly one of its two modes.
    ("solvable --k 5 --q 1",
     _SOLVABLE_USAGE + "lightchase solvable: error: one of the arguments --max-rows --classes "
     "is required\n"),
    ("solvable --k 5 --q 1 --max-rows 5 --classes",
     _SOLVABLE_USAGE + "lightchase solvable: error: argument --classes: not allowed with "
     "argument --max-rows\n"),
    ("sequence --q 1 --n 3",
     _SEQUENCE_USAGE + "lightchase sequence: error: one of the arguments --k --exact "
     "is required\n"),
    ("sequence --q 1 --n 3 --k 5 --exact",
     _SEQUENCE_USAGE + "lightchase sequence: error: argument --exact: not allowed with "
     "argument --k\n"),
    ("alpha 12 --method bogus",
     _ALPHA_USAGE + "lightchase alpha: error: argument --method: invalid choice: 'bogus' "
     "(choose from 'direct', 'factored', 'both')\n"),
    ("frobnicate",
     _TOP_USAGE + "lightchase: error: argument command: invalid choice: 'frobnicate' "
     "(choose from 'simulate', 'alpha', 'solvable', 'sequence', 'verify')\n"),
    ("", _TOP_USAGE + "lightchase: error: the following arguments are required: command\n"),
    ("--bogus", _TOP_USAGE + "lightchase: error: unrecognized arguments: --bogus\n"),
]


def _unquote_choices(text):
    # Later Python releases print "(choose from a, b)" where earlier ones
    # print "(choose from 'a', 'b')"; the rest of the message is the same.
    head, sep, tail = text.partition("(choose from ")
    return head + sep + tail.replace("'", "")


@pytest.mark.parametrize("argv, stderr", ARGPARSE_CASES, ids=[c[0] or "<none>" for c in ARGPARSE_CASES])
def test_cli_argparse_error_is_exit_1_with_usage(argv, stderr, capsys, monkeypatch):
    # argparse wraps the usage line to the terminal width it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _unquote_choices(captured.err) == _unquote_choices(stderr)
