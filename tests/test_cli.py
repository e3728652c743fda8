"""CLI behavior: output formats, exit codes, and the grid round trip."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lightchase.fib
from lightchase import (Board, ChaseParams, GeometryError, alpha_direct, alpha_factored,
                        characterize, chase_sequence, cli, format_grid, one_pass, s_exact,
                        s_mod, solvability, solvable_rows_up_to)
from lightchase.cli import main
from lightchase.engine import _HEADER_CAP, parse_grid
from lightchase.fib import AlphaResult


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_simulate_five_row_walkthrough(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--rows", "5", "--cols", "5", "--k", "4", "--q", "1")
    assert code == 0
    assert "press multiplicities by row: 1 2 2 1" in out
    assert "SOLVED" in out and "UNSOLVED" not in out


def test_simulate_seven_rows_unsolved(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--rows", "7", "--cols", "5", "--k", "4", "--q", "1")
    assert code == 0
    assert "UNSOLVED" in out


def test_simulate_six_rows_still_solves(capsys):
    # S(6) = 104 = 0 (mod 4); the first unsolvable height above five is seven.
    code, out, _ = run_cli(capsys, "simulate", "--rows", "6", "--cols", "5", "--k", "4", "--q", "1")
    assert code == 0
    assert "UNSOLVED" not in out


class _Terminal(io.StringIO):
    def isatty(self):
        return True


def test_verdicts_are_coloured_on_a_terminal(monkeypatch):
    # SOLVED is green and UNSOLVED red on a terminal, unless NO_COLOR is set.
    for no_color in (False, True):
        if no_color:
            monkeypatch.setenv("NO_COLOR", "1")
        else:
            monkeypatch.delenv("NO_COLOR")
        for rows, verdict, code in (("5", "SOLVED", "32"), ("7", "UNSOLVED", "31")):
            out = _Terminal()
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["simulate", "--rows", rows, "--cols", "5", "--k", "4", "--q", "1"]) == 0
            last = out.getvalue().splitlines()[-1]
            assert last == (verdict if no_color else f"\x1b[{code}m{verdict}\x1b[0m")


def test_simulate_single_row_dark_start(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--rows", "1", "--cols", "3", "--k", "2", "--q", "0")
    assert code == 0
    assert "nothing to chase" in out
    assert "SOLVED" in out


def test_simulate_json_payload(capsys):
    code, payload = run_json(
        capsys, "simulate", "--rows", "5", "--cols", "5", "--k", "4", "--q", "1", "--json"
    )
    assert code == 0
    assert payload["command"] == "simulate"
    assert payload["params"] == {"rows": 5, "cols": 5, "k": 4, "q": 1}
    result = payload["result"]
    assert result["presses"] == [[1] * 5, [2] * 5, [2] * 5, [1] * 5]
    assert result["solved"] is True
    assert result["uniform"] is True
    assert result["initial_grid"] == [[3] * 5 for _ in range(5)]


def test_simulate_quiet_meta_json_is_bare_result(capsys):
    code, payload = run_json(
        capsys, "simulate", "--rows", "2", "--cols", "3", "--k", "2", "--q", "1",
        "--json", "--quiet-meta",
    )
    assert code == 0
    assert "command" not in payload
    assert "solved" in payload


def test_simulate_uniform_board_is_capped(capsys):
    # Refused before the board is built, so the call returns at once.
    assert run_cli(capsys, "simulate", "--rows", "100000000", "--cols", "3", "--k", "2",
                   "--q", "1") == (1, "", "error: --rows * --cols is capped at 1000000 lights\n")


def test_simulate_grid_header_is_capped(capsys, tmp_path):
    # The file holds no grid lines: it is refused from its header alone.
    path = tmp_path / "g.txt"
    path.write_text("2000 1000 5\n")
    code, out, err = run_cli(capsys, "simulate", "--grid", str(path))
    assert (code, out) == (1, "")
    assert err == "error: --grid rows * cols is capped at 1000000 lights\n"
    # At the cap the header passes, and parse_grid finds the lines missing.
    path.write_text("1000 1000 5\n")
    code, _, err = run_cli(capsys, "simulate", "--grid", str(path))
    assert code == 1
    assert err == "error: expected 1000 grid lines, found 0\n"


def test_simulate_grid_refuses_a_bad_cols_from_the_header(capsys, tmp_path):
    # The file holds no grid lines: cols is judged before any is read.
    path = tmp_path / "g.txt"
    path.write_text("1 2 5\n")
    assert run_cli(capsys, "simulate", "--grid", str(path)) == (
        2, "", "error: cols must be >= 3, got 2\n")


@pytest.mark.parametrize("text, message", [
    ("", "empty grid file"),
    ("2000 1000\n", "header must be 'rows cols k', got '2000 1000'"),
    ("2000 x 5\n", "header must be three integers, got '2000 x 5'"),
    ("-2000 -1000 5\n", "declared rows must be >= 1, got -2000"),
    # Over the cap, but malformed: the header's own fault is reported.
    ("2000 1000 x\n", "header must be three integers, got '2000 1000 x'"),
    ("2000 1000 5 7\n", "header must be 'rows cols k', got '2000 1000 5 7'"),
])
def test_simulate_grid_malformed_header_keeps_its_message(capsys, tmp_path, text, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert run_cli(capsys, "simulate", "--grid", str(path))[::2] == (1, f"error: {message}\n")


@pytest.mark.parametrize("text", ["1 1 " + "7" * 200_000 + "\n", "x" * 300_000])
def test_simulate_grid_long_header_gets_a_short_message(capsys, tmp_path, text):
    # One character past the header cap is read, and 80 characters are quoted.
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "simulate", "--grid", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: header must be ") and len(err) < 200


NINES = "9" * 4000


@pytest.mark.parametrize("text, message", [
    (f"1 3 -{NINES}\n", f"k must be >= 2, got -{NINES[:79]}"),
    (f"1 -{NINES} 5\n", f"cols must be >= 3, got -{NINES[:79]}"),
], ids=["k", "cols"])
def test_simulate_grid_long_refused_number_gets_a_short_message(capsys, tmp_path, text, message):
    # A header short enough to be read whole, whose k or cols is refused:
    # 80 characters of the number are quoted, its sign included.
    with pytest.raises(GeometryError) as info:
        parse_grid(text)
    assert str(info.value) == message
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "simulate", "--grid", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n") and len(err) < 200


@pytest.mark.parametrize("pad, accepted", [(70_000, False), (_HEADER_CAP - 3, False),
                                           (_HEADER_CAP - 4, True)])
def test_parse_grid_and_simulate_judge_a_padded_header_alike(capsys, tmp_path, pad, accepted):
    # "1" + pad spaces + "3 5": a header line of pad + 4 characters.
    text = "1" + " " * pad + "3 5\n0 0 0\n"
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "simulate", "--grid", str(path))
    if accepted:
        assert parse_grid(text).grid == [[0, 0, 0]]
        assert (code, err) == (0, "") and out.endswith("SOLVED\n")
        return
    message = f"header must be at most {_HEADER_CAP} characters, got {text[:80]!r}"
    with pytest.raises(ValueError) as info:
        parse_grid(text)
    assert str(info.value) == message
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_simulate_usage_errors(capsys):
    assert run_cli(capsys, "simulate")[0] == 1
    assert run_cli(capsys, "simulate", "--rows", "5", "--cols", "5", "--k", "4")[0] == 1
    assert run_cli(capsys, "simulate", "--rows", "x")[0] == 1
    assert run_cli(capsys, "simulate", "--grid", "/nonexistent/grid.txt")[0] == 1


def test_simulate_invalid_geometry_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "--rows", "5", "--cols", "2", "--k", "4", "--q", "1")
    assert code == 2
    assert "cols" in err


def test_simulate_grid_and_uniform_flags_conflict(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 3 2\n1 0 1\n")
    assert run_cli(capsys, "simulate", "--grid", str(path), "--rows", "5")[0] == 1


def test_simulate_grid_file(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 3 2\n1 1 1\n0 0 0\n")
    code, out, _ = run_cli(capsys, "simulate", "--grid", str(path))
    assert code == 0
    assert "start grid:" in out


def test_simulate_malformed_grid_is_exit_1(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 3 2\n1 1 1\n")
    assert run_cli(capsys, "simulate", "--grid", str(path))[0] == 1


def test_simulate_narrow_grid_file_is_exit_2(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2 2\n1 1\n")
    assert run_cli(capsys, "simulate", "--grid", str(path))[0] == 2


def test_grid_round_trip_reproduces_transcript(capsys, tmp_path):
    code, first = run_json(
        capsys, "simulate", "--rows", "4", "--cols", "5", "--k", "3", "--q", "2",
        "--json", "--quiet-meta",
    )
    assert code == 0
    path = tmp_path / "replay.txt"
    lines = [f"{first['rows']} {first['cols']} {first['k']}"]
    lines += [" ".join(str(v) for v in row) for row in first["initial_grid"]]
    path.write_text("\n".join(lines) + "\n")
    code, second = run_json(capsys, "simulate", "--grid", str(path), "--json", "--quiet-meta")
    assert code == 0
    for key in ("presses", "row_states", "final_row", "solved", "initial_grid"):
        assert second[key] == first[key]


@pytest.mark.parametrize("argv, keys", [
    # The README's --grid example: the whole result replays.
    ("simulate --grid board.txt", None),
    # A uniform board, whose grid file repeats one line, so parse_grid and
    # format_grid convert it once.  `uniform` and `q` differ by design,
    # since a grid file states no q.
    ("simulate --rows 60 --cols 40 --k 7 --q 3",
     ("initial_grid", "presses", "row_states", "final_row", "solved")),
], ids=["board.txt", "uniform-60x40"])
def test_format_grid_replays_a_simulate_result(capsys, monkeypatch, tmp_path, argv, keys):
    # A result's initial_grid, written by format_grid and run again through
    # simulate --grid, gives the same chase.
    monkeypatch.chdir(Path(__file__).parent / "golden")
    code, first = run_json(capsys, *argv.split(), "--json")
    assert code == 0
    first = first["result"]
    path = tmp_path / "replay.txt"
    path.write_text(format_grid(Board(first["k"], first["initial_grid"])))
    code, second = run_json(capsys, "simulate", "--grid", str(path), "--json")
    assert code == 0
    second = second["result"]
    if keys is None:
        assert second == first
    else:
        assert [second[key] for key in keys] == [first[key] for key in keys]


def test_output_is_deterministic(capsys):
    args = ("solvable", "--k", "6", "--q", "3", "--classes", "--json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_quiet_meta_drops_the_header(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--q", "1", "--n", "3", "--k", "5", "--quiet-meta")
    assert code == 0
    assert "command:" not in out and "params:" not in out
    assert out.startswith("S_0..S_3")


def test_no_ansi_codes_with_no_color(capsys):
    _, out, _ = run_cli(capsys, "simulate", "--rows", "5", "--cols", "5", "--k", "4", "--q", "1")
    assert "\x1b[" not in out


def test_alpha_factored_with_trace(capsys):
    code, out, _ = run_cli(capsys, "alpha", "1200", "--method", "factored")
    assert code == 0
    assert "alpha(1200) = 300" in out
    assert "lcm(12, 4, 25) = 300" in out


def test_alpha_both_agree(capsys):
    code, out, _ = run_cli(capsys, "alpha", "12", "--method", "both")
    assert code == 0
    assert out.count("alpha(12) = 12") == 2
    assert "methods agree" in out


def test_alpha_unit_modulus(capsys):
    code, out, _ = run_cli(capsys, "alpha", "1", "--method", "direct")
    assert code == 0
    assert "alpha(1) = 1" in out
    code, out, _ = run_cli(capsys, "alpha", "1")
    assert code == 0
    assert "alpha(1) = 1  [direct-scan]\nalpha(1) = 1  [factored]\nmethods agree\n" in out


def test_alpha_usage_errors(capsys):
    assert run_cli(capsys, "alpha", "1", "--method", "factored") == (
        0, "command: alpha\nparams: k=1 method=factored\nalpha(1) = 1  [factored]\n", "")
    assert run_cli(capsys, "alpha", "0", "--method", "factored")[0] == 1
    assert run_cli(capsys, "alpha", "0")[0] == 1
    assert run_cli(capsys, "alpha", "12", "--method", "bogus")[0] == 1


def test_alpha_direct_scan_is_capped(capsys):
    # The direct scan walks up to 6k steps; above the cap the default
    # (both methods) and --method direct are refused, the factored route runs.
    for extra in ((), ("--method", "direct"), ("--method", "both")):
        code, _, err = run_cli(capsys, "alpha", str(10**12), *extra)
        assert code == 1
        assert "--method factored" in err
    code, out, _ = run_cli(capsys, "alpha", str(10**12), "--method", "factored")
    assert code == 0
    assert f"alpha({10**12}) = 750000000000  [factored]" in out


def test_alpha_scan_bound_refusal_is_exit_2(capsys, monkeypatch):
    # A scan that runs past 6k is a bug in the scan, not a bad input.
    monkeypatch.setattr(lightchase.fib, "_walk", lambda k, start, stop, a, b: (0, a, b))
    code, out, err = run_cli(capsys, "alpha", "10", "--method", "direct")
    assert (code, out) == (2, "")
    assert err == ("error: no Fibonacci multiple of 10 within 60 terms; "
                   "pi(k) <= 6k rules this out, so the scan is buggy\n")


def test_alpha_method_mismatch_is_exit_2(capsys, monkeypatch):
    # The two routes never disagree on a correct build; a wrong direct scan
    # is the only way to reach the mismatch output.
    monkeypatch.setattr(cli, "alpha_direct", lambda k: AlphaResult(k, 5, "direct-scan"))
    code, out, err = run_cli(capsys, "alpha", "12")
    assert (code, err) == (2, "")
    assert out.splitlines()[-1] == "METHOD MISMATCH: direct-scan 5, factored 12"
    code, payload = run_json(capsys, "alpha", "12", "--json")
    assert code == 2
    assert payload["result"]["match"] is False
    assert (payload["result"]["alpha_direct"], payload["result"]["alpha_factored"]) == (5, 12)


def test_alpha_json(capsys):
    code, payload = run_json(capsys, "alpha", "12", "--json")
    assert code == 0
    result = payload["result"]
    assert result["alpha_direct"] == result["alpha_factored"] == 12
    assert result["match"] is True
    assert [t["prime"] for t in result["trace"]] == [2, 3]


def test_solvable_list(capsys):
    code, out, _ = run_cli(capsys, "solvable", "--k", "5", "--q", "1", "--max-rows", "10")
    assert code == 0
    assert "4 5 9 10" in out


def test_solvable_list_empty(capsys):
    code, out, _ = run_cli(capsys, "solvable", "--k", "7", "--q", "1", "--max-rows", "5")
    assert code == 0
    assert "none" in out


def test_solvable_max_rows_is_capped(capsys):
    # The library counts the list from the classes and refuses it before it
    # is built, so the call returns at once: alpha(7) = 8, classes 0 and 7.
    code, out, err = run_cli(capsys, "solvable", "--k", "7", "--q", "1", "--max-rows", str(10**9))
    assert (code, out) == (1, "")
    assert err == ("error: solvable_rows_up_to would list 250000000 rows; "
                   "the list is capped at 1000000\n")
    assert run_cli(capsys, "solvable", "--k", "7", "--q", "1", "--max-rows", str(10**6))[0] == 0


def test_solvable_max_rows_caps_the_list_not_n(capsys):
    # A huge --max-rows answers when the rows up to it are few.
    argv = ("solvable", "--k", "1000000000039", "--q", "1", "--max-rows", str(10**12), "--quiet-meta")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.endswith(": 333333333345 333333333346 666666666691 666666666692\n")


def test_solvable_classes_complete(capsys):
    code, out, _ = run_cli(capsys, "solvable", "--k", "3", "--q", "1", "--classes")
    assert code == 0
    assert "0 3 4 7 (mod 8)" in out
    assert "complete: yes" in out
    assert "classes 0 and -1 mod 4" in out


def test_solvable_classes_incomplete(capsys):
    code, payload = run_json(capsys, "solvable", "--k", "6", "--q", "3", "--classes", "--json")
    assert code == 0
    result = payload["result"]
    assert result["complete"] is False
    assert 6 in result["residues"]
    assert result["residues"] == sorted(result["residues"])


def test_solvable_classes_for_huge_k(capsys):
    # A prime k near 10^12 has a Pisano period near 3 * 10^11; the classes
    # come from the factorization of k, not from a walk through that period.
    k = 10**12 + 39
    code, out, _ = run_cli(capsys, "solvable", "--k", str(k), "--q", "1", "--classes")
    assert code == 0
    assert "0 333333333345 (mod 333333333346)" in out
    assert "complete: yes" in out


def test_solvable_classes_list_is_capped(capsys):
    # q = 0 (or q sharing most of k's factors) makes every residue of the
    # period solvable; such a list is refused before it is built, in
    # characterize's words.
    for k, q, count in ((10**12 + 39, 0, 333333333346), (10**6, 0, 1500000),
                        (2 * 3**13, 3**13, 2834352)):
        code, out, err = run_cli(capsys, "solvable", "--k", str(k), "--q", str(q), "--classes")
        assert (code, out) == (1, "")
        assert err == (f"error: characterize would list {count} residues; "
                       f"the list is capped at 1000000\n")
    assert run_cli(capsys, "solvable", "--k", "999999", "--q", "0", "--classes")[0] == 0


# A CLI call and the library call whose refusal it must print unchanged.
LIBRARY_REFUSALS = [
    ("solvable --k 1000000 --q 0 --classes", lambda: characterize(10**6, 0)),
    ("solvable --k 5 --q 0 --max-rows 2000000", lambda: solvable_rows_up_to(5, 0, 2 * 10**6)),
    ("sequence --q 1 --n 1000000 --k 5", lambda: chase_sequence(ChaseParams(1, 5), 10**6)),
    ("alpha 0", lambda: alpha_direct(0)),
    ("alpha 0 --method factored", lambda: alpha_factored(0)),
    ("sequence --q -1 --n 3 --exact", lambda: ChaseParams(-1)),
]


@pytest.mark.parametrize("argv, call", LIBRARY_REFUSALS, ids=[c[0] for c in LIBRARY_REFUSALS])
def test_cli_prints_library_refusals_verbatim(argv, call, capsys):
    # The CLI neither re-checks an argument the library checks nor rewords
    # the library's message: its error line is the library's text.
    with pytest.raises(ValueError) as info:
        call()
    assert run_cli(capsys, *argv.split()) == (1, "", f"error: {info.value}\n")


def test_prime_beyond_the_miller_rabin_bound_is_refused(capsys):
    # 10^25 + 13 is a strong probable prime to every base 2..41 and lies
    # past the bound where those bases certify primality.
    k = str(10**25 + 13)
    for argv in (("alpha", k, "--method", "factored"), ("solvable", "--k", k, "--q", "1", "--classes")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == (f"error: cannot certify that {k} is prime: Miller-Rabin with the bases "
                       f"2..41 is exact only below 3317044064679887385961981\n")


def test_pollard_rho_past_its_step_budget_is_refused(capsys, monkeypatch):
    # 1000003 * 1000033 needs about a thousand rho steps; with a budget of
    # 100 the factorization is refused before the first round that could
    # pass it.  The 98-digit product of three Mersenne primes has no factor
    # below 1000, and its refusal quotes its first 80 digits.
    monkeypatch.setattr(lightchase.fib, "_RHO_BUDGET", 100)
    for n in (1000003 * 1000033, (2**89 - 1) * (2**107 - 1) * (2**127 - 1)):
        k = str(n)
        for argv in (("alpha", k, "--method", "factored"),
                     ("solvable", "--k", k, "--q", "1", "--classes"),
                     ("solvable", "--k", k, "--q", "1", "--max-rows", "10")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1
            assert out == ""
            assert err == (f"error: cannot factor {k[:80]}: Pollard rho would pass its budget "
                           f"of 100 steps\n")


def test_solvable_classes_factors_k_once(capsys, monkeypatch):
    # The size check and the report both need pi(k); one factorization of k
    # serves them (factorize also runs on p - (5|p) for each prime p of k).
    k = 100000000003 * 300000000077
    calls = []
    factorize = lightchase.fib.factorize

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(lightchase.fib, "factorize", counting)
    code, out, _ = run_cli(capsys, "solvable", "--k", str(k), "--q", "1", "--classes")
    assert code == 0
    assert calls.count(k) == 1
    calls.clear()
    report = characterize(k, 1)
    assert calls.count(k) == 1
    assert f"mod {report.period})" in out


def test_solvable_usage_errors(capsys):
    assert run_cli(capsys, "solvable", "--k", "5", "--q", "1")[0] == 1
    assert run_cli(capsys, "solvable", "--k", "5", "--q", "1", "--max-rows", "5", "--classes")[0] == 1
    assert run_cli(capsys, "solvable", "--k", "5", "--q", "7", "--max-rows", "5")[0] == 1
    assert run_cli(capsys, "solvable", "--k", "1", "--q", "0", "--max-rows", "5")[0] == 1


def test_sequence_exact(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--q", "1", "--n", "10", "--exact")
    assert code == 0
    assert "0 -1 2 -6 15 -40 104 -273 714 -1870 4895" in out


def test_sequence_mod(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--q", "1", "--n", "4", "--k", "5")
    assert code == 0
    assert "0 4 2 4 0" in out


def test_sequence_zero_offset(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--q", "0", "--n", "5", "--exact")
    assert code == 0
    assert "0 0 0 0 0 0" in out


def test_sequence_usage_errors(capsys):
    assert run_cli(capsys, "sequence", "--q", "1", "--n", "5")[0] == 1
    assert run_cli(capsys, "sequence", "--q", "1", "--n", "5", "--k", "4", "--exact")[0] == 1
    assert run_cli(capsys, "sequence", "--q", "1", "--n", "100001", "--exact")[0] == 1
    assert run_cli(capsys, "sequence", "--q", "9", "--n", "5", "--k", "4")[0] == 1


def test_sequence_exact_is_capped_before_any_work(capsys):
    # chase_sequence lists at most 10^4 + 1 exact terms and refuses more
    # before it computes any; S(10^4) has about 4,180 digits.
    code, out, err = run_cli(capsys, "sequence", "--q", "1", "--n", "10300", "--exact")
    assert code == 1
    assert out == ""
    assert err == "error: chase_sequence would list 10301 terms; the list is capped at 10001\n"
    code, out, _ = run_cli(capsys, "sequence", "--q", "1", "--n", "10000", "--exact")
    assert code == 0
    assert out.startswith("command: sequence\nparams: q=1 n=10000 mode=exact\nS_0..S_10000 (q=1, exact): 0 -1 2 ")


def test_sequence_exact_cap_counts_the_digits_of_q(capsys):
    # The digits of q count through the interpreter's int-to-str limit: with
    # q = 10^300, S(10^4) has about 4,480 digits, and the answer is refused
    # whole, with nothing on stdout.
    if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("no int-to-str digit limit in this interpreter")
    q = str(10**300)
    code, out, err = run_cli(capsys, "sequence", "--q", q, "--n", "10000", "--exact")
    assert (code, out) == (1, "")
    with pytest.raises(ValueError) as info:  # the interpreter's own message
        str(s_exact(10**300, 10000))
    assert err == f"error: {info.value}\n"
    assert run_cli(capsys, "sequence", "--q", q, "--n", "100", "--exact")[0] == 0
    code, _, err = run_cli(capsys, "sequence", "--q", q, "--n", "-1", "--exact")
    assert (code, err) == (1, "error: n must be >= 0, got -1\n")


def test_sequence_exact_past_the_digit_limit_prints_nothing(capsys):
    # S(1) = -q prints when q has as many digits as the limit allows, and
    # the answer holding S(2) = 2q, one digit longer, is refused whole.
    if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("no int-to-str digit limit in this interpreter")
    q = "9" * sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "sequence", "--q", q, "--n", "1", "--exact")
    assert code == 0
    assert out.endswith(f", exact): 0 -{q}\n")
    for fmt in ((), ("--json",)):
        code, out, err = run_cli(capsys, "sequence", "--q", q, "--n", "2", "--exact", *fmt)
        assert (code, out) == (1, "")
        assert err.startswith("error: Exceeds the limit (")


def test_sequence_without_a_digit_limit_function(capsys, monkeypatch):
    # Python 3.10.0 to 3.10.6 lack sys.get_int_max_str_digits; the CLI reads
    # no digit limit, and the library's exact-term cap is the same.
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert run_cli(capsys, "sequence", "--q", "1", "--n", "10", "--k", "4")[0] == 0
    assert run_cli(capsys, "sequence", "--q", "1", "--n", "10", "--exact")[0] == 0
    code, out, err = run_cli(capsys, "sequence", "--q", "1", "--n", "10001", "--exact")
    assert (code, out) == (1, "")
    assert err == "error: chase_sequence would list 10002 terms; the list is capped at 10001\n"


def test_sequence_n_is_capped(capsys):
    # chase_sequence refuses the list before it computes any term, so the
    # call returns at once.
    code, out, err = run_cli(capsys, "sequence", "--q", "1", "--n", str(10**9), "--k", "7")
    assert (code, out) == (1, "")
    assert err == "error: chase_sequence would list 1000000001 terms; the list is capped at 1000000\n"


def test_verify_is_capped_before_any_simulation(capsys):
    # 3 * 60 * 500,499 = 90,089,820 cell updates at --k-max 1000; a huge
    # --k-max is refused just as fast.
    for k_max in ("1000", str(10**12)):
        code, out, err = run_cli(capsys, "verify", "--k-max", k_max, "--rows-max", "60")
        assert code == 1
        assert out == ""
        assert "--k-max, --rows-max and --cols" in err and "10000000" in err


def test_verify_cap_counts_cell_updates(capsys, monkeypatch):
    # cols * R * (sum of k over k = 2..10) = 3 * 40 * 54 at R = 40.
    monkeypatch.setattr(cli, "_VERIFY_CAP", 6_480)
    assert run_cli(capsys, "verify", "--k-max", "10", "--rows-max", "40")[0] == 0
    monkeypatch.setattr(cli, "_VERIFY_CAP", 6_479)
    assert run_cli(capsys, "verify", "--k-max", "10", "--rows-max", "40")[0] == 1


def test_verify_sixty_by_sixty_answers(capsys):
    # 3 * 60 * 1829 = 329,220 cell updates, well under the cap.
    code, payload = run_json(capsys, "verify", "--k-max", "60", "--rows-max", "60", "--json")
    assert code == 0
    result = payload["result"]
    assert result["cases"] == result["passed"] == 109_740
    assert result["failed"] == 0 and result["witnesses"] == []


def test_verify_runs_one_simulation_per_k_and_q(capsys, monkeypatch):
    calls = []

    def counting_one_pass(board):
        calls.append(board.rows)
        return one_pass(board)

    monkeypatch.setattr(solvability, "one_pass", counting_one_pass)
    assert run_cli(capsys, "verify", "--k-max", "10", "--rows-max", "40")[0] == 0
    # q = 0..k-1 for k = 2..10, each on one 40-row board.
    assert calls == [40] * 54


def test_verify_reports_a_disagreement_with_its_rows(capsys, monkeypatch):
    # Corrupt column 1 of the row the 5-row game ends on, for k = 5, q = 2
    # only: verify must name that game, its final row and S(5) mod 5.
    def corrupt_one_pass(board):
        transcript = one_pass(board)
        if board.k == 5 and board.grid[0][0] == 3:
            row = transcript.row_states[3]
            row[1] = (row[1] + 1) % 5
        return transcript

    monkeypatch.setattr(solvability, "one_pass", corrupt_one_pass)
    expected = s_mod(2, 5, 5)
    final_row = [expected] * 3
    final_row[1] = (expected + 1) % 5
    argv = ("verify", "--k-max", "6", "--rows-max", "8")
    code, payload = run_json(capsys, *argv, "--json")
    assert code == 2
    result = payload["result"]
    assert (result["cases"], result["passed"], result["failed"]) == (160, 159, 1)
    assert result["witnesses"] == [
        {"k": 5, "q": 2, "rows": 5, "final_row": final_row, "expected": expected}]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert out.splitlines()[-3:] == [
        "160 cases: 159 passed, 1 failed",
        f"FAIL: k=5 q=2 rows=5: final row {' '.join(map(str, final_row))}, expected {expected}",
        "ORACLE DISAGREEMENT",
    ]


def test_verify_small_grid(capsys):
    code, payload = run_json(capsys, "verify", "--k-max", "2", "--rows-max", "1", "--json")
    assert code == 0
    assert payload["result"]["cases"] == 2
    assert payload["result"]["failed"] == 0
    assert payload["result"]["witnesses"] == []


def test_verify_covers_zero_divisor_case(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k-max", "6", "--rows-max", "12")
    assert code == 0
    assert "240 cases: 240 passed, 0 failed" in out
    assert "OK" in out


def test_verify_usage_errors(capsys):
    assert run_cli(capsys, "verify", "--k-max", "1", "--rows-max", "5")[0] == 1
    assert run_cli(capsys, "verify", "--k-max", "4", "--rows-max", "0")[0] == 1
    assert run_cli(capsys, "verify", "--k-max", "4", "--rows-max", "5", "--cols", "2")[0] == 1


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "frobnicate")[0] == 1


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "simulate", "--help")[0] == 0


def test_a_reader_that_stops_early_does_not_fail_the_run():
    # The child's stdout is left buffered, as it is by default.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    # About 1 MB of JSON, more than a pipe holds, so the child meets a
    # closed pipe however it buffers its output.
    proc = subprocess.Popen(
        [sys.executable, "-m", "lightchase", "sequence", "--q", "1", "--n", "200000", "--k", "7",
         "--json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
    # A short answer is still in the buffer when main flushes it into a pipe
    # whose reader left before the child started; the interpreter's own
    # flush at exit must not meet the closed pipe again.
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as closed_pipe:
        proc = subprocess.run([sys.executable, "-m", "lightchase", "alpha", "12"],
                              stdout=closed_pipe, stderr=subprocess.PIPE, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lightchase", "alpha", "12"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "alpha(12) = 12" in proc.stdout
