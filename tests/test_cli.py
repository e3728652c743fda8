"""CLI behavior: output formats, exit codes, and the grid round trip."""

import io
import json
import subprocess
import sys

import pytest

import lightchase.fib
from lightchase import characterize, cli, one_pass, s_mod, solvability
from lightchase.cli import main


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
    code, out, err = run_cli(capsys, "simulate", "--rows", "100000000", "--cols", "3",
                             "--k", "2", "--q", "1")
    assert code == 1
    assert out == ""
    assert "--rows" in err and "--cols" in err


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
    # with no explicit method, k = 1 falls back to the direct scan
    assert run_cli(capsys, "alpha", "1")[0] == 0


def test_alpha_usage_errors(capsys):
    assert run_cli(capsys, "alpha", "1", "--method", "factored")[0] == 1
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
    monkeypatch.setattr(lightchase.fib, "_walk", lambda k, pair, start, stop, a, b: (0, a, b))
    code, out, err = run_cli(capsys, "alpha", "10", "--method", "direct")
    assert (code, out) == (2, "")
    assert err == ("error: no Fibonacci multiple of 10 within 60 terms; "
                   "pi(k) <= 6k rules this out, so the scan is buggy\n")


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
    # Refused before any list is built, so the call returns at once.
    code, _, err = run_cli(capsys, "solvable", "--k", "7", "--q", "1", "--max-rows", str(10**9))
    assert code == 1
    assert "--max-rows" in err
    assert run_cli(capsys, "solvable", "--k", "7", "--q", "1", "--max-rows", str(10**6))[0] == 0


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
    # period solvable; such a list is refused before it is built.
    for k, q in ((10**12 + 39, 0), (10**6, 0), (2 * 3**13, 3**13)):
        code, _, err = run_cli(capsys, "solvable", "--k", str(k), "--q", str(q), "--classes")
        assert code == 1
        assert "--classes" in err and "1000000" in err
    assert run_cli(capsys, "solvable", "--k", "999999", "--q", "0", "--classes")[0] == 0


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
    # pass it.
    monkeypatch.setattr(lightchase.fib, "_RHO_BUDGET", 100)
    k = str(1000003 * 1000033)
    for argv in (("alpha", k, "--method", "factored"), ("solvable", "--k", k, "--q", "1", "--classes"),
                 ("solvable", "--k", k, "--q", "1", "--max-rows", "10")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: cannot factor {k}: Pollard rho would pass its budget of 100 steps\n"


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
    # |S(10300)| has about 4300 digits, past CPython's default limit on
    # int-to-str conversion; the call is refused up front, not half printed.
    code, out, err = run_cli(capsys, "sequence", "--q", "1", "--n", "10300", "--exact")
    assert code == 1
    assert out == ""
    assert "--exact" in err
    code, out, _ = run_cli(capsys, "sequence", "--q", "1", "--n", "10000", "--exact")
    assert code == 0
    assert out.startswith("command: sequence\nparams: q=1 n=10000 mode=exact\nS_0..S_10000 (q=1, exact): 0 -1 2 ")


def test_sequence_exact_cap_counts_the_digits_of_q(capsys):
    if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("no int-to-str digit limit in this interpreter")
    q = str(10**300)
    code, _, err = run_cli(capsys, "sequence", "--q", q, "--n", "10000", "--exact")
    assert code == 1
    assert "--exact" in err
    assert run_cli(capsys, "sequence", "--q", q, "--n", "100", "--exact")[0] == 0
    # A q with as many digits as the limit leaves room for S(0) = 0 only;
    # the cap is then 0, never negative.
    q = "9" * sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "sequence", "--q", q, "--n", "0", "--exact")
    assert code == 0
    assert out.endswith(", exact): 0\n")
    code, _, err = run_cli(capsys, "sequence", "--q", q, "--n", "1", "--exact")
    assert (code, err) == (1, f"error: --exact is capped at n = 0 for q = {q}; use --k for longer prefixes\n")
    code, _, err = run_cli(capsys, "sequence", "--q", q, "--n", "-1", "--exact")
    assert (code, err) == (1, "error: n must be non-negative, got -1\n")


def test_sequence_without_a_digit_limit_function(capsys, monkeypatch):
    # Python 3.10.0 to 3.10.6 lack sys.get_int_max_str_digits.
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert run_cli(capsys, "sequence", "--q", "1", "--n", "10", "--k", "4")[0] == 0
    assert run_cli(capsys, "sequence", "--q", "1", "--n", "10", "--exact")[0] == 0
    code, _, err = run_cli(capsys, "sequence", "--q", "1", "--n", "10001", "--exact")
    assert code == 1
    assert "--exact is capped at n = 10000" in err


def test_sequence_n_is_capped(capsys):
    # Refused before any list is built, so the call returns at once.
    code, _, err = run_cli(capsys, "sequence", "--q", "1", "--n", str(10**9), "--k", "7")
    assert code == 1
    assert "--n" in err


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lightchase", "alpha", "12"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "alpha(12) = 12" in proc.stdout
