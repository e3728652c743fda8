"""CLI behavior: output formats, exit codes, and the grid round trip."""

import json
import subprocess
import sys

import pytest

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


def test_sequence_n_is_capped(capsys):
    # Refused before any list is built, so the call returns at once.
    code, _, err = run_cli(capsys, "sequence", "--q", "1", "--n", str(10**9), "--k", "7")
    assert code == 1
    assert "--n" in err


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
