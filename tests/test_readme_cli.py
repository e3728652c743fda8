"""Golden outputs for the CLI examples in the README, run in-process.

Each golden file holds the exact stdout of one README example.  The
`--grid` example reads `board.txt` from the golden directory, so the test
runs from there and passes the file name exactly as the README writes it.
Each example's `--json --quiet-meta` output must be the `result` of its
`--json` envelope.
"""

import json
from pathlib import Path

import pytest

from lightchase.cli import main

GOLDEN = Path(__file__).parent / "golden"

README_EXAMPLES = {
    "simulate_uniform": "simulate --rows 5 --cols 5 --k 4 --q 1",
    "simulate_grid_json": "simulate --grid board.txt --json",
    "alpha_1200_factored": "alpha 1200 --method factored",
    "alpha_12": "alpha 12",
    "solvable_max_rows": "solvable --k 5 --q 1 --max-rows 10",
    "solvable_classes": "solvable --k 6 --q 3 --classes",
    "sequence_exact": "sequence --q 1 --n 10 --exact",
    "verify": "verify --k-max 10 --rows-max 40",
}


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_example_matches_golden(name, capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.chdir(GOLDEN)
    code = main(README_EXAMPLES[name].split())
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_example_quiet_meta_json_is_the_bare_result(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    argv = README_EXAMPLES[name].split()
    assert main(argv + ["--json"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    assert main(argv + ["--json", "--quiet-meta"]) == 0
    assert json.loads(capsys.readouterr().out) == envelope["result"]
