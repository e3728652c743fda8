"""Seeded inputs, operations and correctness checks for each workload.

build(name, seed, lc, root) returns a Workload: the operations of one round,
in order, each runnable plain (for the end-to-end metrics) or under a Tracer
(for the per-layer ones), with a check that holds its output against the
oracles in oracles.py. Rounds repeat the same operations, so every run
attempts whole rounds. The package sees only the generated inputs.

Inputs are drawn so that a round's cost hardly depends on the seed: primes
come from fixed pools, each every prime of a narrow window (with, where a
scan's length depends on it, the largest restricted period), so set-up does
the same work for every seed and two sets of runs with different seeds stay
comparable.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from math import lcm, prod
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import oracles
from spans import Tracer

CLI_TIMEOUT_S = 60


class CheckFailed(Exception):
    """An output disagrees with an oracle or with a property it must have."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    trace: Callable[[Tracer], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    ops: list[Op]
    final_check: Callable[[], None] = lambda: None
    # Samples taken once per traced round, outside any operation.
    probes: dict[str, Callable[[], float]] = field(default_factory=dict)
    rss_of_children: bool = False
    cleanup: Callable[[], None] = lambda: None


def _call(lc, name: str, check: Callable, *args) -> Op:
    layer, fn_name = name.split(".")
    fn = getattr(getattr(lc, layer), fn_name)
    return Op(name, partial(fn, *args), lambda t: t.call(name, fn, *args),
              lambda result: check(result, *args))


# ---- checks on library outputs; each takes (result, *call arguments) ----

def check_alpha_value(k: int, a: int) -> None:
    expect(oracles.is_restricted_period(k, a),
           f"alpha({k}) = {a}: F(a) != 0 mod k, or F(a/p) = 0 for a prime p | a")


def check_pisano_value(k: int, period: int) -> None:
    expect(oracles.is_pisano_period(k, period),
           f"pi({k}) = {period}: (F(P), F(P+1)) != (0, 1), or already at P/p")


def check_alpha_direct(res, k):
    expect(res.k == k, f"alpha_direct({k}) reports k = {res.k}")
    check_alpha_value(k, res.alpha)


def check_pisano_direct(res, k):
    check_pisano_value(k, res)


def check_trace_entries(k: int, a: int, trace) -> None:
    """A factored-alpha trace as (prime, exponent, alpha) triples."""
    expect(prod(p**s for p, s, _ in trace) == k, f"alpha trace of {k} does not multiply to k")
    expect(all(oracles.is_prime(p) for p, _, _ in trace), f"alpha trace of {k} has a non-prime")
    for p, s, ap in trace:
        check_alpha_value(p**s, ap)
    expect(lcm(*(ap for _, _, ap in trace)) == a, f"alpha({k}) = {a} is not the lcm of its trace")


def check_alpha_factored(res, k):
    check_alpha_value(k, res.alpha)
    check_trace_entries(k, res.alpha, [(t.prime, t.exponent, t.alpha) for t in res.trace])


def check_factorize(res, n):
    primes = [p for p, _ in res]
    expect(all(oracles.is_prime(p) and e >= 1 for p, e in res), f"factorize({n}) has a non-prime")
    expect(primes == sorted(set(primes)), f"factorize({n}) primes not strictly ascending")
    expect(prod(p**e for p, e in res) == n, f"factorize({n}) does not multiply to n")


def expected_residues(k: int, q: int, period: int) -> tuple[int, ...]:
    moduli = oracles.solvable_moduli(k, q)
    return tuple(r for r in range(period) if oracles.crt_solvable(moduli, r))


def check_report(k, q, a, period, residues, complete) -> None:
    """A characterize() report, against the CRT description of solvable rows."""
    check_alpha_value(k, a)
    check_pisano_value(k, period)
    expect(tuple(residues) == expected_residues(k, q, period),
           f"characterize({k}, {q}) residues differ from the CRT description")
    predicted = {r for r in range(period) if r % a in (0, a - 1)}
    expect(complete == (set(residues) == predicted), f"characterize({k}, {q}) complete flag wrong")


def check_characterize(res, k, q):
    expect((res.k, res.q) == (k, q), f"characterize({k}, {q}) reports k, q = {res.k}, {res.q}")
    check_report(k, q, res.alpha, res.period, res.residues, res.complete)


def check_is_one_pass_solvable(res, k, q, rows):
    expect(res is (oracles.s_value(q, rows, k) == 0),
           f"is_one_pass_solvable({k}, {q}, {rows}) = {res} disagrees with q*F(r)*F(r+1)")


def check_s_closed(res, q, i, k):
    expect(res == oracles.s_value(q, i, k), f"s_closed({q}, i, {k}) = {res} is wrong")


def check_sufficient_by_alpha(res, k, rows):
    a = oracles.alpha(k)
    expect(res is (rows % a in (0, a - 1)), f"sufficient_by_alpha({k}, {rows}) = {res} is wrong")


def solvable_rows(k: int, q: int, n: int) -> list[int]:
    moduli = oracles.solvable_moduli(k, q)
    return [r for r in range(1, n + 1) if oracles.crt_solvable(moduli, r)]


def check_solvable_rows_up_to(res, k, q, n):
    expect(res == solvable_rows(k, q, n), f"solvable_rows_up_to({k}, {q}, {n}) is wrong")


def check_cross_validate(res, k, q, rows, cols):
    expect(res is True, f"cross_validate({k}, {q}, {rows}, {cols}) = {res}")


def check_transcript(grid, k, presses, row_states, final_row, solved) -> None:
    """Presses applied by the stencil leave every row but the last dark and
    reproduce the final row."""
    rows, cols = len(grid), len(grid[0])
    expect(len(presses) == rows - 1 and len(row_states) == rows - 1,
           "transcript length is not rows - 1")
    expect(all(len(v) == cols and all(0 <= x < k for x in v) for v in presses),
           "press vector of wrong width or outside 0..k-1")
    after = oracles.stencil(grid, [[0] * cols] + presses, k)
    expect(not any(any(row) for row in after[:-1]), "presses leave a lit row above the last")
    expect(after[-1] == final_row, "final_row differs from the stencil's last row")
    expect(rows == 1 or row_states[-1] == final_row, "last row state differs from final_row")
    expect(solved == (not any(final_row)), "solved flag disagrees with final_row")


# ---- queries ----

def max_alpha_primes(lo: int, hi: int) -> list[int]:
    """Primes p in [lo, hi) whose restricted period is the largest possible, p - (5|p).

    A scan for alpha(p) then takes about p steps, and for pi(p) p - 1 steps
    (p = +-1 mod 5) or 2(p + 1) steps (p = +-2 mod 5), so the cost of an
    operation does not depend on which prime the seed picks.
    """
    return [p for p in range(lo | 1, hi, 2)
            if p != 5 and oracles.is_prime(p) and oracles.alpha(p) == p - oracles.legendre5(p)]


def _pisano_is_p_minus_1(p: int) -> bool:
    return p % 5 in (1, 4)


def queries(rng: random.Random, lc) -> Workload:
    """Single questions to the library at sizes today's linear routes finish.

    Per round: 22 s_closed, 6 sufficient_by_alpha, 3 solvable_rows_up_to,
    2 characterize, 3 alpha_direct, 2 alpha_factored, 2 factorize,
    3 is_one_pass_solvable and 4 pisano_direct. The counts put the median a
    quarter of the way into the sufficient_by_alpha group and the 95th
    percentile inside the pisano_direct group, the slowest, so neither falls
    between two groups of different cost, and a spell of contention on the
    shared machine has to slow most of a group to move them.
    """
    top = max_alpha_primes(998_000, 1_000_000)
    near_1e5 = [p for p in max_alpha_primes(98_000, 100_000) if _pisano_is_p_minus_1(p)]
    # k = 2p with pi(p) = p - 1 prime to 3 has alpha(k) = pi(k) = 3(p - 1).
    halves = [p for p in max_alpha_primes(48_000, 50_000) if _pisano_is_p_minus_1(p) and p % 3 == 2]
    near_25e3 = max_alpha_primes(24_000, 25_000)
    wall = max_alpha_primes(1000, 1100)
    near_1e6 = [p for p in range(999_001, 1_001_000, 2) if oracles.is_prime(p)]

    ops = []
    for _ in range(22):
        k = rng.randrange(2, 10**6)
        ops.append(_call(lc, "recurrence.s_closed", check_s_closed,
                         rng.randrange(k), rng.randrange(10**100, 2 * 10**100), k))
    for _ in range(6):
        k = rng.choice(near_25e3)
        a = k - oracles.legendre5(k)
        rows = rng.choice([a * rng.randrange(1, 10**4), a * rng.randrange(1, 10**4) - 1,
                           rng.randrange(1, 10**9)])
        ops.append(_call(lc, "solvability.sufficient_by_alpha", check_sufficient_by_alpha, k, rows))
    for _ in range(3):
        k = rng.randrange(100, 1000)
        ops.append(_call(lc, "solvability.solvable_rows_up_to", check_solvable_rows_up_to,
                         k, rng.randrange(k), rng.randrange(90_000, 100_000)))
    for k in (rng.choice(near_1e5), 2 * rng.choice(halves)):
        ops.append(_call(lc, "solvability.characterize", check_characterize, k, rng.randrange(k)))
    for _ in range(3):
        ops.append(_call(lc, "fib.alpha_direct", check_alpha_direct, rng.choice(top)))
    for _ in range(2):
        p = rng.choice(wall)
        ops.append(_call(lc, "fib.alpha_factored", check_alpha_factored,
                         p * p * rng.randrange(2, 31)))
    for _ in range(2):
        ops.append(_call(lc, "fib.factorize", check_factorize,
                         rng.choice(near_1e6) * rng.choice(near_1e6)))
    for _ in range(3):
        k = rng.randrange(3, 1000)
        a = oracles.alpha(k)
        rows = rng.choice([(10**6 // a) * a, (10**6 // a) * a - 1, rng.randrange(900_000, 10**6)])
        ops.append(_call(lc, "solvability.is_one_pass_solvable", check_is_one_pass_solvable,
                         k, rng.randrange(k), rows))
    for _ in range(4):
        # pi(p) = 2(p + 1): the slowest operation of the round.
        ops.append(_call(lc, "fib.pisano_direct", check_pisano_direct,
                         rng.choice([p for p in top if not _pisano_is_p_minus_1(p)])))
    return Workload(ops)


# ---- verify ----

VERIFY_PAIRS = 4
VERIFY_ROWS = 40
VERIFY_SAMPLE = 64


def verify(rng: random.Random, lc) -> Workload:
    """cross_validate over every (k, q, rows) for 8 seeded k in 2..40, all q,
    rows 1..40, on boards 3 to 5 columns wide.

    The k come in pairs k, 42 - k, so every seed checks 168 * 40 cases.
    """
    small = rng.sample(range(2, 21), VERIFY_PAIRS)
    ks = sorted(small + [42 - k for k in small])
    cases = [(k, q, rows, 3 + (q + rows) % 3)
             for k in ks for q in range(k) for rows in range(1, VERIFY_ROWS + 1)]
    ops = [_call(lc, "solvability.cross_validate", check_cross_validate, *c) for c in cases]
    sample = rng.sample(cases, VERIFY_SAMPLE)

    def final_check():
        # Re-run a sample through one_pass and hold it against the oracle's S.
        for k, q, rows, cols in sample:
            board = lc.engine.new_uniform(lc.engine.BoardSpec(rows, cols, k, q))
            tr = lc.engine.one_pass(board)
            expect(tr.final_row == [oracles.s_value(q, rows, k)] * cols,
                   f"one_pass final row for k={k} q={q} rows={rows} differs from S")
            check_transcript(board.grid, k, tr.presses, tr.row_states, tr.final_row, tr.solved)

    return Workload(ops, final_check)


# ---- boards ----

def grid_text(k: int, grid: list[list[int]]) -> str:
    """The grid file format, written independently of format_grid."""
    lines = [f"{len(grid)} {len(grid[0])} {k}"] + [" ".join(map(str, row)) for row in grid]
    return "\n".join(lines) + "\n"


def _pipeline(lc, text: str):
    board = lc.engine.parse_grid(text)
    return board, lc.engine.one_pass(board), lc.engine.format_grid(board)


def _traced_pipeline(lc, text: str, t: Tracer):
    eng = lc.engine
    board = t.call("engine.parse_grid", eng.parse_grid, text)
    return board, t.call("engine.one_pass", eng.one_pass, board), t.call(
        "engine.format_grid", eng.format_grid, board)


def _check_board(k, grid, text, result):
    board, tr, out = result
    expect(board.k == k and board.grid == grid, "parse_grid did not reproduce the grid")
    expect(out == text, "format_grid(parse_grid(text)) != text")
    check_transcript(grid, k, tr.presses, tr.row_states, tr.final_row, tr.solved)


PRIME_K = [p for p in range(20, 100) if oracles.is_prime(p)]
COMPOSITE_K = [c for c in range(20, 100) if not oracles.is_prime(c)]


def boards(rng: random.Random, lc) -> Workload:
    """Per round: four 120x120 random boards, five 200x200 boards (two of
    them uniform) and one 320x320 random board, k composite or prime.

    The sizes make three groups of cost. The median falls a fifth of the way
    into the 200x200 group and the 95th percentile halfway into the 320x320
    group, so contention that slows part of a run moves neither much.
    Uniform boards take k prime with the largest restricted period, so few
    rows come out dark and need no presses, whatever the seed.
    """
    uniform_k = max_alpha_primes(20, 100)
    specs = [(120, COMPOSITE_K), (120, PRIME_K), (120, COMPOSITE_K), (120, PRIME_K),
             (200, "uniform"), (200, "uniform"), (200, COMPOSITE_K), (200, PRIME_K),
             (200, rng.choice([COMPOSITE_K, PRIME_K])), (320, rng.choice([COMPOSITE_K, PRIME_K]))]
    ops = []
    for n, kind in specs:
        if kind == "uniform":
            k = rng.choice(uniform_k)
            start = k - rng.randrange(1, k)
            grid = [[start] * n for _ in range(n)]
        else:
            k = rng.choice(kind)
            grid = [rng.choices(range(k), k=n) for _ in range(n)]
        text = grid_text(k, grid)
        ops.append(Op("engine.pipeline", partial(_pipeline, lc, text),
                      partial(_traced_pipeline, lc, text), partial(_check_board, k, grid, text)))
    return Workload(ops)


# ---- cli ----

CLI_GRID = "bench/out/cli/board.txt"
CLI_VERIFY = {"k_max": 8, "rows_max": 24, "cols": 3}


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(cmd: list[str], root: Path, env: dict[str, str]) -> str:
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[2:])} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def main_captured(lc, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lc.cli.main(argv)
    return code, buf.getvalue()


def _cli_result(stdout: str, command: str) -> dict:
    obj = json.loads(stdout)
    expect(obj.get("command") == command, f"{command}: JSON envelope names {obj.get('command')!r}")
    return obj["result"]


def _check_simulate(grid, k, q, stdout):
    res = _cli_result(stdout, "simulate")
    expect(res["initial_grid"] == grid and res["k"] == k and res["q"] == q,
           "simulate: initial grid or parameters differ from the input")
    check_transcript(grid, k, res["presses"], res["row_states"], res["final_row"], res["solved"])
    if q is not None:
        cols = len(grid[0])
        expect(res["final_row"] == [oracles.s_value(q, len(grid), k)] * cols,
               "simulate: uniform final row differs from S(rows)")


def _check_alpha(k, method, stdout):
    res = _cli_result(stdout, "alpha")
    if method == "direct":
        check_alpha_value(k, res["alpha"])
        return
    trace = [(t["prime"], t["exponent"], t["alpha"]) for t in res["trace"]]
    if method == "factored":
        check_alpha_value(k, res["alpha"])
        check_trace_entries(k, res["alpha"], trace)
    else:
        check_alpha_value(k, res["alpha_direct"])
        check_alpha_value(k, res["alpha_factored"])
        check_trace_entries(k, res["alpha_factored"], trace)
        expect(res["match"] is True, "alpha: methods reported as not matching")


def _check_solvable_rows(k, q, n, stdout):
    res = _cli_result(stdout, "solvable")
    expect(res["solvable_rows"] == solvable_rows(k, q, n), "solvable --max-rows list is wrong")


def _check_classes(k, q, stdout):
    res = _cli_result(stdout, "solvable")
    check_report(k, q, res["alpha"], res["period"], res["residues"], res["complete"])


def _check_sequence(q, n, k, stdout):
    res = _cli_result(stdout, "sequence")
    expect(res["values"] == [oracles.s_value(q, i, k) for i in range(n + 1)],
           "sequence values differ from the closed form")


def _check_verify(stdout):
    res = _cli_result(stdout, "verify")
    cases = sum(range(2, CLI_VERIFY["k_max"] + 1)) * CLI_VERIFY["rows_max"]
    expect(res["cases"] == cases and res["passed"] == cases and res["failed"] == 0
           and res["witnesses"] == [], "verify: not every case passed")


def cli(rng: random.Random, lc, root: Path) -> Workload:
    """Eleven `python -m lightchase ... --json` runs per round, one child at a
    time: the README examples with seeded parameters, and mid-size runs
    (a 40x40 grid file, alpha of a prime near 10**5, classes for k near 10**3,
    a sequence of 2000 terms, verify over 840 cases)."""
    env = _child_env(root)
    eng, fib, sol, rec = lc.engine, lc.fib, lc.solvability, lc.recurrence
    invocations: list[tuple[str, list[str], Callable, Callable]] = []

    def add(sub, argv, check, parts):
        invocations.append((sub, [sub, *map(str, argv), "--json"], check, parts))

    rows, cols, k = rng.randrange(4, 9), rng.randrange(3, 9), rng.randrange(2, 10)
    q = rng.randrange(k)
    spec = eng.BoardSpec(rows, cols, k, q)
    add("simulate", ["--rows", rows, "--cols", cols, "--k", k, "--q", q],
        partial(_check_simulate, [[(k - q) % k] * cols for _ in range(rows)], k, q),
        lambda t, spec=spec: t.call("engine.one_pass", eng.one_pass,
                                    t.call("engine.new_uniform", eng.new_uniform, spec)))

    gk = rng.randrange(2, 10)
    grid = [rng.choices(range(gk), k=40) for _ in range(40)]
    text = grid_text(gk, grid)
    grid_path = root / CLI_GRID
    grid_path.parent.mkdir(parents=True, exist_ok=True)
    grid_path.write_text(text)
    add("simulate", ["--grid", CLI_GRID], partial(_check_simulate, grid, gk, None),
        lambda t: t.call("engine.one_pass", eng.one_pass,
                         t.call("engine.parse_grid", eng.parse_grid, text)))

    for k, method in ((rng.randrange(1000, 2000), "factored"), (rng.randrange(2, 200), "both"),
                      (rng.choice(max_alpha_primes(99_000, 100_000)), "direct")):
        def parts(t, k=k, method=method):
            if method != "factored":
                t.call("fib.alpha_direct", fib.alpha_direct, k)
            if method != "direct":
                t.call("fib.alpha_factored", fib.alpha_factored, k)
        add("alpha", [k, "--method", method], partial(_check_alpha, k, method), parts)

    k = rng.randrange(2, 13)
    q, n = rng.randrange(k), rng.randrange(10, 61)
    add("solvable", ["--k", k, "--q", q, "--max-rows", n], partial(_check_solvable_rows, k, q, n),
        lambda t, a=(k, q, n): t.call("solvability.solvable_rows_up_to",
                                      sol.solvable_rows_up_to, *a))
    for k in (rng.randrange(2, 13), rng.randrange(500, 1000)):
        q = rng.randrange(k)
        add("solvable", ["--k", k, "--q", q, "--classes"], partial(_check_classes, k, q),
            lambda t, a=(k, q): t.call("solvability.characterize", sol.characterize, *a))

    q, n = rng.randrange(1, 10), rng.randrange(10, 41)
    add("sequence", ["--q", q, "--n", n, "--exact"], partial(_check_sequence, q, n, None),
        lambda t, a=(rec.ChaseParams(q), n): t.call(
            "recurrence.chase_sequence", rec.chase_sequence, *a))
    k, n = rng.randrange(2, 1000), rng.randrange(1000, 2001)
    q = rng.randrange(k)
    add("sequence", ["--q", q, "--n", n, "--k", k], partial(_check_sequence, q, n, k),
        lambda t, a=(rec.ChaseParams(q, k), n): t.call(
            "recurrence.chase_sequence", rec.chase_sequence, *a))

    v = CLI_VERIFY

    def verify_parts(t):
        for k in range(2, v["k_max"] + 1):
            for q in range(k):
                for rows in range(1, v["rows_max"] + 1):
                    t.call("solvability.cross_validate", sol.cross_validate, k, q, rows, v["cols"])
    add("verify", ["--k-max", v["k_max"], "--rows-max", v["rows_max"], "--cols", v["cols"]],
        _check_verify, verify_parts)

    ops = []
    for sub, argv, check, parts in invocations:
        cmd = [sys.executable, "-m", "lightchase", *argv]
        run = partial(run_child, cmd, root, env)

        def trace(t, sub=sub, run=run, argv=argv, parts=parts):
            # The child's time splits into the in-process cli.main on the same
            # arguments and the rest: interpreter start-up, imports, argparse.
            return t.call(f"child.{sub}", run, parts=lambda t: t.call(
                "cli.main", main_captured, lc, argv, parts=parts))
        ops.append(Op(f"cli.{sub}", run, trace, check))

    import_cmd = [sys.executable, "-c", "import time; t = time.perf_counter(); "
                  "import lightchase.cli; print(time.perf_counter() - t)"]
    probes = {
        "cli.import_ms": lambda: 1e3 * float(run_child(import_cmd, root, env)),
        "cli.startup_ms": partial(_wall_ms, [sys.executable, "-c", "pass"], root, env),
    }
    ops[0].run()  # writes the bytecode cache before anything is timed
    return Workload(ops, probes=probes, rss_of_children=True,
                    cleanup=partial(_remove_grid, grid_path))


def _wall_ms(cmd, root, env) -> float:
    t0 = perf_counter()
    run_child(cmd, root, env)
    return 1e3 * (perf_counter() - t0)


def _remove_grid(path: Path) -> None:
    path.unlink(missing_ok=True)
    with contextlib.suppress(OSError):
        path.parent.rmdir()


NAMES = ("queries", "verify", "boards", "cli")


def build(name: str, seed: int, lc, root: Path) -> Workload:
    """The workload's round, its operations in a seeded order, so that
    operations of one kind do not all meet the same spell of contention."""
    rng = random.Random(f"{name}:{seed}")
    if name == "cli":
        wl = cli(rng, lc, root)
    else:
        wl = {"queries": queries, "verify": verify, "boards": boards}[name](rng, lc)
    rng.shuffle(wl.ops)
    return wl
