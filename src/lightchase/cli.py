"""Command-line front end for the cylindrical Lights Out toolkit.

Subcommands: simulate (run one-pass chasing on a board), alpha (restricted
period of the Fibonacci sequence mod k), solvable (which row counts chase
out), sequence (the row-state sequence S), and verify (batch cross-check
of the simulator against the formula).

Exit codes: 0 success, 1 usage or input parse error, 2 computation-level
failure (invalid board geometry, alpha method mismatch, oracle
disagreement, internal scan-bound error).  Human-readable output numbers
rows from 1, the way people count them; JSON output (--json) is 0-indexed
like the library.  Respects NO_COLOR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .engine import BoardSpec, GeometryError, new_uniform, one_pass, parse_grid
from .fib import ScanBoundExceeded, alpha_direct, alpha_factored
from .recurrence import ChaseParams, chase_sequence
from .solvability import characterize, cross_validate, solvable_rows_up_to


class UsageError(ValueError):
    """Bad flag combination or parameter; maps to exit code 1."""


# Bounds on work that grows with an argument: the direct alpha scan walks up
# to 6k steps, and --max-rows / --n (mod k) build a list of that length.
# Past these, a command is refused with exit 1 rather than left to run for
# hours or exhaust memory.
_DIRECT_K_CAP = 10**7
_LIST_CAP = 10**6
_EXACT_N_CAP = 100_000


def _styled(text: str, code: str) -> str:
    if "NO_COLOR" in os.environ or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _good(text: str) -> str:
    return _styled(text, "32")


def _bad(text: str) -> str:
    return _styled(text, "31")


def _print_header(args: argparse.Namespace, command: str, params: dict) -> None:
    if args.quiet_meta:
        return
    echo = " ".join(f"{key}={value}" for key, value in params.items())
    print(f"command: {command}")
    print(f"params: {echo}")


def _emit_json(args: argparse.Namespace, command: str, params: dict, result: dict) -> None:
    obj = result if args.quiet_meta else {"command": command, "params": params, "result": result}
    print(json.dumps(obj, indent=2, sort_keys=True))


def _fmt_vec(vec: list[int]) -> str:
    return " ".join(str(v) for v in vec)


def cmd_simulate(args: argparse.Namespace) -> int:
    uniform_flags = (args.rows, args.cols, args.k, args.q)
    if args.grid is not None:
        if any(v is not None for v in uniform_flags):
            raise UsageError("--grid cannot be combined with --rows/--cols/--k/--q")
        board = parse_grid(Path(args.grid).read_text())
        q = None
        uniform = False
        params = {"grid_file": args.grid}
    else:
        if any(v is None for v in uniform_flags):
            raise UsageError("simulate needs --rows, --cols, --k and --q (or --grid FILE)")
        board = new_uniform(BoardSpec(args.rows, args.cols, args.k, args.q))
        q = args.q
        uniform = True
        params = {"rows": args.rows, "cols": args.cols, "k": args.k, "q": args.q}

    transcript = one_pass(board)
    result = {
        "rows": board.rows,
        "cols": board.cols,
        "k": board.k,
        "q": q,
        "uniform": uniform,
        "initial_grid": board.grid,
        "presses": transcript.presses,
        "row_states": transcript.row_states,
        "final_row": transcript.final_row,
        "solved": transcript.solved,
    }
    if args.json:
        _emit_json(args, "simulate", params, result)
        return 0

    _print_header(args, "simulate", params)
    if uniform:
        start = (board.k - q) % board.k
        print(f"{board.rows}x{board.cols} cylinder, k={board.k}, uniform start state {start}")
    else:
        print(f"{board.rows}x{board.cols} cylinder, k={board.k}, start grid:")
        for row in board.grid:
            print(f"  {_fmt_vec(row)}")
    if board.rows == 1:
        print("single row, nothing to chase")
    for i, (vec, state) in enumerate(zip(transcript.presses, transcript.row_states)):
        if uniform:
            print(f"step {i + 1}: press each button in row {i + 2} x{vec[0]}"
                  f" -> row {i + 2} at state {state[0]}")
        else:
            print(f"step {i + 1}: press row {i + 2} with multiplicities {_fmt_vec(vec)}"
                  f" -> row {i + 2} state {_fmt_vec(state)}")
    if uniform and transcript.presses:
        print(f"press multiplicities by row: {_fmt_vec([vec[0] for vec in transcript.presses])}")
    print(f"final row: {_fmt_vec(transcript.final_row)}")
    print(_good("SOLVED") if transcript.solved else _bad("UNSOLVED"))
    return 0


def _alpha_trace_lines(trace) -> list[str]:
    lines = []
    for entry in trace:
        power = str(entry.prime) if entry.exponent == 1 else f"{entry.prime}^{entry.exponent}"
        lines.append(f"  {power}: alpha = {entry.alpha}  ({entry.rule})")
    return lines


def cmd_alpha(args: argparse.Namespace) -> int:
    k = args.k
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    method = args.method or ("both" if k >= 2 else "direct")
    if method in ("factored", "both") and k < 2:
        raise UsageError("the factored method needs k >= 2")
    if method in ("direct", "both") and k > _DIRECT_K_CAP:
        raise UsageError(f"the direct scan is capped at k = {_DIRECT_K_CAP}; "
                         f"use --method factored for larger k")
    params = {"k": k, "method": method}

    direct = alpha_direct(k) if method in ("direct", "both") else None
    factored = alpha_factored(k) if method in ("factored", "both") else None
    trace_json = (
        [
            {"prime": t.prime, "exponent": t.exponent, "alpha": t.alpha, "rule": t.rule}
            for t in factored.trace
        ]
        if factored is not None
        else None
    )

    if method == "direct":
        result = {"k": k, "method": "direct-scan", "alpha": direct.alpha}
    elif method == "factored":
        result = {"k": k, "method": "factored", "alpha": factored.alpha, "trace": trace_json}
    else:
        match = direct.alpha == factored.alpha
        result = {
            "k": k,
            "method": "both",
            "alpha_direct": direct.alpha,
            "alpha_factored": factored.alpha,
            "match": match,
            "trace": trace_json,
        }

    if args.json:
        _emit_json(args, "alpha", params, result)
        return 0 if result.get("match", True) else 2

    _print_header(args, "alpha", params)
    if direct is not None:
        print(f"alpha({k}) = {direct.alpha}  [direct-scan]")
    if factored is not None:
        print(f"alpha({k}) = {factored.alpha}  [factored]")
        for line in _alpha_trace_lines(factored.trace):
            print(line)
        if len(factored.trace) > 1:
            parts = ", ".join(str(t.alpha) for t in factored.trace)
            print(f"  lcm({parts}) = {factored.alpha}")
    if method == "both":
        if direct.alpha == factored.alpha:
            print(_good("methods agree"))
        else:
            print(_bad(f"METHOD MISMATCH: direct-scan {direct.alpha}, factored {factored.alpha}"))
            return 2
    return 0


def cmd_solvable(args: argparse.Namespace) -> int:
    if args.classes and args.max_rows is not None:
        raise UsageError("choose either --max-rows or --classes, not both")
    if not args.classes and args.max_rows is None:
        raise UsageError("one of --max-rows or --classes is required")
    if args.max_rows is not None and args.max_rows > _LIST_CAP:
        raise UsageError(f"--max-rows is capped at {_LIST_CAP}; use --classes for the pattern")

    if args.classes:
        report = characterize(args.k, args.q)
        params = {"k": args.k, "q": args.q, "classes": True}
        result = {
            "k": report.k,
            "q": report.q,
            "alpha": report.alpha,
            "period": report.period,
            "residues": list(report.residues),
            "complete": report.complete,
        }
        if args.json:
            _emit_json(args, "solvable", params, result)
            return 0
        _print_header(args, "solvable", params)
        print(f"k={report.k}, q={report.q}: alpha = {report.alpha}, pisano period = {report.period}")
        print(f"solvable row counts are those congruent to: "
              f"{_fmt_vec(list(report.residues))} (mod {report.period})")
        if report.complete:
            print(f"complete: yes (exactly the classes 0 and -1 mod {report.alpha})")
        else:
            print(f"complete: no (strictly more than the classes 0 and -1 mod {report.alpha})")
        return 0

    rows = solvable_rows_up_to(args.k, args.q, args.max_rows)
    params = {"k": args.k, "q": args.q, "max_rows": args.max_rows}
    result = {"k": args.k, "q": args.q, "max_rows": args.max_rows, "solvable_rows": rows}
    if args.json:
        _emit_json(args, "solvable", params, result)
        return 0
    _print_header(args, "solvable", params)
    listing = _fmt_vec(rows) if rows else "none"
    print(f"one-pass solvable row counts up to {args.max_rows} (k={args.k}, q={args.q}): {listing}")
    return 0


def cmd_sequence(args: argparse.Namespace) -> int:
    if args.exact and args.k is not None:
        raise UsageError("choose either --exact or --k, not both")
    if not args.exact and args.k is None:
        raise UsageError("one of --k or --exact is required")
    if args.exact and args.n > _EXACT_N_CAP:
        raise UsageError(f"--exact is capped at n = {_EXACT_N_CAP}; use --k for longer prefixes")
    if args.n > _LIST_CAP:
        raise UsageError(f"--n is capped at {_LIST_CAP}")

    seq = chase_sequence(ChaseParams(args.q, args.k), args.n)
    mode = "exact" if args.exact else f"mod {args.k}"
    params = {"q": args.q, "n": args.n, "mode": mode}
    result = {
        "q": args.q,
        "n": args.n,
        "k": args.k,
        "exact": bool(args.exact),
        "values": list(seq.values),
    }
    if args.json:
        _emit_json(args, "sequence", params, result)
        return 0
    _print_header(args, "sequence", params)
    print(f"S_0..S_{args.n} (q={args.q}, {mode}): {_fmt_vec(list(seq.values))}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.k_max < 2:
        raise UsageError(f"--k-max must be >= 2, got {args.k_max}")
    if args.rows_max < 1:
        raise UsageError(f"--rows-max must be >= 1, got {args.rows_max}")
    if args.cols < 3:
        raise UsageError(f"--cols must be >= 3, got {args.cols}")

    cases = 0
    witnesses = []
    for k in range(2, args.k_max + 1):
        for q in range(k):
            for rows in range(1, args.rows_max + 1):
                cases += 1
                if not cross_validate(k, q, rows, args.cols):
                    witnesses.append({"k": k, "q": q, "rows": rows})

    params = {"k_max": args.k_max, "rows_max": args.rows_max, "cols": args.cols}
    result = {
        "k_max": args.k_max,
        "rows_max": args.rows_max,
        "cols": args.cols,
        "cases": cases,
        "passed": cases - len(witnesses),
        "failed": len(witnesses),
        "witnesses": witnesses,
    }
    if args.json:
        _emit_json(args, "verify", params, result)
        return 0 if not witnesses else 2

    _print_header(args, "verify", params)
    print(f"cross-validating simulation against the formula: "
          f"k = 2..{args.k_max}, q = 0..k-1, rows = 1..{args.rows_max}, cols = {args.cols}")
    print(f"{cases} cases: {cases - len(witnesses)} passed, {len(witnesses)} failed")
    for w in witnesses:
        print(_bad(f"FAIL: k={w['k']} q={w['q']} rows={w['rows']}"))
    if witnesses:
        print(_bad("ORACLE DISAGREEMENT"))
        return 2
    print(_good("OK"))
    return 0


class _Parser(argparse.ArgumentParser):
    # Usage problems are exit code 1; argparse's default is 2, which this
    # CLI reserves for computation-level failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--json", action="store_true", help="emit a JSON object instead of text")
    sp.add_argument("--quiet-meta", action="store_true",
                    help="omit the command/params echo from the output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lightchase",
                     description="Cylindrical Lights Out: simulation and one-pass solvability analysis.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sim = sub.add_parser("simulate", help="run one-pass chasing on a board")
    sim.add_argument("--rows", type=int, help="number of rows (uniform start)")
    sim.add_argument("--cols", type=int, help="number of columns (uniform start)")
    sim.add_argument("--k", type=int, help="number of light states")
    sim.add_argument("--q", type=int, help="start offset: lights begin at (k-q) mod k")
    sim.add_argument("--grid", metavar="FILE", help="read the start board from a grid file")
    _add_output_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    alp = sub.add_parser("alpha", help="restricted period of the Fibonacci sequence mod k")
    alp.add_argument("k", type=int)
    alp.add_argument("--method", choices=["direct", "factored", "both"],
                     help="default: both for k >= 2, direct for k = 1")
    _add_output_flags(alp)
    alp.set_defaults(func=cmd_alpha)

    sol = sub.add_parser("solvable", help="which row counts are one-pass solvable")
    sol.add_argument("--k", type=int, required=True, help="number of light states")
    sol.add_argument("--q", type=int, required=True, help="start offset")
    sol.add_argument("--max-rows", type=int, help="list solvable row counts up to N")
    sol.add_argument("--classes", action="store_true",
                     help="report residue classes over one Pisano period instead of a list")
    _add_output_flags(sol)
    sol.set_defaults(func=cmd_solvable)

    seq = sub.add_parser("sequence", help="print the row-state sequence S_0..S_n")
    seq.add_argument("--q", type=int, required=True, help="start offset")
    seq.add_argument("--n", type=int, required=True, help="last index to print")
    seq.add_argument("--k", type=int, help="reduce mod k")
    seq.add_argument("--exact", action="store_true", help="exact integers instead of mod k")
    _add_output_flags(seq)
    seq.set_defaults(func=cmd_sequence)

    ver = sub.add_parser("verify", help="batch cross-check simulation vs formula")
    ver.add_argument("--k-max", type=int, required=True, help="check k = 2..K_MAX")
    ver.add_argument("--rows-max", type=int, required=True, help="check rows = 1..ROWS_MAX")
    ver.add_argument("--cols", type=int, default=3, help="board width for the simulations")
    _add_output_flags(ver)
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GeometryError, ScanBoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
