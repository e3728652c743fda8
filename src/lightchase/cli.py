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
from math import log10, sqrt
from typing import Callable, Iterable, Iterator

from .engine import BoardSpec, GeometryError, _grid_header, new_uniform, one_pass, parse_grid
from .fib import ScanBoundExceeded, _at_least, alpha_direct, alpha_factored
from .recurrence import ChaseParams, chase_sequence
from .solvability import _disagreements, _report, solvable_rows_up_to


# Bounds on work that grows with an argument: the direct alpha scan walks up
# to 6k steps; --max-rows / --n (mod k) build a list of that length, a
# simulate board (uniform, or declared by a --grid header) has rows * cols
# lights, and verify's sweeps update cols * R cells for each (k, q).  Past
# these, a command is refused with exit 1 rather than left to run for hours
# or exhaust memory.  --classes, which lists up to pi(k) <= 6k residues (when
# q = 0, or q shares most of k's factors), is capped by solvability._report.
_DIRECT_K_CAP = 10**7
_LIST_CAP = 10**6
_EXACT_N_CAP = 10_000
_VERIFY_CAP = 10**7
# |S(i)| = q F(i) F(i+1) < q * phi^(2i), so S(i) has at most
# len(str(q)) + 1 + i * _DIGITS_PER_INDEX decimal digits.
_DIGITS_PER_INDEX = 2 * log10((1 + sqrt(5)) / 2)


def _styled(text: str, code: str) -> str:
    if "NO_COLOR" in os.environ or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _good(text: str) -> str:
    return _styled(text, "32")


def _bad(text: str) -> str:
    return _styled(text, "31")


def _emit(args: argparse.Namespace, command: str, params: dict, result: dict,
          render: Callable[[dict], Iterable[str]]) -> None:
    """Print result as JSON, or as the command/params header and render(result)'s lines."""
    if args.json:
        obj = result if args.quiet_meta else {"command": command, "params": params, "result": result}
        print(json.dumps(obj, indent=2, sort_keys=True))
        return
    if not args.quiet_meta:
        print(f"command: {command}")
        print("params: " + " ".join(f"{key}={value}" for key, value in params.items()))
    for line in render(result):
        print(line)


def _fmt_vec(vec: list[int]) -> str:
    return " ".join(str(v) for v in vec)


def cmd_simulate(args: argparse.Namespace) -> int:
    uniform_flags = (args.rows, args.cols, args.k, args.q)
    uniform = args.grid is None
    if not uniform:
        if any(v is not None for v in uniform_flags):
            raise ValueError("--grid cannot be combined with --rows/--cols/--k/--q")
        with open(args.grid) as f:
            header = f.readline()
            # A malformed header, or one that declares too many lights, is
            # refused here, before the grid lines are read.
            rows, cols, _ = _grid_header(header.splitlines())
            if rows * cols > _LIST_CAP:
                raise ValueError(f"--grid rows * cols is capped at {_LIST_CAP} lights")
            board = parse_grid(header + f.read())
        params = {"grid_file": args.grid}
    else:
        if any(v is None for v in uniform_flags):
            raise ValueError("simulate needs --rows, --cols, --k and --q (or --grid FILE)")
        spec = BoardSpec(args.rows, args.cols, args.k, args.q)
        if spec.rows * spec.cols > _LIST_CAP:
            raise ValueError(f"--rows * --cols is capped at {_LIST_CAP} lights")
        board = new_uniform(spec)
        params = {"rows": args.rows, "cols": args.cols, "k": args.k, "q": args.q}

    transcript = one_pass(board)
    result = {
        "rows": board.rows,
        "cols": board.cols,
        "k": board.k,
        "q": args.q,
        "uniform": uniform,
        "initial_grid": board.grid,
        "presses": transcript.presses,
        "row_states": transcript.row_states,
        "final_row": transcript.final_row,
        "solved": transcript.solved,
    }
    _emit(args, "simulate", params, result, _simulate_lines)
    return 0


def _simulate_lines(r: dict) -> Iterator[str]:
    rows, cols, k, uniform = r["rows"], r["cols"], r["k"], r["uniform"]
    if uniform:
        yield f"{rows}x{cols} cylinder, k={k}, uniform start state {(k - r['q']) % k}"
    else:
        yield f"{rows}x{cols} cylinder, k={k}, start grid:"
        for row in r["initial_grid"]:
            yield f"  {_fmt_vec(row)}"
    if rows == 1:
        yield "single row, nothing to chase"
    for i, (vec, state) in enumerate(zip(r["presses"], r["row_states"])):
        if uniform:
            yield (f"step {i + 1}: press each button in row {i + 2} x{vec[0]}"
                   f" -> row {i + 2} at state {state[0]}")
        else:
            yield (f"step {i + 1}: press row {i + 2} with multiplicities {_fmt_vec(vec)}"
                   f" -> row {i + 2} state {_fmt_vec(state)}")
    if uniform and r["presses"]:
        yield f"press multiplicities by row: {_fmt_vec([vec[0] for vec in r['presses']])}"
    yield f"final row: {_fmt_vec(r['final_row'])}"
    yield _good("SOLVED") if r["solved"] else _bad("UNSOLVED")


def cmd_alpha(args: argparse.Namespace) -> int:
    k = args.k
    _at_least("k", k, 1)
    method = args.method or ("both" if k >= 2 else "direct")
    if method in ("direct", "both") and k > _DIRECT_K_CAP:
        raise ValueError(f"the direct scan is capped at k = {_DIRECT_K_CAP}; "
                        f"use --method factored for larger k")
    params = {"k": k, "method": method}

    direct = alpha_direct(k) if method in ("direct", "both") else None
    factored = alpha_factored(k) if method in ("factored", "both") else None
    if method == "both":
        result = {
            "k": k,
            "method": "both",
            "alpha_direct": direct.alpha,
            "alpha_factored": factored.alpha,
            "match": direct.alpha == factored.alpha,
        }
    else:
        result = {"k": k, "method": (direct or factored).method, "alpha": (direct or factored).alpha}
    if factored is not None:
        result["trace"] = [t._asdict() for t in factored.trace]

    def lines(r: dict) -> Iterator[str]:
        if direct is not None:
            yield f"alpha({k}) = {direct.alpha}  [direct-scan]"
        if factored is not None:
            yield f"alpha({k}) = {factored.alpha}  [factored]"
            for t in factored.trace:
                power = str(t.prime) if t.exponent == 1 else f"{t.prime}^{t.exponent}"
                yield f"  {power}: alpha = {t.alpha}  ({t.rule})"
            if len(factored.trace) > 1:
                parts = ", ".join(str(t.alpha) for t in factored.trace)
                yield f"  lcm({parts}) = {factored.alpha}"
        if method == "both":
            yield (_good("methods agree") if r["match"] else
                   _bad(f"METHOD MISMATCH: direct-scan {direct.alpha}, factored {factored.alpha}"))

    _emit(args, "alpha", params, result, lines)
    return 0 if result.get("match", True) else 2


def cmd_solvable(args: argparse.Namespace) -> int:
    if args.classes and args.max_rows is not None:
        raise ValueError("choose either --max-rows or --classes, not both")
    if not args.classes and args.max_rows is None:
        raise ValueError("one of --max-rows or --classes is required")
    if args.max_rows is not None and args.max_rows > _LIST_CAP:
        raise ValueError(f"--max-rows is capped at {_LIST_CAP}; use --classes for the pattern")

    k, q = args.k, args.q
    if args.classes:
        report = _report(k, q, "--classes")
        params = {"k": k, "q": q, "classes": True}
        result = {
            "k": k,
            "q": q,
            "alpha": report.alpha,
            "period": report.period,
            "residues": list(report.residues),
            "complete": report.complete,
        }
        _emit(args, "solvable", params, result, _classes_lines)
        return 0

    params = {"k": k, "q": q, "max_rows": args.max_rows}
    result = {**params, "solvable_rows": solvable_rows_up_to(k, q, args.max_rows)}
    _emit(args, "solvable", params, result, _rows_lines)
    return 0


def _classes_lines(r: dict) -> Iterator[str]:
    yield f"k={r['k']}, q={r['q']}: alpha = {r['alpha']}, pisano period = {r['period']}"
    yield (f"solvable row counts are those congruent to: "
           f"{_fmt_vec(r['residues'])} (mod {r['period']})")
    kind = "yes (exactly" if r["complete"] else "no (strictly more than"
    yield f"complete: {kind} the classes 0 and -1 mod {r['alpha']})"


def _rows_lines(r: dict) -> Iterator[str]:
    listing = _fmt_vec(r["solvable_rows"]) if r["solvable_rows"] else "none"
    yield (f"one-pass solvable row counts up to {r['max_rows']} (k={r['k']}, q={r['q']}): "
           f"{listing}")


def _exact_n_cap(q: int) -> int:
    """The largest n whose exact S(0..n) all print: at most _EXACT_N_CAP, within
    the interpreter's limit on int-to-str digits (0 = no limit), and never
    below 0, since S(0) = 0 prints whatever q is."""
    # Python 3.10.0 to 3.10.6 have no such limit, nor the function.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return _EXACT_N_CAP
    return max(0, min(_EXACT_N_CAP, int((limit - 1 - len(str(q))) / _DIGITS_PER_INDEX)))


def cmd_sequence(args: argparse.Namespace) -> int:
    if args.exact and args.k is not None:
        raise ValueError("choose either --exact or --k, not both")
    if not args.exact and args.k is None:
        raise ValueError("one of --k or --exact is required")
    exact_cap = _exact_n_cap(args.q)
    if args.exact and args.n > exact_cap:
        raise ValueError(f"--exact is capped at n = {exact_cap} for q = {args.q}; "
                        f"use --k for longer prefixes")
    if args.n > _LIST_CAP:
        raise ValueError(f"--n is capped at {_LIST_CAP}")

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
    _emit(args, "sequence", params, result, lambda r: [
        f"S_0..S_{r['n']} (q={r['q']}, {mode}): {_fmt_vec(r['values'])}"])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    _at_least("--k-max", args.k_max, 2)
    _at_least("--rows-max", args.rows_max, 1)
    _at_least("--cols", args.cols, 3)
    # One sweep per (k, q) chases R rows of cols cells and checks rows = 1..R.
    cases = (args.k_max * (args.k_max + 1) // 2 - 1) * args.rows_max
    updates = args.cols * cases
    if updates > _VERIFY_CAP:
        raise ValueError(f"--k-max, --rows-max and --cols ask for {updates} cell updates; "
                         f"verify is capped at {_VERIFY_CAP}")

    witnesses = [{"k": k, "q": q, "rows": r, "final_row": row, "expected": s}
                 for k in range(2, args.k_max + 1) for q in range(k)
                 for r, row, s in _disagreements(k, q, args.rows_max, args.cols)]

    params = {"k_max": args.k_max, "rows_max": args.rows_max, "cols": args.cols}
    result = {
        **params,
        "cases": cases,
        "passed": cases - len(witnesses),
        "failed": len(witnesses),
        "witnesses": witnesses,
    }
    _emit(args, "verify", params, result, _verify_lines)
    return 0 if not witnesses else 2


def _verify_lines(r: dict) -> Iterator[str]:
    yield (f"cross-validating simulation against the formula: "
           f"k = 2..{r['k_max']}, q = 0..k-1, rows = 1..{r['rows_max']}, cols = {r['cols']}")
    yield f"{r['cases']} cases: {r['passed']} passed, {r['failed']} failed"
    for w in r["witnesses"]:
        yield _bad(f"FAIL: k={w['k']} q={w['q']} rows={w['rows']}: final row "
                   f"{_fmt_vec(w['final_row'])}, expected {w['expected']}")
    yield _bad("ORACLE DISAGREEMENT") if r["witnesses"] else _good("OK")


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--json", action="store_true", help="emit a JSON object instead of text")
    sp.add_argument("--quiet-meta", action="store_true",
                    help="omit the command/params echo from the output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lightchase",
                     description="Cylindrical Lights Out: simulation and one-pass solvability analysis.")
    # Not required=True: argparse would then report a missing command before
    # an unknown flag, so main checks for the command after parsing.
    sub = parser.add_subparsers(dest="command", metavar="command")

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
        if args.command is None:
            parser.error("the following arguments are required: command")
    except SystemExit as exc:
        # argparse exits 2 on a usage error; this CLI reserves 2 for
        # computation-level failures, so usage errors are 1.
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (GeometryError, ScanBoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
