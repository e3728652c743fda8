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

Each cmd_* function returns its answer as (exit code, params, result,
render) and prints nothing; main prints it through _emit, turns an
exception into its error line and exit code, and ends a run whose reader
closed the pipe early quietly, with the answer's own exit code.
build_parser states each subcommand's either/or modes (solvable's
--max-rows or --classes, sequence's --k or --exact) as one required
mutually exclusive group, so argparse refuses a missing or doubled mode
with its usage line, and it adds the flags every subcommand shares.

Apart from its own flag, mode and cap checks, every refusal the CLI prints
is the library's text, unchanged: a bad k, q, rows, cols or n, and a list
too long to return (--max-rows, --classes, --n, --exact), whose message
names the library function that refused it.  simulate --grid reads its
file once, under _GRID_CHARS, and parse_grid, the library's one reader of
a grid file, judges it whole, header included.  An answer holding an int
past the interpreter's int-to-str digit limit (PYTHONINTMAXSTRDIGITS)
fails while _emit builds its text, before anything is printed, and exits
1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Iterable, Iterator

from .engine import BoardSpec, GeometryError, new_uniform, one_pass, parse_grid
from .fib import _LIST_CAP, ScanBoundExceeded, _at_least, alpha_direct, alpha_factored
from .recurrence import ChaseParams, chase_sequence
from .solvability import _disagreements, characterize, solvable_rows_up_to


# The CLI's own bounds on work that grows with an argument, each on work the
# library does not meter: the direct alpha scan walks up to 6k steps, a
# --grid file is read whole into memory, a simulate board (uniform or read)
# of rows * cols lights is printed whole, and verify's own loop over (k, q)
# updates cols * R cells for each.  Past these, a command is refused with
# exit 1 rather than left to run for hours or exhaust memory.  The lists
# that --max-rows, --classes, --n and --exact ask for are refused by the
# library.
_DIRECT_K_CAP = 10**7
_VERIFY_CAP = 10**7
# The most characters a --grid file may hold: every board within the light
# cap whose entries are written with at most 7 digits (k <= 10^7) fits.
_GRID_CHARS = 1 << 23


def _styled(text: str, code: str) -> str:
    if "NO_COLOR" in os.environ or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _good(text: str) -> str:
    return _styled(text, "32")


def _bad(text: str) -> str:
    return _styled(text, "31")


# A subcommand's answer: exit code, params, result and the text renderer.
_Answer = tuple[int, dict, dict, Callable[[dict], Iterable[str]]]


def _emit(args: argparse.Namespace, params: dict, result: dict,
          render: Callable[[dict], Iterable[str]]) -> None:
    """Print result as JSON, or as the command/params header and render(result)'s lines.

    Every line is built before any is printed, so an int too long for str()
    raises with nothing on stdout.
    """
    if args.json:
        obj = result if args.quiet_meta else dict(command=args.command, params=params, result=result)
        print(json.dumps(obj, indent=2, sort_keys=True))
        return
    head = [] if args.quiet_meta else [
        f"command: {args.command}",
        "params: " + " ".join(f"{key}={value}" for key, value in params.items())]
    print(*head, *render(result), sep="\n")


def _fmt_vec(vec: list[int]) -> str:
    return " ".join(str(v) for v in vec)


def cmd_simulate(args: argparse.Namespace) -> _Answer:
    uniform_flags = (args.rows, args.cols, args.k, args.q)
    uniform = args.grid is None
    if not uniform:
        if any(v is not None for v in uniform_flags):
            raise ValueError("--grid cannot be combined with --rows/--cols/--k/--q")
        with open(args.grid) as f:
            # One character past the cap is enough to tell a longer file.
            text = f.read(_GRID_CHARS + 1)
        if len(text) > _GRID_CHARS:
            raise ValueError(f"--grid files are capped at {_GRID_CHARS} characters")
        board = parse_grid(text)
        if board.rows * board.cols > _LIST_CAP:
            raise ValueError(f"--grid rows * cols is capped at {_LIST_CAP} lights")
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
    return 0, params, result, _simulate_lines


def _simulate_lines(r: dict) -> Iterator[str]:
    rows, cols, k, uniform = r["rows"], r["cols"], r["k"], r["uniform"]
    if uniform:
        yield f"{rows}x{cols} cylinder, k={k}, uniform start state {r['initial_grid'][0][0]}"
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


def cmd_alpha(args: argparse.Namespace) -> _Answer:
    k, method = args.k, args.method
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

    return (0 if result.get("match", True) else 2), params, result, lines


def cmd_solvable(args: argparse.Namespace) -> _Answer:
    k, q = args.k, args.q
    if args.classes:
        report = characterize(k, q)
        params = {"k": k, "q": q, "classes": True}
        result = {
            "k": k,
            "q": q,
            "alpha": report.alpha,
            "period": report.period,
            "residues": list(report.residues),
            "complete": report.complete,
        }
        return 0, params, result, _classes_lines

    params = {"k": k, "q": q, "max_rows": args.max_rows}
    result = {**params, "solvable_rows": solvable_rows_up_to(k, q, args.max_rows)}
    return 0, params, result, _rows_lines


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


def cmd_sequence(args: argparse.Namespace) -> _Answer:
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
    return 0, params, result, lambda r: [
        f"S_0..S_{r['n']} (q={r['q']}, {mode}): {_fmt_vec(r['values'])}"]


def cmd_verify(args: argparse.Namespace) -> _Answer:
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
    return (0 if not witnesses else 2), params, result, _verify_lines


def _verify_lines(r: dict) -> Iterator[str]:
    yield (f"cross-validating simulation against the formula: "
           f"k = 2..{r['k_max']}, q = 0..k-1, rows = 1..{r['rows_max']}, cols = {r['cols']}")
    yield f"{r['cases']} cases: {r['passed']} passed, {r['failed']} failed"
    for w in r["witnesses"]:
        yield _bad(f"FAIL: k={w['k']} q={w['q']} rows={w['rows']}: final row "
                   f"{_fmt_vec(w['final_row'])}, expected {w['expected']}")
    yield _bad("ORACLE DISAGREEMENT") if r["witnesses"] else _good("OK")


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

    alp = sub.add_parser("alpha", help="restricted period of the Fibonacci sequence mod k")
    alp.add_argument("k", type=int)
    alp.add_argument("--method", choices=["direct", "factored", "both"], default="both",
                     help="default: both")

    sol = sub.add_parser("solvable", help="which row counts are one-pass solvable")
    sol.add_argument("--k", type=int, required=True, help="number of light states")
    sol.add_argument("--q", type=int, required=True, help="start offset")
    sol_mode = sol.add_mutually_exclusive_group(required=True)
    sol_mode.add_argument("--max-rows", type=int, help="list solvable row counts up to N")
    sol_mode.add_argument("--classes", action="store_true",
                          help="report residue classes over one Pisano period instead of a list")

    seq = sub.add_parser("sequence", help="print the row-state sequence S_0..S_n")
    seq.add_argument("--q", type=int, required=True, help="start offset")
    seq.add_argument("--n", type=int, required=True, help="last index to print")
    seq_mode = seq.add_mutually_exclusive_group(required=True)
    seq_mode.add_argument("--k", type=int, help="reduce mod k")
    seq_mode.add_argument("--exact", action="store_true", help="exact integers instead of mod k")

    ver = sub.add_parser("verify", help="batch cross-check simulation vs formula")
    ver.add_argument("--k-max", type=int, required=True, help="check k = 2..K_MAX")
    ver.add_argument("--rows-max", type=int, required=True, help="check rows = 1..ROWS_MAX")
    ver.add_argument("--cols", type=int, default=3, help="board width for the simulations")

    # After each subcommand's own arguments, so they close its usage line.
    for sp, func in ((sim, cmd_simulate), (alp, cmd_alpha), (sol, cmd_solvable),
                     (seq, cmd_sequence), (ver, cmd_verify)):
        sp.add_argument("--json", action="store_true", help="emit a JSON object instead of text")
        sp.add_argument("--quiet-meta", action="store_true",
                        help="omit the command/params echo from the output")
        sp.set_defaults(func=func)
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
        code, params, result, render = args.func(args)
        # Inside the try: printing can fail too, as an int too long for str().
        _emit(args, params, result, render)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped early, which is no failure of the answer.  With
        # stdout on devnull the interpreter's last flush cannot fail either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (OSError, ValueError, ScanBoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (GeometryError, ScanBoundExceeded)) else 1
