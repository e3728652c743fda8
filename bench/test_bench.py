"""Tests of the benchmark's oracles and checkers, standard library only.

    python3 -m unittest discover -s bench -p 'test_*.py'

The oracles are held against published values; every checker must accept
the package's real answer and report a deliberately wrong one.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import types
import unittest
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import lightchase as lc  # noqa: E402
import lightchase.cli  # noqa: E402,F401
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads as wls  # noqa: E402
from workloads import CheckFailed  # noqa: E402


class OracleTest(unittest.TestCase):
    def test_fibonacci_values(self):
        self.assertEqual([oracles.fib(i)[0] for i in range(11)],
                         [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55])
        self.assertEqual(oracles.fib(100)[0], 354224848179261915075)
        self.assertEqual(oracles.fib(10, 7), (55 % 7, 89 % 7))

    def test_restricted_and_pisano_periods(self):
        self.assertEqual([oracles.alpha(k) for k in range(1, 11)], [1, 3, 4, 6, 5, 12, 8, 6, 12, 15])
        self.assertEqual(oracles.alpha(1200), 300)  # the README's factored example
        pisano = [next(p for p in range(1, 700) if oracles.is_pisano_period(k, p))
                  for k in range(1, 11)]
        self.assertEqual(pisano, [1, 3, 8, 6, 20, 24, 16, 12, 24, 60])
        self.assertTrue(oracles.is_restricted_period(10, 15))
        self.assertFalse(oracles.is_restricted_period(10, 30))
        self.assertFalse(oracles.is_restricted_period(10, 14))

    def test_miller_rabin(self):
        sieve = [n for n in range(2, 2000) if all(n % d for d in range(2, int(n**0.5) + 1))]
        self.assertEqual([n for n in range(2000) if oracles.is_prime(n)], sieve)
        for composite in (561, 1105, 1729, 2047, 3215031751, 999983 * 1000003):
            self.assertFalse(oracles.is_prime(composite), composite)
        for prime in (2**31 - 1, 2**61 - 1, 10**12 + 39):
            self.assertTrue(oracles.is_prime(prime), prime)

    def test_closed_form_s(self):
        self.assertEqual([oracles.s_value(1, r) for r in range(7)], [0, -1, 2, -6, 15, -40, 104])
        self.assertEqual(oracles.s_value(3, 6, 6), 0)  # the README's zero-divisor case
        self.assertEqual(oracles.s_value(1, 6, 4), 0)

    def test_crt_description(self):
        # k = 6, q = 3: only the factor 2 constrains, r = 0 or 2 (mod 3).
        self.assertEqual(oracles.solvable_moduli(6, 3), [3])
        # k = 6, q = 1: classes 0, 3, 8, 11 (mod 12).
        moduli = oracles.solvable_moduli(6, 1)
        self.assertEqual([r for r in range(12) if oracles.crt_solvable(moduli, r)], [0, 3, 8, 11])
        self.assertEqual(oracles.solvable_moduli(6, 0), [])

    def test_stencil_clears_the_readme_walkthrough(self):
        # 5x5, k = 4, q = 1: presses 1, 2, 2, 1 by row leave the board dark.
        presses = [[0] * 5] + [[v] * 5 for v in (1, 2, 2, 1)]
        self.assertEqual(oracles.stencil([[3] * 5] * 5, presses, 4), [[0] * 5] * 5)


def wrong(check, result, *args):
    """True when check rejects result."""
    try:
        check(result, *args)
    except CheckFailed:
        return True
    return False


class CheckerTest(unittest.TestCase):
    def assert_checks(self, check, good, bad, *args):
        check(good, *args)
        self.assertTrue(wrong(check, bad, *args), f"{check.__name__} accepted {bad!r}")

    def test_fib_checkers(self):
        res = lc.alpha_direct(1009)
        self.assert_checks(wls.check_alpha_direct, res,
                           lc.AlphaResult(1009, 2 * res.alpha, "direct-scan"), 1009)
        self.assertTrue(wrong(wls.check_alpha_direct,
                              lc.AlphaResult(1009, res.alpha - 1, "direct-scan"), 1009))
        self.assert_checks(wls.check_pisano_direct, lc.pisano_direct(1009),
                           2 * lc.pisano_direct(1009), 1009)
        k = 1009**2 * 6
        res = lc.alpha_factored(k)
        bad_trace = (res.trace[0]._replace(alpha=res.trace[0].alpha * 2),) + res.trace[1:]
        self.assert_checks(wls.check_alpha_factored, res,
                           lc.AlphaResult(k, res.alpha, "factored", bad_trace), k)
        n = 999983 * 1000003
        self.assert_checks(wls.check_factorize, lc.factorize(n), [(n, 1)], n)
        self.assertTrue(wrong(wls.check_factorize, [(999983, 1)], n))
        self.assertTrue(wrong(wls.check_factorize, [(3, 1), (2, 1)], 6))

    def test_recurrence_and_solvability_checkers(self):
        rep = lc.characterize(6, 3)
        self.assert_checks(wls.check_characterize, rep,
                           lc.SolvabilityReport(6, 3, rep.alpha, rep.period, rep.residues[1:],
                                                rep.complete), 6, 3)
        self.assertTrue(wrong(wls.check_characterize, lc.SolvabilityReport(
            6, 3, rep.alpha, rep.period, rep.residues, not rep.complete), 6, 3))
        for args in ((7, 1, 7), (7, 1, 8)):
            res = lc.is_one_pass_solvable(*args)
            self.assert_checks(wls.check_is_one_pass_solvable, res, not res, *args)
        args = (3, 10**100, 99991)
        res = lc.s_closed(*args)
        self.assert_checks(wls.check_s_closed, res, (res + 1) % 99991, *args)
        for rows in (24, 23, 25):
            res = lc.sufficient_by_alpha(12, rows)
            self.assert_checks(wls.check_sufficient_by_alpha, res, not res, 12, rows)
        res = lc.solvable_rows_up_to(6, 3, 50)
        self.assert_checks(wls.check_solvable_rows_up_to, res, res[:-1], 6, 3, 50)
        self.assert_checks(wls.check_cross_validate, lc.cross_validate(5, 1, 5, 5), False, 5, 1, 5, 5)

    def test_transcript_and_board_checkers(self):
        rng, k = random.Random(1), 7
        grid = [[rng.randrange(k) for _ in range(6)] for _ in range(5)]
        text = wls.grid_text(k, grid)
        result = wls._pipeline(lc, text)
        wls._check_board(k, grid, text, result)
        board, tr, out = result
        self.assertTrue(wrong(lambda r: wls._check_board(k, grid, text, r), (board, tr, out + " ")))
        for mutate in (lambda t: t.presses[1].__setitem__(2, (t.presses[1][2] + 1) % k),
                       lambda t: t.final_row.__setitem__(0, (t.final_row[0] + 1) % k),
                       lambda t: setattr(t, "solved", not t.solved)):
            bad = copy.deepcopy(tr)
            mutate(bad)
            self.assertTrue(wrong(lambda r: wls._check_board(k, grid, text, r), (board, bad, out)))

    def test_cli_checkers(self):
        def stdout(*argv):
            return wls.main_captured(lc, [*map(str, argv), "--json"])[1]

        def corrupt(text, edit):
            obj = json.loads(text)
            edit(obj["result"])
            return json.dumps(obj)

        cases = [
            (partial(wls._check_simulate, [[3] * 5] * 5, 4, 1),
             stdout("simulate", "--rows", 5, "--cols", 5, "--k", 4, "--q", 1),
             lambda r: r["presses"][0].__setitem__(0, 2)),
            (partial(wls._check_alpha, 1200, "factored"),
             stdout("alpha", 1200, "--method", "factored"), lambda r: r.update(alpha=600)),
            (partial(wls._check_alpha, 12, "both"), stdout("alpha", 12),
             lambda r: r.update(alpha_direct=24)),
            (partial(wls._check_alpha, 1009, "direct"),
             stdout("alpha", 1009, "--method", "direct"), lambda r: r.update(alpha=1)),
            (partial(wls._check_solvable_rows, 5, 1, 10),
             stdout("solvable", "--k", 5, "--q", 1, "--max-rows", 10),
             lambda r: r["solvable_rows"].pop()),
            (partial(wls._check_classes, 6, 3), stdout("solvable", "--k", 6, "--q", 3, "--classes"),
             lambda r: r.update(complete=not r["complete"])),
            (partial(wls._check_sequence, 1, 10, None),
             stdout("sequence", "--q", 1, "--n", 10, "--exact"),
             lambda r: r["values"].__setitem__(3, 6)),
            (partial(wls._check_sequence, 2, 30, 7), stdout("sequence", "--q", 2, "--n", 30, "--k", 7),
             lambda r: r["values"].__setitem__(30, 1 + r["values"][30] % 6)),
            (wls._check_verify, stdout("verify", "--k-max", 8, "--rows-max", 24),
             lambda r: r.update(failed=1)),
        ]
        for check, good, edit in cases:
            check(good)
            self.assertTrue(wrong(check, corrupt(good, edit)), f"accepted a corrupted {good[:40]}")

    def test_verify_sample_check_catches_a_wrong_simulation(self):
        def bad_one_pass(board):
            tr = lc.one_pass(board)
            tr.final_row[0] = (tr.final_row[0] + 1) % board.k
            return tr
        fake = types.SimpleNamespace(engine=types.SimpleNamespace(
            new_uniform=lc.new_uniform, BoardSpec=lc.BoardSpec, one_pass=bad_one_pass),
            solvability=lc.solvability)
        wls.verify(random.Random(1), lc).final_check()
        with self.assertRaises(CheckFailed):
            wls.verify(random.Random(1), fake).final_check()


class BenchmarkSpecTest(unittest.TestCase):
    def test_every_per_layer_metric_has_a_rule(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        totals = spans.Totals()
        totals.add_round([])
        for m in spec["per_layer"]:
            spans.per_layer_metric(m["name"], totals, {})

    def test_inputs_depend_only_on_the_seed(self):
        def inputs(name, seed):
            wl = wls.build(name, seed, lc, BENCH.parent)
            return [op.run.args[1:] if name == "boards" else op.run.args for op in wl.ops]
        for name in ("queries", "verify", "boards"):
            self.assertEqual(inputs(name, 5), inputs(name, 5))
            self.assertNotEqual(inputs(name, 5), inputs(name, 6))


if __name__ == "__main__":
    unittest.main()
