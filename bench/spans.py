"""Spans around calls into the package, recorded by the benchmark itself.

The package is not patched. Where a call spends its time in another layer,
the traced run makes that call's constituent public calls again, on the same
inputs, as child spans (PARTS below). A span's self time is its duration
minus its children's durations, and a layer's busy time is the self time of
its spans, so the layers' busy times add up without double counting.

PARTS mirrors the package's call structure. A change to which public
functions a call uses makes the per-layer split stale until PARTS follows.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import islice
from statistics import median
from time import perf_counter

LAYERS = ("engine", "recurrence", "fib", "solvability", "cli")
# Per-layer metrics given as samples by the traced loop; 0 where none were taken.
SAMPLED = ("cli.import_ms", "cli.startup_ms", "trace.op_mean_ms")

# Operation counts per span name: the count names, and a function of the
# call's arguments and result that gives their values.
COUNTERS = {
    "engine.one_pass": (("cells", "presses"), lambda a, r: (
        a[0].rows * a[0].cols, sum(map(sum, r.presses)))),
    "engine.parse_grid": (("bytes",), lambda a, r: (len(a[0]),)),
    "recurrence.s_mod": (("steps",), lambda a, r: (a[1],)),
    "recurrence.s_closed": (("doubling_steps",), lambda a, r: (a[1].bit_length(),)),
    "recurrence.iter_s_mod": (("terms",), lambda a, r: (a[3],)),
    "fib.alpha_direct": (("scan_steps",), lambda a, r: (r.alpha,)),
    "fib.pisano_direct": (("scan_steps",), lambda a, r: (r,)),
    "fib.fib_pair_mod": (("doubling_steps",), lambda a, r: (a[0].bit_length(),)),
    "cli.main": (("stdout_bytes",), lambda a, r: (len(r[1].encode()),)),
}
_COUNT_METRICS = {f"{span}.{key}" for span, (keys, _) in COUNTERS.items() for key in keys}


def take_s(lc, q: int, k: int, n: int) -> None:
    """Pull the first n terms of iter_s_mod(q, k), as the package's sweeps do."""
    deque(islice(lc.recurrence.iter_s_mod(q, k), n), maxlen=0)


def _characterize(t, k, q):
    fib = t.lc.fib
    t.call("fib.alpha_direct", fib.alpha_direct, k)
    period = t.call("fib.pisano_direct", fib.pisano_direct, k)
    t.call("recurrence.iter_s_mod", take_s, t.lc, q, k, period)


def _alpha_factored(t, k):
    fib = t.lc.fib
    for p, s in t.call("fib.factorize", fib.factorize, k):
        t.call("fib.is_prime", fib.is_prime, p)
        if p == 2:
            continue
        a = t.call("fib.alpha_direct", fib.alpha_direct, p).alpha
        if s > 1 and t.call("fib.alpha_direct", fib.alpha_direct, p * p).alpha == a:
            t.call("fib.alpha_direct", fib.alpha_direct, p**s)


def _cross_validate(t, k, q, rows, cols):
    eng = t.lc.engine
    board = t.call("engine.new_uniform", eng.new_uniform, eng.BoardSpec(rows, cols, k, q))
    t.call("engine.one_pass", eng.one_pass, board)
    t.call("recurrence.s_mod", t.lc.recurrence.s_mod, q, rows, k)


def _s_closed(t, q, i, k=None):
    if k is None:
        t.call("fib.fib_pair", t.lc.fib.fib_pair, i)
    else:
        t.call("fib.fib_pair_mod", t.lc.fib.fib_pair_mod, i, k)


def _chase_sequence(t, params, n):
    if params.k is not None:
        t.call("recurrence.iter_s_mod", take_s, t.lc, params.q, params.k, n + 1)


PARTS = {
    "solvability.characterize": _characterize,
    "solvability.is_one_pass_solvable": lambda t, k, q, rows: t.call(
        "recurrence.s_mod", t.lc.recurrence.s_mod, q, rows, k),
    "solvability.sufficient_by_alpha": lambda t, k, rows: t.call(
        "fib.alpha_direct", t.lc.fib.alpha_direct, k),
    "solvability.solvable_rows_up_to": lambda t, k, q, n: t.call(
        "recurrence.iter_s_mod", take_s, t.lc, q, k, n + 1),
    "solvability.cross_validate": _cross_validate,
    "fib.alpha_factored": _alpha_factored,
    "recurrence.s_closed": _s_closed,
    "recurrence.chase_sequence": _chase_sequence,
}


class Tracer:
    """Records one span per call made through call(); spans stay in memory.

    A span is (id, parent id or None, name, start, end, counts).
    """

    def __init__(self, lc):
        self.lc = lc
        self.spans: list[tuple] = []
        self._parent = None

    def call(self, name, fn, *args, parts=None):
        """Run fn(*args) inside a span, then its constituent calls as child spans.

        parts(tracer) overrides the PARTS entry for name.
        """
        parent = self._parent
        t0 = perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        sid = len(self.spans)
        counter = COUNTERS.get(name)
        counts = dict(zip(counter[0], counter[1](args, result))) if counter else None
        self.spans.append((sid, parent, name, t0, t1, counts))
        if parts is None and name in PARTS:
            parts = lambda t: PARTS[name](t, *args)  # noqa: E731
        if parts is not None:
            self._parent = sid
            try:
                parts(self)
            finally:
                self._parent = parent
        return result


class Totals:
    """Per-name sums over the spans of every traced round."""

    def __init__(self):
        self.rounds = 0
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)       # inclusive time
        self.self_time = defaultdict(float)  # minus child spans
        self.durations = defaultdict(list)
        self.counts = defaultdict(lambda: defaultdict(int))

    def add_round(self, spans, factor: float = 1.0) -> None:
        """Add one round's spans, their durations multiplied by factor."""
        child_time = defaultdict(float)
        for sid, parent, name, t0, t1, counts in spans:
            if parent is not None:
                child_time[parent] += factor * (t1 - t0)
        for sid, parent, name, t0, t1, counts in spans:
            dur = factor * (t1 - t0)
            self.calls[name] += 1
            self.busy[name] += dur
            self.self_time[name] += max(0.0, dur - child_time[sid])
            self.durations[name].append(dur)
            for key, value in (counts or {}).items():
                self.counts[name][key] += value
        self.rounds += 1

    def layer_busy(self, layer: str) -> float:
        return sum(v for name, v in self.self_time.items() if name.split(".")[0] == layer)


# Count metrics whose name does not spell out the span and count they read.
_ALIASES = {
    "engine.cells": ("engine.one_pass", "cells"),
    "engine.presses": ("engine.one_pass", "presses"),
    "cli.stdout_bytes": ("cli.main", "stdout_bytes"),
}


def per_layer_metric(name: str, totals: Totals, samples: dict[str, list[float]]) -> float:
    """One per-layer metric: a median of samples[name] when present, else a
    figure per round of the workload, except cli.<subcommand>.ms.

    busy_s of a function is the time inside it; busy_s of a layer is the
    self time of its spans; share_pct is a layer's share of all layers' busy
    time; cli.<subcommand>.ms is the median wall time of that child process.
    """
    rounds = totals.rounds
    if name in SAMPLED:
        return median(samples[name]) if samples.get(name) else 0.0
    if name in _ALIASES:
        span, key = _ALIASES[name]
        return totals.counts[span][key] // rounds
    base, field = name.rsplit(".", 1)
    if field == "share_pct":
        total = sum(totals.layer_busy(layer) for layer in LAYERS)
        return 100.0 * totals.layer_busy(base) / total if total else 0.0
    if field == "busy_s":
        return (totals.layer_busy(base) if base in LAYERS else totals.busy[base]) / rounds
    if field == "calls":
        return totals.calls[base] // rounds
    if field == "ms" and base.startswith("cli."):
        durs = totals.durations["child." + base[4:]]
        return 1e3 * median(durs) if durs else 0.0
    if name in _COUNT_METRICS:
        return totals.counts[base][field] // rounds
    raise KeyError(f"no rule computes per-layer metric {name!r}")

