"""The benchmark's workloads: inputs from a seed, one timed operation,
output checks and an output digest.

Each workload runs the library only through its public names. A run
repeats one timed operation (a sweep pass, or a batch of Monte Carlo
trials); operation k of a run draws its randomness from the seed
`seed + k * SEED_STRIDE` (the Monte Carlo batches from that plus one),
so operation 0 at the default seed starts like the acceptance test.

- bounds-sweep: the inner/outer bounds table at U in SWEEP_UNITS with
  the acceptance search settings. Nearly all time is in the inner and
  outer optimisers (outer about 80%), most of it at U = 16; the protocol
  layer is not used.
- mc-reliable: Monte Carlo validation of level-multiplexed random coding
  at blocklength 1e5 (about 0.1 s per trial), where codeword draws and
  the per-channel-use walk dominate.
- mc-collapse: the overdriven code at blocklength 1e3 (under 1 ms per
  trial), where fixed per-trial costs dominate and every trial fails to
  decode. Runnable, but not gated in BENCHMARK.json (see run.py).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import twoway_energy as te
from twoway_energy import protocol

from tracing import NullTracer

SEED_STRIDE = 1_000_003
SWEEP_UNITS = (1, 2, 4, 8, 16)
TINY_SWEEP_UNITS = (1, 2)
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class BoundsSweep:
    """Conventional, optimized-inner and outer sum rates per U.

    The largest U costs about 80% of a pass, and its optimisation time
    moves by up to 15% with the search seed, which is more than a run
    can average out. So that row always uses the acceptance search seed
    and is checked against the reference on every pass; the smaller rows
    use the workload seed.
    """

    name = "bounds-sweep"
    default_seed = 1

    def __init__(self, seed: int, tiny: bool, reference=None):
        self.seed = seed
        self.units = TINY_SWEEP_UNITS if tiny else SWEEP_UNITS
        self.units_per_op = len(self.units)
        ref = (reference or load_reference())["bounds-sweep"]
        self.reference_seed = ref["seed"]
        self.reference_rows = {int(u): row for u, row in ref["rows"].items()}

    def search_seed(self, k: int, units: int) -> int:
        if units == self.units[-1]:
            return self.reference_seed
        return self.seed + k * SEED_STRIDE

    def setup(self):
        pass

    def warm_up(self):
        self._row(1, self.search_seed(0, 1), NullTracer())

    def _row(self, units, seed, tracer):
        config = te.SearchConfig(restarts=6, tol=1e-6, seed=seed)
        tracer.new_op()
        with tracer.span("inner.rates_for_policy", units):
            conventional = te.rates_for_policy(te.uniform_policy(units)).total
        with tracer.span("inner.optimize_sum_rate", units):
            inner = te.optimize_sum_rate(units, 0.5, config)
        tracer.count("inner.restarts", inner.restarts_used)
        seed_policy = te.JointStatePolicy.from_marginal(inner.policy)
        with tracer.span("outer.optimize_outer_sum", units):
            _, values = te.optimize_outer_sum(units, config, seed_policies=[seed_policy])
        return (units, seed, conventional, float(inner.objective), float(values.sum_bound))

    def op(self, k: int, tracer):
        return [self._row(units, self.search_seed(k, units), tracer) for units in self.units]

    def check(self, results) -> list[str]:
        """Problems found in [(k, rows)]; an empty list means correct."""
        problems = []
        for _, rows in results:
            for units, seed, conv, opt, outer in rows:
                where = f"U={units} search seed {seed}"
                if not all(math.isfinite(v) for v in (conv, opt, outer)):
                    problems.append(f"{where}: non-finite row {conv, opt, outer}")
                    continue
                if abs(conv - (2.0 - 1.0 / units)) > 1e-12:
                    problems.append(f"{where}: conventional {conv!r} != 2 - 1/U")
                if not conv <= opt <= outer + 1e-6:
                    problems.append(f"{where}: not conventional <= optimized <= outer + 1e-6")
                if outer > 2.0:
                    problems.append(f"{where}: outer {outer!r} > 2")
                if units == 1 and (abs(opt - 1.0) > 1e-6 or abs(outer - 1.0) > 1e-6):
                    problems.append(f"{where}: bounds at U=1 are not both 1")
                ref = self.reference_rows.get(units)
                if seed == self.reference_seed and ref is not None:
                    if any(abs(v - r) > 1e-9 for v, r in zip((conv, opt, outer), ref)):
                        problems.append(f"{where}: row differs from reference {ref} by > 1e-9")
        return problems

    def digest(self, rows) -> str:
        return _digest([[u, seed] + [round(v, 9) for v in vals] for u, seed, *vals in rows])

    def traced_patches(self, tracer):
        """None: the benchmark opens every sweep span around its own calls."""
        return []


class MonteCarlo:
    """Random-coding error estimation in batches of `batch` trials."""

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.units_per_op = self.tiny_batch if tiny else self.batch

    def setup(self):
        self.books = te.build_codebooks(
            self.policy(), self.blocklength, self.epsilon, self.delta, seed=self.seed
        )

    def warm_up(self):
        te.monte_carlo_error(self.books, 1, seed=self.seed)

    def op(self, k: int, tracer):
        with tracer.span("protocol.monte_carlo_error"):
            return te.monte_carlo_error(
                self.books, self.units_per_op, seed=self.seed + 1 + k * SEED_STRIDE
            )

    def check(self, results) -> list[str]:
        trials = sum(r.trials for _, r in results)
        errors = sum(round(r.error_rate * r.trials) for _, r in results)
        occupancy = sum(r.mean_occupancy * r.trials for _, r in results) / trials
        deviation = float(abs(occupancy - self.books.pi).max())
        return self._check(errors / trials, deviation)

    def digest(self, report) -> str:
        return _digest(
            {
                "trials": report.trials,
                "errors": round(report.error_rate * report.trials),
                "occupancy": [round(float(x), 12) for x in report.mean_occupancy],
                "e1": sorted([list(k), v] for k, v in report.e1_counts.items()),
                "e2": sorted([list(k), v] for k, v in report.e2_counts.items()),
            }
        )

    def traced_patches(self, tracer):
        """Public entry points inside monte_carlo_error, wrapped in spans."""

        def trial_counts(outcome):
            tracer.count("trials")
            tracer.count("e1_events", len(outcome.e1_events))
            tracer.count("e2_events", len(outcome.e2_events))
            t = getattr(outcome, "transcript", None)
            if t is not None:
                tracer.count("transcript_bytes", t.states.nbytes + t.x1.nbytes + t.x2.nbytes)

        def codeword_counts(word):
            tracer.count("codewords")
            tracer.count("codeword_symbols", len(word))

        wrap = tracer.wrap
        return [
            (protocol, "draw_messages", wrap(protocol.draw_messages, "protocol.draw_messages")),
            (protocol, "run_trial", wrap(protocol.run_trial, "protocol.run_trial", trial_counts)),
            (
                te.CodebookSet,
                "regenerate",
                wrap(te.CodebookSet.regenerate, "protocol.regenerate", starts_op=True),
            ),
            (
                te.CodebookSet,
                "codeword",
                wrap(te.CodebookSet.codeword, "protocol.codeword", codeword_counts),
            ),
        ]


class Reliable(MonteCarlo):
    name = "mc-reliable"
    default_seed = 21
    blocklength, epsilon, delta = 100_000, 0.02, 0.1
    batch, tiny_batch = 10, 2

    @staticmethod
    def policy():
        return te.optimize_sum_rate(2, search=te.SearchConfig(restarts=4, seed=3)).policy

    @staticmethod
    def _check(error_rate, deviation):
        problems = []
        if error_rate > 0.05:
            problems.append(f"error rate {error_rate} > 0.05")
        if not deviation < 0.02:
            problems.append(f"occupancy deviation {deviation} >= 0.02")
        return problems


class Collapse(MonteCarlo):
    name = "mc-collapse"
    default_seed = 23
    blocklength, epsilon, delta = 1_000, 0.02, -0.1
    batch, tiny_batch = 500, 20

    @staticmethod
    def policy():
        return te.uniform_policy(1, 0.5)

    @staticmethod
    def _check(error_rate, deviation):
        return [] if error_rate >= 0.5 else [f"error rate {error_rate} < 0.5"]


WORKLOADS = {w.name: w for w in (BoundsSweep, Reliable, Collapse)}
