"""Per-layer microbenchmarks at fixed inputs, through public names only.

Every value is the median over `reps` samples of the per-call time; the
inputs do not depend on the workload or its seed, so these numbers are
comparable across all runs.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

import twoway_energy as te


def _per_call(fn, calls, reps):
    """(median seconds per call, samples) over reps timed loops of `calls` calls."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples), reps


def _interior_policy(units):
    """A fixed non-uniform interior policy (independent of any workload seed)."""
    rng = np.random.default_rng(12345 + units)
    p1 = np.concatenate(([0.0], rng.uniform(0.2, 0.8, units)))
    p2 = np.concatenate(([0.0], rng.uniform(0.2, 0.8, units)))
    return te.MarginalPolicy(p1=p1, p2=p2)


def microbenchmarks(src_dir, tiny: bool) -> dict:
    """name -> (value, unit, samples)."""
    reps = 1 if tiny else 5
    big_reps = 1 if tiny else 3
    out = {}

    def record(name, seconds_and_n, scale, unit):
        seconds, n = seconds_and_n
        out[name] = (seconds * scale, unit, n)

    grid = [i / 1000 for i in range(1001)]
    record(
        "entropy.binary_entropy_ns",
        _per_call(lambda: [te.binary_entropy(p) for p in grid], 1, reps * 4),
        1e9 / len(grid),
        "ns",
    )
    joints = [te.joint_from_marginals(a, b) for a in grid[::32] for b in grid[::32]]
    record(
        "entropy.joint_entropy_ns",
        _per_call(lambda: [te.joint_entropy(d) for d in joints], 1, reps * 4),
        1e9 / len(joints),
        "ns",
    )

    u16, u64 = te.uniform_policy(16), te.uniform_policy(64)
    record("chain.build_kernel_us.U16", _per_call(lambda: te.build_kernel(u16), 50, reps), 1e6, "us")
    record(
        "chain.stationary_us.U16",
        _per_call(lambda: te.stationary(te.build_kernel(u16)), 50, reps),
        1e6,
        "us",
    )
    record(
        "chain.stationary_us.U64",
        _per_call(lambda: te.stationary(te.build_kernel(u64)), 10, reps),
        1e6,
        "us",
    )
    steps = 100_000
    kernel16 = te.build_kernel(u16)
    record(
        "chain.simulate_chain_ns_per_step",
        _per_call(lambda: te.simulate_chain(kernel16, steps, initial_state=8, seed=1), 1, reps),
        1e9 / steps,
        "ns",
    )

    for units in (4, 16):
        policy = _interior_policy(units)
        joint = te.JointStatePolicy.from_marginal(policy)
        record(
            f"inner.rates_for_policy_us.U{units}",
            _per_call(lambda: te.rates_for_policy(policy), 200, reps),
            1e6,
            "us",
        )
        record(
            f"outer.outer_values_us.U{units}",
            _per_call(lambda: te.outer_values(joint), 100, reps),
            1e6,
            "us",
        )
    weighted = te.SearchConfig(restarts=2, seed=1)
    record(
        "outer.optimize_outer_weighted_s.U4",
        _per_call(lambda: te.optimize_outer_weighted(4, 0.25, weighted), 1, big_reps),
        1.0,
        "s",
    )

    # the mc-reliable codebooks at their acceptance seed
    policy = te.optimize_sum_rate(2, search=te.SearchConfig(restarts=4, seed=3)).policy
    record(
        "protocol.build_codebooks_us",
        _per_call(lambda: te.build_codebooks(policy, 100_000, 0.02, 0.1, seed=21), 20, reps),
        1e6,
        "us",
    )
    books = te.build_codebooks(policy, 100_000, 0.02, 0.1, seed=21)
    message = te.draw_messages(books, seed=0)[(1, 1)]
    record(
        "protocol.codeword_ms",
        _per_call(lambda: books.codeword(1, 1, message), 3, reps),
        1e3,
        "ms",
    )
    m = 10_000 if tiny else 100_000
    record(
        "protocol.variable_length_sim_ns_per_bit",
        _per_call(lambda: te.variable_length_sim(m, seed=5), 1, big_reps),
        1e9 / m,
        "ns",
    )
    rng = np.random.default_rng(17)
    bits1 = (rng.random(m) < 0.5).astype(np.uint8)
    bits2 = (rng.random(m) < 0.5).astype(np.uint8)
    record(
        "protocol.optimal_timeshare_sim_ns_per_bit",
        _per_call(lambda: te.optimal_timeshare_sim(bits1, bits2), 1, big_reps),
        1e9 / m,
        "ns",
    )

    env = dict(os.environ, PYTHONPATH=str(src_dir))
    command = [sys.executable, "-m", "twoway_energy", "--help"]
    record(
        "cli.startup_s",
        _per_call(
            lambda: subprocess.run(
                command, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60
            ),
            1,
            big_reps,
        ),
        1.0,
        "s",
    )
    return out
