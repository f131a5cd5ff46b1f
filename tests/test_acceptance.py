"""Acceptance gate: one test per top-level criterion.

Each test prints an "ACCEPTANCE PASS/FAIL" line for its criterion
before asserting, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist. The heavyweight bounds sweep over U = 1..16 is computed once
and shared by the three criteria that consume it.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_policy
from twoway_energy import (
    JointStatePolicy,
    SearchConfig,
    build_codebooks,
    build_kernel,
    monte_carlo_error,
    naive_frame_rate,
    optimal_timeshare_sim,
    optimize_outer_sum,
    optimize_sum_rate,
    rates_for_policy,
    simulate_chain,
    stationary,
    uniform_policy,
    variable_length_sim,
)
from twoway_energy.cli import render_sweep_csv, sweep_details

U_MAX = 16
SWEEP_SEARCH = SearchConfig(restarts=6, tol=1e-6, seed=1)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status}: {name}{suffix}")


@pytest.fixture(scope="session")
def full_sweep():
    start = time.perf_counter()
    rows, inners = sweep_details(U_MAX, SWEEP_SEARCH)
    elapsed = time.perf_counter() - start
    return rows, inners, elapsed


def test_u1_coincidence():
    start = time.perf_counter()
    inner = optimize_sum_rate(1, search=SearchConfig(restarts=6, seed=0))
    _, outer_vals = optimize_outer_sum(1, search=SearchConfig(restarts=6, seed=0))
    elapsed = time.perf_counter() - start
    ok = (
        abs(inner.objective - 1.0) <= 1e-6
        and abs(outer_vals.sum_bound - 1.0) <= 1e-6
        and elapsed < 1.0
    )
    _report(
        "U=1 coincidence: both bounds equal 1 bit/c.u.",
        ok,
        f"inner={inner.objective:.9f} outer={outer_vals.sum_bound:.9f} {elapsed:.2f}s",
    )
    assert abs(inner.objective - 1.0) <= 1e-6
    assert abs(outer_vals.sum_bound - 1.0) <= 1e-6
    assert elapsed < 1.0


def test_single_unit_strategies():
    start = time.perf_counter()
    assert naive_frame_rate(2) == 0.5

    vl = variable_length_sim(100_000, seed=5)
    assert vl.sum_rate == pytest.approx(2.0 / 3.0, abs=0.01)
    assert np.array_equal(vl.decoded_bits1, vl.sent_bits1)
    assert np.array_equal(vl.decoded_bits2, vl.sent_bits2)

    # verbatim time sharing on inputs whose one-bits interleave
    cases = [
        ([0, 1, 1, 0], [1, 0, 1, 0]),
        ([0, 0, 0, 0], [0, 0, 0, 0]),
        ([1] * 64, [1] * 64),
        ([0, 1] * 50, [1, 0] * 50),
    ]
    for b1, b2 in cases:
        res = optimal_timeshare_sim(b1, b2)
        assert res.transcript.length == 2 * len(b1)
        assert res.sum_rate == 1.0 or not any(b1 + b2)
        assert np.array_equal(res.decoded_bits1, b1)
        assert np.array_equal(res.decoded_bits2, b2)
    elapsed = time.perf_counter() - start
    _report(
        "single-unit strategies: frame rate 1/2, variable-length 2/3, "
        "time sharing 2m on interleaving inputs",
        elapsed < 5.0,
        f"vl_rate={vl.sum_rate:.4f} {elapsed:.2f}s",
    )
    assert elapsed < 5.0


def test_timeshare_exact_2m_for_all_inputs():
    """Verbatim time sharing in exactly 2m uses for arbitrary inputs.

    This cannot hold. With m = 1 and bits (0, 1), node 2 can only speak
    after receiving the unit, which takes a use with x1 = 1; in two uses
    that forces x1 = (1, 0) regardless of node 1's bit, destroying it.
    In general the transcript's one-symbols must strictly alternate
    between the nodes, so inputs whose one-counts differ need
    max(k2-k1, 0) + max(k1-k2-1, 0) extra unit-return uses. The
    simulator keeps decoding exact for every input and pays exactly that
    minimal overhead; the constant-2m claim is tested here as stated and
    is left red on purpose rather than weakened.
    """
    rng = np.random.default_rng(17)
    m = 10_000
    bits1 = (rng.random(m) < 0.5).astype(np.uint8)
    bits2 = (rng.random(m) < 0.5).astype(np.uint8)
    res = optimal_timeshare_sim(bits1, bits2)
    assert np.array_equal(res.decoded_bits1, bits1)  # decoding is exact
    assert np.array_equal(res.decoded_bits2, bits2)
    ok = res.transcript.length == 2 * m
    _report(
        "time sharing completes in exactly 2m uses for random inputs",
        ok,
        f"length={res.transcript.length} 2m={2 * m} "
        f"handover_uses={res.handover_uses} rate={res.sum_rate:.4f}",
    )
    assert res.transcript.length == 2 * m, (
        "constant-2m cannot be met for arbitrary inputs; "
        f"{res.handover_uses} unit-return uses were required"
    )


def test_conventional_vs_optimized_gap(full_sweep):
    rows, _, elapsed = full_sweep
    conv2 = rates_for_policy(uniform_policy(2)).total
    gaps_ok = all(
        row.sum_optimized >= row.sum_conventional + 1e-4 for row in rows if row.units >= 2
    )
    ok = gaps_ok and abs(conv2 - 1.5) <= 1e-9 and elapsed < 120.0
    worst = min(
        (row.sum_optimized - row.sum_conventional for row in rows if row.units >= 2)
    )
    _report(
        "optimized policies beat the conventional one for U in [2,16]",
        ok,
        f"min_gain={worst:.6f} conventional(2)={conv2:.12f} sweep={elapsed:.1f}s",
    )
    assert abs(conv2 - 1.5) <= 1e-9
    assert gaps_ok
    assert elapsed < 120.0


def test_sweep_csv_matches_the_pinned_table(full_sweep):
    # The pinned file is the output of
    # `twoway-energy sweep --budget 16 --restarts 6 --seed 1`.
    rows, _, _ = full_sweep
    pinned = (Path(__file__).parent / "data" / "sweep_u16.csv").read_text(encoding="utf-8")
    text = render_sweep_csv(rows)
    _report("bounds table equals tests/data/sweep_u16.csv byte for byte", text == pinned)
    assert text == pinned


def test_sweep_matches_the_pinned_rows_bit_for_bit(full_sweep):
    # The pinned file holds float.hex of every row and inner policy of
    # sweep_details(16, SearchConfig(restarts=6, tol=1e-6, seed=1)), so a
    # change below the CSV's six decimals fails here too.
    rows, inners, _ = full_sweep
    pinned = json.loads(
        (Path(__file__).parent / "data" / "sweep_u16_rows.json").read_text(encoding="utf-8")
    )
    got = [
        {
            "units": row.units,
            "conventional": row.sum_conventional.hex(),
            "optimized": row.sum_optimized.hex(),
            "outer": row.sum_outer.hex(),
            "p1": [float(v).hex() for v in inner.policy.p1],
            "p2": [float(v).hex() for v in inner.policy.p2],
        }
        for row, inner in zip(rows, inners)
    ]
    differ = [g["units"] for g, want in zip(got, pinned) if g != want]
    _report(
        "sweep rows and inner policies equal tests/data/sweep_u16_rows.json bit for bit",
        got == pinned,
        f"differing U: {differ}" if differ else "",
    )
    assert got == pinned


def test_inner_outer_sandwich_and_closure(full_sweep):
    rows, _, _ = full_sweep
    sandwich_ok = all(row.sum_optimized <= row.sum_outer + 1e-6 for row in rows)

    # Both bounds equal 1 exactly at U=1, so the gap starts at 0 by that
    # coincidence and only becomes meaningful from U=2 on; monotonicity
    # is checked from there.
    gaps = {row.units: row.sum_outer - row.sum_optimized for row in rows}
    monotone_ok = all(gaps[u + 1] <= gaps[u] + 1e-3 for u in range(2, U_MAX))
    threshold = next(
        (row.units for row in rows if row.units >= 2 and gaps[row.units] < 1e-2), None
    )
    ok = sandwich_ok and monotone_ok and threshold is not None
    _report(
        "inner-outer sandwich holds and the gap closes with growing U",
        ok,
        f"gap(2)={gaps[2]:.6f} gap({U_MAX})={gaps[U_MAX]:.6f} "
        f"first U with gap<1e-2: {threshold}",
    )
    assert sandwich_ok
    assert monotone_ok
    assert threshold is not None


def test_optimal_policy_structure(full_sweep):
    _, inners, _ = full_sweep
    for res in inners:
        units = res.policy.units
        p1 = res.policy.p1
        p2 = res.policy.p2
        # same per-level probabilities at both nodes
        assert np.abs(p1[1:] - p2[1:]).max() < 1e-2, f"U={units}"
        # monotone in the sender's energy
        assert np.all(np.diff(p1[1:]) > -1e-2), f"U={units}"
        # even coin at the middle level for even U
        if units % 2 == 0 and units >= 2:
            assert abs(p1[units // 2] - 0.5) <= 1e-2, f"U={units}"
        # energy-neutral transitions balance at interior states
        for u in range(1, units):
            a, b = p1[u], p2[units - u]
            assert abs((1 - a) * (1 - b) - a * b) <= 1e-2, f"U={units} state {u}"
    _report(
        "optimized policies are symmetric, monotone, centred at 1/2, "
        "and energy-neutral balanced",
        True,
        f"U=1..{U_MAX}",
    )


def test_markov_correctness():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        units = int(rng.integers(1, 17))
        kernel = build_kernel(random_policy(rng, units))
        pi = stationary(kernel)
        worst = max(worst, float(np.abs(pi @ kernel.matrix - pi).max()))
    balance_ok = worst < 1e-10

    steps = 1_000_000
    tol = 3.0 * steps ** -0.5
    sim_worst = 0.0
    for units, seed in ((1, 31), (2, 32), (5, 33)):
        kernel = build_kernel(uniform_policy(units, 0.5))
        pi = stationary(kernel)
        occ = simulate_chain(kernel, steps=steps, initial_state=units // 2, seed=seed)
        sim_worst = max(sim_worst, float(np.abs(occ - pi).max()))
    sim_ok = sim_worst < tol

    _report(
        "stationary solutions satisfy balance and match simulated occupancy",
        balance_ok and sim_ok,
        f"max|pi Q - pi|={worst:.2e}, max sim dev={sim_worst:.2e} (tol {tol:.2e})",
    )
    assert balance_ok
    assert sim_ok


def test_random_coding_validation():
    start = time.perf_counter()
    policy = optimize_sum_rate(2, search=SearchConfig(restarts=4, seed=3)).policy
    books = build_codebooks(policy, 100_000, 0.02, 0.1, seed=21)
    report = monte_carlo_error(books, trials=200, seed=22)
    occupancy_dev = float(np.abs(report.mean_occupancy - books.pi).max())

    overdriven = build_codebooks(uniform_policy(1, 0.5), 1_000, 0.02, -0.1, seed=23)
    collapse = monte_carlo_error(overdriven, trials=100, seed=24)
    elapsed = time.perf_counter() - start

    ok = (
        report.error_rate <= 0.05
        and occupancy_dev < 0.02
        and collapse.error_rate >= 0.5
        and elapsed < 300.0
    )
    _report(
        "random-coding scheme: reliable inside the margins, collapsing "
        "past the packing condition",
        ok,
        f"error={report.error_rate:.4f} occ_dev={occupancy_dev:.4f} "
        f"overdriven_error={collapse.error_rate:.2f} {elapsed:.1f}s",
    )
    assert report.error_rate <= 0.05
    assert occupancy_dev < 0.02
    assert collapse.error_rate >= 0.5
    assert elapsed < 300.0
