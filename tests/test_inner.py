import dataclasses
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import changed_cells, random_policy
from twoway_energy import (
    JointStatePolicy,
    MarginalPolicy,
    RatePair,
    SearchConfig,
    optimize_outer_sum,
    optimize_sum_rate,
    outer_values,
    rates_for_policy,
    region_sweep,
    uniform_policy,
)
from twoway_energy import inner
from twoway_energy.chain import NotIrreducibleError
from twoway_energy.entropy import _h
from twoway_energy.inner import _inner_columns, _inner_problem, _inner_settled
from twoway_energy.search import CLAMP, _cell_sums, _search

FAST = SearchConfig(restarts=6, tol=1e-6, seed=0)


def test_rates_u1_symmetric():
    r = rates_for_policy(uniform_policy(1, 0.5))
    assert r.r1 == pytest.approx(0.5)
    assert r.r2 == pytest.approx(0.5)
    assert r.total == pytest.approx(1.0)


def test_rates_u2_uniform():
    r = rates_for_policy(uniform_policy(2, 0.5))
    assert r.r1 == pytest.approx(0.75)
    assert r.r2 == pytest.approx(0.75)
    assert r.total == pytest.approx(1.5)


def test_rates_vanish_with_vanishing_send_probability():
    pol = MarginalPolicy(
        p1=np.array([0.0, 1e-9, 1e-9]), p2=np.array([0.0, 0.5, 0.5])
    )
    r = rates_for_policy(pol)
    assert r.r1 < 1e-6


def test_rates_stay_finite_for_extreme_policy_at_large_u():
    for units in (30, 40):
        p1 = np.full(units + 1, 1e-6)
        p2 = np.full(units + 1, 1.0 - 1e-6)
        p1[0] = p2[0] = 0.0
        pol = MarginalPolicy(p1=p1, p2=p2)
        r = rates_for_policy(pol)
        vals = outer_values(JointStatePolicy.from_marginal(pol))
        assert np.isfinite([r.r1, r.r2, vals.r1_bound, vals.r2_bound, vals.sum_bound]).all()
        assert vals.sum_bound == pytest.approx(r.total, abs=1e-12)


def test_rate_pair_rejects_nan():
    for r1, r2 in ((float("nan"), 0.0), (0.0, float("nan")), (-1e-3, 0.5)):
        with pytest.raises(ValueError):
            RatePair(r1=r1, r2=r2)


def test_rates_swap_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        units = int(rng.integers(1, 9))
        pol = random_policy(rng, units)
        r = rates_for_policy(pol)
        s = rates_for_policy(MarginalPolicy(p1=pol.p2, p2=pol.p1))
        assert s.r1 == pytest.approx(r.r2, abs=1e-12)
        assert s.r2 == pytest.approx(r.r1, abs=1e-12)


def test_optimize_u1_hits_one_bit():
    res = optimize_sum_rate(1, search=FAST)
    assert res.objective == pytest.approx(1.0, abs=1e-6)
    assert res.policy.p1[1] == pytest.approx(0.5, abs=1e-3)
    assert res.policy.p2[1] == pytest.approx(0.5, abs=1e-3)


def test_optimize_u2_beats_conventional():
    res = optimize_sum_rate(2, search=FAST)
    assert res.objective >= 1.5 + 1e-4


def test_optimize_result_is_selfconsistent():
    res = optimize_sum_rate(3, search=FAST)
    r = rates_for_policy(res.policy)
    assert res.rates.r1 == pytest.approx(r.r1, abs=1e-9)
    assert res.rates.r2 == pytest.approx(r.r2, abs=1e-9)
    assert res.objective == pytest.approx(r.total, abs=1e-9)
    assert res.restarts_used == _starts_until_settled(3, 0.5, FAST) == 1


def _starts_until_settled(units, lam, config):
    """The starts an inner search runs: replays the full search one start
    longer at a time, up to the first start that wins and is settled."""
    settled = _inner_settled(units, lam)
    best = None
    with mock.patch.object(inner, "_inner_settled", lambda units, lam: None):
        for k in range(1, config.restarts + 1):
            res = optimize_sum_rate(units, lam, dataclasses.replace(config, restarts=k))
            assert res.restarts_used == k
            x, f = res.policy.p1[1:].tolist() + res.policy.p2[1:].tolist(), res.objective
            if (x, f) != best:  # start k won
                best = x, f
                if settled(x, f):
                    return k
    return config.restarts


def test_the_search_stops_at_the_first_settled_start():
    # At U = 2 the third start wins, and only its win is settled.
    config = SearchConfig(restarts=6, seed=1)
    res = optimize_sum_rate(2, 0.5, config)
    assert res.restarts_used == _starts_until_settled(2, 0.5, config) == 3
    # A weight where the optimum sits on the clamp is never settled.
    assert optimize_sum_rate(2, 1.0, config).restarts_used == 6


def test_an_inner_search_that_runs_every_start_matches_its_pin_bit_for_bit():
    # At U = 4, lam = 0.7 the winning start ends about 2.3e-10 short of the
    # certificate's 1e-9 band, so no start is settled and all six run: the
    # pin covers the search's every start, which the sweep's settled rows
    # do not.
    res = optimize_sum_rate(4, 0.7, SearchConfig(restarts=6, seed=1))
    assert res.restarts_used == 6
    assert {
        "objective": res.objective.hex(),
        "rates": [res.rates.r1.hex(), res.rates.r2.hex()],
        "p1": [float(v).hex() for v in res.policy.p1],
        "p2": [float(v).hex() for v in res.policy.p2],
    } == {
        "objective": "0x1.dd5180a2ff12fp+0",
        "rates": ["0x1.efd457694e224p-1", "0x1.b22036299bef2p-1"],
        "p1": [
            "0x0.0p+0",
            "0x1.a13238c990fd0p-2",
            "0x1.efb8d55a28318p-2",
            "0x1.18e8be8752c2fp-1",
            "0x1.3498df336d6d3p-1",
        ],
        "p2": [
            "0x0.0p+0",
            "0x1.7dc0012271c7ep-2",
            "0x1.15090320c48e0p-1",
            "0x1.8245836af2cd8p-1",
            "0x1.c498e3e74764cp-1",
        ],
    }


def _pinned_rows():
    rows = json.loads((Path(__file__).parent / "data" / "sweep_u16_rows.json").read_text(encoding="utf-8"))
    for row in rows:
        p1, p2 = ([float.fromhex(v) for v in row[key]] for key in ("p1", "p2"))
        yield row["units"], [*p1[1:], *p2[1:]], float.fromhex(row["optimized"])


def test_every_pinned_sweep_row_is_certified_globally_optimal():
    # Odoni's bound from each pinned policy's own bias: no policy of that U
    # has a sum rate above the pinned row plus 1e-9.
    rows = list(_pinned_rows())
    assert [units for units, _, _ in rows] == list(range(1, 17))
    for units, x, f in rows:
        assert _inner_settled(units, 0.5)(x, f), units


def test_the_certificate_rejects_a_sub_optimal_u2_search():
    # The first start alone ends 2.2e-9 below the pinned U = 2 row.
    res = optimize_sum_rate(2, 0.5, SearchConfig(restarts=1, seed=1))
    pinned = next(f for units, _, f in _pinned_rows() if units == 2)
    assert pinned - 3e-9 < res.objective < pinned - 1e-9
    x = [*res.policy.p1[1:], *res.policy.p2[1:]]
    assert not _inner_settled(2, 0.5)(x, res.objective)


def test_the_certificate_fails_closed():
    # U = 60 with p1 = CLAMP and p2 = 1 - CLAMP: the weights rescale twice,
    # so the first states' weights underflow to 0.
    units = 60
    x = [CLAMP] * units + [1.0 - CLAMP] * units
    f = rates_for_policy(MarginalPolicy(p1=[0.0, *x[:units]], p2=[0.0, *x[units:]])).total
    assert _inner_settled(units, 0.5)(x, f) is False
    # p2[2] = CLAMP: state 0 barely moves up, so its bias step is about 7e5;
    # an unguarded 2.0 ** step would raise OverflowError.
    x = [CLAMP, 0.5, 0.5, CLAMP]
    f = rates_for_policy(MarginalPolicy(p1=[0.0, *x[:2]], p2=[0.0, *x[2:]])).total
    step = (f - _h(CLAMP)) / CLAMP  # state 0's bias step: (rho - r[0]) / up[0]
    assert step > 1024.0
    assert _inner_settled(2, 0.5)(x, f) is False
    # A NaN objective, at a policy that is settled at its own objective.
    units, x, f = next(_pinned_rows())
    assert _inner_settled(units, 0.5)(x, f)
    assert _inner_settled(units, 0.5)(x, math.nan) is False


def test_optimize_is_deterministic():
    a = optimize_sum_rate(3, search=FAST)
    b = optimize_sum_rate(3, search=FAST)
    assert np.array_equal(a.policy.p1, b.policy.p1)
    assert a.objective == b.objective


def test_optimized_beats_conventional_across_units():
    # equality at a single unit (both hit the 1-bit cap), strict gain above
    assert optimize_sum_rate(1, search=FAST).objective >= rates_for_policy(
        uniform_policy(1)
    ).total - 1e-9
    for units in (2, 4, 8, 12, 16):
        conventional = rates_for_policy(uniform_policy(units)).total
        res = optimize_sum_rate(units, search=FAST)
        assert res.objective >= conventional + 1e-4


def test_optimum_structure_u4():
    res = optimize_sum_rate(4, search=FAST)
    p1 = res.policy.p1[1:]
    p2 = res.policy.p2[1:]
    # midpoint level is an even coin
    assert res.policy.p1[2] == pytest.approx(0.5, abs=1e-2)
    # the two nodes optimize to the same per-level probabilities
    assert np.abs(p1 - p2).max() < 1e-2
    # monotone in the sender's energy
    assert np.all(np.diff(p1) > -1e-2)
    # energy-neutral moves balance at interior states
    for u in (1, 2, 3):
        a, b = res.policy.p1[u], res.policy.p2[4 - u]
        assert (1 - a) * (1 - b) == pytest.approx(a * b, abs=1e-2)


def test_optimize_validates_arguments():
    with pytest.raises(ValueError):
        optimize_sum_rate(0)
    with pytest.raises(ValueError):
        optimize_sum_rate(2, lam=1.5)
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            SearchConfig(tol=tol)
    for bad in (2.5, 2.0, float("nan"), None):
        with pytest.raises(ValueError, match="restarts"):
            SearchConfig(restarts=bad)
        with pytest.raises(ValueError, match="units"):
            optimize_sum_rate(bad, search=FAST)
        with pytest.raises(ValueError, match="units"):
            optimize_outer_sum(bad, search=FAST)
    config = SearchConfig(restarts=np.int64(6), tol=1e-6, seed=0)
    assert type(config.restarts) is int and config == FAST
    assert optimize_sum_rate(np.int64(1), search=config).objective == optimize_sum_rate(
        1, search=FAST
    ).objective


@pytest.mark.parametrize(
    "move, message",
    [
        (1, "state 2 cannot reach state 3 (up-move probability is 0)"),
        (0, "state 2 cannot reach state 1 (down-move probability is 0)"),
    ],
)
def test_a_probe_names_the_impossible_move_of_its_state(move, message):
    # A probe checks only its own state's two moves. Coordinate 1 is p1[2],
    # which enters state 2 alone; its line search's second probe, near 0.62,
    # gets a zero move, and the search raises what a full solve of that
    # chain raises.
    units = 4
    probed = []

    def zeroing(x, u, c):
        probed[:] = x
        c = list(c)
        if u == 2 and x[1] > 0.6:
            c[move] = 0.0
        return tuple(c)

    problem = changed_cells(_inner_problem(units, 0.5), zeroing)
    exactly = f"^{re.escape(message)}$"
    start = [0.5] * (2 * units)
    with pytest.raises(NotIrreducibleError, match=exactly):
        _search([start], None, problem, SearchConfig(restarts=1))
    assert probed[1] > 0.6
    columns = [list(col) for col in _inner_columns([0.0, *probed[:units]], [0.0, *probed[units:]])]
    columns[move][2] = 0.0  # the probed chain, with the probe's zero move
    with pytest.raises(NotIrreducibleError, match=exactly):
        _cell_sums(columns)


def test_region_sweep_single_weight_matches_sum_rate():
    res = region_sweep(2, [0.5], search=FAST)
    direct = optimize_sum_rate(2, 0.5, search=FAST)
    assert len(res) == 1
    assert res[0].objective == pytest.approx(direct.objective, abs=1e-12)


def test_region_sweep_u1_corners():
    res = region_sweep(1, [1.0, 0.0, 0.5], search=FAST)
    # results come back sorted by weight, whatever order was asked for
    mid = res[1]
    assert mid.rates.r1 == pytest.approx(0.5, abs=1e-3)
    assert mid.rates.r2 == pytest.approx(0.5, abs=1e-3)
    # extreme weights park almost all rate on one side; with one unit the
    # favoured node still pays for unit returns, so its rate tops out
    # well below 1 (max_p H(p)/(1+p) ~ 0.694), not near it
    hi = res[2]
    assert hi.rates.r2 < 0.01
    assert 0.6 < hi.rates.r1 < 0.72
    lo = res[0]
    assert lo.rates.r1 < 0.01
    assert 0.6 < lo.rates.r2 < 0.72


def test_region_sweep_sums_stay_below_outer_bound():
    _, outer_vals = optimize_outer_sum(2, search=FAST)
    for res in region_sweep(2, np.linspace(0.0, 1.0, 11), search=FAST):
        assert res.rates.total <= outer_vals.sum_bound + 1e-6


def test_region_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        region_sweep(2, [])
