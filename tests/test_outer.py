import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import capped_start, random_policy
from twoway_energy import (
    JointStatePolicy,
    JointSymbolDist,
    NotIrreducibleError,
    SearchConfig,
    optimize_outer_sum,
    optimize_outer_weighted,
    optimize_sum_rate,
    outer_values,
    rates_for_policy,
    sweep_details,
    uniform_policy,
)
from twoway_energy import outer, search
from twoway_energy.outer import _free_slots, _outer_problem, _outer_terms, _pack, _unpack
from twoway_energy.search import CLAMP

FAST = SearchConfig(restarts=6, tol=1e-6, seed=0)


def test_boundary_zero_validation():
    good = JointStatePolicy(
        dists=(
            JointSymbolDist(0.5, 0.5, 0.0, 0.0),
            JointSymbolDist(0.5, 0.0, 0.5, 0.0),
        )
    )
    assert good.units == 1
    with pytest.raises(ValueError):
        JointStatePolicy(
            dists=(
                JointSymbolDist(0.5, 0.0, 0.5, 0.0),  # node 1 sends '1' at state 0
                JointSymbolDist(0.5, 0.0, 0.5, 0.0),
            )
        )
    with pytest.raises(ValueError):
        JointStatePolicy(
            dists=(
                JointSymbolDist(0.5, 0.5, 0.0, 0.0),
                JointSymbolDist(0.5, 0.5, 0.0, 0.0),  # node 2 sends '1' at state U
            )
        )


def test_joint_policy_rejects_dists_of_the_wrong_type():
    with pytest.raises(ValueError, match="JointSymbolDist, got tuple"):
        JointStatePolicy(dists=((1.0, 0, 0, 0), (1.0, 0, 0, 0)))


def test_outer_values_u1_single_bit_per_state():
    pol = JointStatePolicy(
        dists=(
            JointSymbolDist(0.5, 0.5, 0.0, 0.0),
            JointSymbolDist(0.5, 0.0, 0.5, 0.0),
        )
    )
    vals = outer_values(pol)
    assert vals.stationary == pytest.approx(np.array([0.5, 0.5]))
    assert vals.sum_bound == pytest.approx(1.0)


def test_outer_values_of_product_policy_match_inner_rates():
    rng = np.random.default_rng(0)
    for _ in range(30):
        units = int(rng.integers(1, 10))
        pol = random_policy(rng, units)
        rates = rates_for_policy(pol)
        vals = outer_values(JointStatePolicy.from_marginal(pol))
        # independence: joint entropy splits, conditionals equal marginals
        assert vals.sum_bound == pytest.approx(rates.total, abs=1e-10)
        assert vals.r1_bound == pytest.approx(rates.r1, abs=1e-10)
        assert vals.r2_bound == pytest.approx(rates.r2, abs=1e-10)


def test_outer_values_frozen_policy_is_reducible():
    frozen = JointStatePolicy(
        dists=(
            JointSymbolDist(1.0, 0.0, 0.0, 0.0),
            JointSymbolDist(1.0, 0.0, 0.0, 0.0),
        )
    )
    with pytest.raises(NotIrreducibleError):
        outer_values(frozen)


def test_sum_bound_capped_by_boundary_occupancy():
    rng = np.random.default_rng(1)
    for _ in range(30):
        units = int(rng.integers(1, 10))
        vals = outer_values(JointStatePolicy.from_marginal(random_policy(rng, units)))
        pi = vals.stationary
        assert vals.sum_bound <= 2.0 - pi[0] - pi[-1] + 1e-12


def test_optimize_outer_u1_is_one_bit():
    _, vals = optimize_outer_sum(1, search=FAST)
    assert vals.sum_bound == pytest.approx(1.0, abs=1e-6)


def test_optimize_outer_dominates_inner():
    for units in (1, 2, 3, 5):
        inner = optimize_sum_rate(units, search=FAST)
        _, vals = optimize_outer_sum(units, search=FAST)
        assert vals.sum_bound >= inner.objective - 1e-6


def test_optimize_outer_accepts_seed_policies():
    inner = optimize_sum_rate(3, search=FAST)
    seed_pol = JointStatePolicy.from_marginal(inner.policy)
    _, vals = optimize_outer_sum(3, search=FAST, seed_policies=[seed_pol])
    assert vals.sum_bound >= inner.objective - 1e-9


def test_optimize_outer_rejects_a_marginal_seed_policy():
    with pytest.raises(ValueError, match="JointStatePolicy, got MarginalPolicy"):
        optimize_outer_sum(2, search=FAST, seed_policies=[uniform_policy(2)])


def test_optimize_outer_nondecreasing_in_units():
    values = []
    for units in range(1, 7):
        _, vals = optimize_outer_sum(units, search=FAST)
        values.append(vals.sum_bound)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-3


def test_outer_result_respects_entropy_cap():
    for units in (1, 2, 4):
        _, vals = optimize_outer_sum(units, search=FAST)
        pi = vals.stationary
        assert vals.sum_bound <= 2.0 - pi[0] - pi[-1] + 1e-9
        assert vals.sum_bound <= 2.0


def test_optimize_outer_weighted_balanced_weight_bounds_sum():
    # at even weights the weighted objective is r1+r2 <= joint sum bound
    _, weighted = optimize_outer_weighted(2, 0.5, search=FAST)
    _, summed = optimize_outer_sum(2, search=FAST)
    assert weighted.r1_bound + weighted.r2_bound <= summed.sum_bound + 1e-6


def test_optimize_outer_validates_arguments():
    with pytest.raises(ValueError):
        optimize_outer_sum(0)
    with pytest.raises(ValueError):
        optimize_outer_weighted(2, lam=-0.1)
    for seed_units, units in ((3, 2), (2, 3)):
        seed_pol = JointStatePolicy.from_marginal(uniform_policy(seed_units))
        with pytest.raises(ValueError, match=f"{seed_units} units, expected {units}"):
            optimize_outer_sum(units, search=FAST, seed_policies=[seed_pol])
    # p = 1 leaves two interior states with (0, 0) mass below CLAMP after
    # clipping; the search caps the seed into its region and runs from there
    outside = [JointStatePolicy.from_marginal(uniform_policy(3, 1.0))]
    for optimize in (optimize_outer_sum, optimize_outer_weighted):
        _, vals = optimize(3, search=SearchConfig(restarts=1), seed_policies=outside)
        assert all(map(math.isfinite, (vals.r1_bound, vals.r2_bound, vals.sum_bound)))


def test_a_quick_inner_seed_outside_the_search_region_runs_capped():
    # At U = 3 and lam = 1 the quick inner seed has p00 < CLAMP in states 1
    # and 2. The one start runs from that seed capped into the search's
    # region, and the ascent keeps at least the capped seed's value.
    units, lam, config = 3, 1.0, SearchConfig(restarts=1)
    quick = SearchConfig(restarts=2, tol=config.tol, seed=config.seed + 1)  # as _optimize_outer's
    seed = JointStatePolicy.from_marginal(optimize_sum_rate(units, lam, quick).policy)
    slots = _free_slots(units)
    start = capped_start(_outer_problem(units, lam), _pack(seed, slots))
    assert [d.p00 < CLAMP for d in seed.dists] == [False, True, True, False]
    assert all(d[0] >= CLAMP * (1.0 - 1e-9) for d in _unpack(start, slots))
    r1, _, _, _ = _outer_terms(_unpack(start, slots))
    _, vals = optimize_outer_weighted(units, lam, config)
    # at lam = 1 the objective is 2 * r1; 1e-12 covers the (0,0) mass, which
    # the search recomputes as a remainder
    assert vals.r1_bound >= r1 - 1e-12


def test_sweep_takes_only_integer_budgets():
    for bad in (2.5, 2.0, 0, None):
        with pytest.raises(ValueError, match="u_max"):
            sweep_details(bad, FAST)
    rows, _ = sweep_details(np.int64(1), FAST)
    assert rows == sweep_details(1, FAST)[0]


def test_from_marginal_round_trip():
    pol = uniform_policy(2, 0.5)
    joint = JointStatePolicy.from_marginal(pol)
    assert joint.units == 2
    assert joint.dists[0].p01 == pytest.approx(0.5)
    assert joint.dists[1].as_tuple() == pytest.approx((0.25, 0.25, 0.25, 0.25))
    assert joint.dists[2].p10 == pytest.approx(0.5)


# float.hex of the objective, the rates and the policy of both weighted
# searches at U = 3: lam = 0.3, and the end weights, where one rate column of
# the outer search sits on the clamp; the bounds sweep pins only lam = 0.5
@pytest.mark.parametrize(
    "lam, inner_pin, outer_pin",
    [
        (
            0.3,
            {
                "objective": "0x1.c80b3c530ab17p+0",
                "rates": ["0x1.85ed1a821863dp-1", "0x1.e4614ad129650p-1"],
                "p1": ["0x0.0p+0", "0x1.be7d3e98a208ep-2", "0x1.720aeb02f6341p-1", "0x1.be9c903811f90p-1"],
                "p2": ["0x0.0p+0", "0x1.b27e6d6ab629ep-2", "0x1.0bb8f7af90856p-1", "0x1.2c0db3c218e10p-1"],
            },
            {
                "objective": "0x1.caa8693accfb0p+0",
                "rates": ["0x1.8d457fb364f17p-1", "0x1.e4f75f9967483p-1"],
                "dists": [
                    ["0x1.a5c1688d5701ep-2", "0x1.2d1f4bb9547f1p-1", "0x0.0p+0", "0x0.0p+0"],
                    ["0x1.2800b3e972fc5p-2", "0x1.1c55c388116b8p-2", "0x1.7e40683babd74p-3", "0x1.f912a8e14b592p-3"],
                    ["0x1.85691e68870ccp-3", "0x1.8e29a92e3f972p-4", "0x1.89cecd73be06ap-2", "0x1.4ff2390c6e8d4p-2"],
                    ["0x1.027ca24f99ab0p-3", "0x0.0p+0", "0x1.bf60d76c19954p-1", "0x0.0p+0"],
                ],
            },
        ),
        (
            0.0,
            {
                "objective": "0x1.fffffffffede4p+0",
                "rates": ["0x1.f5fed41e6fbeap-17", "0x1.fffffffffede4p-1"],
                "p1": ["0x0.0p+0", "0x1.ffffcfdad5b24p-1", "0x1.ffffcfdad5b24p-1", "0x1.ffffcfdad5b24p-1"],
                "p2": ["0x0.0p+0", "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1"],
            },
            {
                "objective": "0x1.fffffffffd8b7p+0",
                "rates": ["0x1.55d2fd4b28df7p-16", "0x1.fffffffffd8b7p-1"],
                "dists": [
                    ["0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x0.0p+0", "0x0.0p+0"],
                    ["0x1.0c6f7a0b00000p-20", "0x1.0c6f7a0b5ed8dp-20", "0x1.ffffa9ed6d481p-2", "0x1.ffffcfdad5b24p-2"],
                    ["0x1.0c6f7a0b00000p-20", "0x1.0c6f7a0b5ed8dp-20", "0x1.ffffa9ed6d481p-2", "0x1.ffffcfdad5b24p-2"],
                    ["0x1.8129526e00000p-20", "0x0.0p+0", "0x1.ffffcfdad5b24p-1", "0x0.0p+0"],
                ],
            },
        ),
        (
            1.0,
            {
                "objective": "0x1.fffffffffeb16p+0",
                "rates": ["0x1.fffffffffeb16p-1", "0x1.f5fec930d206fp-17"],
                "p1": ["0x0.0p+0", "0x1.0000f1a80861cp-1", "0x1.fffff4da89a60p-2", "0x1.fffff4da89a5ep-2"],
                "p2": ["0x0.0p+0", "0x1.ffffcfdad5b24p-1", "0x1.ffffcfdad5b24p-1", "0x1.ffffcfdad5b24p-1"],
            },
            {
                "objective": "0x1.fffffffffdab9p+0",
                "rates": ["0x1.fffffffffdab9p-1", "0x1.55d2f5da9b69cp-16"],
                "dists": [
                    ["0x1.19093025e4000p-14", "0x1.fff737b67ed0ep-1", "0x0.0p+0", "0x0.0p+0"],
                    ["0x1.0c6f7a0b00000p-20", "0x1.fffdc69d89f73p-2", "0x1.0c6f7a0b5ed8dp-20", "0x1.0000d9955c819p-1"],
                    ["0x1.0c6f7a0b40000p-20", "0x1.ffffb512e295dp-2", "0x1.0c6f7a0b5ed8dp-20", "0x1.ffffc4b560649p-2"],
                    ["0x1.00000592bb2d1p-1", "0x0.0p+0", "0x1.fffff4da89a5ep-2", "0x0.0p+0"],
                ],
            },
        ),
    ],
    ids=["0.3", "0.0", "1.0"],
)
def test_weighted_searches_match_their_pins_bit_for_bit(lam, inner_pin, outer_pin):
    config = SearchConfig(restarts=4, seed=2)
    inner = optimize_sum_rate(3, lam, config)
    assert {
        "objective": inner.objective.hex(),
        "rates": [inner.rates.r1.hex(), inner.rates.r2.hex()],
        "p1": [float(v).hex() for v in inner.policy.p1],
        "p2": [float(v).hex() for v in inner.policy.p2],
    } == inner_pin
    policy, values = optimize_outer_weighted(3, lam, config)
    assert {
        "objective": (2.0 * (lam * values.r1_bound + (1.0 - lam) * values.r2_bound)).hex(),
        "rates": [values.r1_bound.hex(), values.r2_bound.hex()],
        "dists": [[float(p).hex() for p in d.as_tuple()] for d in policy.dists],
    } == outer_pin


def test_outer_sum_at_u32_matches_its_pin_bit_for_bit():
    # Beyond the sweep's U = 16, a line search's suffix products span a wider
    # range, so more of its comparisons sit near the O(1) form's limits.
    pin = json.loads((Path(__file__).parent / "data" / "outer_u32.json").read_text(encoding="utf-8"))
    policy, values = optimize_outer_sum(32, SearchConfig(restarts=2, seed=1))
    assert values.sum_bound.hex() == pin["sum_bound"]
    assert [[float(p).hex() for p in d.as_tuple()] for d in policy.dists] == pin["dists"]


def test_the_sweeps_u16_outer_sum_search_does_its_pinned_work(monkeypatch):
    # The sweep's U = 16 outer sum search, seeded with the sweep's inner
    # optimum: how many probes its O(1) line form priced, how many chains it
    # solved and how many line forms it built. A change to the comparison
    # filter that silently loses decisions shows here as more solves. Like
    # the float pins, these counts are CPython 3.11's path; another sum()
    # takes another path.
    config = SearchConfig(restarts=6, seed=1)
    seed = JointStatePolicy.from_marginal(optimize_sum_rate(16, 0.5, config).policy)
    counts = {"O(1) probes": 0, "solves": 0, "forms": 0}
    real_golden, real_weights, real_form, real_search = (
        search._golden_max, search._weights, search._line_form, outer._search
    )

    def golden(at, form, exact, value, lo, hi):
        def counted(*sums):  # _golden_max calls value only to price a probe by its form
            counts["O(1) probes"] += 1
            return value(*sums)

        return real_golden(at, form, exact, counted, lo, hi)

    def weights(*args):
        counts["solves"] += 1
        return real_weights(*args)

    def form(*args):
        counts["forms"] += 1
        return real_form(*args)

    def counted_search(*args):  # the search's work, not outer_values' solve after it
        with monkeypatch.context() as m:
            m.setattr(search, "_golden_max", golden)
            m.setattr(search, "_weights", weights)
            m.setattr(search, "_line_form", form)
            return real_search(*args)

    monkeypatch.setattr(outer, "_search", counted_search)
    _, values = optimize_outer_sum(16, config, seed_policies=[seed])
    assert values.sum_bound.hex() == "0x1.fcd79e66d98e6p+0"
    assert counts == {"O(1) probes": 74617, "solves": 11190, "forms": 935}
