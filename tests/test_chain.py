import re

import numpy as np
import pytest

from conftest import random_policy, stationary_linear_oracle
from twoway_energy import (
    JointStatePolicy,
    JointSymbolDist,
    MarginalPolicy,
    NotIrreducibleError,
    TransitionKernel,
    build_kernel,
    chain,
    outer_values,
    simulate_chain,
    stationary,
    uniform_policy,
)
from twoway_energy.chain import _weights


def test_policy_validation():
    with pytest.raises(ValueError):
        MarginalPolicy(p1=np.array([0.1, 0.5]), p2=np.array([0.0, 0.5]))  # p1[0] != 0
    with pytest.raises(ValueError):
        MarginalPolicy(p1=np.array([0.0, 1.5]), p2=np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        MarginalPolicy(p1=np.array([0.0]), p2=np.array([0.0]))  # no energy unit
    with pytest.raises(ValueError, match="p2"):
        MarginalPolicy(p1=np.array([0.0, 0.5]), p2=np.array([0.0, np.nan]))
    pol = uniform_policy(3, 0.7)
    assert pol.units == 3
    assert pol.p1[0] == 0.0 and pol.p2[0] == 0.0


def test_kernel_u1_symmetric():
    k = build_kernel(uniform_policy(1, 0.5))
    assert k.matrix == pytest.approx(np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_kernel_u2_uniform():
    k = build_kernel(uniform_policy(2, 0.5))
    expected = np.array(
        [
            [0.5, 0.5, 0.0],
            [0.25, 0.5, 0.25],
            [0.0, 0.5, 0.5],
        ]
    )
    assert k.matrix == pytest.approx(expected)
    assert k.down[0] == pytest.approx(0.25)
    assert k.up[1] == pytest.approx(0.25)


def test_kernel_rows_sum_to_one_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        units = int(rng.integers(1, 17))
        k = build_kernel(random_policy(rng, units))
        assert np.abs(k.matrix.sum(axis=1) - 1.0).max() < 1e-12


def test_kernel_validation():
    with pytest.raises(ValueError):
        TransitionKernel(up=(0.5, 0.5), down=(0.5,))  # lengths differ
    with pytest.raises(ValueError):
        TransitionKernel(up=(0.5, 1.5), down=(0.5, 0.5))  # entry outside [0,1]
    with pytest.raises(ValueError, match="state 1"):
        TransitionKernel(up=(0.5, 0.6), down=(0.5, 0.5))  # up[1] + down[0] > 1


def test_no_down_moves_makes_top_state_absorbing():
    # node 1 never spends: motion is upward only, state U absorbs
    pol = MarginalPolicy(p1=np.zeros(4), p2=np.array([0.0, 0.5, 0.5, 0.5]))
    k = build_kernel(pol)
    assert np.all(np.tril(k.matrix, -1) == 0.0)
    assert k.matrix[3, 3] == pytest.approx(1.0)
    with pytest.raises(NotIrreducibleError, match="state 1"):
        stationary(k)


@pytest.mark.parametrize(
    "up, down, message",
    [
        ((0.5, 0.0, 0.5), (0.5, 0.5, 0.5), "state 1 cannot reach state 2 (up-move probability is 0)"),
        ((0.5, 0.5, 0.5), (0.5, 0.0, 0.5), "state 2 cannot reach state 1 (down-move probability is 0)"),
        # with both kinds of zero, the first zero up move is named
        ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5), "state 2 cannot reach state 3 (up-move probability is 0)"),
    ],
)
def test_unreachable_state_is_named(up, down, message):
    exactly = f"^{re.escape(message)}$"
    with pytest.raises(NotIrreducibleError, match=exactly):
        stationary(TransitionKernel(up=up, down=down))
    # the same chain from joints: state u's up move is its p01, its down move its p10
    moves = zip((0.0, *down), (*up, 0.0))
    dists = tuple(JointSymbolDist(1.0 - d - r, r, d, 0.0) for d, r in moves)
    with pytest.raises(NotIrreducibleError, match=exactly):
        outer_values(JointStatePolicy(dists=dists))


def test_stationary_u1_symmetric():
    pi = stationary(build_kernel(uniform_policy(1, 0.5)))
    assert pi == pytest.approx(np.array([0.5, 0.5]))


def test_stationary_u2_uniform():
    pi = stationary(build_kernel(uniform_policy(2, 0.5)))
    assert pi == pytest.approx(np.array([0.25, 0.5, 0.25]))


def test_stationary_symmetric_policy_is_reversible_in_state():
    rng = np.random.default_rng(1)
    for units in (1, 2, 5, 9, 16):
        p = np.concatenate(([0.0], rng.uniform(0.1, 0.9, units)))
        pol = MarginalPolicy(p1=p, p2=p.copy())
        pi = stationary(build_kernel(pol))
        assert np.abs(pi - pi[::-1]).max() < 1e-10


def test_stationary_solves_global_balance_randomized():
    rng = np.random.default_rng(2)
    for _ in range(100):
        units = int(rng.integers(1, 17))
        k = build_kernel(random_policy(rng, units))
        pi = stationary(k)
        assert pi.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.abs(pi @ k.matrix - pi).max() < 1e-10


def test_stationary_matches_unscaled_recursion_bit_for_bit_where_finite():
    # the power-of-two rescaling only acts where the plain product overflows;
    # the oracle totals through the library's one fold, as the solve does
    rng = np.random.default_rng(4)
    for _ in range(50):
        units = int(rng.integers(1, 30))
        k = build_kernel(random_policy(rng, units, lo=1e-4, hi=1.0 - 1e-4))
        w = [1.0]
        for u in range(units):
            w.append(w[-1] * k.up[u] / k.down[u])
        total = chain._fold(w)
        if not np.isfinite(total):
            continue
        assert stationary(k).tolist() == [x / total for x in w]


def test_stationary_goes_on_from_any_unscaled_weight_prefix_bit_for_bit():
    # up/down ratios up to 1e14 per step: 17 of the 50 weight lists overflow
    # and are rescaled after the prefix. The prefix list itself ends up
    # holding the unscaled weights up to the first that overflows, which is
    # what the search goes on from when it accepts a probe.
    rng = np.random.default_rng(5)
    for _ in range(50):
        units = int(rng.integers(1, 80))
        up = (10.0 ** rng.uniform(-2.0, 0.0, units)).tolist()
        down = (10.0 ** rng.uniform(-14.0, 0.0, units)).tolist()
        w = [1.0]
        for u in range(units):
            w.append(w[-1] * up[u] / down[u])
        unscaled = w[: w.index(np.inf)] if np.inf in w else w
        full = _weights((0.0, *down), up, [1.0])
        for k in range(1, units + 2):
            if w[k - 1] == np.inf:
                break
            prefix = w[:k]
            assert _weights((0.0, *down), up, prefix) == full
            assert prefix == unscaled


def test_stationary_survives_overflowing_detailed_balance_product():
    # up/down ratio ~1e12 per step: the plain product overflows from U = 30
    # on. The mass sits in the top states, with the same law at every U.
    def extreme(units):
        p1 = np.full(units + 1, 1e-6)
        p2 = np.full(units + 1, 1.0 - 1e-6)
        p1[0] = p2[0] = 0.0
        return build_kernel(MarginalPolicy(p1=p1, p2=p2))

    top = stationary(extreme(20))[-3:]
    for units in (30, 40, 256):
        k = extreme(units)
        pi = stationary(k)
        assert np.all(np.isfinite(pi))
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert pi[-3:] == pytest.approx(top, rel=1e-12)
        assert np.abs(pi @ k.matrix - pi).max() < 1e-12


def test_stationary_rescales_when_only_the_weight_sum_overflows():
    # weights 1, 1.5e308, 1.5e308: each is finite, their sum is not
    k = TransitionKernel(up=(1.0, 0.5), down=(1 / 1.5e308, 0.5))
    pi = stationary(k)
    assert np.all(np.isfinite(pi))
    assert pi.sum() == pytest.approx(1.0, abs=1e-15)
    assert pi[1] == 0.5 and pi[2] == 0.5


def test_stationary_matches_linear_solver_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        units = int(rng.integers(1, 17))
        k = build_kernel(random_policy(rng, units))
        assert np.abs(stationary(k) - stationary_linear_oracle(k.matrix)).max() < 1e-10


def test_simulate_frozen_chain_stays_put():
    k = TransitionKernel(up=(0.0, 0.0), down=(0.0, 0.0))
    occ = simulate_chain(k, steps=1000, initial_state=1, seed=0)
    assert occ == pytest.approx(np.array([0.0, 1.0, 0.0]))


def test_simulate_u1_converges():
    k = build_kernel(uniform_policy(1, 0.5))
    occ = simulate_chain(k, steps=1_000_000, initial_state=0, seed=7)
    assert np.abs(occ - 0.5).max() < 5e-3


def test_simulate_u2_converges():
    k = build_kernel(uniform_policy(2, 0.5))
    occ = simulate_chain(k, steps=1_000_000, initial_state=1, seed=8)
    assert np.abs(occ - np.array([0.25, 0.5, 0.25])).max() < 5e-3


def test_simulate_matches_stationary_within_statistical_tolerance():
    rng = np.random.default_rng(9)
    steps = 250_000
    for units, seed in ((1, 10), (3, 11), (6, 12)):
        k = build_kernel(random_policy(rng, units))
        pi = stationary(k)
        occ = simulate_chain(k, steps=steps, initial_state=units // 2, seed=seed)
        assert np.abs(occ - pi).max() < 3.0 * steps ** -0.5


def test_simulate_is_deterministic_given_seed():
    k = build_kernel(uniform_policy(2, 0.5))
    a = simulate_chain(k, steps=10_000, initial_state=2, seed=5)
    b = simulate_chain(k, steps=10_000, initial_state=2, seed=5)
    assert np.array_equal(a, b)


def test_simulate_validates_arguments():
    k = build_kernel(uniform_policy(1, 0.5))
    with pytest.raises(ValueError):
        simulate_chain(k, steps=0)
    with pytest.raises(ValueError):
        simulate_chain(k, steps=10, initial_state=5)
    for bad in (2.5, 10.0, None):
        with pytest.raises(ValueError, match="steps"):
            simulate_chain(k, bad)
    for bad in (1.5, 1.0, -1):
        with pytest.raises(ValueError, match="initial_state"):
            simulate_chain(k, steps=10, initial_state=bad)
    a = simulate_chain(k, np.int64(100), initial_state=np.int32(1), seed=3)
    assert np.array_equal(a, simulate_chain(k, 100, initial_state=1, seed=3))


def test_uniform_policy_takes_only_integer_units():
    for bad in (2.5, 2.0, 0, None):
        with pytest.raises(ValueError, match="units"):
            uniform_policy(bad)
    assert uniform_policy(np.int64(2)).units == 2
