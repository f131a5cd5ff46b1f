import numpy as np
import pytest

from conftest import random_policy, stationary_linear_oracle
from twoway_energy import (
    MarginalPolicy,
    NotIrreducibleError,
    TransitionKernel,
    build_kernel,
    simulate_chain,
    stationary,
    uniform_policy,
)


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
    # the power-of-two rescaling only acts where the plain product overflows
    rng = np.random.default_rng(4)
    for _ in range(50):
        units = int(rng.integers(1, 30))
        k = build_kernel(random_policy(rng, units, lo=1e-4, hi=1.0 - 1e-4))
        w = [1.0]
        for u in range(units):
            w.append(w[-1] * k.up[u] / k.down[u])
        total = sum(w)
        if not np.isfinite(total):
            continue
        assert stationary(k).tolist() == [x / total for x in w]


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
