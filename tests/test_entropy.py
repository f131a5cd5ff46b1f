import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import marginals_and_conditionals
from twoway_energy import JointSymbolDist, binary_entropy, joint_entropy, joint_from_marginals
from twoway_energy.entropy import _entropy, _joint_line


def test_binary_entropy_endpoints_and_uniform():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_two_term_value():
    # direct evaluation of -p log2 p - (1-p) log2 (1-p) at p = 0.11
    assert binary_entropy(0.11) == pytest.approx(0.49993, abs=1e-4)


def test_binary_entropy_matches_scipy_oracle():
    for p in np.linspace(0.001, 0.999, 97):
        expected = scipy.stats.entropy([p, 1.0 - p], base=2)
        assert binary_entropy(p) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("p", [-0.1, 1.1, 2.0, -1e-9])
def test_binary_entropy_rejects_out_of_range(p):
    with pytest.raises(ValueError):
        binary_entropy(p)


def test_binary_entropy_symmetric_on_dense_grid():
    for p in np.linspace(0.0, 1.0, 1001):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


def test_joint_entropy_examples():
    assert joint_entropy(JointSymbolDist(0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0)
    assert joint_entropy(JointSymbolDist(0.5, 0.0, 0.5, 0.0)) == pytest.approx(1.0)
    # sum of -p log2 p terms: 0.5*1 + 0.25*2 + 2 * 0.125*3
    assert joint_entropy(JointSymbolDist(0.5, 0.25, 0.125, 0.125)) == pytest.approx(1.75)


def test_joint_dist_rejects_bad_input():
    with pytest.raises(ValueError):
        JointSymbolDist(0.5, 0.5, 0.1, -0.1)
    with pytest.raises(ValueError):
        JointSymbolDist(0.3, 0.3, 0.3, 0.3)  # sums to 1.2
    with pytest.raises(ValueError):
        JointSymbolDist(float("nan"), 0.5, 0.25, 0.25)


def test_marginals_of_product_distribution():
    d = joint_from_marginals(0.5, 0.5)
    f = marginals_and_conditionals(d)
    assert f.p_x1 == pytest.approx(0.5)
    assert f.p_x2 == pytest.approx(0.5)
    # independence: conditionals equal marginals
    for b in (0, 1):
        assert f.p_x1_given_x2[b] == pytest.approx(f.p_x1)
        assert f.p_x2_given_x1[b] == pytest.approx(f.p_x2)


def test_conditionals_of_correlated_distribution():
    d = JointSymbolDist(0.5, 0.0, 0.0, 0.5)
    f = marginals_and_conditionals(d)
    assert f.p_x1 == pytest.approx(0.5)
    assert f.p_x1_given_x2[1] == pytest.approx(1.0)
    assert f.p_x1_given_x2[0] == pytest.approx(0.0)


def test_conditionals_on_impossible_symbol_are_undefined():
    d = JointSymbolDist(1.0, 0.0, 0.0, 0.0)
    f = marginals_and_conditionals(d)
    assert f.p_x1_given_x2[1] is None
    assert f.p_x2_given_x1[1] is None
    assert f.p_x1_given_x2[0] == pytest.approx(0.0)


def test_joint_from_marginals_examples():
    assert joint_from_marginals(0.5, 0.5).as_tuple() == pytest.approx((0.25, 0.25, 0.25, 0.25))
    assert joint_from_marginals(1.0, 0.0).as_tuple() == pytest.approx((0.0, 0.0, 1.0, 0.0))
    # multiply out: (0.4*0.7, 0.4*0.3, 0.6*0.7, 0.6*0.3)
    assert joint_from_marginals(0.6, 0.3).as_tuple() == pytest.approx((0.28, 0.12, 0.42, 0.18))


def test_joint_from_marginals_rejects_out_of_range():
    with pytest.raises(ValueError):
        joint_from_marginals(1.2, 0.5)
    with pytest.raises(ValueError):
        joint_from_marginals(0.5, -0.2)


def test_independence_additivity_on_grid():
    grid = np.linspace(0.02, 0.98, 25)
    for p1 in grid:
        for p2 in grid:
            d = joint_from_marginals(p1, p2)
            expected = binary_entropy(p1) + binary_entropy(p2)
            assert abs(joint_entropy(d) - expected) < 1e-12


def test_marginals_recover_parameters_on_grid():
    grid = np.linspace(0.0, 1.0, 21)
    for p1 in grid:
        for p2 in grid:
            f = marginals_and_conditionals(joint_from_marginals(p1, p2))
            assert abs(f.p_x1 - p1) < 1e-12
            assert abs(f.p_x2 - p2) < 1e-12


def test_joint_entropy_oracle_cross_check():
    rng = np.random.default_rng(4)
    for _ in range(50):
        raw = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        d = JointSymbolDist(*(raw / raw.sum()))
        expected = scipy.stats.entropy(list(d.as_tuple()), base=2)
        assert joint_entropy(d) == pytest.approx(expected, abs=1e-12)


# Probabilities where the p > 0 rule and the sign of a zero matter (0.0, -0.0,
# 1.0, whose term is 0.0), below 0, and in (0, 1], the last also as multiples
# of 2^-53 with full mantissas, whose terms round. The remainder p00 of three
# such entries is 1.0 where all three are zeros, 0.0 where they sum to 1,
# and below 0 or in (0, 1] otherwise.
ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0]),
    st.floats(min_value=-1.0, max_value=0.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.integers(min_value=1, max_value=2**53).map(lambda k: k * 2.0**-53),
)


@settings(max_examples=400, deadline=None)
@given(
    fixed=st.lists(ENTRY, min_size=3, max_size=3),
    points=st.lists(ENTRY, min_size=1, max_size=4),
)
def test_a_line_form_is_the_joint_entropy_bit_for_bit(fixed, points):
    # The line form of each slot (1, 2, 3: p01, p10, p11) gives the cell
    # (p10, p01, _entropy's float) at every v of one line, with p00 the
    # remainder ((1 - p01) - p10) - p11; the entry at slot in fixed is not
    # read.
    for slot in (1, 2, 3):
        line = _joint_line(*fixed, slot)
        for v in points:
            p01, p10, p11 = entries = [*fixed[: slot - 1], v, *fixed[slot:]]
            p00 = ((1.0 - p01) - p10) - p11
            want = (p10, p01, _entropy(p00, *entries))
            assert [x.hex() for x in line(v)] == [x.hex() for x in want]
