"""Property tests of the chain, the bounds, the shared search, the codeword
seeds, the trial walk against its recording oracle and the two single-unit
schedules (verbatim time sharing and the variable-length code)."""

import contextlib
import math
import sys
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    capped_start,
    changed_cells,
    compensated_sum,
    expected_handovers,
    library_sum,
    marginals_and_conditionals,
    reference_timeshare_syms,
    reference_trial_walk,
    run_inner_search,
    search_log,
    tally,
)
from twoway_energy import (
    JointStatePolicy,
    JointSymbolDist,
    MarginalPolicy,
    MarginExhaustedError,
    NotIrreducibleError,
    SearchConfig,
    binary_entropy,
    build_codebooks,
    build_kernel,
    draw_messages,
    optimal_timeshare_sim,
    optimize_outer_sum,
    optimize_sum_rate,
    outer_values,
    rates_for_policy,
    run_trial,
    stationary,
    uniform_policy,
    validate_transcript,
    variable_length_sim,
)
from twoway_energy import inner, protocol, search
from twoway_energy.inner import (
    _inner_cell,
    _inner_columns,
    _inner_problem,
    _inner_settled,
    _rates_updown,
    _state_below,
)
from twoway_energy.outer import _free_slots, _outer_cell, _outer_problem, _outer_terms, _unpack
from twoway_energy.search import CLAMP, _HUGE, _cell_sums, _line_form, _Problem, _search
from twoway_energy.protocol import _holder_transcript, _seed_words, _stack_walk_prefix

PROB = st.floats(min_value=1e-12, max_value=1.0 - 1e-12)


def _constant_policy(units, p1, p2) -> MarginalPolicy:
    a = np.full(units + 1, p1)
    b = np.full(units + 1, p2)
    a[0] = b[0] = 0.0
    return MarginalPolicy(p1=a, p2=b)


@settings(max_examples=60, deadline=None)
@given(units=st.integers(min_value=1, max_value=256), p1=PROB, p2=PROB)
def test_stationary_is_balanced_and_bounds_finite_at_extremes(units, p1, p2):
    policy = _constant_policy(units, p1, p2)
    kernel = build_kernel(policy)
    pi = stationary(kernel)
    assert np.all(np.isfinite(pi)) and np.all(pi >= 0.0)
    assert abs(pi.sum() - 1.0) <= 1e-12
    assert np.abs(pi @ kernel.matrix - pi).max() <= 1e-12

    rates = rates_for_policy(policy)
    assert math.isfinite(rates.r1) and math.isfinite(rates.r2)
    vals = outer_values(JointStatePolicy.from_marginal(policy))
    for v in (vals.r1_bound, vals.r2_bound, vals.sum_bound):
        assert math.isfinite(v)


MASS = st.floats(min_value=0.0, max_value=1.0)
MOVE = st.floats(min_value=1e-6, max_value=1.0)  # keeps the chain irreducible


@st.composite
def joint_state_policies(draw):
    units = draw(st.integers(min_value=1, max_value=12))
    b = draw(MOVE)
    dists = [JointSymbolDist(1.0 - b, b, 0.0, 0.0)]
    for _ in range(1, units):
        w = [draw(MASS), draw(MOVE), draw(MOVE), draw(MASS)]
        total = sum(w)
        dists.append(JointSymbolDist(*(x / total for x in w)))
    a = draw(MOVE)
    dists.append(JointSymbolDist(1.0 - a, 0.0, a, 0.0))
    return JointStatePolicy(dists=tuple(dists))


def _conditional_entropy_oracle(policy: JointStatePolicy):
    """r1 = sum_u pi[u] H(X1|X2,u), r2 likewise, from the conditionals."""
    pi = stationary(build_kernel(policy))
    r1 = r2 = 0.0
    for u, d in enumerate(policy.dists):
        f = marginals_and_conditionals(d)
        px2 = (d.p00 + d.p10, d.p01 + d.p11)
        px1 = (d.p00 + d.p01, d.p10 + d.p11)
        for w, c in zip(px2, f.p_x1_given_x2):
            if c is not None:
                r1 += pi[u] * w * binary_entropy(c)
        for w, c in zip(px1, f.p_x2_given_x1):
            if c is not None:
                r2 += pi[u] * w * binary_entropy(c)
    return r1, r2


@settings(max_examples=200, deadline=None)
@given(policy=joint_state_policies())
def test_outer_rate_bounds_match_conditional_entropy_oracle(policy):
    vals = outer_values(policy)
    r1, r2 = _conditional_entropy_oracle(policy)
    assert vals.r1_bound >= 0.0 and vals.r2_bound >= 0.0
    assert abs(vals.r1_bound - r1) <= 1e-12
    assert abs(vals.r2_bound - r2) <= 1e-12


@st.composite
def marginal_policies(draw):
    """Interior marginal policies on up to 64 units, with moves down to
    about 1e-24."""
    units = draw(st.integers(min_value=1, max_value=64))
    p1, p2 = (draw(st.lists(PROB, min_size=units, max_size=units)) for _ in range(2))
    return MarginalPolicy(p1=[0.0, *p1], p2=[0.0, *p2])


@settings(max_examples=60, deadline=None)
@given(marginal=marginal_policies(), joint=joint_state_policies())
# up/down ratios of about 1e24 per step: the detailed-balance product
# overflows from state 13 on and is rescaled
@example(
    marginal=_constant_policy(64, 1e-12, 1.0 - 1e-12),
    joint=JointStatePolicy.from_marginal(_constant_policy(64, 1e-12, 1.0 - 1e-12)),
)
def test_one_set_of_moves_gives_one_law_bit_for_bit(marginal, joint):
    # stationary, the inner bound's sums and outer_values each take the law
    # that chain._weights returns, so the same moves give the same floats
    _, _, pi = _rates_updown(marginal.p1.tolist(), marginal.p2.tolist())
    assert stationary(build_kernel(marginal)).tolist() == pi
    assert outer_values(joint).stationary.tolist() == stationary(build_kernel(joint)).tolist()


@settings(max_examples=25, deadline=None)
@given(
    units=st.integers(min_value=1, max_value=4),
    probs=st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=8, max_size=8),
)
def test_outer_ascent_never_loses_its_seed_policy(units, probs):
    # Checks the returned bound against the seed's only. A search that
    # misreports its point (say, a line search that returns the lower end
    # with the midpoint's value) still passes whenever its error is below
    # its gain over the seed; that is caught by
    # test_search_value_is_a_fresh_evaluation_of_its_vector.
    seed = JointStatePolicy.from_marginal(
        MarginalPolicy(p1=[0.0, *probs[:units]], p2=[0.0, *probs[4 : 4 + units]])
    )
    _, vals = optimize_outer_sum(units, SearchConfig(restarts=1), seed_policies=[seed])
    # 1e-12 covers the (0,0) mass, which the search recomputes as a remainder
    assert vals.sum_bound >= outer_values(seed).sum_bound - 1e-12


def _weight(problem, lam):
    if problem == "outer sum":
        return lambda r1, r2, s: s
    return lambda r1, r2, s: 2.0 * (lam * r1 + (1.0 - lam) * r2)


def _fresh_value(problem, units, lam, x):
    """The objective of x, evaluated from scratch over the whole chain; an
    outer x must lie in the search's region, every p00 at least CLAMP up to
    rounding."""
    if problem == "inner":
        r1, r2, _ = _rates_updown([0.0, *x[:units]], [0.0, *x[units:]])
        return 2.0 * (lam * r1 + (1.0 - lam) * r2)
    dists = _unpack(x, _free_slots(units))
    assert all(d[0] >= CLAMP * (1.0 - 1e-9) for d in dists)
    r1, r2, total, _ = _outer_terms(dists)
    return _weight(problem, lam)(r1, r2, total)


def _problem(problem, units, lam):
    """The _Problem of one of the three search objectives."""
    if problem == "inner":
        return _inner_problem(units, lam)
    return _outer_problem(units, None if problem == "outer sum" else lam)


def _cells(problem, units, x):
    """Every state's cell of x for one of the three search objectives, built
    as the bounds' own evaluations build them, not through the problem's
    line: the inner columns of the policy lists, or each joint as _unpack
    gives it."""
    if problem == "inner":
        return list(zip(*_inner_columns([0.0, *x[:units]], [0.0, *x[units:]])))
    cells = [_outer_cell(*d) for d in _unpack(x, _free_slots(units))]
    return [c[:2] + c[4:] for c in cells] if problem == "outer sum" else [c[:4] for c in cells]


def _reference_err(contract, units):
    """The one err of every O(1) probe of a search on U = units with
    value's constant L = contract, as the search module's docstring states
    it: L * (U + 2) * 2^-49 * A + (U + 3) * 2^-160, A the reward bound."""
    return contract * (units + 2) * 2.0**-49 * search._REWARD_BOUND + (units + 3) * 2.0**-160


def _checked_search(problem, units, lam, starts, draw, config, summer):
    """(x, f, log) of _search of one of the three objectives under summer,
    log as search_log records it, after these checks:
    - every cell its lines build equals its vector's cell as _cells builds
      it;
    - every line search has the docstring's err (_reference_err);
    - every chain solve sums its weights with summer, through the hook
      chain._fold;
    - every price from a stationary law (exact(cell), for a probe or a
      comparison, and the value of a start or of a line search's midpoint)
      equals the fresh evaluation of its cell's vector bit for bit, and its
      reward columns went through summer, one sum each. The law is the
      probe's own solve's or, where the probe has the accepted cell's moves,
      the accepted chain's;
    - every probe priced by its line search's O(1) form, which is the
      probed state's, lies within err of the fresh evaluation, and sums
      nothing;
    - f is the fresh evaluation of x.
    _fresh_value also checks that no probe leaves the search's region."""
    searched = _problem(problem, units, lam)
    err = _reference_err(searched.contract, units)

    def built(y, u, cell):
        assert cell == _cells(problem, units, y)[u]
        return cell

    with library_sum(summer) as sizes:
        with search_log(changed_cells(searched, built), sizes) as (log, recorded):
            x, f, _ = _search(starts, draw, recorded, config)
        try:
            for event in log:
                if event[0] == "line":
                    form = event[2]
                    assert event[3] == err
                elif event[0] == "solve":
                    assert units + 1 in event[1]  # a chain has units + 1 states
                elif event[0] == "price":
                    _, how, cell, val, summed = event
                    fresh = _fresh_value(problem, units, lam, cell.x)
                    if how == "O(1)":
                        assert form[0] == cell.u and not summed and abs(val - fresh) <= err
                    else:
                        assert summed == [units + 1] * (len(cell) - 2) and val == fresh
        except AssertionError:
            # hypothesis keeps each failing example's traceback, and with it
            # the log; while it shrinks a failure, that is thousands of logs
            log.clear()
            raise
        assert f == _fresh_value(problem, units, lam, x)
    return x, f, log


@settings(max_examples=30, deadline=None)
@given(
    problem=st.sampled_from(["inner", "outer sum", "outer weighted"]),
    units=st.integers(min_value=1, max_value=5),
    lam=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    restarts=st.integers(min_value=1, max_value=3),
    summer=st.sampled_from([sum, compensated_sum]),
)
def test_search_value_is_a_fresh_evaluation_of_its_vector(problem, units, lam, seed, restarts, summer):
    """Every probe priced from a stationary law, and the value the search
    returns, equals a fresh evaluation of the probed vector bit for bit;
    every probe priced by the O(1) form lies within its stated error of
    it; and no start is lost. Outer starts put each free entry in [0, 1],
    so most interior states start outside the search's region
    (p00 < CLAMP) and run from their capped start, and _fresh_value checks
    that no probe leaves the region. Under CPython 3.12's compensated sum a
    probe that resumed a partial sum of the chain would differ, so the
    library runs under that sum too, and every solve and every reward sum
    must have summed with it."""
    searched = _problem(problem, units, lam)

    def draw(rng):
        return rng.uniform(0.0, 1.0, len(searched.states))

    rng = np.random.default_rng(seed)  # the search's own draws, replayed
    starts = [capped_start(searched, draw(rng)) for _ in range(restarts)]
    with library_sum(summer):
        start_values = [_fresh_value(problem, units, lam, s) for s in starts]
    _, f, _ = _checked_search(problem, units, lam, [], draw, SearchConfig(restarts=restarts, seed=seed), summer)
    assert f >= max(start_values) - 1e-9


def _overflows(problem, units, x):
    """Whether the plain detailed-balance product of x's chain, or its sum,
    overflows."""
    cells = _cells(problem, units, x)
    w = [1.0]
    for k in range(1, units + 1):
        w.append(w[-1] * cells[k - 1][1] / cells[k][0])
    return math.inf in w or sum(w) == math.inf


def _one_sweep(problem, units, start, summer):
    """The log of one checked sweep of the search from start, under summer."""
    config = SearchConfig(restarts=1, tol=math.inf)  # one sweep
    return _checked_search(problem, units, 0.5, [start], None, config, summer)[2]


@pytest.mark.parametrize("summer", [sum, compensated_sum])
@pytest.mark.parametrize(
    "problem, units",
    [
        # p1 = CLAMP and p2 = 1 - CLAMP: each weight is about 1e12 times the
        # last, so the start's weights overflow, at U = 60 twice
        ("inner", 30),
        ("inner", 60),
        # p01 = 0.98 and p10 = p11 = CLAMP: about 1e6 per state
        ("outer sum", 60),
    ],
)
def test_search_probes_of_a_rescaled_chain_are_fresh_evaluations(problem, units, summer):
    if problem == "inner":
        start = [CLAMP] * units + [1.0 - CLAMP] * units
    else:
        start = [0.98, *[0.98, CLAMP, CLAMP] * (units - 1), CLAMP]
    assert _overflows(problem, units, start)
    _one_sweep(problem, units, start, summer)


@pytest.mark.parametrize("summer", [sum, compensated_sum])
def test_search_probes_that_overflow_an_unscaled_chain_are_fresh_evaluations(summer):
    # As above at U = 27, but p1[1] = 0.5 and p1[2] = 0.0075 put the start's
    # top weight at about 1.3e308, so it stays finite. The first probe,
    # p1[1] = 0.38, raises it past the largest float.
    units = 27
    start = [0.5, 0.0075] + [CLAMP] * (units - 2) + [1.0 - CLAMP] * units
    assert not _overflows("inner", units, start)
    log = _one_sweep("inner", units, start, summer)
    first_probe = next(event[2].x for event in log if event[0] == "price" and event[1] in ("O(1)", "exact"))
    assert first_probe[0] != start[0] and first_probe[1:] == start[1:]
    assert _overflows("inner", units, first_probe)


def _exact_only():
    """Runs the search with its O(1) line form always failing closed, so
    that every probe is priced by a chain solve."""
    return mock.patch.object(search, "_line_form", lambda cols, w, u: None)


def _search_bits(problem, units, lam, seed, restarts):
    """float.hex of the (x, f) and the starts run of a search from random
    starts inside its region."""
    searched = _problem(problem, units, lam)
    high = 1.0 if problem == "inner" else 0.3  # an interior p00 stays >= 0.1

    def draw(rng):
        return rng.uniform(0.0, high, len(searched.states))

    config = SearchConfig(restarts=restarts, seed=seed)
    x, f, ran = _search([], draw, searched, config)
    return [v.hex() for v in x], f.hex(), ran


@settings(max_examples=20, deadline=None)
@given(
    problem=st.sampled_from(["inner", "outer sum", "outer weighted"]),
    units=st.integers(min_value=1, max_value=8),
    lam=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    restarts=st.integers(min_value=1, max_value=2),
    summer=st.sampled_from([sum, compensated_sum]),
)
def test_the_line_form_returns_the_exact_only_search_bit_for_bit(problem, units, lam, seed, restarts, summer):
    # The O(1) form only decides comparisons that the exact values would
    # decide the same way, so the search takes the same path as one that
    # solves the chain at every probe.
    with library_sum(summer):
        shipped = _search_bits(problem, units, lam, seed, restarts)
        with _exact_only():
            assert _search_bits(problem, units, lam, seed, restarts) == shipped


def test_the_harness_patches_reach_the_search():
    # The p11 test's U = 4 outer sum search, once as it ships and once with
    # the form failing closed. A patch of a module that _search does not
    # read would record no probe at all in the first run, or would leave the
    # shipped search pricing probes by the form in the second, so that the
    # exact-only test compared it with itself.
    searched = _problem("outer sum", 4, 0.5)

    def draw(rng):
        return rng.uniform(0.0, 0.3, len(searched.states))

    for paths, priced in ((contextlib.nullcontext(), True), (_exact_only(), False)):
        with paths:
            log = _checked_search("outer sum", 4, 0.5, [], draw, SearchConfig(restarts=2, seed=5), sum)[2]
        counts = tally(log)
        assert counts["exact"] + counts["O(1)"] > 0  # the recorder saw the probes
        assert (counts["O(1)"] > 0) == priced


def _start_chain(cells):
    """(cell columns, accepted weights) of a search start whose states have
    cells, as _search builds them."""
    cols = [list(col) for col in zip(*cells)]
    w = [1.0]
    _cell_sums(cols, w)
    return cols, w


def test_the_line_form_fails_closed_past_a_rescaled_prefix():
    # The U = 60 outer start of the rescaled-chain test: its weights grow by
    # about 1e6 per state, so the accepted weights stop at the first that
    # overflows, and no line search of a state past them has a form.
    units = 60
    start = [0.98, *[0.98, CLAMP, CLAMP] * (units - 1), CLAMP]
    cols, w = _start_chain(_cells("outer sum", units, start))
    assert len(w) < units
    assert all(_line_form(cols, w, u) is None for u in range(len(w) + 1, units + 1))
    assert _line_form(cols, w, 30) is not None  # prefix and suffix both within range
    # Weights 1, 2^600, then 2^1200 from state 2 on: the accepted weights
    # stop at w[1] = 2^600, within range, so only their length shows the
    # rescale at states 3 and 4.
    units = 4
    down, up = [0.0, 2.0**-600, 2.0**-600, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 0.0]
    cols = [down, up, [1.0] * (units + 1)]
    w = [1.0]
    _cell_sums(cols, w)
    assert w == [1.0, 2.0**600]
    assert [_line_form(cols, w, u) is None for u in range(units + 1)] == [True, False, False, True, True]


def test_the_line_form_fails_closed_on_a_weight_out_of_range():
    # The U = 27 inner start of the overflow test: its weights grow by about
    # 1e12 per state to about 1.3e308, finite but far above 2^900. At state 1
    # the suffix products pass 2^900, at state 27 the prefix weights do.
    units = 27
    start = [0.5, 0.0075] + [CLAMP] * (units - 2) + [1.0 - CLAMP] * units
    cols, w = _start_chain(_cells("inner", units, start))
    assert len(w) == units + 1 and 2.0**900 < max(w) < math.inf
    assert _line_form(cols, w, 1) is None
    assert _line_form(cols, w, units) is None
    cols, w = _start_chain(_cells("inner", units, [0.5] * (2 * units)))
    assert all(_line_form(cols, w, u) is not None for u in range(units + 1))


def _gamma(m):
    """g_m = m*eps / (1 - m*eps) with eps = 2^-53, exactly."""
    e = Fraction(m, 2**53)
    return e / (1 - e)


def _random_cell(kind, units, u, data):
    """State u's cell of a random chain of one of the three search
    objectives. The moves stay within a factor of about 1e4 of each other,
    so at U <= 64 every weight of the chain lies within 2^+-860: the form is
    certified and nothing underflows."""
    if kind == "inner":
        p = st.floats(min_value=0.01, max_value=0.99)
        a = data.draw(p) if u else 0.0
        b = data.draw(p) if u < units else 0.0
        return _inner_cell(a, b)
    move = st.floats(min_value=0.01, max_value=0.45)
    p01 = data.draw(move) if u < units else 0.0
    p10 = data.draw(move) if u else 0.0
    p11 = data.draw(st.floats(min_value=0.0, max_value=0.09)) if 0 < u < units else 0.0
    c = _outer_cell(((1.0 - p01) - p10) - p11, p01, p10, p11)
    return c[:2] + c[4:] if kind == "outer sum" else c[:4]


class _Probed(Exception):
    """Ends a search as it builds the second probe of its first line search."""


def _first_probe(searched, cells, u, c):
    """(err, how, cell, price) of the first probe of the search's line
    search of state u, whose chain has cells, at a point where u's cell is
    c: the err of its line search, how it was priced and at what, as
    search_log records them. State u's coordinate is searched first, so the
    accepted chain is the start's."""
    n = len(cells)
    states = [u, *(k for k in range(n) if k != u)]

    def line(x, i):
        k, probes = states[i], []

        def at(v):
            if k != u or v == 0.5:  # a start's cell
                return cells[k]
            if probes:
                raise _Probed
            probes.append(v)
            return c

        return at

    problem = searched._replace(siblings=((),) * n, states=states, line=line)
    with search_log() as (log, _), pytest.raises(_Probed):
        _search([[0.5] * n], None, problem, SearchConfig(restarts=1))
    (_, _, _, err), (_, how, cell, price, _) = [event for event in log if event[0] in ("line", "price")]
    return err, how, cell, price


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["inner", "outer sum", "outer weighted"]),
    units=st.integers(min_value=1, max_value=64),
    lam=st.floats(min_value=0.0, max_value=1.0),
    summer=st.sampled_from([sum, compensated_sum]),
    data=st.data(),
)
def test_each_kind_of_probe_lies_within_its_half_of_the_err_bound(kind, units, lam, summer, data):
    # The err bound in the search module's docstring, in exact rationals.
    # S_j are the real reward sums of the chain whose weights are the
    # accepted chain's float prefix below the probed state u, the probe's
    # float w_u, and the real recursion above u. The exact solve of the
    # probed chain must lie within g_6n * A_j of S_j, and the O(1) form's
    # value within g_(6n+9) * A_j, where A_j = sum_k pi[k]*|r_jk| and
    # n = U + 1, under CPython 3.11's sum and 3.12's compensated sum. The
    # err of the search's own probe must cover both halves and value's
    # contract (L times the sums' distance, plus (L - 1) * 2^-50 times their
    # magnitudes), even after the comparison rounds the sum of two errs.
    u = data.draw(st.integers(min_value=0, max_value=units))
    cells = [_random_cell(kind, units, k, data) for k in range(units + 1)]
    c = _random_cell(kind, units, u, data)
    probed = list(zip(*(c if k == u else cell for k, cell in enumerate(cells))))  # the probed chain's columns
    searched = _problem(kind, units, lam)
    value = searched.value
    with library_sum(summer):
        cols, w = _start_chain(cells)  # the accepted chain
        form = _line_form(cols, w, u)
        solved, _, _ = _cell_sums(probed, w[: u or 1])
        err, how, cell, val = _first_probe(searched, cells, u, c)
        with _exact_only():  # the same probe, priced by exact(cell)
            exact = _first_probe(searched, cells, u, c)[3]
    assert len(w) == units + 1 and form is not None
    _, lead, total, suffix, smin, smax, terms = form
    wu = lead / c[0] if u else 1.0
    s = wu * c[1]
    t = total + (wu + s * suffix)
    assert t <= _HUGE and smin <= s <= smax  # the probe is priced by the form
    priced = [(p + (wu * r + s * g)) / t for (p, g), r in zip(terms, c[2:])]
    assert how == "O(1)" and cell == c and val == value(*priced)
    assert err == _reference_err(searched.contract, units)
    assert exact == value(*solved)

    weights = [Fraction(x) for x in w[:u]] + [Fraction(wu)]
    for k in range(u + 1, units + 1):
        weights.append(weights[-1] * Fraction(probed[1][k - 1]) / Fraction(probed[0][k]))
    real_total = sum(weights)
    n = units + 1
    halves = 0
    for j, r in enumerate(probed[2:]):
        real = sum(wk * Fraction(rk) for wk, rk in zip(weights, r)) / real_total
        a = sum(wk * abs(Fraction(rk)) for wk, rk in zip(weights, r)) / real_total
        assert abs(Fraction(solved[j]) - real) <= _gamma(6 * n) * a
        assert abs(Fraction(priced[j]) - real) <= _gamma(6 * n + 9) * a
        halves += (_gamma(6 * n) + _gamma(6 * n + 9)) * a
    magnitudes = sum(abs(Fraction(x)) for x in (*priced, *solved))
    contract = Fraction(searched.contract)
    needed = contract * halves + (contract - 1) * Fraction(1, 2**50) * magnitudes
    assert Fraction(err) * (1 - Fraction(1, 2**53)) >= needed


class _Stop(Exception):
    """Ends a line search at its third probe."""


@pytest.mark.parametrize("two", [False, True], ids=["one column", "two columns"])
@pytest.mark.parametrize("above", [False, True], ids=["gap at the errs", "gap above them"])
def test_golden_max_decides_a_comparison_by_the_err_of_the_module_docstring(two, above):
    # The first comparison of a line search, between its two probes, both
    # priced by the form at values whose gap is the sum of their errs, the
    # one err that _reference_err gives, or one float above it. _golden_max
    # must decide it from the values exactly in the second case, and price a
    # side by exact() in the first: the err it compares by is the one it
    # received.
    terms = [(0.0, 0.0)] * (2 if two else 1)
    form = (1, 1.0, 1.0, 1.0, 0.0, _HUGE, terms)  # w_u = 1, s = v, total 2 + v

    def at(v):
        if len(probes) == 2:
            raise _Stop
        probes.append((1.0, v, 1.0, -1.0) if two else (1.0, v, 1.0))
        return probes[-1]

    err = _reference_err(2.0 if two else 1.0, 1)
    gap = math.nextafter(err + err, math.inf) if above else err + err
    probes, values, exacts = [], [gap, 0.0], []

    def value(*sums):
        assert len(sums) == len(terms)
        return values.pop(0)

    def exact(c):
        exacts.append(c)
        return 0.0

    with pytest.raises(_Stop):
        search._golden_max(at, form, err, exact, value, 0.9)
    assert not values  # both probes were priced by the form
    assert (not exacts) == above


def test_golden_max_prices_only_probes_that_a_comparison_reads():
    # A line whose comparisons the filter all decides: the probe at v has the
    # one reward sum -1 / (2 + v), rising with v, and its err (about 3 * 2^-40)
    # is far below the gap of any two probes. Each comparison shifts the
    # bracket by the factor 1/phi, and each shift but the last takes one new
    # probe, so after its two first probes the line search prices one probe
    # per shift but the last: one more than its shifts, none unread.
    form = (1, 1.0, 1.0, 1.0, 0.0, _HUGE, [(0.0, 0.0)])  # w_u = 1, s = v, total 2 + v
    probes = []

    def at(v):
        probes.append(v)
        return (1.0, v, -1.0)

    def exact(c):
        raise AssertionError("the filter decides every comparison")

    hi = 0.9
    x = search._golden_max(at, form, _reference_err(1.0, 1), exact, lambda s: s, hi)
    width, shifts = hi - CLAMP, 0
    while width > search._GOLDEN_XTOL:
        width *= search._INVPHI
        shifts += 1
    assert shifts == 29 and len(probes) == shifts + 1
    assert hi - x < search._GOLDEN_XTOL  # the line rises up to hi


def test_a_probe_whose_form_total_passes_2_900_is_priced_by_a_solve():
    # Outer sum at U = 2 with only the top state's p10 free. The weights
    # below it are 1 and 2^899 (state 1's up move is 1/2, its down move
    # 2^-900), so its lead is 2^898, and a probe at p10 = v has the weight
    # 2^898 / v and the form total 1 + 2^899 + 2^898 / v: above 2^900 for
    # v < 1/2, though every weight and sum the form itself holds is in range
    # and the top state has no up move, so s = 0.
    below = [c[:2] + c[4:] for c in (_outer_cell(0.5, 0.5, 0.0, 0.0), _outer_cell(0.5, 0.5, 2.0**-900, 0.0))]

    def top(v):
        c = _outer_cell(1.0 - v, 0.0, v, 0.0)
        return c[:2] + c[4:]

    def line(x, i):
        return top if i == 2 else lambda v: below[i]

    # States 0 and 1 stay fixed: each has one coordinate, which its cell does
    # not read, so every probe of its line search has the accepted cell and
    # none gains. The last of the sweep's three line searches is the top
    # state's.
    fixed = _Problem([(), (), ()], [0, 1, 2], line, _outer_problem(2).value, 1.0)
    cols, w = _start_chain([*below, top(0.5)])
    assert w[1] == 2.0**899
    _, lead, total, suffix, smin, smax, _ = _line_form(cols, w, 2)
    config = SearchConfig(restarts=1, tol=math.inf)  # one sweep
    with search_log() as (log, _):
        x, f, _ = _search([[0.5, 0.5, 0.5]], None, fixed, config)
    lines = [k for k, event in enumerate(log) if event[0] == "line"]
    assert x[:2] == [0.5, 0.5] and len(lines) == 3
    assert f == _cell_sums(_start_chain([*below, top(x[2])])[0])[0][0]
    probes = [e[1:3] for e in log[lines[-1] :] if e[0] == "price" and e[1] in ("O(1)", "exact")]  # the top state's
    over = []
    for how, c in probes:
        wu = lead / c[0]
        s = wu * c[1]
        assert smin <= s <= smax
        if total + (wu + s * suffix) > _HUGE:
            over.append(how)
        else:
            assert how == "O(1)"  # priced by the form
    assert over and all(how == "exact" for how in over)


def test_the_outer_search_forms_each_state_once_and_never_solves_a_p11_line():
    # A "11" use sends one unit each way, so p11 enters no move of the
    # chain: every probe of a p11 line search has the accepted chain's moves
    # and is priced from its stationary law, with no solve. The p01, p10 and
    # p11 lines of a state read one line form, built when the state is
    # first searched in a sweep.
    units = 4
    searched = _problem("outer sum", units, 0.5)
    states = searched.states
    at = list(accumulate(map(len, _free_slots(units)), initial=0))
    p11 = {at[u] + 2 for u in range(1, units)}

    def draw(rng):
        return rng.uniform(0.0, 0.3, len(states))

    config = SearchConfig(restarts=2, seed=5)
    with _exact_only():
        exact_x, exact_f, _ = _search([], draw, searched, config)

    with search_log(searched) as (log, recorded):
        x, f, _ = _search([], draw, recorded, config)
    assert [v.hex() for v in (*x, f)] == [v.hex() for v in (*exact_x, exact_f)]

    lines, line = [], None  # per line search, [its probes' vectors, its solves]
    for event in log:  # a line search runs from its _golden_max to the next one, or the next form
        if event[0] == "line":
            line = [[], 0]
            lines.append(line)
        elif event[0] == "form":
            line = None
        elif line is not None and event[0] == "solve":
            line[1] += 1
        elif line is not None and event[0] == "price" and event[1] in ("O(1)", "exact"):
            line[0].append(event[2].x)
    moved = [{j for j, xj in enumerate(zip(*xs)) if len(set(xj)) > 1} for xs, _ in lines]  # its coordinate
    sweeps, rest = divmod(len(lines), len(states))
    assert sweeps >= 4 and rest == 0  # no line search was skipped
    assert [{i} for i in range(len(states))] * sweeps == moved
    assert [event[1] for event in log if event[0] == "form"] == [*range(units + 1)] * sweeps
    solved = {min(i) for i, (_, solves) in zip(moved, lines) if solves}
    assert solved and not p11 & solved


def test_a_probe_with_a_zero_move_raises_the_error_of_a_full_solve():
    # State 1's down move is 0 once p1[1] drops below 0.45, and the first
    # probe of its line search is at about 0.38. That probe is priced by a
    # solve, which raises as a full evaluation would, with or without the form.
    def zero_move(x, u, c):
        return (0.0, *c[1:]) if u == 1 and x[0] < 0.45 else c

    searched = changed_cells(_problem("inner", 2, 0.5), zero_move)
    message = r"^state 1 cannot reach state 0 \(down-move probability is 0\)$"
    for paths in (contextlib.nullcontext(), _exact_only()):
        with paths, pytest.raises(NotIrreducibleError, match=message):
            _search([[0.5] * 4], None, searched, SearchConfig(restarts=1))


def _bits(c):
    return [r.hex() for r in c]


@settings(max_examples=100, deadline=None)
@given(
    problem=st.sampled_from(["inner", "outer sum", "outer weighted"]),
    units=st.integers(min_value=1, max_value=8),
    lam=st.floats(min_value=0.0, max_value=1.0),
    data=st.data(),
)
def test_a_line_gives_the_cell_of_its_vector_bit_for_bit(problem, units, lam, data):
    # line(x, i)(v) is state states[i]'s cell of x with x[i] = v, as the
    # bounds' own evaluations build it (_cells), for every coordinate, the
    # end states' too, and for v that puts p00 = 1 - v - (the state's other
    # entries) near CLAMP/2, at 0 or below it, where the outer entropy drops
    # the p00 term. For the outer bound this checks that the line computes p00
    # in _dist's order.
    searched = _problem(problem, units, lam)
    n = len(searched.states)
    x = data.draw(st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=n, max_size=n))
    before = list(x)
    for i, u in enumerate(searched.states):
        at = searched.line(x, i)
        rest = 1.0 - sum(x[j] for j in searched.siblings[i])
        drawn = data.draw(st.floats(min_value=0.0, max_value=1.0))
        for v in (drawn, rest - CLAMP, rest - CLAMP / 2.0, rest - CLAMP / 4.0, rest, rest + 0.01):
            y = list(x)
            y[i] = v
            assert _bits(at(v)) == _bits(_cells(problem, units, y)[u])
    assert x == before  # a line reads x and leaves it as it is


SUMS = st.lists(st.floats(min_value=-1.0, max_value=3.0), min_size=2, max_size=2)


@settings(max_examples=300, deadline=None)
@given(
    problem=st.sampled_from(["inner", "outer sum", "outer weighted"]),
    lam=st.floats(min_value=0.0, max_value=1.0),
    s=SUMS,
    t=SUMS,
    nudge=st.booleans(),
)
def test_every_objective_moves_at_most_twice_its_sums(problem, lam, s, t, nudge):
    # The contract of _search's value that the O(1) form's error bound
    # relies on, with the objective's own constant L:
    # |value(s) - value(t)| <= L * sum_j |s_j - t_j|, up to
    # (L - 1) * 2^-50 * sum_j (|s_j| + |t_j|) of rounding. L is 1 for the
    # sum bound, which must then be exact, and 2 for the others. nudge puts
    # t within a few ulps of s, where the rounding term matters.
    searched = _problem(problem, 2, lam)
    value, contract = searched.value, searched.contract
    assert contract == (1.0 if problem == "outer sum" else 2.0)
    if nudge:
        t = [a + a * 2.0**-50 * b for a, b in zip(s, t)]
    if problem == "outer sum":
        s, t = s[:1], t[:1]
    rounding = (contract - 1.0) * 2.0**-50 * sum(map(abs, s + t))
    bound = contract * sum(abs(a - b) for a, b in zip(s, t)) + rounding
    assert abs(value(*s) - value(*t)) <= bound


COORDS = 3 * 8 - 1  # the outer search vector's length at U = 8, the longest here


@settings(max_examples=200, deadline=None)
@given(
    problem=st.sampled_from(["inner", "outer sum", "outer weighted"]),
    units=st.integers(min_value=1, max_value=8),
    lam=st.floats(min_value=0.0, max_value=1.0),
    start=st.lists(MASS, min_size=COORDS, max_size=COORDS),
    spots=st.lists(MASS, min_size=COORDS, max_size=COORDS),
)
# the uniform joint of each problem, where a state's sum is exactly 2
@example(problem="inner", units=2, lam=0.5, start=[0.5] * COORDS, spots=[0.5] * COORDS)
@example(problem="outer sum", units=2, lam=0.5, start=[0.25] * COORDS, spots=[0.5] * COORDS)
@example(problem="outer weighted", units=2, lam=0.3, start=[0.25] * COORDS, spots=[0.5] * COORDS)
def test_a_states_reward_magnitudes_sum_to_at_most_the_search_bound(problem, units, lam, start, spots):
    # The reward bound of _Problem's contract, on which the O(1) probes' err
    # relies: every cell that a line gives at a point of the search region
    # has reward magnitudes that sum to at most search._REWARD_BOUND, 2 bits
    # plus a rounding margin. The point is a random start capped into the
    # region, as _search caps it, and each line is probed at the point's own
    # entry and at a random v of its range [CLAMP, 1 - (its siblings' sum) -
    # CLAMP].
    searched = _problem(problem, units, lam)
    x = capped_start(searched, start[: len(searched.states)])
    largest = 0.0
    for i, (sib, spot) in enumerate(zip(searched.siblings, spots)):
        hi = 1.0 - sum(x[j] for j in sib) - CLAMP
        at = searched.line(x, i)
        for v in (x[i], CLAMP + spot * (hi - CLAMP)):
            largest = max(largest, sum(map(abs, at(v)[2:])))
    assert largest <= search._REWARD_BOUND
    if start == [0.5 if problem == "inner" else 0.25] * COORDS:  # the uniform joint
        assert largest == 2.0


def test_search_runs_a_start_outside_its_region_from_the_capped_start():
    # Outer sum at U = 2 from a start whose interior state has p01 = p10 =
    # p11 = 0.45, so its (0, 0) mass is negative. The search caps each
    # coordinate in turn at the upper end of its line search's range,
    # 1 - (its siblings' sum) - CLAMP: p01 drops to 0.1 - CLAMP, p10 and p11
    # stay at about 0.45, and p00 ends at about CLAMP. The end states'
    # entries lie in their ranges and stay as they are. Every cell of the
    # start is built from that vector, bit for bit, and the ascent runs from
    # it: state 2's p10 (coordinate 4) moves in the first sweep.
    start = [0.5, 0.45, 0.45, 0.45, 0.5]
    p01 = (1.0 - (0.45 + 0.45)) - CLAMP
    p10 = min(0.45, (1.0 - (p01 + 0.45)) - CLAMP)
    p11 = min(0.45, (1.0 - (p01 + p10)) - CLAMP)
    capped = [0.5, p01, p10, p11, 0.5]
    p00 = _unpack(capped, _free_slots(2))[1][0]
    assert CLAMP * (1.0 - 1e-9) <= p00 <= CLAMP * (1.0 + 1e-9)
    built = []  # the vector of every cell, as float.hex

    def recording(x, u, c):
        built.append([v.hex() for v in x])
        return c

    searched = changed_cells(_problem("outer sum", 2, 0.5), recording)
    config = SearchConfig(restarts=1, tol=math.inf)
    x, f, _ = _search([start], None, searched, config)
    assert built[:3] == [[v.hex() for v in capped]] * 3  # the start's three cells
    assert x[4] != start[4]
    assert f == _fresh_value("outer sum", 2, 0.5, x)


@settings(max_examples=20, deadline=None)
@given(
    units=st.integers(min_value=1, max_value=8),
    lam=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    restarts=st.integers(min_value=1, max_value=6),
)
@example(units=2, lam=0.5, seed=1, restarts=6)  # the third start wins
def test_a_settled_search_returns_the_full_search_bit_for_bit(units, lam, seed, restarts):
    config = SearchConfig(restarts=restarts, seed=seed)
    full_x, full_f, ran = run_inner_search(units, lam, config)
    x, f, stopped = run_inner_search(units, lam, config, _inner_settled(units, lam))
    assert ran == restarts and 1 <= stopped <= restarts
    assert [v.hex() for v in x] == [v.hex() for v in full_x]
    assert f.hex() == full_f.hex()


def test_the_search_draws_each_start_only_when_its_turn_comes():
    # A settled that fires at the first winning start stops the search
    # after one start, so of restarts=50 one random start is drawn, or none
    # after a fixed start. A search that drew every start up front would call
    # draw 50 times first (and would not end at a huge restarts).
    drawn = []

    def draw(rng):
        drawn.append(rng)
        return rng.uniform(0.1, 0.9, 4)

    config = SearchConfig(restarts=50, seed=1)
    for fixed, draws in (([], 1), ([[0.5] * 4], 0)):
        drawn.clear()
        _, _, ran = _search(fixed, draw, _inner_problem(2, 0.5), config, lambda x, f: True)
        assert ran == 1 and len(drawn) == draws
    # The U = 2 inner search settles at its third start, so restarts=10**30
    # runs the restarts=6 search bit for bit: nothing else reads the draws.
    ran = [optimize_sum_rate(2, 0.5, SearchConfig(restarts=r)) for r in (6, 10**30)]
    assert [r.restarts_used for r in ran] == [3, 3]
    bits = [[v.hex() for v in (*r.policy.p1, *r.policy.p2, r.objective)] for r in ran]
    assert bits[0] == bits[1]


_GRID = np.linspace(0.0, 1.0, 401)
with np.errstate(divide="ignore", invalid="ignore"):
    _GRID_H = np.nan_to_num(-(_GRID * np.log2(_GRID) + (1.0 - _GRID) * np.log2(1.0 - _GRID)))


def _grid_state_value(d0, d1, lam):
    """Largest one-step Bellman value of an interior inner state over a
    401 x 401 grid of its symbol law (a, b), from the exact formula."""
    a, b = _GRID[:, None], _GRID[None, :]
    h1, h2 = _GRID_H[:, None], _GRID_H[None, :]
    value = 2.0 * lam * h1 + 2.0 * (1.0 - lam) * h2 - a * (1.0 - b) * d0 + (1.0 - a) * b * d1
    return float(value.max())


STEP = st.one_of(st.floats(min_value=-4.0, max_value=4.0), st.floats(min_value=-300.0, max_value=300.0))


@settings(max_examples=300, deadline=None)
@given(
    d0=STEP,
    d1=STEP,
    lam=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    above=st.booleans(),
    gap=st.floats(min_value=-11.0, max_value=-1.0),
)
def test_a_state_proven_below_t_stays_below_t_on_a_dense_grid(d0, d1, lam, above, gap):
    # t lies 1e-11..0.1 above or below the grid's largest value, so near
    # ties are drawn often; a bound wrong by more than its float error
    # says "below" for some t under the grid's maximum.
    top = _grid_state_value(d0, d1, lam)
    t = top + math.copysign(10.0**gap, 1.0 if above else -1.0)
    if _state_below(d0, d1, lam, t):
        assert top < t


def test_a_state_the_certificate_cannot_split_far_enough_is_not_proven_below(monkeypatch):
    # t lies 1e-2 above the grid's largest value, far more than the grid can
    # miss, so no midpoint reaches t: at the default depth the bounds close,
    # and at depth 2 the intervals run out first, so the certificate fails
    # closed.
    t = _grid_state_value(0.3, -0.2, 0.5) + 1e-2
    assert _state_below(0.3, -0.2, 0.5, t)
    monkeypatch.setattr(inner, "_MAX_DEPTH", 2)
    assert not _state_below(0.3, -0.2, 0.5, t)


def _grid_bellman_bound(units, lam, x):
    """Odoni's bound from the bias of x's inner chain: the largest one-step
    Bellman value of any state, each over a 401-point grid per free symbol
    probability; the bias comes from a dense solve of the Poisson equation."""
    policy = MarginalPolicy(p1=[0.0, *x[:units]], p2=[0.0, *x[units:]])
    kernel = build_kernel(policy)
    h1 = np.array([binary_entropy(p) for p in policy.p1])
    h2 = np.array([binary_entropy(p) for p in policy.p2[::-1]])  # p2[e] acts in state units - e
    reward = 2.0 * lam * h1 + 2.0 * (1.0 - lam) * h2
    rho = float(stationary(kernel) @ reward)
    # (I - Q) g = reward - rho with g(0) = 0 in place of the first row, which the others imply
    lhs = np.eye(units + 1) - kernel.matrix
    lhs[0] = np.eye(units + 1)[0]
    g = np.linalg.solve(lhs, np.r_[0.0, (reward - rho)[1:]])
    steps = np.diff(g)
    return max(
        float((2.0 * (1.0 - lam) * _GRID_H + _GRID * steps[0]).max()),  # state 0: a = 0
        float((2.0 * lam * _GRID_H - _GRID * steps[-1]).max()),  # state units: b = 0
        *(_grid_state_value(d0, d1, lam) for d0, d1 in zip(steps, steps[1:])),
    )


@settings(max_examples=100, deadline=None)
@given(
    units=st.integers(min_value=1, max_value=4),
    lam=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    probs=st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=8, max_size=8),
    above=st.booleans(),
    gap=st.floats(min_value=-11.0, max_value=-1.0),
)
def test_a_settled_objective_is_above_the_grid_bellman_bound(units, lam, probs, above, gap):
    # settled(x, f) must find every state's Bellman value, the two end
    # states' included, below f + 1e-9 - 1e-12. f is drawn 1e-11..0.1 from
    # where that threshold meets the grid bound, so a state left out or a
    # bias step of the wrong sign says "settled" for some f too low.
    x = probs[:units] + probs[4 : 4 + units]
    bound = _grid_bellman_bound(units, lam, x)
    f = bound - 1e-9 + 1e-12 + math.copysign(10.0**gap, 1.0 if above else -1.0)
    if _inner_settled(units, lam)(x, f):
        assert bound < f + 1e-9 - 1e-12


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(), max_size=12))
def test_compensated_sum_is_the_builtin_sum_of_python_3_12(xs):
    assert compensated_sum([0.1] * 10) == 1.0  # 0.9999999999999999 before 3.12
    if sys.version_info >= (3, 12):
        assert repr(compensated_sum(xs)) == repr(sum(xs))


@settings(max_examples=25, deadline=None)
@given(units=st.integers(min_value=1, max_value=6), lam=st.floats(min_value=0.0, max_value=1.0))
def test_inner_ascent_never_loses_its_start(units, lam):
    # With one restart the only start is the first grid seed, p = 0.5 everywhere
    rates = rates_for_policy(uniform_policy(units, 0.5))
    start = 2.0 * (lam * rates.r1 + (1.0 - lam) * rates.r2)
    result = optimize_sum_rate(units, lam, SearchConfig(restarts=1))
    assert 2.0 * (lam * result.rates.r1 + (1.0 - lam) * result.rates.r2) == result.objective
    assert result.objective >= start - 1e-12


@settings(max_examples=40, deadline=None)
@given(
    units=st.integers(min_value=1, max_value=3),
    probs=st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=6, max_size=6),
    blocklength=st.integers(min_value=20, max_value=400),
    delta=st.floats(min_value=-0.2, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_trial_transcripts_are_feasible(units, probs, blocklength, delta, seed):
    policy = MarginalPolicy(
        p1=np.array([0.0, *probs[:units]]), p2=np.array([0.0, *probs[3 : 3 + units]])
    )
    books = build_codebooks(policy, blocklength, 0.0, delta, seed=seed)
    messages = draw_messages(books, seed=seed + 1)
    outcome = run_trial(books, messages, seed=seed + 2)
    transcript, _ = reference_trial_walk(books, messages, seed=seed + 2)
    validate_transcript(transcript)
    assert transcript.length == blocklength
    assert abs(outcome.empirical_occupancy.sum() - 1.0) <= 1e-12
    if not outcome.e1_events and not outcome.e2_events:
        assert outcome.decoded_ok == {1: True, 2: True}
    # a level runs short exactly when its state has fewer visits than its length
    visits = [round(x * blocklength) for x in outcome.empirical_occupancy]
    for (node, lv), book in books.levels.items():
        state = lv if node == 1 else units - lv
        assert ((node, lv) in outcome.e1_events) == (visits[state] < book.length)
    # a short or collided level decodes to the fallback guess 1, any other exactly
    failed = outcome.e1_events | outcome.e2_events
    assert not outcome.e1_events & outcome.e2_events
    for node in (1, 2):
        expected = all(messages[key] == 1 for key in failed if key[0] == node)
        assert outcome.decoded_ok[node] == expected


@settings(max_examples=80, deadline=None)
@given(
    units=st.integers(min_value=1, max_value=4),
    probs=st.lists(
        st.floats(min_value=0.05, max_value=1.0, exclude_max=True), min_size=6, max_size=6
    ),
    # p = 1 only at a node's top level, the one place it keeps the chain irreducible
    tops=st.lists(st.just(1.0) | st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=2),
    blocklength=st.integers(min_value=20, max_value=400),
    epsilon=st.sampled_from([0.0, 0.01]),
    delta=st.floats(min_value=-0.2, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_trial_occupancy_is_the_recording_walks_visits(
    units, probs, tops, blocklength, epsilon, delta, seed
):
    policy = MarginalPolicy(
        p1=np.array([0.0, *probs[: units - 1], tops[0]]),
        p2=np.array([0.0, *probs[3 : 3 + units - 1], tops[1]]),
    )
    try:
        books = build_codebooks(policy, blocklength, epsilon, delta, seed=seed)
    except MarginExhaustedError:
        assume(False)
    messages = draw_messages(books, seed=seed + 1)
    outcome = run_trial(books, messages, seed=seed + 2)
    _, visits = reference_trial_walk(books, messages, seed=seed + 2)
    assert outcome.empirical_occupancy.tolist() == [v / blocklength for v in visits]


@st.composite
def balanced_books(draw):
    """Books for U <= 8 whose states mostly keep their mass above epsilon.

    The probabilities stay within 0.1 of one level, so the stationary law
    is not far from flat, and U shrinks as epsilon grows. p = 1 appears
    only at a node's top level, the one place it keeps the chain
    irreducible.
    """
    epsilon = draw(st.sampled_from([0.0, 0.01, 0.05, 0.15]))
    units = draw(st.integers(min_value=1, max_value=4 if epsilon > 0.1 else 8))
    level = draw(st.floats(min_value=0.2, max_value=0.8))
    near = st.floats(min_value=level - 0.1, max_value=level + 0.1)
    top = st.just(1.0) | near
    p1 = [0.0, *draw(st.lists(near, min_size=units - 1, max_size=units - 1)), draw(top)]
    p2 = [0.0, *draw(st.lists(near, min_size=units - 1, max_size=units - 1)), draw(top)]
    blocklength = draw(st.integers(min_value=20, max_value=3000))
    delta = draw(st.floats(min_value=-0.2, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    try:
        books = build_codebooks(MarginalPolicy(p1=p1, p2=p2), blocklength, epsilon, delta, seed)
    except MarginExhaustedError:
        assume(False)
    return books, seed


@settings(max_examples=40, deadline=None)
@given(case=balanced_books())
def test_trial_switches_to_the_loop_at_the_last_list_walk_visit_to_the_start(case):
    books, seed = case
    units, blocklength = books.units, books.blocklength
    messages = draw_messages(books, seed=seed + 1)
    outcome = run_trial(books, messages, seed=seed + 2)
    transcript, visits = reference_trial_walk(books, messages, seed=seed + 2)
    assert outcome.empirical_occupancy.tolist() == [v / blocklength for v in visits]

    # the first use that steps by pads: the one that finds its state's list used up
    lengths = [books.levels[(1, v) if v else (2, units)].length for v in range(units + 1)]
    states = transcript.states.tolist()
    seen = [0] * (units + 1)
    first_pad = blocklength
    for i, v in enumerate(states):
        if seen[v] == lengths[v]:
            first_pad = i
            break
        seen[v] += 1
    start = (units + 1) // 2
    switch = max(i for i in range(first_pad) if states[i] == start)
    sent = {key: books.codeword(*key, m) for key, m in messages.items()}
    moves = [
        np.subtract(sent.get((2, units - v), 0), sent.get((1, v), 0), dtype=np.int8)
        for v in range(units + 1)
    ]
    before = [states[:switch].count(v) for v in range(units + 1)]
    assert _stack_walk_prefix(moves, start, blocklength) == (switch, before)


@settings(max_examples=40, deadline=None)
@given(case=balanced_books())
def test_the_collision_check_gets_the_sent_codewords_weight(case):
    books, seed = case
    units = books.units
    messages = draw_messages(books, seed=seed + 1)
    checked = []
    sampled = protocol._collision_sampled

    def recorder(book, weight, rng):
        checked.append((book, weight))
        return sampled(book, weight, rng)

    with mock.patch.object(protocol, "_collision_sampled", recorder):
        run_trial(books, messages, seed=seed + 2)
    _, visits = reference_trial_walk(books, messages, seed=seed + 2)
    # equal books may back two levels, so each call is matched by identity
    key_of = {id(book): key for key, book in books.levels.items()}
    keys = [key_of[id(book)] for book, _ in checked]
    for key, (_, weight) in zip(keys, checked):
        assert weight == int(books.codeword(*key, messages[key]).sum())
    # a level is checked when its state saw its whole codeword and others exist
    assert keys == [
        (node, lv)
        for (node, lv), book in sorted(books.levels.items())
        if visits[lv if node == 1 else units - lv] >= book.length and book.size > 1
    ]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**96),
    node=st.integers(min_value=1, max_value=2),
    level=st.integers(min_value=0, max_value=2**40),
    message=st.integers(min_value=0, max_value=2**4096),
)
def test_seed_words_give_the_stream_of_the_int_list(seed, node, level, message):
    words = _seed_words(seed, node, level, message)
    expected = np.random.SeedSequence([seed, node, level, message])
    assert np.array_equal(
        np.random.SeedSequence(words).generate_state(4), expected.generate_state(4)
    )


@st.composite
def bit_vector_pairs(draw):
    """Equal-length bit vectors whose one-densities include 0 and 1, so
    all-zero, all-one and one-node-all-ones inputs are drawn often."""
    m = draw(st.integers(min_value=1, max_value=300))

    def bits():
        density = draw(st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0))
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        return (np.random.default_rng(seed).random(m) < density).astype(np.uint8)

    return bits(), bits()


@settings(max_examples=150, deadline=None)
@given(bits=bit_vector_pairs())
def test_timeshare_decodes_exactly_with_the_minimal_handovers(bits):
    b1, b2 = bits
    res = optimal_timeshare_sim(b1, b2)
    validate_transcript(res.transcript)
    assert np.array_equal(res.decoded_bits1, b1)
    assert np.array_equal(res.decoded_bits2, b2)
    handovers = expected_handovers(b1, b2)
    assert res.handover_uses == handovers
    assert res.transcript.length == 2 * len(b1) + handovers
    # the same schedule, symbol for symbol, as the per-use state machine
    syms, reference_handovers = reference_timeshare_syms(b1, b2)
    assert res.transcript.to_lines() == _holder_transcript(syms).to_lines()
    assert res.handover_uses == reference_handovers


@settings(max_examples=150, deadline=None)
@given(bits=bit_vector_pairs())
def test_variable_length_decodes_exactly_in_4m_uses_less_the_ones(bits):
    b1, b2 = bits
    m = len(b1)
    res = variable_length_sim(m, bits1=b1, bits2=b2)
    validate_transcript(res.transcript)
    assert np.array_equal(res.decoded_bits1, b1)
    assert np.array_equal(res.decoded_bits2, b2)
    # a 1 costs one use and a 0 two
    assert res.transcript.length == 4 * m - int(b1.sum()) - int(b2.sum())
    # the nodes' bits alternate, node 1 first, each as its codeword
    syms = [s for b, c in zip(b1, b2) for bit in (b, c) for s in ((1,) if bit else (0, 1))]
    assert res.transcript.to_lines() == _holder_transcript(syms).to_lines()
