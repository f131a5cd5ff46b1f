"""Achievable rate pairs of independent per-level codebooks, and their
maximization over transmission policies.

A marginal policy achieves R1 = sum_u pi[u] H(p1[u]) and
R2 = sum_u pi[u] H(p2[units-u]) where pi is the stationary law of the
induced energy chain. The weighted objective 2*(lam*R1 + (1-lam)*R2)
reduces to the plain sum-rate at lam = 0.5. The chain and the rewards
are built from one cell per state u, (down move, up move, feasible,
*rewards) = (a(1-b), (1-a)b, True, H(a), H(b)) at a = p1[u], b = p2[units-u].

The objective is smooth but nonconvex in the 2*units free probabilities, so
the maximizer runs multi-start coordinate ascent (`_search`, which the
outer bound shares): constant grid seeds plus random restarts, each refined
by coordinate-wise golden-section search on [CLAMP, 1-CLAMP]. A coordinate
enters one state's cell (`states`), so a probe recomputes that cell alone,
through the line search's own cell function (`line(x, i)`, built once per
line search from the same cell formula, so that probes neither write nor
reread x); the cells carry only the reward columns that `value` reads, and
`value` maps the chain's sums of them to the objective. While a line search
moves state u's cell, the chain splits into three blocks: the accepted
weights of the states below u, u's own weight, and the states above u,
whose weights are u's weight times its up move times products of fixed
moves. `_line_form` sums the two fixed blocks once per state, so a probe
costs its cell plus O(1) straight-line arithmetic, and returns that form's
objective with a proven bound on its distance from the exact float.
Golden-section search (`_golden_max`) only compares probes, so a comparison
is decided from the form when the gap exceeds both bounds (a floating-point
filter, as in Shewchuk's adaptive predicates), by equal cells when they are
equal, and otherwise by exact probes. An exact
probe solves the chain only when its moves differ from the line search's
latest solve (at first the accepted chain's), checking only those and going
on from the accepted weights below u; else it sums its rewards against that
solve's stationary law. Either way it returns a full evaluation's float. So
the search takes the path, and returns the bits, of one that solves the
chain at every probe; a line search's last probe is exact, and it is the
accepted chain when it gains. The form fails closed to exact probes where
its bound is not proven (see `_line_form`). The clamp keeps every policy
strictly interior, hence the chain irreducible; the boundary of the rate
region is approached but never evaluated at degenerate policies. Restarts
are independent and the reduction (max by objective, first within 1e-9
wins) is deterministic given the seed.

The inner objective is the optimal reward of an average-reward Markov
decision process (each state's symbol law is an action), so Odoni's bound
holds: for any bias g, no policy's objective exceeds max over u of state
u's best one-step reward plus expected change of g (Puterman 1994, 8.5).
After a start wins, `_inner_settled` takes g from the winner's own chain;
when the bound is proven below the winner's objective plus 1e-9, no later
start could win, so the search stops there and returns the same bits as
running every start.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate
from operator import add, mul
from typing import NamedTuple

import numpy as np

from .chain import MarginalPolicy, _count, _weights
from .entropy import _h

GRID_SEEDS = (0.5, 0.2, 0.35, 0.65, 0.8)
_GOLDEN_XTOL = 1e-6
_MAX_SWEEPS = 200
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Both optimizers keep every free probability in [CLAMP, 1 - CLAMP].
CLAMP = 1e-6
# The inner certificate proves a state's bound only for bias steps up to this
# size in magnitude, where its float error stays below 1e-12, and splits an
# interval of b at most this many times.
_BIAS_MAX = 256.0
_MAX_DEPTH = 60
# A line search prices a probe by its O(1) form (_line_form) only while every
# weight, product and total of the form and of the probed chain's exact solve
# lies in [_TINY, _HUGE], so that none overflows or underflows.
_TINY = 2.0**-900
_HUGE = 2.0**900


@dataclass(frozen=True)
class RatePair:
    """Rates in bits per channel use."""

    r1: float
    r2: float

    def __post_init__(self):
        if not (self.r1 >= 0.0 and self.r2 >= 0.0):
            raise ValueError(f"rates must be nonnegative numbers, got {self.r1}, {self.r2}")
        if self.r1 + self.r2 > 2.0 + 1e-12:
            raise ValueError("sum rate cannot exceed 2 bits per channel use")

    @property
    def total(self) -> float:
        return self.r1 + self.r2


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the multi-start local search (shared by both bounds)."""

    restarts: int = 32
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "restarts", _count(self.restarts, "restarts"))
        object.__setattr__(self, "seed", _count(self.seed, "seed", low=0))
        if not self.tol > 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


@dataclass(frozen=True)
class OptimizationResult:
    """A search's best policy, its rates, stationary law and objective, and
    restarts_used: the starts that ran (fewer than search.restarts when the
    inner search stops early; see optimize_sum_rate)."""

    policy: MarginalPolicy
    rates: RatePair
    stationary: np.ndarray
    objective: float
    restarts_used: int


def _inner_cell(a, b):
    """Cell of a state where node 1 sends "1" w.p. a and node 2 w.p. b."""
    return a * (1.0 - b), (1.0 - a) * b, True, _h(a), _h(b)


def _cell_sums(columns, w=None, u=None):
    """([sum_k pi[k] * col[k] for each reward column], weights, pi) of the
    chain with cell columns (down, up, feasible, *rewards), where pi, the
    weights over their sum, is its stationary law and each sum is one sum()
    over the whole column; w is an optional prefix of the chain's unscaled
    detailed-balance weights, and u the one state whose moves are not yet
    checked (see _weights)."""
    w, total = _weights(columns[0], columns[1], w or [1.0], u)
    pi = [x / total for x in w]
    return [sum(map(mul, pi, col)) for col in columns[3:]], w, pi


def _line_form(cols, w, u):
    """The chain of cell columns cols (down, up, feasible, *rewards) as an
    O(1) function of state u's cell, every other cell fixed, for _search:
    (lead, P, G, smin, smax, P_abs, G_abs, [(P_r, G_r) per reward column]),
    or None where the form is not certified.

    The weights are the accepted prefix w[:u], state u's
    w_u = lead / down_u with lead = w[u-1] * up[u-1] (the float the exact
    solve computes; w_u = 1 at u = 0), and s * g_k above u, with
    s = w_u * up_u and g_k = prod_{u<j<k} up_j / prod_{u<j<=k} down_j. So
    the total is T = P + (w_u + s*G) and each reward sum is
    (P_r + (w_u*r_u + s*G_r)) / T, where P and P_r sum w_k and w_k*r_k over
    the prefix, and G and G_r sum g_k and g_k*r_k over the suffix; P_abs
    and G_abs are those of a_k = sum over columns of |r_k|, so that
    A = (P_abs + (w_u*a_u + s*G_abs)) / T bounds sum_j sum_k pi[k]*|r_jk|.
    The value of those sums lies within _search's err, k*A + tiny, of the
    value of the exact solve's sums. None when the prefix was rescaled
    (len(w) < u), a prefix weight, a g_k or a partial product of their
    recursion lies outside [_TINY, _HUGE], or an a_k, P or G lies above
    _HUGE; a probe is priced exactly unless smin <= s <= smax, T <= _HUGE
    and a_u <= _HUGE, which keep every weight and partial product of the
    exact solve in that range.
    """
    down, up, _, *rewards = cols
    top = len(down) - 1
    if len(w) < u:
        return None
    pre = w[:u]
    g, partial, x = [], [1.0], 1.0  # partial: each product before its division, over s
    for k in range(u + 1, top + 1):
        x /= down[k]
        g.append(x)
        if k < top:
            x *= up[k]
            partial.append(x)
    absr = list(map(abs, rewards[0]))
    for col in rewards[1:]:
        absr = list(map(add, absr, map(abs, col)))
    del absr[u]
    partial += g
    low, high = min(partial), max(partial)
    total, suffix = sum(pre), sum(g)
    if not (
        (not pre or _TINY <= min(pre) and max(pre) <= _HUGE)
        and _TINY <= low
        and high <= _HUGE
        and max(absr) <= _HUGE
        and total <= _HUGE
        and suffix <= _HUGE
    ):
        return None
    return (
        w[u - 1] * up[u - 1] if u else 1.0,
        total,
        suffix,
        _TINY / low if g else 0.0,
        _HUGE / high,
        sum(map(mul, pre, absr)),
        sum(map(mul, g, absr[u:])),
        [(sum(map(mul, pre, col)), sum(map(mul, g, col[u + 1 :]))) for col in rewards],
    )


def _rates_updown(p1, p2):
    """(r1, r2, pi) for policy lists with the forced zeros at index 0."""
    cells = [_inner_cell(a, b) for a, b in zip(p1, p2[::-1])]  # p2[e] acts in state units-e
    (r1, r2), _, pi = _cell_sums(list(zip(*cells)))
    return r1, r2, pi


def rates_for_policy(policy: MarginalPolicy) -> RatePair:
    """Achievable rate pair of a policy; raises NotIrreducibleError when
    the induced chain cannot visit every state."""
    r1, r2, _ = _rates_updown(policy.p1.tolist(), policy.p2.tolist())
    return RatePair(r1=r1, r2=r2)


def _golden_max(f, exact, lo: float, hi: float) -> float:
    """Midpoint of the last bracket of golden-section maximization of a
    unimodal-ish f on [lo, hi]; f is not called there.

    f(v) returns a probe [value, err, cell] whose value lies within err of
    the exact one (err 0: it is the exact one), and exact(probe) makes it
    exact. Each comparison of the bracket is the one of exact values: it
    is decided from the values when their gap exceeds both errors (float
    rounding is monotone, so a gap computed above the computed error sum
    is above the real one); as a tie when both probes have the same cell
    (their chains, and so their exact values, are the same); otherwise
    exact() makes the side with the larger error exact, until the gap is
    decided or both sides are exact.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > _GOLDEN_XTOL:
        gap = fc[0] - fd[0]
        if not abs(gap) > fc[1] + fd[1]:
            if fc[2] == fd[2]:
                gap = 0.0
            else:
                while (fc[1] or fd[1]) and not abs(fc[0] - fd[0]) > fc[1] + fd[1]:
                    exact(fc if fc[1] and not fd[1] > fc[1] else fd)
                gap = fc[0] - fd[0]
        if gap > 0.0:  # fc[0] > fd[0], also at infinities
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _checked_search(units: int, lam: float, search: SearchConfig | None) -> SearchConfig:
    """The search config to use, after checking units and lam."""
    _count(units, "units")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0,1]")
    return search or SearchConfig()


class _Problem(NamedTuple):
    """A chain objective for _search over a vector x of free entries."""

    siblings: Sequence  # per coordinate, the other entries of its state's simplex
    states: Sequence  # per coordinate, the one state whose cell it enters
    cell: Callable  # cell(x, u): state u's cell (down, up, feasible, *rewards)
    line: Callable  # line(x, i)(v): cell(x with x[i] = v, states[i])
    value: Callable  # value(sums): the objective of the chain's reward sums
    contract: float  # value's constant L in _search's contract


def _search(fixed, draw, problem: _Problem, config: SearchConfig, settled=None):
    """Best (x, f, starts run) of multi-start coordinate ascent of a chain
    objective.

    f(x) is value(sums) of the chain whose state u has cell(x, u), which
    carries one or two reward columns, or -inf while a cell is infeasible.
    value must meet this contract, with its constant L = problem.contract,
    on which the error bound below relies:
    |value(s) - value(s')| <= L * sum_j |s_j - s'_j|, up to
    (L - 1) * 2^-50 * sum_j (|s_j| + |s'_j|) of rounding (none at L = 1:
    value must be exact there). The outer sum bound's itemgetter(0) meets
    it with L = 1; the inner objective (weights 2*lam and 2*(1-lam)) and
    the outer weighted one (after max(., 0)) with L = 2.

    Coordinate i enters only state u = states[i]'s cell. A line search on
    it keeps every other cell fixed, builds at = line(x, i) once and gets
    each probe's cell as at(v), so x itself only changes when a move is
    accepted. Its probes are of two kinds.
    - An exact probe writes its cell into the cached columns. If its moves
      are the line search's latest solve's (at first the accepted chain's),
      it sums its rewards against that solve's stationary law; else it
      checks only its two moves (the others were checked at their states'
      probes or the start's one full solve; one made impossible raises a
      full solve's NotIrreducibleError) and solves on from the accepted
      chain's unscaled weights of states 0..u-1, or of as many as precede
      the first overflow. Either way it returns a full evaluation's float.
    - An O(1) probe prices its cell by _line_form's three-block form of
      the chain, built once per state, in straight-line code with its one
      or two reward columns written out, and returns that value with err,
      a bound on its distance from the exact probe's float.
    _golden_max only compares probes: by the values where their gap
    exceeds both errs, as equal where the cells are equal, and otherwise
    after making a side exact. So its path is that of exact probes alone.
    A line search ends with an exact probe of the midpoint of its last
    bracket. If that gains, the probed chain is the accepted one: its cell
    stays in the columns and its weights and law are the ones later probes
    go on from. Otherwise the accepted cell is written back.

    The err bound. Let n = U + 1 states, eps = 2^-53 and
    g_m = m*eps/(1 - m*eps), and let S_j be the real reward sums of the
    chain whose weights are the accepted prefix, the float w_u that both
    kinds of probe compute, and the real recursion above u. The exact
    solve rounds a weight above u at most 2n times, the total n times more,
    each pi[k] twice more and each product once more, and its column sum
    adds n (also a bound for the compensated sum of CPython 3.12): it is
    within g_6n * A_j of S_j, where A_j = sum_k pi[k] * |r_jk|. The O(1) form
    rounds each suffix product at most 2n times and its sums n times more;
    a probe adds 4 roundings to the total and the numerators, and one
    division: it is within g_(6n+9) * A_j of S_j. With the contract, two
    values of sums within g_(12n+9) * A_j lie within
    (L * (12n + 9) + 16 * (L - 1)) * eps * sum_j A_j of each other, and the
    computed A, whose own relative error is below g_(6n+12) for up to three
    reward columns, is inflated to cover it:
    err = k * A + tiny with k = L * (U + 2) * 2^-49 = 16L(n + 1) * eps,
    which exceeds that by (4n + 7) * eps at L = 1 and (8n - 2) * eps at
    L = 2, so for every n >= 2 (and U < 2^28, far beyond memory). tiny =
    (U + 3) * 2^-160 covers underflow: the form is used only while every
    weight, suffix product and total lies in [2^-900, 2^900] and every
    |reward| is at most 2^900, so an underflowed pi[k], product or
    division costs at most about 2^-174 each. Where any of this cannot be
    shown (see _line_form), or the probe's own moves are not positive, the
    probe is exact; an infeasible cell is -inf with err 0.

    The starts are `fixed`, then draw(rng) until config.restarts, clipped
    into [CLAMP, 1-CLAMP]. Coordinate i ranges over
    [CLAMP, 1 - sum(x[siblings[i]]) - CLAMP], is skipped while that range
    is no longer than the line search's tolerance, and is refined by
    golden-section search; an ascent stops when a full sweep gains
    < config.tol. A later start wins only by more than 1e-9. Whenever a
    start wins, settled(x, f) may prove that no later start can beat f by
    more than 1e-9; then the search stops there, and returns what running
    every start would. Raises ValueError when every start ends at -inf.
    """
    siblings, states, cell, line, value, contract = problem
    rng = np.random.default_rng(config.seed)
    starts = list(fixed)
    while len(starts) < config.restarts:
        starts.append(draw(rng))
    top = max(states)
    k = contract * (top + 2) * 2.0**-49
    tiny = (top + 3) * 2.0**-160
    best_x, best_f = None, -math.inf
    for ran, start in enumerate(starts, 1):
        x = [min(max(float(v), CLAMP), 1.0 - CLAMP) for v in start]
        cols = [list(col) for col in zip(*(cell(x, u) for u in range(top + 1)))]
        two = len(cols) == 5
        down, up, feasible, r0 = cols[:4]
        r1 = cols[4] if two else None
        probed = [1.0]  # the weight list of the latest solve, which _weights extends in place
        sums, _, law = _cell_sums(cols, probed)
        w = probed  # the accepted chain's unscaled weights, up to the first that overflows
        bad = feasible.count(False)
        f = -math.inf if bad else value(sums)

        def probe(v, fast=True):
            """[f or its estimate, err, cell] with x[i] = v, which enters
            state u's cell only: the O(1) form's value and its error bound
            when fast and the form is certified, else exact(...)."""
            c = at(v)
            if base - c[2]:
                return [-math.inf, 0.0, c]
            if fast and form and (c[0] > 0.0 or not u):
                wu = lead / c[0] if u else 1.0
                s = wu * c[1]
                t = total + (wu + s * suffix)
                if t <= _HUGE and smin <= s <= smax:
                    a = c[3]
                    if two:
                        b = c[4]
                        au = abs(a) + abs(b)
                        if au <= _HUGE:
                            v0 = (p0 + (wu * a + s * g0)) / t
                            v1 = (p1 + (wu * b + s * g1)) / t
                            return [value([v0, v1]), k * (pa + (wu * au + s * ga)) / t + tiny, c]
                    else:
                        au = abs(a)
                        if au <= _HUGE:
                            v0 = (p0 + (wu * a + s * g0)) / t
                            return [value([v0]), k * (pa + (wu * au + s * ga)) / t + tiny, c]
            return exact([None, None, c])

        def exact(p):
            """p = [f, 0, cell] from p's chain, solved only if p's moves are
            not the latest solve's `moves`; leaves p's cell in cols, the
            chain's weights (w[:u] extended) in `probed` and its law in `pi`."""
            nonlocal probed, moves, pi
            c = p[2]
            down[u], up[u], feasible[u], r0[u] = c[0], c[1], c[2], c[3]
            if two:
                r1[u] = c[4]
            if c[0] == moves[0] and c[1] == moves[1]:
                sums = [sum(map(mul, pi, r0)), sum(map(mul, pi, r1))] if two else [sum(map(mul, pi, r0))]
            else:
                probed, moves = w[: u or 1], c[:2]  # w[0] = 1 at u = 0
                sums, _, pi = _cell_sums(cols, probed, u)
            p[0], p[1] = value(sums), 0.0
            return p

        for _ in range(_MAX_SWEEPS):
            gained = 0.0
            for i, (sib, u) in enumerate(zip(siblings, states)):
                if not i or states[i - 1] != u:  # a move accepted at u leaves the form as it is
                    form = _line_form(cols, w, u)
                    if form:
                        lead, total, suffix, smin, smax, pa, ga, terms = form
                        p0, g0 = terms[0]
                        p1, g1 = terms[-1]
                hi = 1.0 - sum(x[s] for s in sib) - CLAMP
                if hi - CLAMP <= _GOLDEN_XTOL:
                    continue
                at = line(x, i)
                kept = tuple(col[u] for col in cols)  # the accepted cell
                base = bad + kept[2]  # minus c[2]: infeasible cells with c in place
                moves, pi, probed = kept[:2], law, w  # the latest solve: the accepted chain's
                xi = _golden_max(probe, exact, CLAMP, hi)
                fi = probe(xi, False)[0]
                if fi > f:  # the probed chain is accepted; fi is finite, so no cell is infeasible
                    gained += fi - f
                    x[i], f, w, law, bad = xi, fi, probed, pi, 0
                else:
                    for col, r in zip(cols, kept):
                        col[u] = r
            if gained < config.tol:
                break
        if f > best_f + 1e-9:
            best_x, best_f = x, f
            if settled is not None and settled(x, f):
                break
    if best_x is None:
        raise ValueError(f"no search start reached a feasible point ({len(starts)} tried)")
    return best_x, best_f, ran


def _inner_problem(units: int, lam: float) -> _Problem:
    """The inner objective of x = (p1[1:], p2[1:]) for _search."""

    def cell(x, u):
        return _inner_cell(x[u - 1] if u else 0.0, x[2 * units - 1 - u] if u < units else 0.0)

    def line(x, i):
        if i < units:  # p1[i + 1], in state i + 1
            b = x[2 * units - 2 - i] if i + 1 < units else 0.0
            return lambda v: _inner_cell(v, b)
        a = x[2 * units - 2 - i] if i + 1 < 2 * units else 0.0  # p2[i + 1 - units], in state 2U - 1 - i
        return lambda v: _inner_cell(a, v)

    def value(s):
        return 2.0 * (lam * s[0] + (1.0 - lam) * s[1])

    states = [*range(1, units + 1), *range(units - 1, -1, -1)]
    return _Problem(((),) * len(states), states, cell, line, value, 2.0)


def _wsp(w, c):
    """max over a in [0, 1] of w*H(a) + a*c, that is w*log2(1 + 2**(c/w)),
    or max(c, 0) at w = 0; only non-positive powers are taken."""
    if w == 0.0:
        return max(c, 0.0)
    t = c / w
    return w * (t + math.log2(1.0 + 2.0**-t) if t > 0.0 else math.log2(1.0 + 2.0**t))


def _state_below(d0, d1, lam, t):
    """Whether max over a, b in [0, 1] of
    2*lam*H(a) + 2*(1-lam)*H(b) - a*(1-b)*d0 + (1-a)*b*d1, an interior
    state's one-step Bellman value under bias steps d0 (down) and d1 (up),
    is proven below t.

    The maximum over a is s(b) = _wsp(2*lam, -(1-b)*d0 - b*d1), convex in b,
    and the rest is k(b) = 2*(1-lam)*H(b) + b*d1, concave. Branch and bound
    on b: an interval [l, r] is pruned when below t lies the smaller of k's
    tangent at the midpoint plus s's chord (largest at an end) and k's
    largest value plus s's larger end. False when a midpoint reaches t, an
    interval cannot be split again, or a step exceeds _BIAS_MAX.
    """
    if not (abs(d0) <= _BIAS_MAX and abs(d1) <= _BIAS_MAX):
        return False
    wa, wb = 2.0 * lam, 2.0 * (1.0 - lam)

    def s(b):
        return _wsp(wa, -(1.0 - b) * d0 - b * d1)

    z = d1 / wb if wb else math.copysign(math.inf, d1)
    peak = 1.0 / (1.0 + 2.0**-z) if z >= 0.0 else 2.0**z / (1.0 + 2.0**z)  # where k' = 0
    intervals = [(0.0, 1.0, s(0.0), s(1.0), 0)]
    while intervals:
        l, r, sl, sr, depth = intervals.pop()
        m = 0.5 * (l + r)
        if not (depth <= _MAX_DEPTH and l < m < r):
            return False
        km = wb * _h(m) + m * d1
        slope = wb * math.log2((1.0 - m) / m) + d1
        c = min(max(peak, l), r)
        tangent = km + max(slope * (l - m) + sl, slope * (r - m) + sr)
        if min(tangent, wb * _h(c) + c * d1 + max(sl, sr)) < t:
            continue
        sm = s(m)
        if not km + sm < t:
            return False
        intervals += (l, m, sl, sm, depth + 1), (m, r, sm, sr, depth + 1)
    return True


def _inner_settled(units: int, lam: float):
    """settled(x, f) for _search of the inner objective: whether Odoni's
    bound proves that no policy's objective reaches f + 1e-9 - 1e-12.

    For any bias g, every stationary policy's objective is at most
    max over u and over state u's symbol law of its reward plus the expected
    change of g. x's own chain gives g: its bias steps
    g(u+1) - g(u) = sum_{k<=u} pi[k]*(rho - r[k]) / (pi[u]*up[u]), with the
    equal tail sum -sum_{k>u} from U/2 on. Any g gives a valid bound, so the
    float steps need no care; the 1e-12 covers the float error of f and of
    the bound. Never raises: a step that is not finite, or a division by a
    weight that underflowed to 0, gives False.
    """
    _, _, cell, _, value, _ = _inner_problem(units, lam)

    def settled(x, f):
        t = f + 1e-9 - 1e-12
        columns = list(zip(*(cell(x, u) for u in range(units + 1))))
        sums, w, _ = _cell_sums(columns)
        rho = value(sums)
        gaps = [wk * (rho - value(r)) for wk, *r in zip(w, columns[3], columns[4])]
        heads = list(accumulate(gaps))
        tails = list(accumulate(reversed(gaps)))[::-1]
        try:
            steps = [
                (heads[u] if 2 * u < units else -tails[u + 1]) / (w[u] * columns[1][u])
                for u in range(units)
            ]
        except ZeroDivisionError:
            return False
        return (
            _wsp(2.0 * (1.0 - lam), steps[0]) < t
            and _wsp(2.0 * lam, -steps[-1]) < t
            and all(_state_below(d0, d1, lam, t) for d0, d1 in zip(steps, steps[1:]))
        )

    return settled


def optimize_sum_rate(
    units: int,
    lam: float = 0.5,
    search: SearchConfig | None = None,
) -> OptimizationResult:
    """Best policy found for the weighted objective 2*(lam*R1 + (1-lam)*R2).

    Multi-start coordinate ascent as described in the module docstring;
    always returns the best policy found, deterministic given
    search.seed. The search stops after the first winning start whose
    objective Odoni's bound proves within 1e-9 of the global optimum, since
    no later start could then replace it; the result is bit for bit that of
    running all search.restarts starts, and restarts_used counts the starts
    that ran.
    """
    config = _checked_search(units, lam, search)
    nfree = 2 * units
    grid = [[g] * nfree for g in GRID_SEEDS[: config.restarts]]
    v, best_f, ran = _search(
        grid,
        lambda r: r.uniform(0.1, 0.9, nfree),
        _inner_problem(units, lam),
        config,
        _inner_settled(units, lam),
    )
    p1, p2 = [0.0, *v[:units]], [0.0, *v[units:]]
    r1, r2, pi = _rates_updown(p1, p2)
    return OptimizationResult(
        policy=MarginalPolicy(p1=p1, p2=p2),
        rates=RatePair(r1=r1, r2=r2),
        stationary=np.array(pi),
        objective=best_f,
        restarts_used=ran,
    )


def region_sweep(
    units: int,
    lams,
    search: SearchConfig | None = None,
) -> list[OptimizationResult]:
    """One weighted optimization per lam, returned sorted by lam.

    The sweep explores weighted objectives only; no claim is made that
    it traces the full region boundary.
    """
    lams = list(lams)
    if not lams:
        raise ValueError("need at least one weight")
    return [optimize_sum_rate(units, lam, search) for lam in sorted(lams)]
