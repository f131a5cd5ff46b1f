"""Achievable rate pairs of independent per-level codebooks, and their
maximization over transmission policies.

A marginal policy achieves R1 = sum_u pi[u] H(p1[u]) and
R2 = sum_u pi[u] H(p2[units-u]) where pi is the stationary law of the
induced energy chain. The weighted objective 2*(lam*R1 + (1-lam)*R2)
reduces to the plain sum-rate at lam = 0.5. The chain and the rewards
are built from one cell per state u, (down move, up move, *rewards) =
(a(1-b), (1-a)b, H(a), H(b)) at a = p1[u], b = p2[units-u].

The objective is smooth but nonconvex in the 2*units free probabilities, so
the maximizer runs the multi-start coordinate ascent that the outer bound
shares (see `search`, which also holds CLAMP and SearchConfig), from
constant grid seeds plus random restarts.

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
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .chain import MarginalPolicy
from .entropy import _h
from .search import SearchConfig, _cell_sums, _checked_search, _Problem, _search

__all__ = ["OptimizationResult", "RatePair", "optimize_sum_rate", "rates_for_policy", "region_sweep"]

GRID_SEEDS = (0.5, 0.2, 0.35, 0.65, 0.8)
# The inner certificate proves a state's bound only for bias steps up to this
# size in magnitude, where its float error stays below 1e-12, and splits an
# interval of b at most this many times.
_BIAS_MAX = 256.0
_MAX_DEPTH = 60


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
    return a * (1.0 - b), (1.0 - a) * b, _h(a), _h(b)


def _inner_columns(p1, p2):
    """Cell columns (down, up, H(p1), H(p2)) of the chain of
    policy lists with the forced zeros at index 0."""
    return list(zip(*(_inner_cell(a, b) for a, b in zip(p1, p2[::-1]))))  # p2[e] acts in state units-e


def _rates_updown(p1, p2):
    """(r1, r2, pi) for policy lists with the forced zeros at index 0."""
    (r1, r2), _, pi = _cell_sums(_inner_columns(p1, p2))
    return r1, r2, pi


def rates_for_policy(policy: MarginalPolicy) -> RatePair:
    """Achievable rate pair of a policy; raises NotIrreducibleError when
    the induced chain cannot visit every state."""
    r1, r2, _ = _rates_updown(policy.p1.tolist(), policy.p2.tolist())
    return RatePair(r1=r1, r2=r2)


def _inner_problem(units: int, lam: float) -> _Problem:
    """The inner objective of x = (p1[1:], p2[1:]) for _search."""

    # _inner_cell's floats, with the fixed symbol's entropy and complement
    # formed once per line
    def line(x, i):
        if i < units:  # p1[i + 1], in state i + 1
            b = x[2 * units - 2 - i] if i + 1 < units else 0.0
            hb, nb = _h(b), 1.0 - b
            return lambda v: (v * nb, (1.0 - v) * b, _h(v), hb)
        a = x[2 * units - 2 - i] if i + 1 < 2 * units else 0.0  # p2[i + 1 - units], in state 2U - 1 - i
        ha, na = _h(a), 1.0 - a
        return lambda v: (a * (1.0 - v), na * v, ha, _h(v))

    def value(s0, s1):
        return 2.0 * (lam * s0 + (1.0 - lam) * s1)

    states = [*range(1, units + 1), *range(units - 1, -1, -1)]
    return _Problem(((),) * len(states), states, line, value, 2.0)


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
    value = _inner_problem(units, lam).value

    def settled(x, f):
        t = f + 1e-9 - 1e-12
        columns = _inner_columns([0.0, *x[:units]], [0.0, *x[units:]])
        sums, w, _ = _cell_sums(columns)
        rho = value(*sums)
        gaps = [wk * (rho - value(r1, r2)) for wk, r1, r2 in zip(w, columns[2], columns[3])]
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
