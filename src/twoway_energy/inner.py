"""Achievable rate pairs of independent per-level codebooks, and their
maximization over transmission policies.

A marginal policy achieves R1 = sum_u pi[u] H(p1[u]) and
R2 = sum_u pi[u] H(p2[units-u]) where pi is the stationary law of the
induced energy chain. The weighted objective 2*(lam*R1 + (1-lam)*R2)
reduces to the plain sum-rate at lam = 0.5. The chain and the rewards
are built from one cell per state u, (down move, up move, feasible,
*rewards) = (a(1-b), (1-a)b, True, H(a), H(b)) at a = p1[u], b = p2[units-u].

The objective is smooth but nonconvex in the 2*units free
probabilities, so the maximizer runs multi-start coordinate ascent
(`_search`, which the outer bound shares): constant grid seeds plus
random restarts, each refined by coordinate-wise golden-section search
on [CLAMP, 1-CLAMP]. A coordinate enters one state's cell (`states`),
so a probe recomputes that cell alone, checks only its two moves and
reuses the accepted chain's detailed-balance weights of the states below
it, and a line search's last probe is the accepted chain when it gains;
the cells carry only the reward columns that `value` reads, and
`value` maps the chain's sums of them to the objective. The clamp keeps
every policy strictly interior, hence the chain irreducible; the
boundary of the rate region is approached but never evaluated at
degenerate policies. Restarts are independent and the reduction (max by
objective, first within 1e-9 wins) is deterministic given the seed.

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
from itertools import accumulate, repeat
from operator import mul, truediv

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
    """([sum_k pi[k] * col[k] for each reward column], weights, total) of the
    chain with cell columns (down, up, feasible, *rewards), where
    pi = weights / total is its stationary law and each sum is one sum() over
    the whole column; w is an optional prefix of the chain's unscaled
    detailed-balance weights, and u the one state whose moves are not yet
    checked (see _weights)."""
    w, total = _weights(columns[0], columns[1], w or [1.0], u)
    return [sum(map(mul, map(truediv, w, repeat(total)), col)) for col in columns[3:]], w, total


def _rates_updown(p1, p2):
    """(r1, r2, pi) for policy lists with the forced zeros at index 0."""
    cells = [_inner_cell(a, b) for a, b in zip(p1, p2[::-1])]  # p2[e] acts in state units-e
    (r1, r2), w, total = _cell_sums(list(zip(*cells)))
    return r1, r2, [x / total for x in w]


def rates_for_policy(policy: MarginalPolicy) -> RatePair:
    """Achievable rate pair of a policy; raises NotIrreducibleError when
    the induced chain cannot visit every state."""
    r1, r2, _ = _rates_updown(policy.p1.tolist(), policy.p2.tolist())
    return RatePair(r1=r1, r2=r2)


def _golden_max(f, lo: float, hi: float) -> float:
    """Midpoint of the last bracket of golden-section maximization of a
    unimodal-ish f on [lo, hi]; f is not called there."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > _GOLDEN_XTOL:
        if fc > fd:
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


def _search(fixed, draw, siblings, states, cell, value, config: SearchConfig, settled=None):
    """Best (x, f, starts run) of multi-start coordinate ascent of a chain
    objective.

    f(x) is value(sums) of the chain whose state u has cell(x, u), or -inf
    while a cell is infeasible. Coordinate i enters only state u =
    states[i]'s cell: a probe writes that cell into the restart's cached
    columns, checks only its two moves (the others were checked when their
    states were probed, or at the start's one full solve, and a probe that
    makes one impossible raises the NotIrreducibleError a full solve would),
    goes on from the accepted chain's unscaled weights of states 0..u-1, or
    of as many as precede its first overflow, and sums the whole chain, so
    it returns the float a full evaluation would. A line search ends with a
    probe of the midpoint of its last bracket. If that gains, the probed
    chain is the accepted one: its cell stays in the columns and its weights
    are the ones later probes go on from. Otherwise the accepted cell is
    written back. The starts are `fixed`,
    then draw(rng) until config.restarts, clipped into [CLAMP, 1-CLAMP].
    Coordinate i ranges over [CLAMP, 1 - sum(x[siblings[i]]) - CLAMP], is
    skipped while that range is no longer than the line search's
    tolerance, and is refined by golden-section search; an ascent stops
    when a full sweep gains < config.tol. A later start wins only by more
    than 1e-9. Whenever a start wins, settled(x, f) may prove that no later
    start can beat f by more than 1e-9; then the search stops there, and
    returns what running every start would. Raises ValueError when every
    start ends at -inf.
    """
    rng = np.random.default_rng(config.seed)
    starts = list(fixed)
    while len(starts) < config.restarts:
        starts.append(draw(rng))
    best_x, best_f = None, -math.inf
    for ran, start in enumerate(starts, 1):
        x = [min(max(float(v), CLAMP), 1.0 - CLAMP) for v in start]
        cols = [list(col) for col in zip(*(cell(x, u) for u in range(max(states) + 1)))]
        probed = [1.0]  # the weight list of the latest solve, which _weights extends in place
        sums = _cell_sums(cols, probed)[0]
        w = probed  # the accepted chain's unscaled weights, up to the first that overflows
        bad = cols[2].count(False)
        f = -math.inf if bad else value(sums)

        def probe(v):
            """f with x[i] = v, which enters state u's cell only; leaves
            that cell in cols, and w[:u] extended to the probed chain in
            `probed`."""
            nonlocal probed
            old, x[i] = x[i], v
            c = cell(x, u)
            x[i] = old
            if base - c[2]:
                return -math.inf
            for col, r in zip(cols, c):
                col[u] = r
            probed = w[: u or 1]  # w[0] = 1 at u = 0
            return value(_cell_sums(cols, probed, u)[0])

        for _ in range(_MAX_SWEEPS):
            gained = 0.0
            for i, (sib, u) in enumerate(zip(siblings, states)):
                hi = 1.0 - sum(x[s] for s in sib) - CLAMP
                if hi - CLAMP <= _GOLDEN_XTOL:
                    continue
                kept = [col[u] for col in cols]  # the accepted cell
                base = bad + kept[2]  # minus c[2]: infeasible cells with c in place
                xi = _golden_max(probe, CLAMP, hi)
                fi = probe(xi)
                if fi > f:  # the probed chain is accepted; fi is finite, so no cell is infeasible
                    gained += fi - f
                    x[i], f, w, bad = xi, fi, probed, 0
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


def _inner_problem(units: int, lam: float):
    """(siblings, states, cell, value) of the inner objective of x = (p1[1:], p2[1:])."""

    def cell(x, u):
        return _inner_cell(x[u - 1] if u else 0.0, x[2 * units - 1 - u] if u < units else 0.0)

    states = [*range(1, units + 1), *range(units - 1, -1, -1)]
    return ((),) * len(states), states, cell, lambda s: 2.0 * (lam * s[0] + (1.0 - lam) * s[1])


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
    _, _, cell, value = _inner_problem(units, lam)

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
        *_inner_problem(units, lam),
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
