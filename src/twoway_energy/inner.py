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
on [CLAMP, 1-CLAMP]; a coordinate enters one state's cell (`states`),
so a probe recomputes that cell alone and `value` maps the chain's
reward sums to the objective. The clamp keeps every policy strictly
interior, hence the chain irreducible; the boundary of the rate region
is approached but never evaluated at degenerate policies. Restarts are
independent and the reduction (max by objective, first within 1e-9
wins) is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .chain import MarginalPolicy, _stationary_updown
from .entropy import _h

GRID_SEEDS = (0.5, 0.2, 0.35, 0.65, 0.8)
_GOLDEN_XTOL = 1e-6
_MAX_SWEEPS = 200
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Both optimizers keep every free probability in [CLAMP, 1 - CLAMP].
CLAMP = 1e-6


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
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


@dataclass(frozen=True)
class OptimizationResult:
    policy: MarginalPolicy
    rates: RatePair
    stationary: np.ndarray
    objective: float
    restarts_used: int


def _inner_cell(a, b):
    """Cell of a state where node 1 sends "1" w.p. a and node 2 w.p. b."""
    return a * (1.0 - b), (1.0 - a) * b, True, _h(a), _h(b)


def _cell_sums(columns):
    """(pi, [sum_u pi[u] * col[u] for each reward column]) of the chain with
    cell columns (down, up, feasible, *rewards), each sum taken left to
    right over the states."""
    pi = _stationary_updown(columns[1][:-1], columns[0][1:])
    return pi, [sum(map(mul, pi, col)) for col in columns[3:]]


def _rates_updown(p1, p2):
    """(r1, r2, pi) for policy lists with the forced zeros at index 0."""
    cells = [_inner_cell(a, b) for a, b in zip(p1, p2[::-1])]  # p2[e] acts in state units-e
    pi, (r1, r2) = _cell_sums(list(zip(*cells)))
    return r1, r2, pi


def rates_for_policy(policy: MarginalPolicy) -> RatePair:
    """Achievable rate pair of a policy; raises NotIrreducibleError when
    the induced chain cannot visit every state."""
    r1, r2, _ = _rates_updown(policy.p1.tolist(), policy.p2.tolist())
    return RatePair(r1=r1, r2=r2)


def _golden_max(f, lo: float, hi: float):
    """Golden-section maximization of a unimodal-ish f on [lo, hi]."""
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
    x = 0.5 * (a + b)
    return x, f(x)


def _checked_search(units: int, lam: float, search: SearchConfig | None) -> SearchConfig:
    """The search config to use, after checking units and lam."""
    if units < 1:
        raise ValueError("units must be >= 1")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0,1]")
    return search or SearchConfig()


def _search(fixed, draw, siblings, states, cell, value, config: SearchConfig):
    """Best (x, f) of multi-start coordinate ascent of a chain objective.

    f(x) is value(sums) of the chain whose state u has cell(x, u), or -inf
    while a cell is infeasible. Coordinate i enters only state states[i]'s
    cell: a probe splices that cell into the restart's cached columns,
    sums the chain and restores the old cell, so it returns the float a
    full evaluation would. The starts are `fixed`, then draw(rng) until
    config.restarts, clipped into [CLAMP, 1-CLAMP]. Coordinate i ranges over
    [CLAMP, 1 - sum(x[siblings[i]]) - CLAMP], is skipped while that range
    is no longer than the line search's tolerance, and is refined by
    golden-section search; an ascent stops when a full sweep gains
    < config.tol. A later start wins only by more than 1e-9. Raises
    ValueError when every start ends at -inf.
    """
    rng = np.random.default_rng(config.seed)
    starts = list(fixed)
    while len(starts) < config.restarts:
        starts.append(draw(rng))
    best_x, best_f = None, -math.inf
    for start in starts:
        x = [min(max(float(v), CLAMP), 1.0 - CLAMP) for v in start]
        cells = [cell(x, u) for u in range(max(states) + 1)]
        cols = [list(col) for col in zip(*cells)]

        def put(u, c):
            for col, r in zip(cols, c):
                col[u] = r

        def objective():
            return -math.inf if False in cols[2] else value(_cell_sums(cols)[1])

        def probe(i, u, v):
            old, x[i] = x[i], v
            put(u, cell(x, u))
            x[i] = old
            val = objective()
            put(u, cells[u])
            return val

        f = objective()
        for _ in range(_MAX_SWEEPS):
            gained = 0.0
            for i, (sib, u) in enumerate(zip(siblings, states)):
                hi = 1.0 - sum(x[s] for s in sib) - CLAMP
                if hi - CLAMP <= _GOLDEN_XTOL:
                    continue
                xi, fi = _golden_max(lambda v, i=i, u=u: probe(i, u, v), CLAMP, hi)
                if fi > f:
                    gained += fi - f
                    x[i] = xi
                    f = fi
                    cells[u] = cell(x, u)
                    put(u, cells[u])
            if gained < config.tol:
                break
        if f > best_f + 1e-9:
            best_x, best_f = x, f
    if best_x is None:
        raise ValueError(f"no search start reached a feasible point ({len(starts)} tried)")
    return best_x, best_f


def _inner_problem(units: int, lam: float):
    """(siblings, states, cell, value) of the inner objective of x = (p1[1:], p2[1:])."""

    def cell(x, u):
        return _inner_cell(x[u - 1] if u else 0.0, x[2 * units - 1 - u] if u < units else 0.0)

    states = [*range(1, units + 1), *range(units - 1, -1, -1)]
    return ((),) * len(states), states, cell, lambda s: 2.0 * (lam * s[0] + (1.0 - lam) * s[1])


def optimize_sum_rate(
    units: int,
    lam: float = 0.5,
    search: SearchConfig | None = None,
) -> OptimizationResult:
    """Best policy found for the weighted objective 2*(lam*R1 + (1-lam)*R2).

    Multi-start coordinate ascent as described in the module docstring;
    always returns the best policy found, deterministic given
    search.seed.
    """
    config = _checked_search(units, lam, search)
    nfree = 2 * units
    grid = [[g] * nfree for g in GRID_SEEDS[: config.restarts]]
    v, best_f = _search(grid, lambda r: r.uniform(0.1, 0.9, nfree), *_inner_problem(units, lam), config)
    p1, p2 = [0.0, *v[:units]], [0.0, *v[units:]]
    r1, r2, pi = _rates_updown(p1, p2)
    return OptimizationResult(
        policy=MarginalPolicy(p1=p1, p2=p2),
        rates=RatePair(r1=r1, r2=r2),
        stationary=np.array(pi),
        objective=best_f,
        restarts_used=config.restarts,
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
