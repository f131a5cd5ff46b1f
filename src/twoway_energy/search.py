"""The multi-start coordinate-ascent search that both bounds share.

A search problem (`_Problem`) is a chain objective over a vector x of free
probabilities. Each coordinate enters one state's cell (`states`), a cell
being (down move, up move, *rewards), and `value` takes the chain's
sums of the reward columns as its one or two arguments and returns the
objective; the cells carry only the reward columns that `value` reads.
Cells are built through one function per line search, `line(x, i)`,
which gives the floats of the problem's one cell formula and computes what
the line's fixed entries give once, so that probes neither write nor
reread x; a start builds its cells through the same lines, at one
coordinate of each state.

The objective is smooth but nonconvex, so the search runs from fixed
starts plus random restarts, each refined by coordinate-wise
golden-section search (`_golden_max`). Coordinate i's line search ranges
over [CLAMP, 1 - (its siblings' sum) - CLAMP], so that every entry of its
state's simplex, the remainder (an outer state's p00) too, stays at least
CLAMP, and each start is brought into that region before its ascent: every
point the search evaluates lies in it. A line search
on coordinate i of state u keeps every other cell fixed. `_golden_max`
builds each probe's cell and prices it itself, one of two ways.
- exact(cell), an exact probe (err 0), writes its cell into the cached
  columns. If its moves are the accepted cell's, it sums its rewards
  against the accepted chain's stationary law, the one law the search
  keeps; else `_weights` checks only its two moves (the others were
  checked at their states' probes or the start's one full solve; one made
  impossible raises a full solve's NotIrreducibleError) and solves on from
  the accepted chain's unscaled weights of states 0..u-1, or of as many as
  precede the first overflow, and the new law is summed the same way.
  Either way it returns a full evaluation's float.
- An O(1) probe is priced by the state's `_line_form`. While the line
  search moves u's cell, the chain splits into three blocks: the accepted
  weights of the states below u, u's own weight, and the states above u,
  whose weights are u's weight times its up move times products of fixed
  moves. `_line_form` sums the two fixed blocks once per state, and
  `_golden_max` holds its scalars as locals, so the probe costs its cell
  plus straight-line arithmetic, with its one or two reward columns
  written out and passed to value as scalars. Its price is that form's
  value with err, a bound on its distance from the exact probe's float:
  one constant per line, unless the probe's own rewards are larger than
  every fixed state's.
Golden-section search only compares probes: by the values where their gap
exceeds both errs (a floating-point filter, as in Shewchuk's adaptive
predicates), as equal where the cells are equal, and otherwise after
making a side exact. So the search takes the path, and returns the bits,
of one that solves the chain at every probe. Every float sum that can set
one of those bits (a law's total, a reward sum, a line form's sums) is
`chain._fold`. A line search ends with an exact probe of the midpoint of
its last bracket. If that gains, the probed chain is the accepted one: its
cell stays in the columns and its weights and law are the ones later
probes go on from. Otherwise the accepted cell is written back. The
region keeps every policy strictly interior, hence the chain irreducible;
the boundary of the rate region is approached but never evaluated at
degenerate policies. Restarts are independent and the reduction (max by
objective, first within 1e-9 wins) is deterministic given the seed.

The err bound. Let n = U + 1 states, eps = 2^-53 and
g_m = m*eps/(1 - m*eps), and let S_j be the real reward sums of the chain
whose weights are the accepted prefix, the float w_u that both kinds of
probe compute, and the real recursion above u, with law pi. The exact
solve rounds a weight above u at most 2n times, the total n times more,
each pi[k] twice more and each product once more, and its column sum adds
n (also a bound for the compensated sum of CPython 3.12): it is within
g_6n * A_j of S_j, where A_j = sum_k pi[k] * |r_jk|. The O(1) form rounds
each suffix product at most 2n times and its sums n times more; a probe
adds 4 roundings to the total and the numerators, and one division: it is
within g_(6n+9) * A_j of S_j. With value's contract (see _search), two
values of sums within g_(12n+9) * A_j lie within
(L * (12n + 9) + 16 * (L - 1)) * eps * sum_j A_j of each other, up to
terms in eps^2. As pi sums to 1, sum_j A_j = sum_k pi[k] * a_k is at most
a, the largest a_k = sum_j |r_jk| over the probed chain's states. A probe
computes each a_k with at most one rounding (it has one or two reward
columns), takes a as the max of the fixed states' (amax, once per form)
and its own a_u, and bounds its distance by
err = k * a + tiny with k = L * (U + 2) * 2^-49 = 16L(n + 1) * eps,
rounded twice; a comparison adds two errs with one rounding more. k
exceeds the constant above by (4n + 7) * eps at L = 1 and (8n - 2) * eps
at L = 2, which covers those four relative roundings of eps and the eps^2
terms for every n >= 2 (and U < 2^28, far beyond memory). So every probe
whose a_u is at most amax has the same err, k * amax + tiny. tiny =
(U + 3) * 2^-160 covers underflow: the form is used only while every
weight, suffix product and total lies in [2^-900, 2^900] and every
|reward| is at most 2^900, so an underflowed pi[k], product or division
costs at most about 2^-174 each. Where any of this cannot be shown (see
_line_form), or the probe's own moves are not positive, the probe is
exact.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import add, mul
from typing import NamedTuple

import numpy as np

from .chain import _count, _fold, _weights

_GOLDEN_XTOL = 1e-6
_MAX_SWEEPS = 200
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Both optimizers keep every free probability in [CLAMP, 1 - CLAMP].
CLAMP = 1e-6
# A line search prices a probe by its O(1) form (_line_form) only while every
# weight, product and total of the form and of the probed chain's exact solve
# lies in [_TINY, _HUGE], so that none overflows or underflows.
_TINY = 2.0**-900
_HUGE = 2.0**900


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


def _cell_sums(columns, w=None):
    """([sum_k pi[k] * col[k] for each reward column], weights, pi) of the
    chain with cell columns (down, up, *rewards), where pi, the
    weights over their sum, is its stationary law and each sum is one _fold
    over the whole column; w is an optional prefix of the chain's unscaled
    detailed-balance weights, which _weights extends in place."""
    w, total = _weights(columns[0], columns[1], w or [1.0])
    pi = [x / total for x in w]
    return [_fold(map(mul, pi, col)) for col in columns[2:]], w, pi


def _line_form(cols, w, u):
    """The chain of cell columns cols (down, up, *rewards) as an
    O(1) function of state u's cell, every other cell fixed, for _search:
    (lead, P, G, smin, smax, amax, [(P_r, G_r) per reward column]), or None
    where the form is not certified.

    The weights are the accepted prefix w[:u], state u's
    w_u = lead / down_u with lead = w[u-1] * up[u-1] (the float the exact
    solve computes; w_u = 1 at u = 0), and s * g_k above u, with
    s = w_u * up_u and g_k = prod_{u<j<k} up_j / prod_{u<j<=k} down_j. So
    the total is T = P + (w_u + s*G) and each reward sum is
    (P_r + (w_u*r_u + s*G_r)) / T, where P and P_r sum w_k and w_k*r_k over
    the prefix, and G and G_r sum g_k and g_k*r_k over the suffix. amax is
    the largest a_k = sum over columns of |r_k| of the fixed states; with
    the probed state's own a_u it bounds every sum_j sum_k pi[k]*|r_jk|,
    as pi sums to 1. The value of those sums lies within err,
    k*max(amax, a_u) + tiny (see the module docstring), of the value of the
    exact solve's sums. None when the prefix was rescaled (len(w) < u), a
    prefix weight, a g_k or a partial product of their recursion lies
    outside [_TINY, _HUGE], or an a_k, P or G lies above _HUGE; a probe is
    priced exactly unless smin <= s <= smax, T <= _HUGE and a_u <= _HUGE,
    which keep every weight and partial product of the exact solve in that
    range.
    """
    down, up, *rewards = cols
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
    total, suffix, amax = _fold(pre), _fold(g), max(absr)
    if not (
        (not pre or _TINY <= min(pre) and max(pre) <= _HUGE)
        and _TINY <= low
        and high <= _HUGE
        and amax <= _HUGE
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
        amax,
        [(_fold(map(mul, pre, col)), _fold(map(mul, g, col[u + 1 :]))) for col in rewards],
    )


def _golden_max(at, form, exact, value, lo: float, hi: float) -> float:
    """Midpoint of the last bracket of golden-section maximization of a
    unimodal-ish objective along the line at on [lo, hi]; nothing is
    priced there. The bracket is tested against _GOLDEN_XTOL before each
    probe, so every probe priced is read by a comparison.

    A probe at v is the cell at(v) and its price. With the state's line
    form, form = (u, k, tiny, *_line_form(...)) for the line's state u and
    the search's err constants, a probe that passes the form's checks is
    priced in O(1) by value of the form's sums, with err k * max(amax, a_u)
    + tiny (see the module docstring); any other probe, and every probe when
    form is None, is priced by exact(cell), with err 0. The bracket's two
    probes are held as scalars, and the form's as locals. Each comparison
    of the bracket is the one of exact values: it is decided from the
    values when their gap exceeds both errors (float rounding is monotone,
    so a gap computed above the computed error sum is above the real one);
    as a tie when both probes have the same cell (their chains, and so
    their exact values, are the same); otherwise exact() prices the side
    with the larger error, until the gap is decided or both sides are
    exact.
    """
    if form:
        u, k, tiny, lead, total, suffix, smin, smax, amax, terms = form
        kmax = k * amax + tiny  # the err of a probe whose a_u is at most amax
        p0, g0 = terms[0]
        p1, g1 = terms[-1]
        two = len(terms) == 2
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    v, left, cd = c, True, None  # v is the point to price, c if left; d's cell once priced
    while b - a > _GOLDEN_XTOL:
        cell = at(v)
        err = 0.0
        if form and (cell[0] > 0.0 or not u):
            wu = lead / cell[0] if u else 1.0
            s = wu * cell[1]
            t = total + (wu + s * suffix)
            if t <= _HUGE and smin <= s <= smax:
                r = cell[2]
                if two:
                    q = cell[3]
                    au = abs(r) + abs(q)
                    if au <= _HUGE:
                        val = value((p0 + (wu * r + s * g0)) / t, (p1 + (wu * q + s * g1)) / t)
                        err = kmax if au <= amax else k * au + tiny
                else:
                    au = abs(r)
                    if au <= _HUGE:
                        val = value((p0 + (wu * r + s * g0)) / t)
                        err = kmax if au <= amax else k * au + tiny
        if not err:
            val = exact(cell)
        if left:
            vc, ec, cc = val, err, cell
            if cd is None:  # the first probe; d is the second
                v, left = d, False
                continue
        else:
            vd, ed, cd = val, err, cell
        gap = vc - vd
        if not abs(gap) > ec + ed:
            if cc == cd:
                gap = 0.0
            else:
                while (ec or ed) and not abs(vc - vd) > ec + ed:
                    if ec and not ed > ec:
                        vc, ec = exact(cc), 0.0
                    else:
                        vd, ed = exact(cd), 0.0
                gap = vc - vd
        if gap > 0.0:  # vc > vd
            b, d, vd, ed, cd = d, c, vc, ec, cc
            v = c = b - _INVPHI * (b - a)
            left = True
        else:
            a, c, vc, ec, cc = c, d, vd, ed, cd
            v = d = a + _INVPHI * (b - a)
            left = False
    return 0.5 * (a + b)


def _checked_search(units: int, lam: float, search: SearchConfig | None) -> SearchConfig:
    """The search config to use, after checking units and lam."""
    _count(units, "units")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0,1]")
    return search or SearchConfig()


class _Problem(NamedTuple):
    """A chain objective for _search over a vector x of free entries, in
    which every state 0..max(states) has a coordinate."""

    siblings: Sequence  # per coordinate, the other entries of its state's simplex
    states: Sequence  # per coordinate, the one state whose cell it enters
    line: Callable  # line(x, i)(v): the cell (down, up, *rewards) of states[i], x[i] = v
    value: Callable  # value(*sums): the objective of the chain's one or two reward sums
    contract: float  # value's constant L in _search's contract


def _search(fixed, draw, problem: _Problem, config: SearchConfig, settled=None):
    """Best (x, f, starts run) of multi-start coordinate ascent of a chain
    objective, by the mechanism of the module docstring.

    f(x) is value(*sums) of the chain whose state u has the cell
    line(x, i)(x[i]) of any coordinate i of u, which carries one or two
    reward columns, so value takes one or two sums. value must meet
    this contract, with its constant L = problem.contract, on which the
    O(1) probes' error bound relies:
    |value(s) - value(s')| <= L * sum_j |s_j - s'_j|, up to
    (L - 1) * 2^-50 * sum_j (|s_j| + |s'_j|) of rounding (none at L = 1:
    value must be exact there). The outer sum bound's identity meets it
    with L = 1; the inner objective (weights 2*lam and 2*(1-lam)) and the
    outer weighted one (after max(., 0)) with L = 2.

    The starts are `fixed`, then draw(rng) until config.restarts, each
    drawn only when its turn comes. Coordinate
    i ranges over [CLAMP, 1 - sum(x[siblings[i]]) - CLAMP], is skipped while
    that range is no longer than the line search's tolerance, and is refined
    by golden-section search: _golden_max of its line, its state's line form
    (built when the state is first searched in a sweep), exact and value,
    then exact() of the midpoint it returns. An ascent stops when a full
    sweep gains < config.tol. A start is clipped into [CLAMP, 1-CLAMP],
    then each coordinate in turn is capped at the upper end of its range
    (at least CLAMP): a state with k entries then has its first j sum to
    at most 1 - (k - j + 1) * CLAMP, so its remainder is at least CLAMP up
    to rounding, and a start already in the region is left as it is. A
    later start wins only by more than 1e-9. Whenever a start wins, settled(x, f)
    may prove that no later start can beat f by more than 1e-9; then the
    search stops there, and returns what running every start would.
    """
    siblings, states, line, value, contract = problem
    fixed = list(fixed)
    rng = np.random.default_rng(config.seed)
    drawn = (draw(rng) for _ in range(config.restarts - len(fixed)))  # each when its turn comes
    top = max(states)
    one = dict(zip(states, range(len(states))))  # per state, one coordinate that enters its cell
    k = contract * (top + 2) * 2.0**-49
    tiny = (top + 3) * 2.0**-160
    best_x, best_f = None, -math.inf
    for ran, start in enumerate(itertools.chain(fixed, drawn), 1):
        x = [min(max(float(v), CLAMP), 1.0 - CLAMP) for v in start]
        for i, sib in enumerate(siblings):
            x[i] = min(x[i], max(CLAMP, 1.0 - sum(map(x.__getitem__, sib)) - CLAMP))
        cols = [list(col) for col in zip(*(line(x, one[u])(x[one[u]]) for u in range(top + 1)))]
        two = len(cols) == 4
        down, up, r0 = cols[:3]
        r1 = cols[3] if two else None
        probed = [1.0]  # the latest exact probe's weight list, which _weights extends in place
        sums, _, pi = _cell_sums(cols, probed)
        w, law = probed, pi  # the accepted chain: unscaled weights up to the first overflow, law
        f = value(*sums)

        def exact(c):
            """f of cell c's chain: summed against the accepted chain's law
            if c's moves are the accepted cell's (kept), else against the law
            _weights solves on from the accepted prefix; leaves c in cols,
            the chain's unscaled weights (w[:u] extended in place, or w) in
            `probed` and its law in `pi`."""
            nonlocal probed, pi
            down[u], up[u], r0[u] = c[0], c[1], c[2]
            if two:
                r1[u] = c[3]
            if c[0] == kept[0] and c[1] == kept[1]:
                probed, pi = w, law
            else:
                probed = w[: u or 1]  # w[0] = 1 at u = 0
                scaled, total = _weights(down, up, probed, u)  # probed keeps the unscaled weights
                pi = [v / total for v in scaled]
            if two:
                return value(_fold(map(mul, pi, r0)), _fold(map(mul, pi, r1)))
            return value(_fold(map(mul, pi, r0)))

        for _ in range(_MAX_SWEEPS):
            gained = 0.0
            for i, (sib, u) in enumerate(zip(siblings, states)):
                if not i or states[i - 1] != u:  # a move accepted at u leaves the form as it is
                    form = _line_form(cols, w, u)
                    if form:
                        form = (u, k, tiny, *form)  # as _golden_max takes it
                hi = 1.0 - sum(map(x.__getitem__, sib)) - CLAMP
                if hi - CLAMP <= _GOLDEN_XTOL:
                    continue
                at = line(x, i)
                kept = (down[u], up[u], r0[u], r1[u]) if two else (down[u], up[u], r0[u])  # the accepted cell
                xi = _golden_max(at, form, exact, value, CLAMP, hi)
                fi = exact(at(xi))
                if fi > f:  # the probed chain is accepted
                    gained += fi - f
                    x[i], f, w, law = xi, fi, probed, pi
                else:
                    for col, r in zip(cols, kept):
                        col[u] = r
            if gained < config.tol:
                break
        if f > best_f + 1e-9:
            best_x, best_f = x, f
            if settled is not None and settled(x, f):
                break
    return best_x, best_f, ran
