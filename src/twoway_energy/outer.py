"""Outer bounds on the rate region from per-state joint symbol
distributions consistent with the stationary energy chain.

Relaxing the independent-codebook restriction, the nodes may correlate
their symbols within each state u through a joint distribution. Any
achievable pair then satisfies

    r1 <= sum_u pi[u] * sum_b P(x2=b|u) H(P(x1=1|x2=b,u))
    r2 <= the symmetric expression in x1
    r1 + r2 <= sum_u pi[u] H(joint at u)

where pi is the stationary law of the chain whose up/down moves are the
(0,1)/(1,0) masses of the same joints. Treating pi as a function of the
joints eliminates the balance condition, so the feasible set is a
product of per-state simplices and local search is well-posed.

The sum-rate maximizer seeds itself with the best product-form policy
(a quick run of the inner optimizer) besides the usual grid and random
restarts; ascent can only improve, which keeps the outer value above
the inner one by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, starmap

import numpy as np

from .chain import MarginalPolicy, _count, uniform_policy
from .entropy import JointSymbolDist, _entropy, _h, _joint_line
from .inner import optimize_sum_rate, rates_for_policy
from .search import SearchConfig, _cell_sums, _checked_search, _Problem, _search

__all__ = [
    "JointStatePolicy", "OuterBoundValues", "SweepRow", "optimize_outer_sum", "optimize_outer_weighted",
    "outer_values", "sweep_details",
]


@dataclass(frozen=True)
class JointStatePolicy:
    """One joint symbol distribution per energy state 0..units.

    The boundary states carry forced zeros: node 1 cannot send "1" in
    state 0 and node 2 cannot send "1" in state units.
    """

    dists: tuple[JointSymbolDist, ...]

    def __post_init__(self):
        dists = tuple(self.dists)
        if len(dists) < 2:
            raise ValueError("need at least one energy unit (>= 2 states)")
        for d in dists:
            if not isinstance(d, JointSymbolDist):
                raise ValueError(
                    f"each state's dist must be a JointSymbolDist, got {type(d).__name__}"
                )
        lo, hi = dists[0], dists[-1]
        if lo.p10 != 0.0 or lo.p11 != 0.0:
            raise ValueError("state 0: node 1 has no energy, its '1' mass must be 0")
        if hi.p01 != 0.0 or hi.p11 != 0.0:
            raise ValueError(f"state {len(dists) - 1}: node 2 has no energy, its '1' mass must be 0")
        object.__setattr__(self, "dists", dists)

    @property
    def units(self) -> int:
        return len(self.dists) - 1

    def state_dist(self, u: int) -> JointSymbolDist:
        return self.dists[u]

    @classmethod
    def from_marginal(cls, policy: MarginalPolicy) -> "JointStatePolicy":
        """Product-form joints of an independent-symbol policy."""
        return cls(dists=tuple(policy.state_dist(u) for u in range(policy.units + 1)))


@dataclass(frozen=True)
class OuterBoundValues:
    """The three bound expressions evaluated at one policy.

    The three are separate inequalities; in particular sum_bound is not
    constrained by r1_bound + r2_bound.
    """

    r1_bound: float
    r2_bound: float
    sum_bound: float
    stationary: np.ndarray


def _outer_cell(p00, p01, p10, p11):
    """Cell (down, up, r1, r2, h) of a state with joint (p00, p01, p10, p11):
    moves p10 and p01, rewards H(X1,X2) - H(X2) and H(X1,X2) - H(X1), and
    the joint entropy h = H(X1,X2) that the sum bound reads."""
    h = _entropy(p00, p01, p10, p11)
    return p10, p01, h - _h(p01 + p11), h - _h(p10 + p11), h


def _outer_terms(dists):
    """(r1, r2, sum, pi) from raw (p00, p01, p10, p11) sequences; rounding
    can leave a zero bound just below 0."""
    (r1, r2, total), _, pi = _cell_sums(list(zip(*starmap(_outer_cell, dists))))
    return max(r1, 0.0), max(r2, 0.0), total, pi


def outer_values(policy: JointStatePolicy) -> OuterBoundValues:
    """Evaluate the three bound expressions at one joint-state policy.

    Raises NotIrreducibleError when the induced chain is reducible
    (e.g. a state that never moves)."""
    raw = [d.as_tuple() for d in policy.dists]
    r1, r2, total, pi = _outer_terms(raw)
    return OuterBoundValues(
        r1_bound=r1, r2_bound=r2, sum_bound=total, stationary=np.array(pi)
    )


# -- maximization over joint-state policies ---------------------------------
#
# The search vector lists each state's free entries in turn; the (0,0)
# mass absorbs the remainder. The search keeps every entry, the (0,0) mass
# too, >= CLAMP so the chain stays irreducible and entropies smooth.


def _free_slots(units: int):
    """Per state, the indices into (p00, p01, p10, p11) of its free
    entries: p01 at state 0, p10 at state units, p01, p10 and p11 between."""
    return [(1,)] + [(1, 2, 3)] * (units - 1) + [(2,)]


def _dist(x, k, free):
    """The joint of a state whose free entries start at x[k]."""
    d = [1.0, 0.0, 0.0, 0.0]
    for s, v in zip(free, x[k : k + len(free)]):
        d[s] = v
        d[0] -= v
    return d


def _unpack(x, slots):
    return [_dist(x, k, free) for k, free in zip(accumulate(map(len, slots), initial=0), slots)]


def _pack(policy: JointStatePolicy, slots):
    return [d.as_tuple()[s] for d, free in zip(policy.dists, slots) for s in free]


def _sum_value(s):
    """The sum bound's objective: its one reward sum, exactly."""
    return s


def _outer_problem(units, lam=None) -> _Problem:
    """The sum bound, or 2*(lam*r1 + (1-lam)*r2) when lam is given, over
    the search vector of _free_slots(units), for _search; a cell carries
    only the reward columns its objective reads, and siblings are the
    other entries of a state."""
    slots = _free_slots(units)
    at = list(accumulate(map(len, slots), initial=0))
    states = [u for u, free in enumerate(slots) for _ in free]
    siblings = [tuple(j for j in range(at[u], at[u + 1]) if j != i) for i, u in enumerate(states)]
    rates = lam is not None

    searched = [s for free in slots for s in free]  # per coordinate, its slot in (p00, p01, p10, p11)

    # A line reads its state's other entries straight from x in _free_slots'
    # layout (an end state's are its forced zeros, which subtract exactly);
    # the sum bound's line is the joint line form, (down, up, H(X1,X2)) with
    # p00 the remainder in _dist's order, so the floats are _dist's. The
    # weighted cell subtracts the two marginals' entropies from that joint
    # entropy, as _outer_cell does.
    def line(x, i):
        u = states[i]
        p01, p10, p11 = x[at[u] : at[u] + 3] if 0 < u < units else (0.0, 0.0, 0.0)
        slot = searched[i]
        joint = _joint_line(p01, p10, p11, slot)
        if not rates:
            return joint
        if slot == 3:

            def cell(v):
                down, up, e = joint(v)
                return down, up, e - _h(up + v), e - _h(down + v)

        else:

            def cell(v):
                down, up, e = joint(v)
                return down, up, e - _h(up + p11), e - _h(down + p11)

        return cell

    if not rates:
        return _Problem(siblings, states, line, _sum_value, 1.0)

    def value(s0, s1):
        return 2.0 * (lam * max(s0, 0.0) + (1.0 - lam) * max(s1, 0.0))

    return _Problem(siblings, states, line, value, 2.0)


def _optimize_outer(units, lam, search, seed_policies):
    """Multi-start ascent of the sum bound (lam None) or of the weighted
    rate bound. Starts: every seed policy (by default a quick inner optimum
    at lam, or 0.5), however many search.restarts asks for; then the uniform
    product policy and random ones fill up to search.restarts. The search
    brings each start into its region (every entry, p00 too, at least CLAMP)
    rather than dropping it."""
    inner_lam = 0.5 if lam is None else lam
    config = _checked_search(units, inner_lam, search)
    seeds = list(seed_policies)
    for sp in seeds:
        if not isinstance(sp, JointStatePolicy):
            raise ValueError(f"seed policy must be a JointStatePolicy, got {type(sp).__name__}")
        if sp.units != units:
            raise ValueError(f"seed policy has {sp.units} units, expected {units}")
    if not seeds:
        quick = SearchConfig(
            restarts=max(2, config.restarts // 8), tol=config.tol, seed=config.seed + 1
        )
        seeds.append(JointStatePolicy.from_marginal(optimize_sum_rate(units, inner_lam, quick).policy))
    slots = _free_slots(units)
    fixed = [_pack(sp, slots) for sp in seeds]
    if len(fixed) < config.restarts:
        fixed.append(_pack(JointStatePolicy.from_marginal(uniform_policy(units)), slots))

    def draw(rng):
        vals = []
        for free in slots:
            if len(free) == 1:
                vals.append(rng.uniform(0.1, 0.9))
            else:
                vals.extend(rng.dirichlet((1.0,) * (len(free) + 1))[1:])
        return vals

    best_x, _, _ = _search(fixed, draw, _outer_problem(units, lam), config)
    dists = [JointSymbolDist(*d) for d in _unpack(best_x, slots)]
    policy = JointStatePolicy(dists=tuple(dists))
    return policy, outer_values(policy)


def optimize_outer_sum(
    units: int,
    search: SearchConfig | None = None,
    seed_policies=(),
) -> tuple[JointStatePolicy, OuterBoundValues]:
    """Maximize the joint-entropy sum-rate bound over joint-state policies.

    seed_policies are extra starting points (e.g. a previously optimized
    product policy); when none are given a quick inner optimization
    supplies one, so the returned bound dominates the best product
    policy it can find. Every seed policy runs, even beyond
    search.restarts; the uniform product policy and random starts fill up
    to search.restarts. A seed with an entry, or a (0,0) mass, below the
    search's CLAMP is capped into its region and runs from there; no seed
    is dropped.
    """
    return _optimize_outer(units, None, search, seed_policies)


def optimize_outer_weighted(
    units: int,
    lam: float = 0.5,
    search: SearchConfig | None = None,
    seed_policies=(),
) -> tuple[JointStatePolicy, OuterBoundValues]:
    """Maximize 2*(lam*r1_bound + (1-lam)*r2_bound) over joint-state
    policies, from starts as in optimize_outer_sum (seeds capped into the
    search's region, not dropped)."""
    return _optimize_outer(units, lam, search, seed_policies)


@dataclass(frozen=True)
class SweepRow:
    """One line of the bounds-versus-units comparison."""

    units: int
    sum_conventional: float
    sum_optimized: float
    sum_outer: float


def sweep_details(u_max: int, search: SearchConfig):
    """Fair-coin, optimized inner and outer sum rates for U = 1..u_max,
    plus the inner optimization results (which seed the outer ascent)."""
    rows = []
    inner_results = []
    for units in range(1, _count(u_max, "u_max") + 1):
        conventional = rates_for_policy(uniform_policy(units)).total
        inner = optimize_sum_rate(units, 0.5, search)
        _, outer_vals = optimize_outer_sum(
            units, search, seed_policies=[JointStatePolicy.from_marginal(inner.policy)]
        )
        rows.append(
            SweepRow(
                units=units,
                sum_conventional=conventional,
                sum_optimized=inner.objective,
                sum_outer=outer_vals.sum_bound,
            )
        )
        inner_results.append(inner)
    return rows, inner_results
