"""Energy-state birth-death chain induced by a transmission policy.

The channel state u counts the energy units held by node 1; node 2
holds the remaining units - u. One channel use moves the state by at
most one step: the pair (x1,x2)=(1,0) spends a unit at node 1 (down),
(0,1) transfers one to node 1 (up), and (0,0)/(1,1) leave the state
unchanged. A node with no energy is forced to send "0", which pins the
boundary behaviour of the chain.

All construction and solving is exact and O(units); the Monte Carlo
walk in simulate_chain is the independent check on the closed-form
stationary solution. Everything is pure given its inputs, and the
simulator owns a private RNG per call, so concurrent use is safe.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .entropy import JointSymbolDist, joint_from_marginals

_ROW_TOL = 1e-12
# Exact power of two, applied only where the unscaled detailed-balance
# product would overflow, so every pi that was finite without it is kept.
_RESCALE = 2.0 ** -1000
# The one name of every float sum that sets a bit of a bound or a pinned work
# count (here and in search), so that their fold is defined once and a test
# can swap it. An alias, not a wrapper: it adds no call.
_fold = sum


class NotIrreducibleError(ValueError):
    """The chain cannot visit every state from every state."""


def _count(value, name: str, low: int = 1) -> int:
    """value as an int >= low (numpy ints too); a ValueError naming it otherwise."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}") from None
    if count < low:
        raise ValueError(f"{name} must be >= {low}, got {count}")
    return count


@dataclass(frozen=True)
class MarginalPolicy:
    """Per-node probability of sending "1", indexed by that node's own energy.

    p1[e] applies to node 1 when it holds e units, p2[e] to node 2 when
    it holds e units (which happens in channel state units - e). Both
    arrays have length units + 1 and must start with a forced zero,
    since a node without energy cannot send "1".
    """

    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        p1 = np.asarray(self.p1, dtype=float)
        p2 = np.asarray(self.p2, dtype=float)
        if p1.ndim != 1 or p1.shape != p2.shape:
            raise ValueError("p1 and p2 must be 1-d arrays of equal length")
        if len(p1) < 2:
            raise ValueError("need at least one energy unit (arrays of length >= 2)")
        for name, arr in (("p1", p1), ("p2", p2)):
            if not np.all((arr >= 0.0) & (arr <= 1.0)):
                raise ValueError(f"{name} entries must lie in [0,1]")
            if arr[0] != 0.0:
                raise ValueError(f"{name}[0] must be 0: a node with no energy sends '0'")
        p1.flags.writeable = False
        p2.flags.writeable = False
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)

    @property
    def units(self) -> int:
        return len(self.p1) - 1

    def state_dist(self, u: int) -> JointSymbolDist:
        """Joint symbol distribution in state u (node 2 holds units - u)."""
        return joint_from_marginals(float(self.p1[u]), float(self.p2[self.units - u]))


def uniform_policy(units: int, p: float = 0.5) -> MarginalPolicy:
    """Both nodes send "1" with the same probability p at every positive level."""
    arr = np.full(_count(units, "units") + 1, p, dtype=float)
    arr[0] = 0.0
    return MarginalPolicy(p1=arr, p2=arr.copy())


@dataclass(frozen=True)
class TransitionKernel:
    """Birth-death kernel over states 0..units, stored as its move vectors.

    up[u] = q(u, u+1) and down[u] = q(u+1, u) for u = 0..units-1; the
    rest of each state's mass is its self-loop, so every representable
    kernel is tridiagonal and row-stochastic.
    """

    up: tuple[float, ...]
    down: tuple[float, ...]

    def __post_init__(self):
        up = tuple(map(float, self.up))
        down = tuple(map(float, self.down))
        if len(up) != len(down) or not up:
            raise ValueError("up and down must have equal length >= 1 (one entry per unit)")
        if not all(0.0 <= p <= 1.0 for p in up + down):
            raise ValueError("move probabilities must lie in [0,1]")
        for u, (d, r) in enumerate(zip((0.0, *down), (*up, 0.0))):
            if d + r > 1.0 + _ROW_TOL:
                raise ValueError(f"state {u}: move probabilities exceed 1")
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)

    @property
    def units(self) -> int:
        return len(self.up)

    @property
    def matrix(self) -> np.ndarray:
        """Dense (units+1)x(units+1) view, for the demos and tests; it takes
        O(units^2) memory, so the CLI prints the move vectors instead."""
        stay = np.maximum(0.0, 1.0 - np.append(0.0, self.down) - np.append(self.up, 0.0))
        q = np.diag(stay)
        i = np.arange(self.units)
        q[i, i + 1] = self.up
        q[i + 1, i] = self.down
        return q


def build_kernel(policy) -> TransitionKernel:
    """Transition kernel of the chain driven by a policy.

    Accepts any policy exposing units and state_dist(u): both
    MarginalPolicy (independent symbols) and the per-state joint
    policies used by the outer bound. In state u the down-move
    probability is the (1,0) mass and the up-move the (0,1) mass; the
    policies' forced zeros at the boundary states make infeasible moves
    impossible.
    """
    dists = [policy.state_dist(u) for u in range(policy.units + 1)]
    return TransitionKernel(
        up=tuple(d.p01 for d in dists[:-1]), down=tuple(d.p10 for d in dists[1:])
    )


def _weights(downs, ups, w, u=None):
    """(weights, their sum) of the detailed-balance recursion
    w[k] = w[k-1] * ups[k-1] / downs[k] over states 0..len(downs)-1, where
    downs[k] = q(k, k-1) and ups[k] = q(k, k+1) are state k's moves
    (downs[0] and ups[len(downs)-1] are not read).

    w holds the weights of the first states and is extended in place. While
    a weight, and then the sum, overflows, the whole list is rescaled by
    _RESCALE into a new list, so w itself keeps the unscaled weights up to
    the first that overflows. The moves are checked first: those of state
    u alone, the one cell new to an already checked chain, or every state's
    when u is None. The first impossible up move is named, else the first
    impossible down move.
    """
    top = len(downs) - 1
    if u is None:
        unreachable = min(ups[:top]) <= 0.0 or min(downs[1:]) <= 0.0
    else:
        unreachable = (u < top and ups[u] <= 0.0) or (u > 0 and downs[u] <= 0.0)
    if unreachable:
        states = range(top + 1) if u is None else (u,)
        k = next((k for k in states if k < top and ups[k] <= 0.0), None)
        if k is not None:
            raise NotIrreducibleError(f"state {k} cannot reach state {k + 1} (up-move probability is 0)")
        k = next(k for k in states if k > 0 and downs[k] <= 0.0)
        raise NotIrreducibleError(f"state {k} cannot reach state {k - 1} (down-move probability is 0)")
    x = w[-1]
    for k in range(len(w), len(downs)):
        x = x * ups[k - 1] / downs[k]
        while x == math.inf:
            w = [v * _RESCALE for v in w]
            x = w[-1] * ups[k - 1] / downs[k]
        w.append(x)
    total = _fold(w)
    if total == math.inf:
        w = [v * _RESCALE for v in w]
        total = _fold(w)
    return w, total


def stationary(kernel: TransitionKernel) -> np.ndarray:
    """Unique stationary distribution of an irreducible birth-death kernel.

    Solved in closed form by the detailed-balance recursion
    pi[u+1] = pi[u] * q(u,u+1) / q(u+1,u), then normalized; the running
    product is rescaled by powers of two instead of overflowing. Raises
    NotIrreducibleError naming the first unreachable boundary when some
    adjacent move has probability zero.
    """
    w, total = _weights((0.0, *kernel.down), kernel.up, [1.0])
    return np.array([x / total for x in w])


def simulate_chain(
    kernel: TransitionKernel,
    steps: int,
    initial_state: int = 0,
    seed: int = 0,
) -> np.ndarray:
    """Empirical occupancy of each state over a simulated walk.

    Counts the state at each of `steps` channel uses, starting from
    initial_state. Deterministic given seed; this is the ergodic-theorem
    oracle for stationary().
    """
    units = kernel.units
    steps = _count(steps, "steps")
    u = _count(initial_state, "initial_state", low=0)
    if u > units:
        raise ValueError(f"initial_state must lie in [0,{units}]")
    down = (0.0, *kernel.down)
    up_edge = [d + r for d, r in zip(down, (*kernel.up, 0.0))]
    rng = np.random.default_rng(_count(seed, "seed", low=0))
    visits = [0] * (units + 1)
    remaining = steps
    while remaining > 0:
        block = min(remaining, 1 << 16)
        for r in rng.random(block).tolist():
            visits[u] += 1
            if r < down[u]:
                u -= 1
            elif r < up_edge[u]:
                u += 1
        remaining -= block
    return np.array(visits, dtype=float) / steps
