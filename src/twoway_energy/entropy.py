"""Exact probability and entropy helpers for binary symbol pairs.

Everything here is a pure function on small immutable values: Bernoulli
parameters and joint distributions over the four outcomes of a symbol
pair (x1, x2). Entropies are in bits, with the usual convention
0*log2(0) = 0. No smoothing is applied inside entropy computations;
clamping away from degenerate probabilities is the optimizers' job.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

__all__ = ["JointSymbolDist", "binary_entropy", "joint_entropy", "joint_from_marginals"]

_NORM_TOL = 1e-12


def _h(p: float) -> float:
    """Unchecked entropy of a Bern(p) symbol in bits; 0 outside (0,1)."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * log2(p) + (1.0 - p) * log2(1.0 - p))


def _entropy(p00: float, p01: float, p10: float, p11: float) -> float:
    """Unchecked Shannon entropy in bits of the four probabilities of a
    symbol pair, with terms in that order; a p <= 0 adds nothing. Search
    probes price it through its line form, _joint_line."""
    h = 0.0
    for p in (p00, p01, p10, p11):
        if p > 0.0:
            h -= p * log2(p)
    return h


def _term(p: float) -> float:
    """p * log2(p), the term _entropy subtracts for p, or 0.0 where p <= 0."""
    return p * log2(p) if p > 0.0 else 0.0


def _joint_line(p01: float, p10: float, p11: float, slot: int):
    """The sum bound's cell along a line: the function of v that returns
    (p10, p01, _entropy(p00, p01, p10, p11)) with the entry at slot (1, 2 or
    3: p01, p10 or p11) set to v and p00 the remainder
    ((1 - p01) - p10) - p11, bit for bit. The fixed entries' terms, and the
    part of the remainder that they give, are computed once; the four terms
    are subtracted in _entropy's order under its p > 0 rule, a fixed p <= 0
    as 0.0 (x - 0.0 is x). A line computes only the two fixed terms it
    subtracts."""
    if slot == 1:
        t10, t11 = _term(p10), _term(p11)

        def line(v):
            p00 = ((1.0 - v) - p10) - p11
            h = 0.0 - p00 * log2(p00) if p00 > 0.0 else 0.0
            if v > 0.0:
                h -= v * log2(v)
            return p10, v, (h - t10) - t11

    elif slot == 2:
        t01, t11 = _term(p01), _term(p11)
        rest = 1.0 - p01

        def line(v):
            p00 = (rest - v) - p11
            h = (0.0 - p00 * log2(p00) if p00 > 0.0 else 0.0) - t01
            if v > 0.0:
                h -= v * log2(v)
            return v, p01, h - t11

    else:
        t01, t10 = _term(p01), _term(p10)
        rest = (1.0 - p01) - p10

        def line(v):
            p00 = rest - v
            h = ((0.0 - p00 * log2(p00) if p00 > 0.0 else 0.0) - t01) - t10
            if v > 0.0:
                h -= v * log2(v)
            return p10, p01, h

    return line


def binary_entropy(p: float) -> float:
    """Entropy of a Bern(p) symbol in bits; raises ValueError outside [0,1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Bernoulli parameter must lie in [0,1], got {p}")
    return _h(p)


@dataclass(frozen=True)
class JointSymbolDist:
    """Distribution of one symbol pair: outcomes (0,0), (0,1), (1,0), (1,1).

    p_ab is the probability that node 1 sends a and node 2 sends b.
    Entries must be nonnegative and sum to 1 within 1e-12.
    """

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        probs = (self.p00, self.p01, self.p10, self.p11)
        if not all(p >= 0.0 for p in probs):
            raise ValueError(f"negative or NaN probability in {probs}")
        total = sum(probs)
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p00, self.p01, self.p10, self.p11)


def joint_entropy(d: JointSymbolDist) -> float:
    """Shannon entropy of the symbol pair in bits."""
    return _entropy(d.p00, d.p01, d.p10, d.p11)


def joint_from_marginals(p1: float, p2: float) -> JointSymbolDist:
    """Product distribution of independent Bern(p1) and Bern(p2) symbols."""
    for p in (p1, p2):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"Bernoulli parameter must lie in [0,1], got {p}")
    return JointSymbolDist(
        p00=(1.0 - p1) * (1.0 - p2),
        p01=(1.0 - p1) * p2,
        p10=p1 * (1.0 - p2),
        p11=p1 * p2,
    )
