import numpy as np

from twoway_energy import MarginalPolicy


def random_policy(rng, units: int, lo: float = 0.05, hi: float = 0.95) -> MarginalPolicy:
    """Random interior policy (irreducible chain guaranteed)."""
    p1 = np.concatenate(([0.0], rng.uniform(lo, hi, units)))
    p2 = np.concatenate(([0.0], rng.uniform(lo, hi, units)))
    return MarginalPolicy(p1=p1, p2=p2)


def stationary_linear_oracle(matrix: np.ndarray) -> np.ndarray:
    """Stationary law via least squares on (Q^T - I) pi = 0, sum(pi) = 1.

    Independent of the closed-form detailed-balance solver under test.
    """
    n = matrix.shape[0]
    a = np.vstack([matrix.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    return sol


def expected_handovers(bits1, bits2) -> int:
    """Independent count of the extra unit-return uses the verbatim
    schedule needs: the transcript's one-symbols must strictly alternate
    starting at node 1, so node 1 must emit max(k2-k1, 0) extra ones and
    node 2 max(k1-k2-1, 0), where kj is node j's information one-count."""
    k1, k2 = int(np.sum(bits1)), int(np.sum(bits2))
    return max(k2 - k1, 0) + max(k1 - k2 - 1, 0)
