import contextlib
import math
from collections import Counter
from typing import NamedTuple, Optional
from unittest import mock

import numpy as np

from twoway_energy import JointSymbolDist, MarginalPolicy, Transcript, chain, search


def random_policy(rng, units: int, lo: float = 0.05, hi: float = 0.95) -> MarginalPolicy:
    """Random interior policy (irreducible chain guaranteed)."""
    p1 = np.concatenate(([0.0], rng.uniform(lo, hi, units)))
    p2 = np.concatenate(([0.0], rng.uniform(lo, hi, units)))
    return MarginalPolicy(p1=p1, p2=p2)


def capped_start(problem, start):
    """The point search._search runs a start from: each entry clipped into
    [CLAMP, 1 - CLAMP], then each coordinate in turn capped at the upper end
    of its line search's range, 1 - (its siblings' sum) - CLAMP, but not
    below CLAMP."""
    clamp = search.CLAMP
    x = [min(max(float(v), clamp), 1.0 - clamp) for v in start]
    for i, sib in enumerate(problem.siblings):
        x[i] = min(x[i], max(clamp, 1.0 - sum(x[s] for s in sib) - clamp))
    return x


def changed_cells(problem, change):
    """problem with each cell that its lines build (line(x, i)(v), for a
    start's chain or a line search's probe) replaced by change(y, u, cell)
    for the vector y it was built from."""

    def line(x, i):
        at, u, y = problem.line(x, i), problem.states[i], list(x)

        def cell_at(v):
            y[i] = v
            return change(y, u, at(v))

        return cell_at

    return problem._replace(line=line)


class _Cell(tuple):
    """A cell that keeps the vector x it was built from and its state u."""


@contextlib.contextmanager
def search_log(problem=None, sizes=()):
    """Record every search run in the block: yields (log, problem').

    search._line_form, search._golden_max and search._weights are wrapped,
    and each call goes through to the library. log gets, in call order:
    - ("form", u, form): a line form of state u, None where it fails closed;
    - ("line", u, form, err): a line search (_golden_max) of the latest
      form's state u, with that form and the err of its O(1) probes;
    - ("price", how, cell, price, summed): a probe of a line search, priced
      by its form (how "O(1)") or by exact(cell) ("exact"); exact() of a
      comparison ("compare"); or a value _search takes from a law itself, a
      start's or a line search's midpoint's ("search", for problem' alone);
    - ("solve", summed): a chain solve.
    summed lists the lengths of the lists the library folded (sizes, as
    library_sum yields them): a solve's during it, a price's since its cell
    was built, or since the latest solve or price where that came later.
    problem' is problem with each cell its lines build tagged, through
    changed_cells, with the vector x it was built from and its state u
    (cell.x, cell.u), and with value recording the search's prices. The
    recorder asserts that a line search prices every probe it builds
    before it builds the next."""
    log = []
    mark = 0  # len(sizes) at the latest cell, solve or price
    state = latest = pending = None  # the latest form's state, cell built and unpriced probe
    in_line = False
    real_form, real_golden, real_weights = search._line_form, search._golden_max, search._weights

    def priced(how, cell, val):
        nonlocal mark
        log.append(("price", how, cell, val, list(sizes[mark:])))
        mark = len(sizes)
        return val

    def form(cols, w, u):
        nonlocal state
        state, made = u, real_form(cols, w, u)
        log.append(("form", u, made))
        return made

    def golden(at, form, err, exact, value, hi):
        nonlocal in_line
        log.append(("line", state, form, err))

        def probe(v):
            nonlocal mark, pending
            assert pending is None  # the last probe was priced
            pending, mark = at(v), len(sizes)
            return pending

        def by_form(*sums):  # _golden_max calls value only to price a probe by its form
            nonlocal pending
            cell, pending = pending, None
            return priced("O(1)", cell, value(*sums))

        def by_exact(cell):
            nonlocal pending
            val = exact(cell)
            if cell is not pending:
                return priced("compare", cell, val)
            pending = None
            return priced("exact", cell, val)

        in_line = True
        try:
            x = real_golden(probe, form, err, by_exact, by_form, hi)
        finally:
            in_line = False
        assert pending is None
        return x

    def weights(*args):
        nonlocal mark
        mark = len(sizes)
        solve = real_weights(*args)
        log.append(("solve", list(sizes[mark:])))
        mark = len(sizes)
        return solve

    def tagged(x, u, cell):
        nonlocal latest, mark
        latest = cell = _Cell(cell)
        cell.x, cell.u, mark = list(x), u, len(sizes)
        return cell

    def value(*sums):
        val = problem.value(*sums)
        return val if in_line else priced("search", latest, val)

    recorded = None if problem is None else changed_cells(problem, tagged)._replace(value=value)
    with contextlib.ExitStack() as patches:
        for name, fn in (("_line_form", form), ("_golden_max", golden), ("_weights", weights)):
            # patch.object raises where search has no such name, so a patch cannot miss
            patches.enter_context(mock.patch.object(search, name, fn))
        yield log, recorded


def tally(log):
    """A search log's events by kind, each price by how it was priced."""
    return Counter(event[1] if event[0] == "price" else event[0] for event in log)


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


# -- per-use time-sharing schedule ---------------------------------------------


def reference_timeshare_syms(b1, b2):
    """The verbatim time-sharing schedule built one use at a time:
    (the holder's symbol stream, the handover count).

    The unit holder sends its next pending bit; once it has none, a "0"
    the other node has pending goes out free, and a "1" it has pending
    needs the unit back first, which takes a non-information "1". A "1"
    hands the unit over. optimal_timeshare_sim builds the same stream from
    each bit's round.
    """
    pend = {1: np.asarray(b1).tolist(), 2: np.asarray(b2).tolist()}
    ptr = {1: 0, 2: 0}
    m = len(pend[1])
    syms = []
    handovers = 0
    u = 1  # node 1's energy: node 1 holds the unit iff u == 1
    while ptr[1] < m or ptr[2] < m:
        holder, other = (1, 2) if u == 1 else (2, 1)
        if ptr[holder] < m:
            sym = pend[holder][ptr[holder]]
            ptr[holder] += 1
        elif pend[other][ptr[other]] == 0:
            ptr[other] += 1
            sym = 0
        else:
            # counterpart needs energy for its "1": return the unit first
            sym = 1
            handovers += 1
        syms.append(sym)
        u ^= sym  # a "1" hands the unit over
    return syms, handovers


# -- recording trial walk ------------------------------------------------------


def reference_trial_walk(books, messages, seed: int = 0):
    """The trial walk with every channel use recorded: (Transcript, visits).

    The symbol-by-symbol form of run_trial's walk: each use reads both
    nodes' symbols from the state's words, or from the time-indexed pads
    once a word is exhausted. It draws all 2n pads, node 1's n first;
    run_trial skips in the same stream the pads of the uses it walks on the
    move lists alone, so every use sees the same pads. Its visits divided
    by the blocklength are run_trial's occupancy exactly, and its
    transcript is the one run_trial walks without keeping.
    """
    units = books.units
    n = books.blocklength
    rng = np.random.default_rng(seed)

    sent = {key: books.codeword(*key, m).tolist() for key, m in messages.items()}
    prob = {key: book.p for key, book in books.levels.items()}
    # (node, 0) has no book: a node without energy gets an empty word and
    # q = 0.0, and since pads lie in [0, 1) it always sends 0
    keys1 = [(1, state) for state in range(units + 1)]
    keys2 = [(2, units - state) for state in range(units + 1)]
    word1 = [sent.get(key, []) for key in keys1]
    word2 = [sent.get(key, []) for key in keys2]
    q1 = [prob.get(key, 0.0) for key in keys1]
    q2 = [prob.get(key, 0.0) for key in keys2]

    pad1 = rng.random(n)
    pad2 = rng.random(n)
    states, xs1, xs2 = [], [], []
    visits = [0] * (units + 1)
    u = (units + 1) // 2
    for i in range(n):
        k = visits[u]
        visits[u] = k + 1
        states.append(u)
        w = word1[u]
        a = w[k] if k < len(w) else (1 if pad1[i] < q1[u] else 0)
        w = word2[u]
        b = w[k] if k < len(w) else (1 if pad2[i] < q2[u] else 0)
        xs1.append(a)
        xs2.append(b)
        u = u - a + b

    transcript = Transcript(
        units=units,
        states=np.array(states, dtype=np.int16),
        x1=np.array(xs1, dtype=np.uint8),
        x2=np.array(xs2, dtype=np.uint8),
    )
    return transcript, visits


# -- conditional-entropy oracle ------------------------------------------------


class JointFactorization(NamedTuple):
    """Marginals and conditionals of a JointSymbolDist.

    p_x1 / p_x2 are the marginal probabilities of sending "1".
    p_x1_given_x2[b] is P(x1=1 | x2=b); None marks a conditional on a
    zero-probability symbol, which is undefined. Wherever such a
    conditional appears in a weighted entropy sum its weight is the zero
    marginal, so the term contributes nothing.
    """

    p_x1: float
    p_x2: float
    p_x1_given_x2: tuple[Optional[float], Optional[float]]
    p_x2_given_x1: tuple[Optional[float], Optional[float]]


def marginals_and_conditionals(d: JointSymbolDist) -> JointFactorization:
    """Factor a joint symbol distribution into marginals and conditionals."""
    p_x1 = d.p10 + d.p11
    p_x2 = d.p01 + d.p11
    px2 = (d.p00 + d.p10, p_x2)  # P(x2=0), P(x2=1)
    px1 = (d.p00 + d.p01, p_x1)
    ones_given_x2 = (d.p10, d.p11)  # P(x1=1, x2=b)
    ones_given_x1 = (d.p01, d.p11)
    c1 = tuple(
        ones_given_x2[b] / px2[b] if px2[b] > 0.0 else None for b in (0, 1)
    )
    c2 = tuple(
        ones_given_x1[a] / px1[a] if px1[a] > 0.0 else None for a in (0, 1)
    )
    return JointFactorization(p_x1, p_x2, c1, c2)


# -- the builtin sum of CPython 3.12 -------------------------------------------


def compensated_sum(iterable, start=0):
    """sum() as CPython 3.12 computes it: floats are added with Neumaier's
    compensation, so compensated_sum([0.1] * 10) == 1.0; any other item is
    added plainly after the compensation is folded in."""
    total, c = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            if c and math.isfinite(c):
                total, c = total + c, 0.0
            total = total + x
    if c and math.isfinite(c):
        total += c
    return total


@contextlib.contextmanager
def library_sum(fn):
    """Run the library with fn as its fold: fn in place of the hook
    chain._fold, the one name of every float sum that sets a bit of a bound,
    which chain alone binds. Yields the lengths of the lists summed, one per
    call and in call order, so that a test can check that the code did sum
    with fn: a sum that bypassed the hook (a builtin sum, or the hook bound
    in another module) would escape the swap."""
    sizes = []

    def counted(iterable, start=0):
        items = list(iterable)
        sizes.append(len(items))
        return fn(items, start)

    fold, chain._fold = chain._fold, counted
    try:
        yield sizes
    finally:
        chain._fold = fold
