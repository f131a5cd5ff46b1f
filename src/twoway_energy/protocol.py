"""Executable communication strategies for the energy-exchange channel.

Two families live here. The single-unit (units = 1) schemes are small
deterministic protocols: fixed-frame position coding, the variable-
length prefix code {1 -> "1", 0 -> "01"}, and verbatim time sharing
driven by possession of the unit. The general scheme is the random-
coding construction: one codebook per node per energy level, i.i.d.
Bern(p) codewords, multiplexed over channel uses according to the
realized state sequence, with random padding after a codeword is
exhausted so the state chain stays time-invariant.

Codebooks are never materialized: a level holds ~2^(length * rate)
codewords, so the set stores the exact bit count log2(K) and draws any
single codeword on demand from a seed derived from (set seed, node,
level, message). Collision checking against the other K-1 codewords of
a level compares the transmitted codeword with a would-be alternative:
the probability that at least one alternative equals it is computed
exactly in log space from the codeword's composition and sampled as one
Bernoulli event. Decoding failures are outcome data, never faults.

Trials are independent given distinct seeds; per-trial state is
private, so fanning trials out to parallel workers is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import MarginalPolicy, build_kernel, stationary
from .entropy import binary_entropy


class MarginExhaustedError(ValueError):
    """A state's stationary mass does not exceed the occupancy margin."""


# -- transcripts -------------------------------------------------------------


@dataclass(frozen=True)
class Transcript:
    """Per-channel-use record of one protocol run.

    states[i] is the energy at node 1 before use i; x1[i], x2[i] are the
    transmitted symbols. The channel is noiseless: node 1 receives x2
    and node 2 receives x1.
    """

    units: int
    states: np.ndarray
    x1: np.ndarray
    x2: np.ndarray

    @property
    def length(self) -> int:
        return len(self.states)

    def to_lines(self) -> list[str]:
        """One line per channel use: "i u x1 x2" with 1-based i."""
        return [
            f"{i + 1} {u} {a} {b}"
            for i, (u, a, b) in enumerate(
                zip(self.states.tolist(), self.x1.tolist(), self.x2.tolist())
            )
        ]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")


def _transcript(units, states, x1, x2) -> Transcript:
    return Transcript(
        units=units,
        states=np.array(states, dtype=np.int16),
        x1=np.array(x1, dtype=np.uint8),
        x2=np.array(x2, dtype=np.uint8),
    )


def validate_transcript(t: Transcript) -> None:
    """Check energy feasibility and state evolution at every step.

    A symbol "1" requires the sender to hold at least one unit, and the
    next state must equal u - x1 + x2. Raises ValueError on the first
    violation.
    """
    u = int(t.states[0])
    for i in range(t.length):
        if int(t.states[i]) != u:
            raise ValueError(f"use {i + 1}: recorded state {t.states[i]} != evolved state {u}")
        a, b = int(t.x1[i]), int(t.x2[i])
        if a == 1 and u < 1:
            raise ValueError(f"use {i + 1}: node 1 sends '1' without energy")
        if b == 1 and t.units - u < 1:
            raise ValueError(f"use {i + 1}: node 2 sends '1' without energy")
        u = u - a + b


# -- single-unit strategies --------------------------------------------------


def naive_frame_rate(frame_size: int) -> float:
    """Sum rate of position coding in frames of frame_size = 2^b uses.

    The unit holder spends its one "1" in one of the frame's uses,
    conveying log2(frame_size) bits and handing the unit over.
    """
    f = frame_size
    if f < 2 or (f & (f - 1)) != 0:
        raise ValueError(f"frame size must be a power of two >= 2, got {frame_size}")
    return math.log2(f) / f


@dataclass(frozen=True)
class U1SimResult:
    """Outcome of a single-unit strategy run."""

    transcript: Transcript
    sum_rate: float
    sent_bits1: np.ndarray
    sent_bits2: np.ndarray
    decoded_bits1: np.ndarray
    decoded_bits2: np.ndarray
    handover_uses: int = 0


def _as_bits(bits, m, rng):
    if bits is None:
        return (rng.random(m) < 0.5).astype(np.uint8)
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or np.any(arr > 1):
        raise ValueError("bits must be a 1-d 0/1 array")
    return arr


def variable_length_sim(m: int, seed: int = 0, bits1=None, bits2=None) -> U1SimResult:
    """Variable-length code on one energy unit: bit 1 -> "1", bit 0 -> "01".

    The nodes alternate bit-by-bit starting with node 1 (which holds the
    unit); every codeword ends with the "1" that hands the unit over, so
    the schedule is always feasible. With equiprobable bits the expected
    cost is 3/2 uses per bit, i.e. a sum rate of 2/3.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    b1 = _as_bits(bits1, m, rng)
    b2 = _as_bits(bits2, m, rng)
    if len(b1) != len(b2):
        raise ValueError("both nodes must hold the same number of bits")

    states, x1, x2 = [], [], []
    u = 1
    for k in range(len(b1)):
        for sender, bit in ((1, int(b1[k])), (2, int(b2[k]))):
            word = (1,) if bit == 1 else (0, 1)
            for sym in word:
                states.append(u)
                if sender == 1:
                    x1.append(sym)
                    x2.append(0)
                else:
                    x1.append(0)
                    x2.append(sym)
                u = u - x1[-1] + x2[-1]

    t = _transcript(1, states, x1, x2)
    dec1, dec2 = _decode_variable_length(t, len(b1))
    rate = 2.0 * len(b1) / t.length
    return U1SimResult(
        transcript=t,
        sum_rate=rate,
        sent_bits1=b1,
        sent_bits2=b2,
        decoded_bits1=dec1,
        decoded_bits2=dec2,
    )


def _decode_variable_length(t: Transcript, m: int):
    """Parse the alternating prefix-code stream back into both bit vectors."""
    dec = {1: [], 2: []}
    stream = {1: t.x1.tolist(), 2: t.x2.tolist()}
    sender = 1
    i = 0
    while i < t.length and (len(dec[1]) < m or len(dec[2]) < m):
        sym = stream[sender][i]
        if sym == 1:
            dec[sender].append(1)
            i += 1
        else:
            dec[sender].append(0)
            i += 2  # the codeword "01" spans two uses
        sender = 2 if sender == 1 else 1
    return np.array(dec[1], dtype=np.uint8), np.array(dec[2], dtype=np.uint8)


def optimal_timeshare_sim(bits1, bits2) -> U1SimResult:
    """Verbatim time sharing on one energy unit, initially at node 1.

    The unit holder transmits its pending bits verbatim until the first
    "1" (which hands the unit over) or until it runs out of bits; the
    other node then continues. Zeros are free, so an exhausted holder
    blocks nothing until the counterpart needs to send a "1": in that
    case the holder first returns the unit with a non-information "1"
    (one extra channel use). Both sides track pending counts, so those
    handover uses are unambiguous and decoding is always exact. Whenever
    the nodes' one-bits interleave (in particular for all-zero inputs
    and for #ones differing by at most one), no handover is needed and
    the run takes exactly 2m uses.
    """
    b1 = np.asarray(bits1, dtype=np.uint8)
    b2 = np.asarray(bits2, dtype=np.uint8)
    if b1.ndim != 1 or b2.ndim != 1 or np.any(b1 > 1) or np.any(b2 > 1):
        raise ValueError("bits must be 1-d 0/1 arrays")
    if len(b1) != len(b2):
        raise ValueError("both nodes must hold the same number of bits")
    if len(b1) < 1:
        raise ValueError("need at least one bit per node")

    pend = {1: b1.tolist(), 2: b2.tolist()}
    ptr = {1: 0, 2: 0}
    m = len(b1)
    holder = 1
    states, x1, x2 = [], [], []
    handovers = 0

    def emit(sym1, sym2, u):
        states.append(u)
        x1.append(sym1)
        x2.append(sym2)

    u = 1  # state = node 1's energy; holder == 1 iff u == 1
    while ptr[1] < m or ptr[2] < m:
        other = 2 if holder == 1 else 1
        if ptr[holder] < m:
            bit = pend[holder][ptr[holder]]
            ptr[holder] += 1
            emit(bit if holder == 1 else 0, bit if holder == 2 else 0, u)
            if bit == 1:
                holder = other
        elif pend[other][ptr[other]] == 0:
            ptr[other] += 1
            emit(0, 0, u)
        else:
            # counterpart needs energy for its "1": return the unit first
            emit(1 if holder == 1 else 0, 1 if holder == 2 else 0, u)
            handovers += 1
            holder = other
        u = u - x1[-1] + x2[-1]

    t = _transcript(1, states, x1, x2)
    dec1, dec2 = _decode_timeshare(t, m)
    rate = 2.0 * m / t.length
    return U1SimResult(
        transcript=t,
        sum_rate=rate,
        sent_bits1=b1,
        sent_bits2=b2,
        decoded_bits1=dec1,
        decoded_bits2=dec2,
        handover_uses=handovers,
    )


def _decode_timeshare(t: Transcript, m: int):
    """Replay the possession schedule to split info bits from handovers."""
    dec = {1: [], 2: []}
    holder = 1
    for i in range(t.length):
        sym = {1: int(t.x1[i]), 2: int(t.x2[i])}
        other = 2 if holder == 1 else 1
        if len(dec[holder]) < m:
            dec[holder].append(sym[holder])
            if sym[holder] == 1:
                holder = other
        elif sym[holder] == 1:
            holder = other  # handover use, no information
        else:
            dec[other].append(sym[other])
    return np.array(dec[1], dtype=np.uint8), np.array(dec[2], dtype=np.uint8)


# -- random-coding codebooks -------------------------------------------------


def _pow2_int(bits: float) -> int:
    """Integer ~= floor(2^bits), exact to the 53-bit precision of bits."""
    if bits <= 0.0:
        return 1
    if bits < 52.0:
        return max(1, int(2.0 ** bits))
    b = int(bits)
    mant = int((2.0 ** (bits - b)) * (1 << 52))
    return mant << (b - 52)


@dataclass(frozen=True)
class CodebookLevel:
    """One node's codebook for one of its own energy levels."""

    node: int
    level: int
    length: int
    p: float
    bits: float  # log2 of the codeword count
    size: int  # codeword count (top-53-bit representation for huge books)


@dataclass(frozen=True)
class CodebookSet:
    """Random codebooks for every (node, positive energy level) pair.

    Lengths follow ceil(blocklength * (pi[state] - epsilon)) for the
    state in which the level is active, and the codeword count satisfies
    log2(K)/length = max(0, H(p) - delta), rounded down. Positive
    margins keep both failure modes (occupancy shortfall, codeword
    collision) vanishing as the blocklength grows; delta is an
    independent knob rather than a function of epsilon.
    """

    units: int
    blocklength: int
    epsilon: float
    delta: float
    seed: int
    levels: dict = field(default_factory=dict)
    pi: np.ndarray = None

    def level(self, node: int, level: int) -> CodebookLevel:
        return self.levels[(node, level)]

    def codeword(self, node: int, level: int, message: int) -> np.ndarray:
        """Materialize one codeword on demand; deterministic in all args."""
        lv = self.levels[(node, level)]
        if not 1 <= message <= lv.size:
            raise ValueError(f"message {message} outside [1, {lv.size}]")
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, node, level, message]))
        return (rng.random(lv.length) < lv.p).astype(np.uint8)

    def rate(self, node: int) -> float:
        """log2 of the node's message space over the blocklength."""
        return sum(lv.bits for lv in self.levels.values() if lv.node == node) / self.blocklength

    def sum_rate(self) -> float:
        return self.rate(1) + self.rate(2)

    def regenerate(self, seed: int) -> "CodebookSet":
        """Fresh random books with identical sizes (same policy and margins)."""
        return CodebookSet(
            units=self.units,
            blocklength=self.blocklength,
            epsilon=self.epsilon,
            delta=self.delta,
            seed=seed,
            levels=self.levels,
            pi=self.pi,
        )


def build_codebooks(
    policy: MarginalPolicy,
    blocklength: int,
    epsilon: float,
    delta: float,
    seed: int = 0,
) -> CodebookSet:
    """Construct the codebook set for a policy at a given blocklength.

    Node 1's level-u book is consumed while the state is u; node 2's
    level-v book while the state is units - v. Raises
    MarginExhaustedError when some state's stationary mass does not
    exceed epsilon (no codeword length fits).
    """
    if blocklength < 1:
        raise ValueError("blocklength must be >= 1")
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    units = policy.units
    pi = stationary(build_kernel(policy))
    for u in range(1, units + 1):
        for mass, who in ((pi[u], "node 1"), (pi[units - u], "node 2")):
            if mass <= epsilon:
                raise MarginExhaustedError(
                    f"occupancy margin epsilon={epsilon} exhausts the state mass "
                    f"{mass:.6f} backing {who}'s level-{u} codebook; lower epsilon "
                    "(raising the blocklength does not help once a state's mass is "
                    "below the margin) or use a policy with fatter state occupancies"
                )
    levels = {}
    for node in (1, 2):
        probs = policy.p1 if node == 1 else policy.p2
        for lv in range(1, units + 1):
            state = lv if node == 1 else units - lv
            length = math.ceil(blocklength * (pi[state] - epsilon))
            p = float(probs[lv])
            bits = max(0.0, length * (binary_entropy(p) - delta))
            levels[(node, lv)] = CodebookLevel(
                node=node, level=lv, length=length, p=p, bits=bits, size=_pow2_int(bits)
            )
    return CodebookSet(
        units=units,
        blocklength=blocklength,
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        levels=levels,
        pi=pi,
    )


def draw_messages(codebooks: CodebookSet, seed: int = 0) -> dict:
    """Uniform message index per (node, level); arbitrary-precision safe."""
    rng = np.random.default_rng(seed)
    out = {}
    for key, lv in sorted(codebooks.levels.items()):
        out[key] = _uniform_message(rng, lv.size)
    return out


def _uniform_message(rng, k: int) -> int:
    """Uniform integer in [1, k] by rejection on the top bit width."""
    if k <= 1:
        return 1
    nbits = (k - 1).bit_length()
    nbytes = (nbits + 7) // 8
    mask = (1 << nbits) - 1
    while True:
        x = int.from_bytes(rng.bytes(nbytes), "big") & mask
        if x < k:
            return x + 1


# -- trials ------------------------------------------------------------------


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one blocklength's worth of channel uses.

    decoded_ok[j] says whether node j's message was recovered exactly by
    its counterpart. e1_events collects (node, level) pairs whose state
    was visited fewer times than the codeword length; e2_events those
    whose transmitted codeword collided with another message's codeword.
    Whenever both sets are empty, both messages decode exactly.
    """

    decoded_ok: dict
    e1_events: frozenset
    e2_events: frozenset
    empirical_occupancy: np.ndarray
    transcript: Transcript


def run_trial(
    codebooks: CodebookSet,
    messages: dict,
    seed: int = 0,
) -> TrialOutcome:
    """Simulate one block: multiplexed codewords, padding, list decoding.

    At state u node 1 plays the next symbol of its level-u codeword (or
    a fresh Bern(p) pad once the codeword is exhausted) and node 2 does
    the same with its level-(units-u) book. The decoders reconstruct the
    occupancy sets from the shared state sequence, read each codeword
    off the first `length` uses of its state, and keep the unique
    matching message; on a shortfall or an ambiguous list they fall back
    to the fixed guess 1. Pads come from this trial's RNG stream, never
    from the codebook stream. The walk starts in the middle state
    (units + 1) // 2.
    """
    units = codebooks.units
    n = codebooks.blocklength
    u = (units + 1) // 2
    rng = np.random.default_rng(seed)

    sent = {}
    for (node, lv), m in messages.items():
        sent[(node, lv)] = codebooks.codeword(node, lv, m).tolist()

    p1 = [0.0] * (units + 1)
    p2 = [0.0] * (units + 1)
    for (node, lv), book in codebooks.levels.items():
        (p1 if node == 1 else p2)[lv] = book.p

    ptr1 = [0] * (units + 1)
    ptr2 = [0] * (units + 1)
    len1 = [0] * (units + 1)
    len2 = [0] * (units + 1)
    for (node, lv), book in codebooks.levels.items():
        (len1 if node == 1 else len2)[lv] = book.length

    pad1 = rng.random(n)
    pad2 = rng.random(n)
    states, xs1, xs2 = [], [], []
    visits = [0] * (units + 1)
    for i in range(n):
        visits[u] += 1
        states.append(u)
        if u == 0:
            a = 0
        else:
            k = ptr1[u]
            if k < len1[u]:
                a = sent[(1, u)][k]
                ptr1[u] = k + 1
            else:
                a = 1 if pad1[i] < p1[u] else 0
        v = units - u
        if v == 0:
            b = 0
        else:
            k = ptr2[v]
            if k < len2[v]:
                b = sent[(2, v)][k]
                ptr2[v] = k + 1
            else:
                b = 1 if pad2[i] < p2[v] else 0
        xs1.append(a)
        xs2.append(b)
        u = u - a + b

    e1 = set()
    e2 = set()
    decoded = {1: {}, 2: {}}
    for (node, lv), book in sorted(codebooks.levels.items()):
        state = lv if node == 1 else units - lv
        true_m = messages[(node, lv)]
        if visits[state] < book.length:
            e1.add((node, lv))
            decoded[node][lv] = 1
            continue
        word = sent[(node, lv)]
        if book.size > 1 and _collision_sampled(book, sum(word), rng):
            e2.add((node, lv))
            decoded[node][lv] = 1
        else:
            decoded[node][lv] = true_m

    ok = {
        node: all(decoded[node][lv] == messages[(node, lv)] for lv in range(1, units + 1))
        for node in (1, 2)
    }
    return TrialOutcome(
        decoded_ok=ok,
        e1_events=frozenset(e1),
        e2_events=frozenset(e2),
        empirical_occupancy=np.array(visits, dtype=float) / n,
        transcript=_transcript(units, states, xs1, xs2),
    )


def _collision_sampled(book: CodebookLevel, weight: int, rng) -> bool:
    """Sample whether any of the other size-1 codewords equals the sent one.

    Each alternative is i.i.d. Bern(p)^length, so it matches a fixed
    word of the given weight with probability q = p^w (1-p)^(len-w).
    log2 of K*q is computed exactly; the union over alternatives is
    1 - (1-q)^(K-1) ~= -expm1(-K*q), evaluated stably.
    """
    p = book.p
    if p <= 0.0 or p >= 1.0:
        return False  # deterministic codewords, but then size == 1 anyway
    log2_q = weight * math.log2(p) + (book.length - weight) * math.log2(1.0 - p)
    log2_kq = book.bits + log2_q
    if log2_kq > 7.0:
        prob = 1.0
    elif log2_kq < -60.0:
        prob = 0.0
    else:
        prob = -math.expm1(-(2.0 ** log2_kq))
    return bool(rng.random() < prob)


@dataclass(frozen=True)
class MonteCarloReport:
    """Aggregated random-coding error statistics."""

    trials: int
    error_rate: float
    mean_occupancy: np.ndarray
    e1_counts: dict
    e2_counts: dict
    empirical_rate: float


def monte_carlo_error(
    codebooks: CodebookSet,
    trials: int,
    seed: int = 0,
) -> MonteCarloReport:
    """Estimate the decoding error probability of the random-coding scheme.

    Every trial regenerates the codebooks and draws fresh uniform
    messages, matching the average over messages and codebook draws that
    the scheme's analysis is about. The error rate is the fraction of
    trials in which either message failed to decode.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    root = np.random.SeedSequence(seed)
    children = root.spawn(trials)
    errors = 0
    occupancy = np.zeros(codebooks.units + 1)
    e1_counts = {key: 0 for key in codebooks.levels}
    e2_counts = {key: 0 for key in codebooks.levels}
    for child in children:
        sub = child.generate_state(3)
        books = codebooks.regenerate(seed=int(sub[0]))
        messages = draw_messages(books, seed=int(sub[1]))
        outcome = run_trial(books, messages, seed=int(sub[2]))
        if not (outcome.decoded_ok[1] and outcome.decoded_ok[2]):
            errors += 1
        occupancy += outcome.empirical_occupancy
        for key in outcome.e1_events:
            e1_counts[key] += 1
        for key in outcome.e2_events:
            e2_counts[key] += 1
    return MonteCarloReport(
        trials=trials,
        error_rate=errors / trials,
        mean_occupancy=occupancy / trials,
        e1_counts=e1_counts,
        e2_counts=e2_counts,
        empirical_rate=codebooks.sum_rate(),
    )
