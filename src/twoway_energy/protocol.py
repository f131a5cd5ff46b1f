"""Executable communication strategies for the energy-exchange channel.

Two families live here. The single-unit (units = 1) schemes are small
deterministic protocols: fixed-frame position coding, the variable-
length prefix code {1 -> "1", 0 -> "01"}, and verbatim time sharing
driven by possession of the unit; the state (node 1's energy, 0 or 1)
says who holds it. The general scheme is the random-coding
construction: one codebook per node per energy level, i.i.d. Bern(p)
codewords, multiplexed over channel uses according to the realized
state sequence, with random padding after a codeword is exhausted so
the state chain stays time-invariant.

The energy state alone drives a trial. State u plays node 1's level-u
word and node 2's level-(units-u) word, which have the same length, and
the number of earlier visits to u is the position in both. So a trial
builds one move list per state once, the symbol differences x2 - x1 of
its two words, and the walk steps through it; after a state's list is
exhausted, each use steps by the difference of two fresh pads. A node
with no energy has no word (it counts as zeros) and pad probability 0,
so it always sends "0". A trial returns the occupancy and the error
events, not a per-use transcript.

Codebooks are never materialized: a level holds ~2^(length * rate)
codewords, so each level stores only its codeword count K (to 53-bit
precision) and the set draws any single codeword on demand from a
SeedSequence whose entropy is (set seed, node, level, message), each
split into 32-bit words in linear time (see _seed_words). A collision
is any of the K-1 other codewords of a level equalling the transmitted
one: each does so with probability q, fixed by the codeword's
composition, so the chance of at least one is 1 - (1-q)^(K-1), computed
in log space and sampled as one Bernoulli event. Decoding failures are
outcome data, never faults.

Trials are independent given distinct seeds; per-trial state is
private, so fanning trials out to parallel workers is safe.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

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


def _holder_transcript(syms) -> Transcript:
    """Single-unit transcript from the unit holder's symbol stream.

    The unit starts at node 1 (state 1). The holder sends each symbol and
    the other node sends 0, so a "1" hands the unit over.
    """
    syms = np.asarray(syms, dtype=np.uint8)
    states = 1 ^ syms ^ np.bitwise_xor.accumulate(syms)  # parity of earlier "1"s
    return Transcript(
        units=1,
        states=states.astype(np.int16),
        x1=syms & states,
        x2=syms & (states ^ 1),
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


def _as_bits(bits) -> np.ndarray:
    """bits as a uint8 array; a ValueError unless it is 1-d with every entry 0 or 1."""
    arr = np.asarray(bits)
    if arr.ndim != 1 or not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bits must be a 1-d 0/1 array")
    return arr.astype(np.uint8)


def variable_length_sim(m: int, seed: int = 0, bits1=None, bits2=None) -> U1SimResult:
    """Variable-length code on one energy unit: bit 1 -> "1", bit 0 -> "01".

    The nodes alternate bit-by-bit starting with node 1 (which holds the
    unit); every codeword ends with the "1" that hands the unit over, so
    the schedule is always feasible. With equiprobable bits the expected
    cost is 3/2 uses per bit, i.e. a sum rate of 2/3. Given bit arrays
    must each hold exactly m bits; missing ones are drawn from seed.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    b1 = (rng.random(m) < 0.5).astype(np.uint8) if bits1 is None else _as_bits(bits1)
    b2 = (rng.random(m) < 0.5).astype(np.uint8) if bits2 is None else _as_bits(bits2)
    if len(b1) != m or len(b2) != m:
        raise ValueError(f"each node must hold exactly m = {m} bits, got {len(b1)} and {len(b2)}")

    # the holder sends each codeword, and its closing "1" hands the unit over
    bits = np.column_stack((b1, b2)).ravel().tolist()
    t = _holder_transcript([sym for bit in bits for sym in ((1,) if bit else (0, 1))])
    dec1, dec2 = _decode_variable_length(t, m)
    rate = 2.0 * m / t.length
    return U1SimResult(
        transcript=t,
        sum_rate=rate,
        sent_bits1=b1,
        sent_bits2=b2,
        decoded_bits1=dec1,
        decoded_bits2=dec2,
    )


def _decode_variable_length(t: Transcript, m: int):
    """Parse the alternating prefix-code stream back into both bit vectors.

    Every codeword ends with the "1" that hands the unit over, so the
    state at a codeword's first use names its sender.
    """
    dec = {1: [], 2: []}
    stream = {1: t.x1.tolist(), 2: t.x2.tolist()}
    states = t.states.tolist()
    i = 0
    while i < t.length and (len(dec[1]) < m or len(dec[2]) < m):
        sender = 1 if states[i] == 1 else 2
        bit = stream[sender][i]
        dec[sender].append(bit)
        i += 2 - bit  # "1" spans one use, "01" two
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
    b1, b2 = _as_bits(bits1), _as_bits(bits2)
    if len(b1) != len(b2):
        raise ValueError("both nodes must hold the same number of bits")
    if len(b1) < 1:
        raise ValueError("need at least one bit per node")

    pend = {1: b1.tolist(), 2: b2.tolist()}
    ptr = {1: 0, 2: 0}
    m = len(b1)
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

    t = _holder_transcript(syms)
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
    """Replay the possession schedule to split info bits from handovers.

    The state says who holds the unit; an exhausted holder's "1" is a
    handover use and carries no information.
    """
    dec = {1: [], 2: []}
    for u, a, b in zip(t.states.tolist(), t.x1.tolist(), t.x2.tolist()):
        sym = {1: a, 2: b}
        holder, other = (1, 2) if u == 1 else (2, 1)
        if len(dec[holder]) < m:
            dec[holder].append(sym[holder])
        elif sym[holder] == 0:
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


def _seed_words(*values) -> np.ndarray:
    """The uint32 entropy words SeedSequence makes of a list of ints.

    Each value contributes its little-endian 32-bit words ([0] for zero),
    in order, as numpy's coercion of the list does; that coercion splits
    an int with a loop quadratic in its size, to_bytes is linear.
    """
    chunks = []
    for value in values:
        n = operator.index(value)
        if n < 0:
            raise ValueError(f"expected non-negative integer, got {n}")
        chunks.append(n.to_bytes(4 * max(1, (n.bit_length() + 31) // 32), "little"))
    return np.frombuffer(b"".join(chunks), dtype="<u4")


@dataclass(frozen=True)
class CodebookLevel:
    """One node's codebook for one of its own energy levels: size
    codewords of length i.i.d. Bern(p) symbols."""

    length: int
    p: float
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
    seed: int
    levels: dict
    pi: np.ndarray

    def __post_init__(self):
        if operator.index(self.seed) < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def codeword(self, node: int, level: int, message: int) -> np.ndarray:
        """Materialize one codeword on demand; deterministic in all args.

        The generator is seeded with SeedSequence over the words of
        (seed, node, level, message), the stream that
        SeedSequence([seed, node, level, message]) gives.
        """
        lv = self.levels[(node, level)]
        if not 1 <= message <= lv.size:
            raise ValueError(f"message {message} outside [1, {lv.size}]")
        words = _seed_words(self.seed, node, level, message)
        rng = np.random.default_rng(np.random.SeedSequence(words))
        return (rng.random(lv.length) < lv.p).astype(np.uint8)

    def sum_rate(self) -> float:
        """log2 of both nodes' message spaces over the blocklength."""
        return sum(math.log2(lv.size) for lv in self.levels.values()) / self.blocklength

    def regenerate(self, seed: int) -> "CodebookSet":
        """Fresh random books with identical sizes (same policy and margins)."""
        return replace(self, seed=seed)


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
    # at delta = -1 a book holds at least 2^length codewords, so it already
    # collides; a lower delta only lengthens the message-index ints
    if not (delta >= -1.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be finite and >= -1, got {delta}")
    units = policy.units
    pi = stationary(build_kernel(policy))
    levels = {}
    for node in (1, 2):
        probs = policy.p1 if node == 1 else policy.p2
        for lv in range(1, units + 1):
            state = lv if node == 1 else units - lv
            if pi[state] <= epsilon:
                raise MarginExhaustedError(
                    f"occupancy margin epsilon={epsilon} exhausts the state mass "
                    f"{pi[state]:.6f} backing node {node}'s level-{lv} codebook; lower epsilon "
                    "(raising the blocklength does not help once a state's mass is "
                    "below the margin) or use a policy with fatter state occupancies"
                )
            length = math.ceil(blocklength * (pi[state] - epsilon))
            p = float(probs[lv])
            target = max(0.0, length * (binary_entropy(p) - delta))
            levels[(node, lv)] = CodebookLevel(length=length, p=p, size=_pow2_int(target))
    return CodebookSet(units=units, blocklength=blocklength, seed=seed, levels=levels, pi=pi)


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
    empirical_occupancy[u] is the fraction of the block's uses spent in
    state u. No per-use transcript is kept.
    """

    decoded_ok: dict
    e1_events: frozenset
    e2_events: frozenset
    empirical_occupancy: np.ndarray


def run_trial(
    codebooks: CodebookSet,
    messages: dict,
    seed: int = 0,
) -> TrialOutcome:
    """Simulate one block: multiplexed codewords, padding, list decoding.

    The energy state u is the walk's only state. State u plays node 1's
    level-u codeword and node 2's level-(units-u) one; both have the
    length ceil(blocklength * (pi[u] - epsilon)), so one move list per
    state, moves[u] = x2 - x1 symbol by symbol, built once per trial,
    covers both. A node with no energy has no word (it counts as zeros)
    and pad probability 0.0, so it always sends 0. The k-th visit to u
    steps by moves[u][k]; once the list is exhausted, use i steps by
    (pad2[i] < q2[u]) - (pad1[i] < q1[u]), a fresh Bern(p) pad from each
    node. The pads are drawn from this trial's RNG stream, never from the
    codebook stream. Only the visit counts are kept, not the symbols.
    The decoders reconstruct the occupancy sets from the shared state
    sequence, read each codeword off the first `length` uses of its
    state, and keep the unique matching message; on a shortfall or an
    ambiguous list they fall back to the fixed guess 1.
    The walk starts in the middle state (units + 1) // 2.
    """
    missing = sorted(codebooks.levels.keys() - messages.keys())
    extra = sorted(messages.keys() - codebooks.levels.keys(), key=repr)
    if missing or extra:
        raise ValueError(
            f"messages need one entry per (node, level) book: missing {missing}, extra {extra}"
        )
    units = codebooks.units
    n = codebooks.blocklength
    rng = np.random.default_rng(seed)

    sent = {key: codebooks.codeword(*key, m) for key, m in messages.items()}
    prob = {key: book.p for key, book in codebooks.levels.items()}
    # (node, 0) has no book: a node without energy sends the zeros of a word
    # as long as the other node's, then pads with q = 0.0, and since pads lie
    # in [0, 1) it always sends 0. Interior states' two words have equal
    # lengths, so the subtraction never broadcasts.
    keys = [((1, state), (2, units - state)) for state in range(units + 1)]
    moves = [
        np.subtract(sent.get(k2, 0), sent.get(k1, 0), dtype=np.int8).tolist() for k1, k2 in keys
    ]
    q1 = [prob.get(k1, 0.0) for k1, _ in keys]
    q2 = [prob.get(k2, 0.0) for _, k2 in keys]

    pad1 = rng.random(n)
    pad2 = rng.random(n)
    visits = [0] * (units + 1)
    u = (units + 1) // 2
    for i in range(n):
        k = visits[u]
        visits[u] = k + 1
        steps = moves[u]
        if k < len(steps):
            u += steps[k]
        else:
            u += int(pad2[i] < q2[u]) - int(pad1[i] < q1[u])

    e1 = set()
    e2 = set()
    for (node, lv), book in sorted(codebooks.levels.items()):
        if visits[lv if node == 1 else units - lv] < book.length:
            e1.add((node, lv))
        elif book.size > 1 and _collision_sampled(book, int(sent[(node, lv)].sum()), rng):
            e2.add((node, lv))
    # a level in e1 or e2 decodes to the fallback guess 1, any other exactly
    ok = {node: all(messages[key] == 1 for key in e1 | e2 if key[0] == node) for node in (1, 2)}
    return TrialOutcome(
        decoded_ok=ok,
        e1_events=frozenset(e1),
        e2_events=frozenset(e2),
        empirical_occupancy=np.array(visits, dtype=float) / n,
    )


def _collision_sampled(book: CodebookLevel, weight: int, rng) -> bool:
    """Sample whether any of the other size-1 codewords equals the sent one.

    Each alternative is i.i.d. Bern(p)^length, so it matches a fixed
    word of the given weight with probability q = p^w (1-p)^(len-w), and
    at least one of the size-1 alternatives does with probability
    P = 1 - (1-q)^(size-1) = -expm1(-2^L), L = log2(size-1) + log2(-ln(1-q)).
    Below q = 2^-60, -ln(1-q) equals q to double precision, so log2 q
    stands in; L is clamped at 7, where P is already exactly 1.0. Needs
    size > 1 (the only case the caller asks about) and makes one draw,
    except at p = 0 or 1: then every codeword is the same word, so a
    collision is certain and no draw is made.
    """
    p = book.p
    if p <= 0.0 or p >= 1.0:
        return True
    log2_q = weight * math.log2(p) + (book.length - weight) * math.log2(1.0 - p)
    if log2_q < -60.0:
        log2_rate = log2_q
    else:
        q = 2.0 ** log2_q
        log2_rate = math.log2(-math.log1p(-q)) if q < 1.0 else 7.0  # q rounds to 1: P = 1
    log2_mean = min(7.0, math.log2(book.size - 1) + log2_rate)
    return bool(rng.random() < -math.expm1(-(2.0 ** log2_mean)))


@dataclass(frozen=True)
class MonteCarloReport:
    """Aggregated random-coding error statistics."""

    trials: int
    error_rate: float
    mean_occupancy: np.ndarray
    e1_counts: dict
    e2_counts: dict


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
    )
