import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import expected_handovers, reference_trial_walk
from twoway_energy import (
    CodebookLevel,
    MarginalPolicy,
    MarginExhaustedError,
    Transcript,
    build_codebooks,
    draw_messages,
    monte_carlo_error,
    naive_frame_rate,
    optimal_timeshare_sim,
    rates_for_policy,
    run_trial,
    uniform_policy,
    validate_transcript,
    variable_length_sim,
)
from twoway_energy.protocol import _collision_sampled, _pow2_int

# Trial walks and one Monte Carlo report recorded with the earlier walk that
# kept per-node codeword pointers; the per-state walk reproduces them bit for bit.
# The transcript hashes are of the recording walk in conftest, which run_trial's
# move-list walk follows without keeping a transcript. The e2 and decoded_ok
# fields of u1-p1-negative-delta were re-recorded once a book with p = 1 and
# more than one codeword began to collide for certain.
PINNED = json.loads(
    (Path(__file__).parent / "data" / "trial_walks.json").read_text(encoding="utf-8")
)


def _sha256(transcript: Transcript) -> str:
    return hashlib.sha256("\n".join(transcript.to_lines()).encode()).hexdigest()


def _walk_record(transcript: Transcript, outcome) -> dict:
    return {
        "transcript_sha256": _sha256(transcript),
        "e1": sorted(map(list, outcome.e1_events)),
        "e2": sorted(map(list, outcome.e2_events)),
        "decoded_ok": [outcome.decoded_ok[1], outcome.decoded_ok[2]],
        "occupancy": [float(x).hex() for x in outcome.empirical_occupancy],
    }


def _pinned_books(case):
    policy = MarginalPolicy(p1=np.array(case["p1"]), p2=np.array(case["p2"]))
    return build_codebooks(
        policy, case["blocklength"], case["epsilon"], case["delta"], seed=case["book_seed"]
    )


# -- position coding ----------------------------------------------------------


def test_naive_frame_rate_values():
    assert naive_frame_rate(2) == 0.5
    assert naive_frame_rate(4) == 0.5
    assert naive_frame_rate(8) == 0.375


@pytest.mark.parametrize("bad", [0, 1, 3, 6, -4])
def test_naive_frame_rate_rejects_non_powers(bad):
    with pytest.raises(ValueError):
        naive_frame_rate(bad)


# -- variable-length code ------------------------------------------------------


def test_variable_length_rate_converges():
    res = variable_length_sim(100_000, seed=1)
    assert res.sum_rate == pytest.approx(2.0 / 3.0, abs=0.01)
    uses_per_bit = res.transcript.length / (2 * 100_000)
    assert uses_per_bit == pytest.approx(1.5, rel=0.01)


def test_variable_length_all_ones():
    m = 500
    res = variable_length_sim(m, bits1=np.ones(m), bits2=np.ones(m))
    assert res.transcript.length == 2 * m
    assert res.sum_rate == 1.0


def test_variable_length_all_zeros():
    m = 500
    res = variable_length_sim(m, bits1=np.zeros(m), bits2=np.zeros(m))
    assert res.transcript.length == 4 * m
    assert res.sum_rate == 0.5


def test_variable_length_decodes_exactly_and_is_feasible():
    for seed in range(5):
        res = variable_length_sim(400, seed=seed)
        validate_transcript(res.transcript)
        assert np.array_equal(res.decoded_bits1, res.sent_bits1)
        assert np.array_equal(res.decoded_bits2, res.sent_bits2)


def test_variable_length_validates_arguments():
    with pytest.raises(ValueError):
        variable_length_sim(0)
    with pytest.raises(ValueError):
        variable_length_sim(4, bits1=[0, 1], bits2=[0, 1, 1])
    with pytest.raises(ValueError, match="exactly m = 1 bits"):
        variable_length_sim(1, bits1=[], bits2=[])
    with pytest.raises(ValueError, match="exactly m = 3 bits"):
        variable_length_sim(3, bits1=[0, 1], bits2=[1, 0])
    with pytest.raises(ValueError, match="exactly m = 2 bits"):
        variable_length_sim(2, bits1=[0, 1, 1])
    for bad in ([0.5, 1], [-1, 1]):
        with pytest.raises(ValueError):
            variable_length_sim(2, bits1=bad, bits2=[0, 1])
        with pytest.raises(ValueError):
            variable_length_sim(2, bits1=[0, 1], bits2=bad)


# -- verbatim time sharing -----------------------------------------------------


def test_timeshare_interleaving_example():
    res = optimal_timeshare_sim([0, 1, 1, 0], [1, 0, 1, 0])
    validate_transcript(res.transcript)
    assert res.transcript.length == 8
    assert res.handover_uses == 0
    assert res.sum_rate == 1.0
    assert np.array_equal(res.decoded_bits1, [0, 1, 1, 0])
    assert np.array_equal(res.decoded_bits2, [1, 0, 1, 0])


def test_timeshare_all_zero_edge():
    res = optimal_timeshare_sim([0, 0, 0, 0], [0, 0, 0, 0])
    validate_transcript(res.transcript)
    assert res.transcript.length == 8
    assert res.handover_uses == 0
    # the unit never moves after node 1's block: state stays 1 throughout
    assert np.all(res.transcript.states == 1)


def test_timeshare_needs_returns_when_one_counts_diverge():
    res = optimal_timeshare_sim([0, 0], [1, 1])
    validate_transcript(res.transcript)
    assert res.handover_uses == expected_handovers([0, 0], [1, 1]) == 2
    assert res.transcript.length == 4 + 2
    assert np.array_equal(res.decoded_bits1, [0, 0])
    assert np.array_equal(res.decoded_bits2, [1, 1])


def test_timeshare_random_inputs_decode_exactly_with_minimal_overhead():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = int(rng.integers(1, 200))
        b1 = (rng.random(m) < 0.5).astype(np.uint8)
        b2 = (rng.random(m) < 0.5).astype(np.uint8)
        res = optimal_timeshare_sim(b1, b2)
        validate_transcript(res.transcript)
        assert np.array_equal(res.decoded_bits1, b1)
        assert np.array_equal(res.decoded_bits2, b2)
        h = expected_handovers(b1, b2)
        assert res.handover_uses == h
        assert res.transcript.length == 2 * m + h


# to_lines() sha256 of transcripts recorded before the schedule tracked the
# unit's holder through the state alone
_BITS200 = (np.random.default_rng(8).random((2, 200)) < 0.5).astype(np.uint8)


@pytest.mark.parametrize(
    "run, sha256",
    [
        (
            lambda: optimal_timeshare_sim([0, 0], [1, 1]),
            "1914cc9a112b4e207386db26f87bdefab92e2a7c181b99f4f38ceb7a42cc4629",
        ),
        (
            lambda: optimal_timeshare_sim([1, 1, 1], [0, 0, 0]),
            "9ce8b8513ecc4c76c7f67dd732665f86116bb6a31045075c2f044f600b8e09b7",
        ),
        (
            lambda: optimal_timeshare_sim(*_BITS200),
            "9c7a1d8d6eef53fd1b07de582911a12e53b5ad0c09379b9c9cc25c17e80f2de9",
        ),
        (
            lambda: variable_length_sim(2, bits1=[0, 0], bits2=[1, 1]),
            "4f5b6cef0513439e99fcc856f07149ccc46126fecee2f5e0f17cecefb245fc9b",
        ),
        (
            lambda: variable_length_sim(200, bits1=_BITS200[0], bits2=_BITS200[1]),
            "8952ebdaf692af6d538b60d3fc76b2efb22e513613f84f3f762fe6754b5ac709",
        ),
    ],
    ids=["ts-00-11", "ts-111-000", "ts-200", "vl-00-11", "vl-200"],
)
def test_single_unit_transcripts_match_the_pinned_hashes(run, sha256):
    assert _sha256(run().transcript) == sha256


def test_timeshare_validates_arguments():
    with pytest.raises(ValueError):
        optimal_timeshare_sim([0, 1], [1])
    with pytest.raises(ValueError):
        optimal_timeshare_sim([], [])
    with pytest.raises(ValueError):
        optimal_timeshare_sim([0, 2], [0, 1])
    for bad in ([0.5, 1], [-1, 1]):
        with pytest.raises(ValueError):
            optimal_timeshare_sim(bad, [0, 1])
        with pytest.raises(ValueError):
            optimal_timeshare_sim([0, 1], bad)


# -- transcripts ---------------------------------------------------------------


def test_transcript_export_format():
    res = optimal_timeshare_sim([1, 0], [0, 1])
    lines = res.transcript.to_lines()
    assert lines[0] == "1 1 1 0"


def test_validator_catches_infeasible_symbol():
    bad = Transcript(
        units=1,
        states=np.array([1, 0]),
        x1=np.array([0, 1]),  # node 1 sends '1' with no energy at state 0
        x2=np.array([1, 0]),
    )
    with pytest.raises(ValueError, match="without energy"):
        validate_transcript(bad)


def test_validator_catches_wrong_evolution():
    bad = Transcript(
        units=1,
        states=np.array([1, 1]),  # should have dropped to 0 after the '1'
        x1=np.array([1, 0]),
        x2=np.array([0, 0]),
    )
    with pytest.raises(ValueError, match="evolved"):
        validate_transcript(bad)


# -- codebooks -----------------------------------------------------------------


def test_pow2_int_small_and_large():
    assert _pow2_int(-3.0) == 1
    assert _pow2_int(0.0) == 1
    assert _pow2_int(4.7) == int(math.floor(2.0 ** 4.7))
    assert _pow2_int(10.0) == 1024
    big = _pow2_int(4560.0)
    assert big.bit_length() == 4561
    frac = _pow2_int(100.5)
    assert frac.bit_length() == 101


def test_build_codebooks_u1_sizes():
    books = build_codebooks(uniform_policy(1, 0.5), 10_000, 0.02, 0.05, seed=0)
    lv1 = books.levels[(1, 1)]
    assert lv1.length == 4800  # ceil(10000 * (0.5 - 0.02))
    assert math.log2(lv1.size) == pytest.approx(4560.0)  # 4800 * (1 - 0.05)
    assert books.levels[(2, 1)].length == 4800
    assert books.sum_rate() == pytest.approx(2 * 4560.0 / 10_000)


def test_build_codebooks_degenerate_rate_margin():
    # delta at/above the codebook entropy leaves a single codeword
    books = build_codebooks(uniform_policy(1, 0.5), 1_000, 0.02, 1.0, seed=0)
    assert books.levels[(1, 1)].size == 1


def test_sum_rate_counts_the_rounded_codeword_counts():
    # a one-use book targets 0.98 bits but holds floor(2^0.98) = 1 codeword
    books = build_codebooks(uniform_policy(1, 0.5), 1, 0.0, 0.02, seed=0)
    assert [lv.size for lv in books.levels.values()] == [1, 1]
    assert books.sum_rate() == 0.0


def test_build_codebooks_rejects_non_finite_delta():
    for delta in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="delta"):
            build_codebooks(uniform_policy(1, 0.5), 1_000, 0.02, delta, seed=0)


def test_build_codebooks_rejects_delta_below_minus_one(monkeypatch):
    # a huge negative delta would ask for a message-index int of ~1e308 bits
    def no_allocation(bits):
        raise AssertionError(f"sized a book of {bits} bits")

    monkeypatch.setattr("twoway_energy.protocol._pow2_int", no_allocation)
    for delta in (-1e308, -1.5):
        with pytest.raises(ValueError, match="delta"):
            build_codebooks(uniform_policy(1, 0.5), 100, 0.02, delta, seed=0)
    monkeypatch.undo()
    for delta in (-1.0, -0.1):
        books = build_codebooks(uniform_policy(1, 0.5), 100, 0.02, delta, seed=0)
        assert math.log2(books.levels[(1, 1)].size) == pytest.approx(48 * (1.0 - delta))


def test_build_codebooks_rejects_negative_or_nan_epsilon():
    for epsilon in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            build_codebooks(uniform_policy(1, 0.5), 1_000, epsilon, 0.1, seed=0)


def test_build_codebooks_margin_exhaustion():
    with pytest.raises(MarginExhaustedError, match="epsilon"):
        build_codebooks(uniform_policy(1, 0.5), 10_000, 0.6, 0.05, seed=0)


class _FixedDraws:
    """Stand-in RNG whose random() returns a fixed value and counts its calls."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.value


def test_collision_law_counts_the_size_minus_one_alternatives():
    # a length-2 Bern(0.5) book of 3 codewords (target 1.6 bits): a weight-1
    # word is matched by each of the 2 others w.p. 1/4, so by one w.p. 1 - (3/4)^2
    book = build_codebooks(uniform_policy(1, 0.5), 4, 0.02, 0.2).levels[(1, 1)]
    assert (book.length, book.size) == (2, 3)
    for draw, collides in ((0.437, True), (0.438, False)):
        rng = _FixedDraws(draw)
        assert _collision_sampled(book, 1, rng) is collides
        assert rng.calls == 1


@pytest.mark.parametrize("p", [0.5, 0.1, 0.999, 1e-20])  # 1 - 1e-20 rounds to 1: q can too
@pytest.mark.parametrize("length", [2, 60, 5000])
def test_collision_sample_makes_one_draw_whenever_p_is_strictly_inside(p, length):
    for size in (2, 3, 1 << 40, _pow2_int(4560.0)):
        book = CodebookLevel(length=length, p=p, size=size)
        for weight in sorted({0, length // 2, length}):
            rng = _FixedDraws(0.5)
            _collision_sampled(book, weight, rng)
            assert rng.calls == 1


def test_collision_sample_is_certain_without_a_draw_at_p_zero_or_one():
    for p in (0.0, 1.0):
        rng = _FixedDraws(0.99)
        assert _collision_sampled(CodebookLevel(length=8, p=p, size=5), 0, rng) is True
        assert rng.calls == 0


def test_margin_exhaustion_names_the_starved_book():
    # U = 2 fair coins: pi = (1/4, 1/2, 1/4) and node 1's level-2 book is
    # the first whose state mass 1/4 lies below the margin
    with pytest.raises(MarginExhaustedError, match="backing node 1's level-2 codebook"):
        build_codebooks(uniform_policy(2, 0.5), 1_000, 0.3, 0.05)


def test_codewords_deterministic_in_seed():
    pol = uniform_policy(2, 0.5)
    a = build_codebooks(pol, 5_000, 0.02, 0.05, seed=3)
    b = build_codebooks(pol, 5_000, 0.02, 0.05, seed=3)
    c = build_codebooks(pol, 5_000, 0.02, 0.05, seed=4)
    assert np.array_equal(a.codeword(1, 1, 12345), b.codeword(1, 1, 12345))
    assert not np.array_equal(a.codeword(1, 1, 12345), c.codeword(1, 1, 12345))
    assert not np.array_equal(a.codeword(1, 1, 1), a.codeword(1, 1, 2))


# sha256 of codeword(2, 1, message) of a U = 2 book with 45600-bit messages,
# recorded when the seed was SeedSequence([seed, node, level, message]).
LONG_MESSAGE = 3**26000  # 41210 bits


def _codeword_case_id(value):
    if isinstance(value, str):
        return value[:8]
    return "3**26000" if value == LONG_MESSAGE else str(value)


@pytest.mark.parametrize(
    "seed, message, sha256",
    [
        (0, 1, "e05011b03981db206c8f3dbdf70d95de4e8be27e58cf8ca7cf6f4af6c5bf4973"),
        (0, 2**32 - 1, "ded82d7762808bae33d408c8e12fc2adec3fd6e316fe45a81d7fa9a423fd0e9b"),
        (0, 2**32, "16a81622a85c9a9190d214627b3726bd5883344352d1b7a5a2cb8742f0f634af"),
        (0, 2**64 + 5, "b0222c6cbf4a008593dd58807a5a67b654317e29a180e0bb1f6eb8d391f617c6"),
        (0, LONG_MESSAGE, "a7649bc91c892642d2e09d33ed4950dd5d490e1b169029301fba6b1c6b49dda0"),
        (2**32, 1, "a48357e7fc39b39c1909ae7a7531904de7c4e3ea4d6e9fe32bc080dd1af09c29"),
        (2**32, 2**32 - 1, "0faad5ecac9fed1aa11fe39ffa4d52c027e303f570d5d6ef0058c1af979d17e0"),
        (2**32, 2**32, "b209a056aebf1bc3e780317555f0f10d3e4fd390833c930ffab064b76a226596"),
        (2**32, 2**64 + 5, "aab8f3be27dd2e81c9c67cfce64e24d2d1907d1fc17cfc9b43504abfed0b9a28"),
        (2**32, LONG_MESSAGE, "4e8ca2a6dd6bdc36a800a3afb1f5970c83761d3dfab5779509a89871e68dbe5e"),
        (2**70, 1, "a544568e130efc3e9fff2c62ed3fcadb256cbd4484c822dc07b61038879253de"),
        (2**70, 2**32 - 1, "a57a973f8c671db85e6d8317d220d4a3def46daead4a27e60c6e8a08368a1e87"),
        (2**70, 2**32, "dca1434b05238126112c96054c52ce064cec07947d35b1cf85eb842de34620f9"),
        (2**70, 2**64 + 5, "6d00e8d12f1bb9fa1456a122e9527260721d1f00bdcb00f87c8acbcf4d2c3f45"),
        (2**70, LONG_MESSAGE, "bb487fcb1d14c2ec7f736abce6b3af0e14ea1d28fdfd6bfa5f8da5dd3d291e97"),
    ],
    ids=_codeword_case_id,
)
def test_codewords_match_the_pinned_hashes(seed, message, sha256):
    books = build_codebooks(uniform_policy(2, 0.5), 100_000, 0.02, 0.05, seed=seed)
    word = books.codeword(2, 1, message)
    assert hashlib.sha256(word.tobytes()).hexdigest() == sha256


def test_codeword_accepts_numpy_integers():
    books = build_codebooks(uniform_policy(2, 0.5), 5_000, 0.02, 0.05, seed=np.int64(3))
    plain = build_codebooks(uniform_policy(2, 0.5), 5_000, 0.02, 0.05, seed=3)
    assert np.array_equal(books.codeword(1, 1, np.int64(12345)), plain.codeword(1, 1, 12345))


def test_codeword_rejects_float_and_negative_messages():
    books = build_codebooks(uniform_policy(2, 0.5), 5_000, 0.02, 0.05, seed=3)
    with pytest.raises(TypeError):
        books.codeword(1, 1, 7.0)
    with pytest.raises(ValueError):
        books.codeword(1, 1, -1)


def test_codebooks_reject_a_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        build_codebooks(uniform_policy(1, 0.5), 1_000, 0.02, 0.1, seed=-1)
    books = build_codebooks(uniform_policy(1, 0.5), 1_000, 0.02, 0.1, seed=0)
    with pytest.raises(ValueError, match="seed"):
        books.regenerate(seed=-1)


def test_codeword_composition_tracks_generation_probability():
    books = build_codebooks(uniform_policy(1, 0.8), 50_000, 0.02, 0.05, seed=5)
    word = books.codeword(1, 1, 7)
    assert word.mean() == pytest.approx(0.8, abs=0.02)


def test_draw_messages_within_range():
    books = build_codebooks(uniform_policy(2, 0.5), 2_000, 0.02, 0.1, seed=1)
    msgs = draw_messages(books, seed=2)
    for key, m in msgs.items():
        assert 1 <= m <= books.levels[key].size
    assert msgs == draw_messages(books, seed=2)


# -- trials --------------------------------------------------------------------


def test_trial_rejects_messages_that_do_not_match_the_books():
    books = build_codebooks(uniform_policy(1, 0.5), 1_000, 0.02, 0.1, seed=0)
    with pytest.raises(ValueError, match=r"missing \[\(2, 1\)\], extra \[\]"):
        run_trial(books, {(1, 1): 1})
    with pytest.raises(ValueError, match=r"missing \[\], extra \[\(1, 2\)\]"):
        run_trial(books, {(1, 1): 1, (2, 1): 1, (1, 2): 1})


def test_trial_with_single_codeword_books_always_decodes():
    books = build_codebooks(uniform_policy(1, 0.5), 2_000, 0.02, 1.0, seed=0)
    msgs = draw_messages(books, seed=1)
    outcome = run_trial(books, msgs, seed=2)
    assert outcome.decoded_ok == {1: True, 2: True}
    assert not outcome.e2_events


def test_trial_transcript_is_feasible_and_occupancy_matches():
    pol = uniform_policy(2, 0.5)
    books = build_codebooks(pol, 50_000, 0.02, 0.1, seed=0)
    msgs = draw_messages(books, seed=1)
    outcome = run_trial(books, msgs, seed=2)
    transcript, _ = reference_trial_walk(books, msgs, seed=2)
    validate_transcript(transcript)
    assert transcript.length == 50_000
    assert np.abs(outcome.empirical_occupancy - books.pi).max() < 0.02
    if not outcome.e1_events and not outcome.e2_events:
        assert outcome.decoded_ok == {1: True, 2: True}


def test_trials_with_clean_events_always_decode():
    books = build_codebooks(uniform_policy(1, 0.5), 5_000, 0.02, 0.1, seed=0)
    for seed in range(10):
        msgs = draw_messages(books, seed=100 + seed)
        outcome = run_trial(books, msgs, seed=seed)
        if not outcome.e1_events and not outcome.e2_events:
            assert outcome.decoded_ok == {1: True, 2: True}


def test_trial_shortfalls_show_up_without_margin():
    # zero occupancy margin makes codewords as long as the expected visit
    # count, so roughly half the trials run short somewhere
    books = build_codebooks(uniform_policy(1, 0.5), 1_000, 0.0, 0.1, seed=0)
    shortfalls = 0
    for seed in range(30):
        msgs = draw_messages(books, seed=200 + seed)
        outcome = run_trial(books, msgs, seed=seed)
        shortfalls += bool(outcome.e1_events)
    assert shortfalls > 0


def test_monte_carlo_small_margins_are_reliable():
    books = build_codebooks(uniform_policy(1, 0.5), 20_000, 0.02, 0.1, seed=0)
    report = monte_carlo_error(books, trials=25, seed=1)
    assert report.error_rate <= 0.05
    assert np.abs(report.mean_occupancy - books.pi).max() < 0.02


def test_monte_carlo_rate_above_entropy_collapses():
    books = build_codebooks(uniform_policy(1, 0.5), 1_000, 0.02, -0.1, seed=0)
    report = monte_carlo_error(books, trials=25, seed=1)
    assert report.error_rate >= 0.5


def test_monte_carlo_counts_certain_collisions_of_a_deterministic_book():
    # p = 1 makes every one of node 1's ~2^62 level-1 codewords the all-ones word
    policy = MarginalPolicy(p1=np.array([0.0, 1.0]), p2=np.array([0.0, 0.5]))
    books = build_codebooks(policy, 2_000, 0.02, -0.1)
    assert books.levels[(1, 1)].size > 1
    report = monte_carlo_error(books, trials=20, seed=1)
    assert report.e2_counts[(1, 1)] == 20


def test_monte_carlo_single_trial_is_zero_or_one():
    books = build_codebooks(uniform_policy(1, 0.5), 2_000, 0.02, 0.1, seed=0)
    report = monte_carlo_error(books, trials=1, seed=3)
    assert report.error_rate in (0.0, 1.0)


def test_monte_carlo_deterministic_given_seed():
    books = build_codebooks(uniform_policy(2, 0.5), 5_000, 0.02, 0.1, seed=0)
    a = monte_carlo_error(books, trials=5, seed=9)
    b = monte_carlo_error(books, trials=5, seed=9)
    assert a.error_rate == b.error_rate
    assert np.array_equal(a.mean_occupancy, b.mean_occupancy)
    assert a.e1_counts == b.e1_counts and a.e2_counts == b.e2_counts


def test_monte_carlo_validates_trials():
    books = build_codebooks(uniform_policy(1, 0.5), 2_000, 0.02, 0.1, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_error(books, trials=0)


def test_code_rate_ladder_approaches_achievable_sum_from_below():
    pol = uniform_policy(1, 0.5)
    achievable = rates_for_policy(pol).total
    ladder = [(0.04, 0.2, 20_000), (0.02, 0.1, 50_000), (0.01, 0.05, 100_000)]
    rates = [
        build_codebooks(pol, n, eps, delta, seed=0).sum_rate()
        for eps, delta, n in ladder
    ]
    assert all(lo < hi for lo, hi in zip(rates, rates[1:]))
    assert all(r < achievable for r in rates)
    assert achievable - rates[-1] < 0.08


@pytest.mark.parametrize("case", PINNED["trials"], ids=lambda case: case["name"])
def test_trial_matches_the_pinned_walk(case):
    books = _pinned_books(case)
    messages = draw_messages(books, seed=case["message_seed"])
    outcome = run_trial(books, messages, seed=case["trial_seed"])
    transcript, _ = reference_trial_walk(books, messages, seed=case["trial_seed"])
    assert _walk_record(transcript, outcome) == case["expected"]


def test_monte_carlo_matches_the_pinned_report():
    case = PINNED["monte_carlo"]
    report = monte_carlo_error(_pinned_books(case), trials=case["trials"], seed=case["seed"])
    assert round(report.error_rate * report.trials) == case["expected"]["errors"]
    assert sorted([*k, v] for k, v in report.e1_counts.items()) == case["expected"]["e1"]
    assert sorted([*k, v] for k, v in report.e2_counts.items()) == case["expected"]["e2"]
    assert [float(x).hex() for x in report.mean_occupancy] == case["expected"]["occupancy"]
