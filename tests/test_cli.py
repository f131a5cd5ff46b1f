import errno
import io
import json
import math
import os
import sys

import numpy as np
import pytest

from twoway_energy import SweepRow, sweep_details
from twoway_energy import cli
from twoway_energy.chain import TransitionKernel, build_kernel, uniform_policy
from twoway_energy.cli import main, render_sweep_csv
from twoway_energy.inner import SearchConfig

FAST = ["--restarts", "4", "--tol", "1e-6", "--seed", "0"]


def test_stationary_u2_uniform(capsys):
    assert main(["stationary", "--budget", "2"]) == 0
    out = capsys.readouterr().out
    assert "0.250000" in out and "0.500000" in out


def test_stationary_u1_uniform(capsys):
    assert main(["stationary", "--budget", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("0.500000") >= 2


def test_stationary_policy_file(tmp_path, capsys):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"p1": [0.0, 0.5], "p2": [0.0, 0.5]}))
    assert main(["stationary", "--policy", str(path)]) == 0
    assert "0.500000" in capsys.readouterr().out


def test_stationary_malformed_policy_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["stationary", "--policy", str(path)]) == 2
    assert "invalid policy file" in capsys.readouterr().err


def test_stationary_policy_file_with_bad_values(tmp_path, capsys):
    path = tmp_path / "bad2.json"
    for p1 in ([0.5, 0.5], [0.0, float("nan")]):
        path.write_text(json.dumps({"p1": p1, "p2": [0.0, 0.5]}))
        assert main(["stationary", "--policy", str(path)]) == 2
        assert "invalid policy file" in capsys.readouterr().err


def test_missing_command_is_usage_error():
    assert main([]) == 2
    assert main(["no-such-command"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0
    for command in cli.COMMANDS:
        assert main([command, "--help"]) == 0


def test_inner_command(capsys):
    assert main(["inner", "--budget", "1", *FAST]) == 0
    out = capsys.readouterr().out
    assert "objective" in out
    assert "1.000000" in out


def test_outer_command(capsys):
    assert main(["outer", "--budget", "1", *FAST]) == 0
    out = capsys.readouterr().out
    assert "sum_bound: 1.000000" in out


def test_outer_weighted_search_from_a_seed_outside_its_region(capsys):
    # The quick inner seed at U = 3 has two states with p00 < CLAMP; the
    # search caps it into its region rather than failing on it.
    for lam in ("1.0", "0.0"):
        assert main(["outer", "--budget", "3", "--lambda", lam, "--restarts", "1"]) == 0
        out = capsys.readouterr().out
        assert "r1_bound: " in out and "nan" not in out and "inf" not in out


@pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB for an array", ""])
def test_memory_exhaustion_is_runtime_error(capsys, monkeypatch, message):
    # a solve that cannot get its memory, as numpy reports it
    def stationary(kernel):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "stationary", stationary)
    assert main(["stationary", "--budget", "2"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message or 'MemoryError'}\n"


def test_a_closed_stdout_ends_quietly(capsys, monkeypatch, tmp_path):
    # stdout as `| head` leaves it: every write raises BrokenPipeError. main
    # points the stream's file descriptor (here a file's) at devnull, so the
    # interpreter's last flush cannot fail, and exits 1 with nothing on stderr.
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        assert main(["stationary", "--budget", "3"]) == 1
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        # the grid of start vectors is sized by the budget
        ["inner", "--budget", "99999999999999999999999", "--restarts", "1"],
        ["outer", "--budget", "99999999999999999999999", "--restarts", "1"],
        # a codebook size of 2^(n*rate) that no int can hold
        ["simulate", "--budget", "1", "--blocklength", "99999999999999999999999", "--trials", "1"],
    ],
)
def test_overflow_is_runtime_error(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_stationary_prints_each_states_moves_without_the_dense_kernel(capsys, monkeypatch):
    # The table holds each state's down, stay and up moves, the nonzero band
    # of its dense kernel row, and never builds the O(U^2) matrix.
    rows = build_kernel(uniform_policy(3, 0.3)).matrix

    def matrix(self):
        raise AssertionError("the dense kernel was built")

    monkeypatch.setattr(TransitionKernel, "matrix", property(matrix))
    assert main(["stationary", "--budget", "3", "--p", "0.3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    head = lines.index("state  pi        down      stay      up")
    table = [line.split() for line in lines[head + 1 :]]
    assert [int(row[0]) for row in table] == [0, 1, 2, 3]
    for u, row in enumerate(table):
        band = [rows[u, u - 1] if u else 0.0, rows[u, u], rows[u, u + 1] if u < 3 else 0.0]
        assert row[2:] == [f"{q:.6f}" for q in band]
        assert np.count_nonzero(rows[u]) == sum(q != 0.0 for q in band)


def test_stationary_optimized_policy(capsys):
    assert main(["stationary", "--budget", "2", "--optimized", "--restarts", "2"]) == 0
    out = capsys.readouterr().out
    assert "policy p1: " in out
    assert "policy p1: [0.000000 0.500000 0.500000]" not in out


@pytest.mark.parametrize("command", ["stationary", "simulate"])
def test_policy_file_and_optimized_are_one_choice(tmp_path, capsys, command):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"p1": [0.0, 0.5], "p2": [0.0, 0.5]}))
    assert main([command, "--policy", str(path), "--optimized"]) == 2
    captured = capsys.readouterr()
    assert "not allowed with" in captured.err
    assert captured.out == ""


def test_stationary_simulated_occupancy(capsys):
    argv = ["stationary", "--budget", "3", "--p", "0.3", "--simulate-steps", "500", "--seed", "4"]
    assert main(argv) == 0
    assert "simulated occupancy (500 steps)" in capsys.readouterr().out


def test_simulate_optimized_policy_beats_the_uniform_rate(capsys):
    argv = ["simulate", "--budget", "2", "--blocklength", "2000", "--trials", "2"]
    assert main([*argv, "--optimized", "--restarts", "2"]) == 0
    (line,) = [s for s in capsys.readouterr().out.splitlines() if "achievable-rate value" in s]
    assert float(line.split(":")[1]) > 1.5  # fair coins at U = 2 reach 1.5


def test_outer_weighted_command(capsys):
    assert main(["outer", "--budget", "2", "--lambda", "0.7", "--restarts", "3"]) == 0
    assert "weighted bound, lambda=0.7000" in capsys.readouterr().out


# Commands whose printed numbers are pinned: the lines each prints from its
# second line on (the outer search's bounds, the inner search's objective and
# rates, the Monte Carlo report), as recorded.
RECORDED = {
    # a sum-bound search past the sweep's U = 16
    "outer --budget 64 --restarts 2 --seed 1": [
        "r1_bound: 0.999575  r2_bound: 0.999575",
        "sum_bound: 1.999157",
    ],
    # a weighted search, stopped early by its Bellman certificate, prints
    # the numbers of the search that runs every start
    "inner --budget 16 --restarts 6 --seed 1 --lambda 0.3": [
        "objective 2*(lam*R1+(1-lam)*R2): 1.989300",
        "R1: 0.987551  R2: 0.997693  sum: 1.985244",
    ],
    # a weighted search that no certificate settles, so every start runs
    "inner --budget 4 --restarts 6 --seed 1 --lambda 0.7": [
        "objective 2*(lam*R1+(1-lam)*R2): 1.864525",
        "R1: 0.968417  R2: 0.847902  sum: 1.816319",
    ],
    # the weighted outer search, whose probes mostly skip the chain solve,
    # prints the numbers of the search that solves it at every probe
    "outer --budget 8 --restarts 6 --seed 1 --lambda 0.3": [
        "r1_bound: 0.955992  r2_bound: 0.991393",
        "sum_bound: 1.947886",
    ],
    # the sum bound seeded by its own quick inner search, a path the sweep
    # (which seeds it with the sweep's inner optimum) does not take
    "outer --budget 16 --restarts 6 --seed 1": [
        "r1_bound: 0.993639  r2_bound: 0.993634",
        "sum_bound: 1.987665",
    ],
    # the random-coding Monte Carlo: every level has both shortfalls and
    # collisions, so a codeword weight far from the sent word's (its count
    # of zeros, say) shows in the counts
    "simulate --budget 2 --optimized --restarts 4 --seed 3 --trials 20"
    " --epsilon 0.003 --delta 0.0 --blocklength 4000": [
        "error rate: 1.0000 (20/20 trials failed)",
        "event counts per (node, level): occupancy-shortfall / collision",
        "  node 1 level 1: 6 / 8",
        "  node 1 level 2: 7 / 6",
        "  node 2 level 1: 6 / 7",
        "  node 2 level 2: 7 / 10",
        "occupancy (analytic vs mean empirical):",
        "  state 0: 0.216398 vs 0.216850",
        "  state 1: 0.567212 vs 0.567863",
        "  state 2: 0.216390 vs 0.215288",
        "rates (bits/channel use):",
        "  empirical code rate:   1.525288",
        "  achievable-rate value: 1.536590",
    ],
}


@pytest.mark.parametrize("argv", RECORDED, ids=[a.split(" --restarts")[0] for a in RECORDED])
def test_a_command_prints_its_recorded_lines(capsys, argv):
    assert main(argv.split()) == 0
    lines = RECORDED[argv]
    assert capsys.readouterr().out.splitlines()[1 : 1 + len(lines)] == lines


def test_sweep_u1_coincides(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--budget", "1", *FAST, "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "U,sum_conventional,sum_optimized,sum_outer"
    fields = lines[1].split(",")
    assert fields[0] == "1"
    for value in fields[1:]:
        assert abs(float(value) - 1.0) < 1e-3
    assert lines[-1].startswith("#")


def test_sweep_rows_round_trip_and_ordering():
    rows, inners = sweep_details(3, SearchConfig(restarts=4, seed=0))
    text = render_sweep_csv(rows)
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    assert len(body) == 4
    parsed = []
    for row, line in zip(rows, body[1:]):
        u, conv, opt, outer = line.split(",")
        assert int(u) == row.units
        # printed text parses back to the printed precision
        assert float(conv) == pytest.approx(row.sum_conventional, abs=5e-7)
        assert float(opt) == pytest.approx(row.sum_optimized, abs=5e-7)
        assert float(outer) == pytest.approx(row.sum_outer, abs=5e-7)
        assert row.sum_conventional <= row.sum_optimized <= row.sum_outer + 1e-6
        assert row.sum_outer <= 2.0
        parsed.append(
            SweepRow(
                units=int(u),
                sum_conventional=float(conv),
                sum_optimized=float(opt),
                sum_outer=float(outer),
            )
        )
    # re-rendering the parsed values reproduces the CSV byte for byte
    assert render_sweep_csv(parsed) == text
    assert [r.units for r in rows] == [1, 2, 3]
    assert len(inners) == 3


def test_sweep_footer_skips_the_u1_coincidence():
    rows = [
        SweepRow(units=1, sum_conventional=1.0, sum_optimized=1.0, sum_outer=1.0),
        SweepRow(units=2, sum_conventional=1.5, sum_optimized=1.53, sum_outer=1.58),
        SweepRow(units=3, sum_conventional=1.6, sum_optimized=1.74, sum_outer=1.77),
        SweepRow(units=4, sum_conventional=1.7, sum_optimized=1.84, sum_outer=1.845),
        SweepRow(units=5, sum_conventional=1.8, sum_optimized=1.89, sum_outer=1.92),
    ]
    footer = render_sweep_csv(rows).splitlines()[-1]
    assert footer.startswith("#") and "from U=4" in footer
    footer = render_sweep_csv(rows[:3]).splitlines()[-1]
    assert footer.startswith("# sum_optimized never within 0.01")


def test_sweep_unwritable_out_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the sweep ran before the output file was opened")

    monkeypatch.setattr(cli, "sweep_details", no_sweep)
    out_path = tmp_path / "missing-dir" / "sweep.csv"
    assert main(["sweep", "--budget", "16", "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert "missing-dir" in captured.err
    assert captured.out == ""


def test_sweep_stdout_when_no_out(capsys):
    assert main(["sweep", "--budget", "1", *FAST]) == 0
    out = capsys.readouterr().out
    assert out.startswith("U,sum_conventional")


def test_simulate_zero_trials_is_usage_error(capsys):
    assert main(["simulate", "--budget", "1", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


def test_simulate_report_deterministic(capsys):
    argv = [
        "simulate", "--budget", "1", "--blocklength", "5000",
        "--epsilon", "0.02", "--delta", "0.1", "--trials", "5", "--seed", "3",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "error rate" in first
    assert "occupancy" in first


def test_simulate_reports_the_rate_of_the_rounded_books(capsys):
    # every one-use book targets 0.98 bits but holds a single codeword
    assert main(["simulate", "--budget", "1", "--blocklength", "1", "--trials", "1"]) == 0
    assert "empirical code rate:   0.000000" in capsys.readouterr().out


def test_simulate_policy_file_sets_the_units(tmp_path, capsys):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"p1": [0.0, 0.5, 0.5, 0.5], "p2": [0.0, 0.5, 0.5, 0.5]}))
    argv = ["simulate", "--policy", str(path), "--blocklength", "2000", "--trials", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("units=3 ")
    assert sum(line.lstrip().startswith("state ") for line in out.splitlines()) == 4


def test_simulate_margin_exhaustion_is_runtime_error(capsys):
    code = main(["simulate", "--budget", "1", "--epsilon", "0.7", "--trials", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "epsilon" in err


def test_u1_command(capsys):
    assert main(["u1", "--bits", "2000", "--seed", "1"]) == 0
    assert capsys.readouterr().out == (
        "single-unit strategies with m=2000 bits per node, seed=1\n"
        "position coding, frame 2: sum rate 0.500000\n"
        "variable-length code:   sum rate 0.668338 (5985 uses, decode exact: True)\n"
        "verbatim time sharing:  sum rate 0.997258 "
        "(4011 uses, 11 handover uses, decode exact: True)\n"
    )


def test_u1_rejects_zero_bits():
    assert main(["u1", "--bits", "0"]) == 2


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": 2, "p": 0.5}))
    assert main(["stationary", "--config", str(cfg)]) == 0
    assert "0.250000" in capsys.readouterr().out


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": 2}))
    assert main(["stationary", "--config", str(cfg), "--budget", "1"]) == 0
    out = capsys.readouterr().out
    assert "energy units: 1" in out


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgget": 2}))
    assert main(["stationary", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "config",
    [
        {"budget": "2"}, {"budget": 2.5}, {"budget": True}, {"p": "0.5"}, {"p": None},
        {"seed": "x"}, {"delta": 10**400},
    ],
)
def test_config_wrong_type_is_usage_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["stationary", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert next(iter(config)) in captured.err
    assert captured.out == ""


def test_stationary_checks_the_seed_before_printing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": "x"}))
    assert main(["stationary", "--config", str(cfg), "--simulate-steps", "10"]) == 2
    captured = capsys.readouterr()
    assert "seed" in captured.err
    assert captured.out == ""


# One value just outside each key's range in cli.OPTIONS, the lower end's
# side where the range has two ends; every float key is also tried at nan.
_OUTSIDE = {
    "budget": 0, "lam": -5e-324, "restarts": 0, "tol": 0.0, "seed": -1, "blocklength": 0,
    "epsilon": -5e-324, "delta": math.nextafter(-1.0, -math.inf), "trials": 0, "p": -5e-324,
    "bits": 0, "frame": 1,
}


def test_the_out_of_range_table_has_every_option_outside_its_range():
    assert set(_OUTSIDE) == set(cli.OPTIONS)  # so that a new option cannot be missed
    for key, value in _OUTSIDE.items():
        _, kind, _, _, _, ok = cli.OPTIONS[key]
        assert type(value) is kind and not ok(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["inner", "--budget", "0"],
        ["sweep", "--budget", "0"],
        ["outer", "--budget", "0"],
        ["stationary", "--budget", "0"],
        ["inner", "--budget", "2", "--lambda", "1.5"],
        ["inner", "--budget", "2", "--restarts", "0"],
        ["simulate", "--budget", "1", "--blocklength", "0"],
        ["stationary", "--budget", "2", "--p", "1.5"],
        ["u1", "--frame", "3"],
        ["stationary", "--simulate-steps", "-5"],
        ["stationary", "--simulate-steps", "0"],
        ["inner", "--seed", "-1"],
        ["u1", "--seed", "-1"],
        ["inner", "--tol", "0"],
        ["inner", "--tol", "nan"],
        ["simulate", "--delta", "nan"],
        ["simulate", "--delta=-inf"],
        ["simulate", "--budget", "1", "--blocklength", "100", "--trials", "1", "--delta=-1e308"],
        ["simulate", "--delta=-1.5"],
        ["stationary", "--restarts", "0", "--tol", "nan"],
        ["simulate", "--lambda", "7", "--restarts", "0", "--trials", "1", "--blocklength", "1000"],
        # every key of every command, from the table above
        *(
            [command, f"{cli.OPTIONS[key][0]}={value!r}"]
            for command, (_, _, keys, _) in cli.COMMANDS.items()
            for key in keys.split()
            for value in (_OUTSIDE[key], *([math.nan] if cli.OPTIONS[key][1] is float else []))
        ),
    ],
)
def test_out_of_range_values_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "must be" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "config",
    [
        {"frame": 3, "bits": 0}, {"frame": 3}, {"bits": 0}, {"trials": "3"}, {"epsilon": -1.0},
        {"lam": 1.5}, {"restarts": 0}, {"tol": 0.0}, {"blocklength": 0}, {"delta": float("nan")},
    ],
)
def test_config_keys_of_other_commands_are_checked(tmp_path, capsys, config):
    # a bad value in the file is an error, also for a key that inner does not
    # take or whose flag is given (--restarts with {"restarts": 0})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["inner", "--budget", "1", "--restarts", "1", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "must be" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--seed", "3"], {"seed": "x"}),
        (["--lambda", "0.5"], {"lam": 1.5}),
        (["--tol", "1e-3"], {"tol": float("nan")}),
    ],
)
def test_config_value_is_checked_under_its_flag(tmp_path, capsys, flags, config):
    # the flag wins, but the file's value for the same key is still checked
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["inner", "--budget", "1", *flags, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert next(iter(config)) in captured.err
    assert captured.out == ""


def test_one_config_file_serves_every_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": 1, "restarts": 1, "frame": 4, "bits": 16, "trials": 3}))
    assert main(["inner", "--config", str(cfg)]) == 0
    assert "energy units: 1" in capsys.readouterr().out
    assert main(["u1", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("name", ["invalid-json", "missing", "directory"])
def test_config_invalid_json_is_usage_error(tmp_path, capsys, name):
    cfg = tmp_path / name
    if name == "invalid-json":
        cfg.write_text("{oops")
    elif name == "directory":
        cfg.mkdir()
    assert main(["stationary", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == ""
