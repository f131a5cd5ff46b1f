"""Command-line surface: stationary | inner | outer | sweep | simulate | u1.

Every command is deterministic given --seed. Option precedence is
flags > --config JSON > built-in defaults; the defaults are shown by
--help. Each option's flag, type, default, help text and allowed range
are written once, in the OPTIONS table; which command takes which
options is written once, in the COMMANDS table. Exit codes: 0 ok,
1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext

import numpy as np

from .chain import MarginalPolicy, build_kernel, simulate_chain, stationary, uniform_policy
from .inner import SearchConfig, optimize_sum_rate, rates_for_policy
from .outer import optimize_outer_sum, optimize_outer_weighted, sweep_details
from .protocol import (
    build_codebooks,
    monte_carlo_error,
    naive_frame_rate,
    optimal_timeshare_sim,
    variable_length_sim,
)


def _range(lo, hi=math.inf):
    return f"in [{lo}, {hi}]", lambda v: lo <= v <= hi


# One row per config key: flag, type, default, help text, and the allowed
# range as a description and a predicate. A value outside it is a usage error.
OPTIONS = {
    "budget": ("--budget", int, 2, "total number of energy units U", *_range(1)),
    "lam": ("--lambda", float, 0.5, "weight on node 1's rate in the objective", *_range(0.0, 1.0)),
    "restarts": ("--restarts", int, 32, "multi-start count for the optimizers", *_range(1)),
    "tol": (
        "--tol", float, 1e-6, "stationarity tolerance of the coordinate ascent",
        "> 0", lambda v: v > 0.0,
    ),
    "seed": ("--seed", int, 0, "RNG seed; all commands are deterministic given it", *_range(0)),
    "blocklength": (
        "--blocklength", int, 100_000, "channel uses per random-coding trial", *_range(1)
    ),
    "epsilon": (
        "--epsilon", float, 0.01, "occupancy margin of the codeword lengths", *_range(0.0)
    ),
    "delta": (
        "--delta", float, 0.02, "rate margin below each codebook's entropy",
        "finite and >= -1", lambda v: -1.0 <= v < math.inf,
    ),
    "trials": ("--trials", int, 100, "Monte Carlo trial count", *_range(1)),
    "p": ("--p", float, 0.5, "uniform send-'1' probability at positive energy", *_range(0.0, 1.0)),
    "bits": (
        "--bits", int, 10_000, "information bits per node for the U=1 strategies", *_range(1)
    ),
    "frame": (
        "--frame", int, 2, "frame size (power of two) for position coding",
        "a power of two >= 2", lambda v: v >= 2 and v & (v - 1) == 0,
    ),
}


class UsageError(Exception):
    """Bad invocation or malformed input file."""


def _resolve(args, key):
    """Flag, else --config value, else default. A config value is checked
    even when a flag overrides it."""
    value = _checked(key, args._config.get(key, OPTIONS[key][2]))
    flag = getattr(args, key, None)
    return value if flag is None else _checked(key, flag)


def _checked(key, value):
    """value converted to the option's type and range-checked."""
    _, kind, _, _, allowed, ok = OPTIONS[key]
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise UsageError(f"{key} must be {kind.__name__}, got {value!r}")
    try:
        value = kind(value)  # a JSON int for a float option becomes a float
    except OverflowError:
        raise UsageError(f"{key} must be {kind.__name__}, got an int too large for one") from None
    if not ok(value):
        raise UsageError(f"{key} must be {allowed}, got {value}")
    return value


def _search_config(args) -> SearchConfig:
    return SearchConfig(restarts=args.restarts, tol=args.tol, seed=args.seed)


def _read_json(path: str, what: str):
    """The JSON value in the file at path; a UsageError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"invalid {what} {path!r}: {exc}") from exc


def _load_policy_file(path: str) -> MarginalPolicy:
    raw = _read_json(path, "policy file")
    try:
        return MarginalPolicy(
            p1=np.asarray(raw["p1"], dtype=float),
            p2=np.asarray(raw["p2"], dtype=float),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"invalid policy file {path!r}: {exc}") from exc


def _policy_from_args(args) -> MarginalPolicy:
    if args.policy:
        return _load_policy_file(args.policy)
    if args.optimized:
        return optimize_sum_rate(args.budget, args.lam, _search_config(args)).policy
    return uniform_policy(args.budget, args.p)


# -- commands ----------------------------------------------------------------


def cmd_stationary(args) -> int:
    steps = args.simulate_steps
    policy = _policy_from_args(args)
    kernel = build_kernel(policy)
    pi = stationary(kernel)
    units = policy.units
    print(f"energy units: {units}")
    print(f"policy p1: {_fmt_vec(policy.p1)}")
    print(f"policy p2: {_fmt_vec(policy.p2)}")
    # Each state's three moves, from the move vectors: the dense kernel
    # would take O(units^2) memory and output.
    print("state  pi        down      stay      up")
    for u, (d, r) in enumerate(zip(kernel.down, kernel.up)):
        print(f"{u:>5}  {pi[u]:.6f}  {d:.6f}  {max(0.0, 1.0 - d - r):.6f}  {r:.6f}")
    if steps is not None:
        occ = simulate_chain(kernel, steps, initial_state=0, seed=args.seed)
        print(f"simulated occupancy ({steps} steps): {_fmt_vec(occ)}")
    return 0


def cmd_inner(args) -> int:
    units, lam = args.budget, args.lam
    result = optimize_sum_rate(units, lam, _search_config(args))
    print(f"energy units: {units}  lambda: {lam:.4f}")
    print(f"objective 2*(lam*R1+(1-lam)*R2): {result.objective:.6f}")
    print(f"R1: {result.rates.r1:.6f}  R2: {result.rates.r2:.6f}  sum: {result.rates.total:.6f}")
    print(f"optimal p1: {_fmt_vec(result.policy.p1)}")
    print(f"optimal p2: {_fmt_vec(result.policy.p2)}")
    print(f"stationary: {_fmt_vec(result.stationary)}")
    return 0


def cmd_outer(args) -> int:
    units, lam = args.budget, args.lam
    config = _search_config(args)
    if lam == 0.5:
        policy, values = optimize_outer_sum(units, config)
        print(f"energy units: {units}  objective: joint-entropy sum-rate bound")
    else:
        policy, values = optimize_outer_weighted(units, lam, config)
        print(f"energy units: {units}  objective: weighted bound, lambda={lam:.4f}")
    print(f"r1_bound: {values.r1_bound:.6f}  r2_bound: {values.r2_bound:.6f}")
    print(f"sum_bound: {values.sum_bound:.6f}")
    print(f"stationary: {_fmt_vec(values.stationary)}")
    print("state  P(00)     P(01)     P(10)     P(11)")
    for u, d in enumerate(policy.dists):
        print(f"{u:>5}  {d.p00:.6f}  {d.p01:.6f}  {d.p10:.6f}  {d.p11:.6f}")
    return 0


def render_sweep_csv(rows) -> str:
    """CSV text for a sweep: 6-decimal fixed point, newline-terminated rows,
    plus a footer comment naming the first U >= 2 at which the bounds are
    within 0.01. At U = 1 both equal 1 by construction, so it is skipped."""
    lines = ["U,sum_conventional,sum_optimized,sum_outer"]
    for row in rows:
        lines.append(
            f"{row.units},{row.sum_conventional:.6f},"
            f"{row.sum_optimized:.6f},{row.sum_outer:.6f}"
        )
    threshold = next(
        (r.units for r in rows if r.units >= 2 and r.sum_outer - r.sum_optimized <= 1e-2),
        None,
    )
    if threshold is None:
        lines.append("# sum_optimized never within 0.01 of sum_outer for U >= 2 in this sweep")
    else:
        lines.append(f"# sum_optimized within 0.01 of sum_outer from U={threshold} (first U >= 2)")
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    # the output file is opened first, so that a bad path fails before the sweep
    out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with out as fh:
        rows, _ = sweep_details(args.budget, _search_config(args))
        for row in rows:
            if not (
                row.sum_conventional <= row.sum_optimized <= row.sum_outer + 1e-6
                and row.sum_outer <= 2.0
            ):
                raise RuntimeError(f"bound ordering violated at U={row.units}: {row}")
        fh.write(render_sweep_csv(rows))
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    trials, n, seed = args.trials, args.blocklength, args.seed
    epsilon, delta = args.epsilon, args.delta
    policy = _policy_from_args(args)
    books = build_codebooks(policy, n, epsilon, delta, seed=seed)
    report = monte_carlo_error(books, trials, seed=seed)
    achievable = rates_for_policy(policy).total

    print(
        f"units={policy.units} blocklength={n} epsilon={epsilon:.4f} "
        f"delta={delta:.4f} trials={trials} seed={seed}"
    )
    print(f"error rate: {report.error_rate:.4f} "
          f"({round(report.error_rate * trials)}/{trials} trials failed)")
    print("event counts per (node, level): occupancy-shortfall / collision")
    for key in sorted(report.e1_counts):
        node, level = key
        print(f"  node {node} level {level}: {report.e1_counts[key]} / {report.e2_counts[key]}")
    print("occupancy (analytic vs mean empirical):")
    for u in range(policy.units + 1):
        print(f"  state {u}: {books.pi[u]:.6f} vs {report.mean_occupancy[u]:.6f}")
    print("rates (bits/channel use):")
    print(f"  empirical code rate:   {books.sum_rate():.6f}")
    print(f"  achievable-rate value: {achievable:.6f}")
    return 0


def cmd_u1(args) -> int:
    m, seed, frame = args.bits, args.seed, args.frame

    print(f"single-unit strategies with m={m} bits per node, seed={seed}")
    print(f"position coding, frame {frame}: sum rate {naive_frame_rate(frame):.6f}")

    vl = variable_length_sim(m, seed=seed)
    ts = optimal_timeshare_sim(vl.sent_bits1, vl.sent_bits2)
    for label, res, handovers in (
        ("variable-length code:", vl, ""),
        ("verbatim time sharing:", ts, f"{ts.handover_uses} handover uses, "),
    ):
        ok = np.array_equal(res.decoded_bits1, res.sent_bits1) and np.array_equal(
            res.decoded_bits2, res.sent_bits2
        )
        print(
            f"{label:<24}sum rate {res.sum_rate:.6f} "
            f"({res.transcript.length} uses, {handovers}decode exact: {ok})"
        )
    return 0


# -- wiring ------------------------------------------------------------------


def _steps(text):
    """The --simulate-steps value; argparse names the flag in its error."""
    try:
        steps = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be int, got {text!r}") from None
    if steps < 1:
        raise argparse.ArgumentTypeError(f"must be in [1, inf], got {steps}")
    return steps


# Flag-only options, one group each; a group of several is one exclusive choice.
_POLICY_SOURCE = (  # neither flag: the uniform policy of --budget and --p
    ("--policy", dict(help="JSON file with explicit p1/p2 arrays")),
    ("--optimized", dict(action="store_true",
                         help="use the optimized policy instead of the uniform one")),
)
_SIMULATE_STEPS = (
    ("--simulate-steps",
     dict(type=_steps, help="also print simulated occupancy over this many steps")),
)
_OUT = (("--out", dict(help="CSV output path (default: stdout)")),)

# One row per command: run function, help text, OPTIONS keys, flag-only groups.
COMMANDS = {
    "stationary": (cmd_stationary, "energy-chain table for a policy",
                   "budget p restarts tol seed lam", (_POLICY_SOURCE, _SIMULATE_STEPS)),
    "inner": (cmd_inner, "maximize the achievable weighted sum rate",
              "budget lam restarts tol seed", ()),
    "outer": (cmd_outer, "maximize the outer bound", "budget lam restarts tol seed", ()),
    "sweep": (cmd_sweep, "bounds versus units, as CSV", "budget restarts tol seed", (_OUT,)),
    "simulate": (cmd_simulate, "Monte Carlo run of the random-coding scheme",
                 "budget blocklength epsilon delta trials seed p restarts tol lam",
                 (_POLICY_SOURCE,)),
    "u1": (cmd_u1, "run the three single-unit strategies", "bits frame seed", ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoway-energy",
        description=(
            "Inner and outer bounds on the rate region of a two-way binary "
            "noiseless channel with a fixed pool of exchangeable energy "
            "units, plus Monte Carlo validation of the achievable scheme."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys, groups) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in keys.split():  # main resolves every key before the command runs
            flag, kind, default, key_help, _, _ = OPTIONS[key]
            p.add_argument(flag, dest=key, type=kind, help=f"{key_help} (default: {default})")
        p.add_argument("--config", help="JSON file with defaults for any of the above keys")
        for group in groups:
            target = p.add_mutually_exclusive_group() if len(group) > 1 else p
            for flag, kwargs in group:
                target.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        args._config = _read_json(args.config, "config") if args.config else {}
        if not isinstance(args._config, dict):
            raise UsageError(f"config {args.config!r} must hold a JSON object")
        unknown = set(args._config) - set(OPTIONS)
        if unknown:
            raise UsageError(f"config {args.config!r} has unknown keys: {sorted(unknown)}")
        run, _, keys, _ = COMMANDS[args.command]
        for key in (*keys.split(), *args._config):  # checks a shared file in full
            setattr(args, key, _resolve(args, key))
        code = run(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout was closed early (as by `| head`): point it at devnull, so
        # that the interpreter's last flush cannot fail too, and end quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def _fmt_vec(values) -> str:
    return "[" + " ".join(f"{v:.6f}" for v in np.asarray(values)) + "]"
