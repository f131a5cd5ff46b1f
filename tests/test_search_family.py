import json
from pathlib import Path

import pytest

from conftest import library_sum
from twoway_energy import SearchConfig, chain, optimize_outer_sum, optimize_outer_weighted, optimize_sum_rate

PINS = Path(__file__).parent / "data" / "search_family.json"
LAMS = (0.0, 0.3, 0.5, 0.9, 1.0)
# U <= 5 at seeds 1 and 4, and U = 8 at seed 1: the search family in a few
# seconds, each search at restarts=4.
CASES = [(units, seed) for seed in (1, 4) for units in (1, 2, 3, 5)] + [(8, 1)]


def family(units: int, seed: int) -> dict:
    """float.hex of each search's result at (units, seed): the outer sum
    bound, and the outer weighted and inner bounds at each lam in LAMS, with
    the inner search's restarts_used."""
    config = SearchConfig(restarts=4, seed=seed)
    found = {"outer sum": {"sum_bound": optimize_outer_sum(units, config)[1].sum_bound.hex()}}
    for lam in LAMS:
        values = optimize_outer_weighted(units, lam, config)[1]
        found[f"outer weighted lam={lam}"] = {"r1_bound": values.r1_bound.hex(), "r2_bound": values.r2_bound.hex()}
        res = optimize_sum_rate(units, lam, config)
        found[f"inner lam={lam}"] = {"objective": res.objective.hex(), "restarts_used": res.restarts_used}
    return found


@pytest.mark.parametrize("units, seed", CASES, ids=[f"U{u}-seed{s}" for u, s in CASES])
def test_each_search_of_the_family_matches_its_pin_bit_for_bit(units, seed):
    # A pin per search, so that a failure names the search that moved. Like
    # the other float pins, these are the floats of chain._fold, which adds
    # left to right on every Python.
    assert family(units, seed) == _pins(units, seed)


@pytest.mark.parametrize("units, seed", [(2, 1), (3, 4), (5, 1)], ids=["U2-seed1", "U3-seed4", "U5-seed1"])
def test_the_left_fold_keeps_the_pins_bit_for_bit(units, seed):
    # chain._left_fold is the fold from CPython 3.12 on, where sum compensates;
    # each of these cases moves under a compensated sum
    with library_sum(chain._left_fold):
        assert family(units, seed) == _pins(units, seed)


def _pins(units: int, seed: int) -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))["searches"][f"U={units} seed={seed}"]
