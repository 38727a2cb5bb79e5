"""Each benchmark checker accepts genuine output and rejects a corrupted copy.

Run from the repository root:  python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from wcikit import (FormalBasket, Orbifold, necessary_screen,  # noqa: E402
                    parse_candidate, realize)


@pytest.fixture(scope="module")
def fano_record() -> dict:
    """X_5 in P(1,1,1,1,2), realized from its basket at the default bound."""
    rec = realize(FormalBasket((Orbifold(1, 2),), 1, -4), -1, 300)
    return rec.to_dict()


@pytest.fixture(scope="module")
def general_record() -> dict:
    """X_7 in P(1,1,1,1,2), amplitude +1."""
    rec = realize(FormalBasket((Orbifold(1, 2),), -3, 11), 1, 300)
    return rec.to_dict()


def corrupt(rec: dict, edit) -> dict:
    bad = copy.deepcopy(rec)
    edit(bad)
    return bad


def has(errors: list[str], text: str) -> bool:
    return any(text in e for e in errors)


def test_genuine_records_pass(fano_record, general_record):
    assert checks.check_record(fano_record, -1) == []
    assert checks.check_record(general_record, 1) == []


def test_dimension_and_amplitude(fano_record):
    bad = corrupt(fano_record, lambda r: r["degrees"].__setitem__(0, 6))
    assert has(checks.check_record(bad, -1), "amplitude 0")
    bad = corrupt(fano_record, lambda r: r.update(dim=2))
    assert has(checks.check_record(bad, -1), "reported dim/alpha/codim")


def test_degree_identity(fano_record):
    bad = corrupt(fano_record, lambda r: r["formal_basket"].update(chi2=-3))
    assert has(checks.check_record(bad, -1), "is not alpha^3 prod(d)/prod(a)")
    bad = corrupt(fano_record, lambda r: r["formal_basket"].update(k3="-2/1"))
    assert has(checks.check_record(bad, -1), "reported K^3")


def test_basket_index_divides_a_weight(fano_record):
    bad = corrupt(fano_record, lambda r: r["formal_basket"]["basket"].append([1, 3, 1]))
    assert has(checks.check_record(bad, -1), "basket index 3 divides no weight")


def test_series_against_monomial_count(general_record):
    bad = corrupt(general_record, lambda r: r["formal_basket"].update(chi=-4))
    assert has(checks.check_record(bad, 1), "monomial count")
    bad = corrupt(general_record, lambda r: r.update(series_bound=6))
    assert has(checks.check_record(bad, 1), "below twice the top entry")


def test_gcd_verdicts_against_subset_scan(fano_record):
    def flip(r):
        for ch in r["screen"]["checks"]:
            if ch["name"] == "terminal_gcd_counts":
                ch["passed"] = False
    assert has(checks.check_record(corrupt(fano_record, flip), -1),
               "terminal_gcd_counts reported False")
    text = "1,1,2,2,2,3 / 4,6"
    report = necessary_screen(parse_candidate(text)).to_dict()
    assert checks.check_screen(text, report) == []
    for name in checks.gcd_verdicts([1, 1, 2, 2, 2, 3], [4, 6]):
        bad = copy.deepcopy(report)
        for ch in bad["checks"]:
            if ch["name"] == name:
                ch["passed"] = not ch["passed"]
        assert has(checks.check_screen(text, bad), f"{name} reported")


def test_subset_scans_match_the_screen_on_random_candidates():
    inputs = workloads.Inputs(ops=[])
    rng = workloads._rng("test", 0)
    texts = [workloads._random_candidate(rng, c, a)
             for c in (1, 2, 3, 4) for a in (-1, 0, 1) for _ in range(40)]
    inputs.ops = texts
    outputs = [necessary_screen(parse_candidate(t)) for t in texts]
    assert workloads.screen_check(inputs, outputs) == []


def test_fano_list_counts_and_families():
    empty = json.dumps({"records": [], "exhaustiveness_violations": ["x"]})
    errors = workloads.fano_check(workloads.Inputs(ops=[]), [(1, empty)])
    assert has(errors, "exited 1")
    assert has(errors, "violations")
    assert has(errors, "codimension split")
    assert has(errors, "published family 1,1,1,1,1,1,1 / 2,2,2 missing")


def test_published_family_must_pass_the_screen():
    text = "2,2,2,2,3 / 11"
    inputs = workloads.Inputs(ops=[text], named={0: text})
    report = necessary_screen(parse_candidate(text))
    assert has(workloads.screen_check(inputs, [report]), "fails the screen")
