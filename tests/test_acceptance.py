"""End to end acceptance runs.

Each test covers one headline guarantee and registers a single
[PASS]/[FAIL] line on the verdict board that conftest prints after the
run.  The last test compares full driver output against externally
supplied list fixtures and is skipped when those files are absent.
"""

import time
import random
from pathlib import Path

import pytest

from conftest import record_verdict
from oracles import (
    chi_m_oracle,
    count_five_packings,
    five_merge_counts,
    prime_packing_reachable,
    random_basket,
    random_presentation,
)
from test_classify import CY_FAMILIES
from wcikit import (
    FormalBasket,
    RunConfig,
    canonical,
    classify,
    high_index_count_bounds,
    initial_basket,
    k3,
    necessary_screen,
    parse_candidate,
    poincare_series,
    recover_weights_degrees,
    recovery_bound,
    series_from_basket,
    series_from_candidate,
)
from wcikit.baskets import _unpacked

FIXDIR = Path(__file__).parent / "fixtures"
FLETCHER_FILES = ("fletcher_15_1.txt", "fletcher_15_4.txt",
                  "fletcher_16_6.txt", "fletcher_16_7.txt",
                  "fletcher_18_16.txt")


def verdict(name: str, ok: bool) -> None:
    record_verdict(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def presentation_set(records) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    return {(r.candidate.weights, r.candidate.degrees) for r in records}


@pytest.fixture(scope="module")
def fano_report():
    return classify(RunConfig(alpha=-1))


def test_amplitude_zero_classification():
    start = time.monotonic()
    records = classify(RunConfig(alpha=0)).records
    elapsed = time.monotonic() - start
    want = {(c.weights, c.degrees)
            for c in map(parse_candidate, CY_FAMILIES)}
    ok = (presentation_set(records) == want and len(records) == 13
          and elapsed < 60.0)
    verdict("amplitude 0 classification emits exactly the 13 families", ok)


def test_high_codimension_families(gt_report):
    report, elapsed = gt_report
    high = [r for r in report.records if r.candidate.codim >= 4]
    want = {
        ((1, 1, 1, 1, 1, 1, 1, 1), (2, 2, 2, 3)),
        ((1, 1, 1, 1, 1, 1, 1, 1, 1), (2, 2, 2, 2, 2)),
    }
    ok = (presentation_set(high) == want
          and not report.exhaustiveness_violations
          and elapsed < 1800.0)
    verdict("amplitude +1 classification in codimensions 4 and 5", ok)


def test_ample_canonical_statistics(gt_report):
    # every tuple and basket in its bucket, keys in first-seen order
    report, _ = gt_report
    ok = list(report.statistics.items()) == [
        ("tuples", 146880), ("baskets", 42870), ("unrealized", 42748),
        ("negative_sections", 10892), ("empty_sigma5_range", 2656),
        ("isolated_gcd_counts", 91667), ("negative_unpacked_counts", 40623),
        ("pluri_growth", 286), ("realized", 122), ("volume", 1)]
    verdict("amplitude +1 sweep counts every tuple and basket in its "
            "bucket", ok)


def test_codimension_bounds(fano_report, gt_report):
    report, _ = gt_report
    cy = classify(RunConfig(alpha=0)).records
    ok = (all(r.candidate.codim <= 3 for r in fano_report.records)
          and not fano_report.exhaustiveness_violations
          and all(r.candidate.codim <= 5 for r in report.records)
          and all(r.candidate.codim <= 4 for r in cy))
    verdict("codimension stays within 3 (ample -K) and 5 (ample K)", ok)


def certified_list(report, size: int) -> bool:
    return (len(report.records) == size
            and not report.exhaustiveness_violations
            and all(r.series_bound
                    == recovery_bound(r.formal_basket, report.alpha)
                    for r in report.records))


def test_certified_fano_list(fano_report):
    verdict("amplitude -1 list (181) reads every record to its certified "
            "series bound", certified_list(fano_report, 181))


def test_certified_ample_canonical_list(gt_report):
    verdict("amplitude +1 list (122) reads every record to its certified "
            "series bound", certified_list(gt_report[0], 122))


def test_table_round_trip():
    rng = random.Random(20260816)
    ok = True
    for _ in range(1000):
        weights, degrees = random_presentation(rng, max_weight=10,
                                               max_degree=30)
        bound = 2 * max(weights + degrees)
        rec = recover_weights_degrees(poincare_series(weights, degrees,
                                                      bound))
        if not (rec.residual_clean and list(rec.weights) == weights
                and list(rec.degrees) == degrees):
            ok = False
            break
    verdict("table method round trip on 1000 random presentations", ok)


def test_basket_formula_consistency():
    rng = random.Random(1729)
    ok = True
    for _ in range(1000):
        basket = canonical(random_basket(rng, max_r=12, max_size=5))
        chi, chi2 = rng.randint(-10, 40), rng.randint(-10, 40)
        fb = FormalBasket(basket, chi, chi2)
        chis = {m: chi_m_oracle(fb, m) for m in range(2, 7)}
        b0 = initial_basket(basket)
        n12, n13, n14_plus, sigma = _unpacked(chi, chis)
        sigma5 = sum(1 for q in b0 if q.r >= 5)
        lo, hi = high_index_count_bounds(chi, chis)
        # each point reassembles inside its own unpacking, so the whole
        # basket reassembles from b0 by the same prime merges
        point_counts = [five_merge_counts(q) for q in basket]
        ok = (chis[2] == chi2
              and n12 == sum(1 for q in b0 if q.r == 2)
              and n13 == sum(1 for q in b0 if q.r == 3)
              and n14_plus == sum(1 for q in b0 if q.r >= 4)
              and sigma == len(b0)
              and lo <= sigma5 <= hi
              and all(len(c) == 1 for c in point_counts)
              and count_five_packings(chi, chis, sigma5)
              == sum(next(iter(c)) for c in point_counts)
              and all(prime_packing_reachable(q) for q in basket))
        if not ok:
            break
    verdict("basket count formulas agree on 1000 random baskets", ok)


def test_smooth_cross_checks():
    inter = parse_candidate("1,1,1,1,1,1,1,1 / 2,2,2,3")
    s = series_from_candidate(inter, 8)
    fb = FormalBasket((), 1 - s[1], s[2])
    ok = ((fb.chi, fb.chi2) == (-7, 33) and k3(fb) == 24
          and series_from_basket(fb, 1, 8).coeffs == s.coeffs)

    quartic = parse_candidate("1,1,1,1,1 / 4")
    s = series_from_candidate(quartic, 8)
    fb = FormalBasket((), 1, -s[1])
    ok = (ok and (fb.chi, fb.chi2) == (1, -5) and k3(fb) == -4
          and series_from_basket(fb, -1, 8).coeffs == s.coeffs)
    verdict("smooth family cross checks", ok)


@pytest.mark.extended
def test_full_list_reproduction(fano_report, gt_report):
    """Compare the certified runs against externally supplied lists.

    Each fixture file holds a header line 'alpha=<a> codim=<c>' followed
    by one candidate per line in 'a0,...,an / d1,...,dc' form.  The runs
    are the shared -1 and +1 reports, about 0.3 s and 6 s on their own.
    """
    missing = [f for f in FLETCHER_FILES if not (FIXDIR / f).exists()]
    if missing:
        record_verdict("[SKIP] full list reproduction against supplied "
                       f"fixtures (missing: {', '.join(missing)})")
        pytest.skip("external list fixtures not supplied")

    reports = {-1: fano_report, 1: gt_report[0]}
    ok = True
    for alpha, report in reports.items():
        for rec in report.records:
            if not necessary_screen(rec.candidate).passed:
                ok = False
    for name in FLETCHER_FILES:
        header, *lines = [
            ln.strip() for ln in (FIXDIR / name).read_text().splitlines()
            if ln.strip()]
        fields = dict(part.split("=") for part in header.split())
        alpha, codim = int(fields["alpha"]), int(fields["codim"])
        want = {(c.weights, c.degrees)
                for c in map(parse_candidate, lines)}
        got = presentation_set(r for r in reports[alpha].records
                               if r.candidate.codim == codim)
        if got != want:
            ok = False
    verdict("full list reproduction against supplied fixtures", ok)
