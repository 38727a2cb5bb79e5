"""Seeded property tests: text round trips, the table method, recovery,
JSON, and the fibers of unit roots.

hypothesis draws the cases from a fixed seed (derandomize), so every
run sees the same examples; the module skips when hypothesis is absent.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    canonical,
    chi_m_oracle,
    fiber_oracle,
    fiber_walk,
    recover_oracle,
    uncut_chi2,
    walk_oracle,
)
from wcikit._jsonout import dumps  # noqa: E402
from wcikit import (  # noqa: E402
    FormalBasket,
    Orbifold,
    TableMethod,
    TruncatedSeries,
    normalize,
    parse_candidate,
    parse_series,
    poincare_series,
    recover_weights_degrees,
)

SEEDED = settings(derandomize=True, database=None, deadline=None,
                  max_examples=300)


@st.composite
def candidates(draw):
    degrees = draw(st.lists(st.integers(1, 60), min_size=1, max_size=5))
    weights = draw(st.lists(st.integers(1, 30), min_size=len(degrees) + 2,
                            max_size=len(degrees) + 8))
    return normalize(weights, degrees)


@st.composite
def presentations(draw):
    """Sorted weights and degrees sharing no value."""
    weights = sorted(draw(st.lists(st.integers(1, 12), min_size=1,
                                   max_size=9)))
    pool = [d for d in range(2, 37) if d not in weights]
    degrees = sorted(draw(st.lists(st.sampled_from(pool), max_size=5)))
    return weights, degrees


@SEEDED
@given(candidates())
def test_candidate_text_round_trip(cand):
    assert parse_candidate(cand.text()) == cand
    spaced = cand.text().replace(",", " , ").replace("/", " / ")
    assert parse_candidate(spaced) == cand


@SEEDED
@given(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=1, max_size=40))
def test_series_text_round_trip(coeffs):
    s = TruncatedSeries(tuple(coeffs))
    assert parse_series(s.text()) == s


@SEEDED
@given(presentations(), st.data())
def test_split_cap_table_method_matches_oracle(pres, data):
    weights, degrees = pres
    top = max(weights + degrees)
    bound = data.draw(st.integers(1, 2 * top + 4))
    coeffs = list(poincare_series(weights, degrees, bound).coeffs)
    max_entries = data.draw(st.none() | st.integers(0, 16))
    if data.draw(st.booleans()):
        # no longer a presentation's series: keep the scan finite
        k = data.draw(st.integers(1, bound))
        coeffs[k] += data.draw(st.sampled_from([-2, -1, 1, 3]))
        max_entries = data.draw(st.integers(0, 16))
    caps = (max_entries, data.draw(st.none() | st.integers(0, 9)),
            data.draw(st.none() | st.integers(0, 5)))
    table = TableMethod(*caps)
    i = 0
    while i < len(coeffs):
        step = data.draw(st.integers(1, 12))
        if not table.feed(coeffs[i:i + step]):
            break
        i += step
    got = table.presentation()
    assert (got.weights, got.degrees, got.residual_clean,
            got.capped) == recover_oracle(coeffs, *caps)


@SEEDED
@given(presentations())
def test_poincare_series_recovery_round_trip(pres):
    weights, degrees = pres
    s = poincare_series(weights, degrees, 2 * max(weights + degrees))
    rec = recover_weights_degrees(s)
    assert rec.residual_clean
    assert (list(rec.weights), list(rec.degrees)) == (weights, degrees)


# Strings over every code point class json escapes: controls, quotes,
# backslashes, non-ASCII and astral characters (written as surrogates)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30) | TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30)


@SEEDED
@given(JSON_VALUES)
@example({"\u00e9\x00": ["\u2028\U0001f600\x1f", "\"\\", {}, []], "": -0})
def test_json_writer_matches_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    (1, 2), 1.5, {1: "a"}, {"a": [set()]}, b"x", {"a": {"b": (None,)}}])
def test_json_writer_refuses_other_values(value):
    with pytest.raises(TypeError):
        dumps(value)


@st.composite
def unit_roots(draw):
    """Initial baskets of up to 9 points (1, r), 2 <= r <= 9.

    Most points fall on one run of two or more consecutive indices,
    which packs in many ways and which the sweep's roots rarely hold.
    """
    start = draw(st.integers(2, 8))
    run = st.integers(start, draw(st.integers(start + 1, 9)))
    rs = draw(st.lists(run | run | st.integers(2, 9), min_size=1,
                       max_size=9))
    return canonical([Orbifold(1, r) for r in rs])


@SEEDED
@given(unit_roots(), st.data())
def test_fiber_walk_matches_fiber_oracle(b0, data):
    # chi_2 + 3 chi, the +1 cut's floor, near l(2) of the root
    chi = data.draw(st.integers(-3, 3))
    chi2 = data.draw(st.integers(0, 4)) - 3 * chi
    targets = {}
    ms = data.draw(st.sampled_from([(), (4, 5, 6), (3, 4, 5, 6)]))
    if ms:
        # read off one member of the fiber, so at least that one hits
        src = data.draw(st.sampled_from(fiber_oracle(b0, chi, chi2, {})))
        targets = {m: chi_m_oracle(src, m) for m in ms}
    trivial = all(q.r + 1 != p.r for q, p in zip(b0, b0[1:]))
    for alpha in (-1, 1):
        got = fiber_walk(b0, chi, chi2, targets, alpha)
        assert got == walk_oracle(b0, chi, chi2, targets, alpha), alpha
        if trivial:  # no prime packing: the root alone, or nothing
            assert got in ([], [FormalBasket(b0, chi, chi2)]), alpha
    # at uncut_chi2 the +1 walk cuts nothing: the whole fiber
    full = uncut_chi2(b0, chi)
    assert fiber_walk(b0, chi, full, {}, 1) == fiber_oracle(b0, chi, full, {})
