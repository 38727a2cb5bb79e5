"""The tracer wraps functions where callers look them up and survives missing names.

Run from the repository root:  python3 -m pytest bench/test_tracing.py
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import wcikit.classify  # noqa: E402,F401
from tracing import Tracer  # noqa: E402
from wcikit import FormalBasket, Orbifold  # noqa: E402


def test_wraps_callers_bindings_and_restores():
    classify = sys.modules["wcikit.classify"]
    original = classify.descendants
    tracer = Tracer()
    tracer.install()
    try:
        assert classify.descendants is not original
        classify.realize(FormalBasket((Orbifold(1, 2),), 1, -4), -1, 300)
    finally:
        tracer.uninstall()
    assert classify.descendants is original
    m = tracer.metrics()
    assert m["classify.realize.calls"] == 1
    assert m["classify.realized"] == 1
    assert m["series.series_from_basket.calls"] == 1
    assert m["baskets.chi_int_sequence.calls"] == 1
    assert 0 <= m["classify.realize.self_s"] <= m["classify.realize.s"]


def test_missing_name_is_reported(monkeypatch):
    monkeypatch.delattr(sys.modules["wcikit.baskets"], "c2_load")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["baskets.c2_load"]
    assert tracer.metrics()["baskets.c2_load.calls"] == 0
