"""The public surface of the package: what `from wcikit import *` gives."""

import os
import subprocess
import sys

import pytest

import wcikit


def test_every_export_resolves():
    assert len(set(wcikit.__all__)) == len(wcikit.__all__)
    for name in wcikit.__all__:
        assert hasattr(wcikit, name), name


def test_star_import():
    src = os.path.dirname(os.path.dirname(wcikit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("from wcikit import *; import wcikit; "
            "print(sorted(wcikit.__all__) == sorted("
            "n for n in dir() if n in wcikit.__all__))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "True\n"


# Helpers no driver calls; the packing calculus, count_five_packings
# and the rational chi_m and c2 loads live on in tests/oracles.py.
@pytest.mark.parametrize("name", [
    "pack", "merge_orbifolds", "count_five_packings", "chi_m", "c2_load",
    "candidate_formal_baskets", "enumerate_tuples", "DeltaVector"])
def test_unused_helpers_are_gone(name):
    for module in (wcikit, wcikit.baskets, wcikit.candidate,
                   wcikit.classify, wcikit.series):
        assert not hasattr(module, name), module.__name__


@pytest.mark.parametrize("owner,name", [
    (wcikit.TruncatedSeries, "mul_factor"),
    (wcikit.TruncatedSeries, "div_factor"),
    (wcikit.TruncatedSeries, "is_one"),
    (wcikit.FormalBasket, "to_json"),
    (wcikit.baskets.RRKernel, "chi_m")])
def test_unused_methods_are_gone(owner, name):
    assert not hasattr(owner, name)
