"""The public surface of the package: what `from wcikit import *` gives."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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


# Helpers no driver calls; the packing calculus (canonical,
# canonical_unpacking, initial_basket, is_prime_packing, pack,
# merge_orbifolds), count_five_packings and the rational chi_m and c2
# loads live on in tests/oracles.py.  The basket text format had no
# caller, and _descendant_points is the fiber walk's one entry, its cut
# fixed by the amplitude.
# RRKernel was a second Riemann-Roch form beside the point signatures.
# The count-tuple objects wrapped what the sweep reads off plain rows;
# tests/oracles.py keeps a tuple_of_candidate over (mu, nu) pairs.
# The two gcd screens share one divisor scan in _gcd_checks, and
# necessary_screen is the screen's one entry point; the ratio cap holds
# by proof.
@pytest.mark.parametrize("name", [
    "pack", "merge_orbifolds", "count_five_packings", "chi_m", "c2_load",
    "candidate_formal_baskets", "enumerate_tuples", "DeltaVector",
    "RRKernel", "CountTuple", "tuple_of_candidate", "tuple_chis",
    "tuple_prefix", "InitialCounts", "initial_counts_from_chis",
    "check_isolated_divisibility", "check_terminal_divisibility",
    "_div_counts", "check_degree_weight_order", "check_codim_bound",
    "check_weight_degree_divisibility", "check_gcd_counts",
    "degree_ratio_screen", "descendants", "NAMED_PRUNES", "parse_basket",
    "format_basket", "initial_basket", "canonical_unpacking",
    "is_prime_packing", "canonical"])
def test_unused_helpers_are_gone(name):
    for module in (wcikit, wcikit.baskets, wcikit.candidate,
                   wcikit.classify, wcikit.series):
        assert not hasattr(module, name), module.__name__


@pytest.mark.parametrize("owner,name", [
    (wcikit.TruncatedSeries, "mul_factor"),
    (wcikit.TruncatedSeries, "div_factor"),
    (wcikit.TruncatedSeries, "is_one"),
    (wcikit.FormalBasket, "to_json"),
    (wcikit.TableMethod, "series"),
    (wcikit.TruncatedSeries, "one"),
    (wcikit.RunConfig, "jobs")])
def test_unused_methods_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_point_sums_keep_no_process_wide_cache():
    # a run's point table is the only store of per-point data, dropped
    # with the run
    assert not hasattr(wcikit.baskets._point_sums, "cache_info")


@pytest.mark.parametrize("path", sorted(
    Path(wcikit.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    # A deletion tends to leave its imports behind; in __init__.py the
    # names of __all__ count as used
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} - {"annotations"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used.update(wcikit.__all__)
    assert sorted(imported - used) == []


def test_every_public_definition_is_used():
    # A public top-level function or class is named somewhere in the
    # package outside its own definition; re-exports in __init__.py do
    # not count
    defined, used = set(), set()
    for path in Path(wcikit.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    not own.startswith("_"):
                defined.add(own)
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name) else
                        sub.attr if isinstance(sub, ast.Attribute) else None)
                if name != own:
                    used.add(name)
    assert sorted(defined - used) == []


def test_readme_library_block(gt_report):
    # The README's Library example imports only exported names, and each
    # result it states in a comment holds; classify(RunConfig(alpha=1))
    # reads the session's shared +1 report instead of a second run
    readme = Path(wcikit.__file__).parents[2] / "README.md"
    text = readme.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()

    def shared_run(config):
        assert config == wcikit.RunConfig(alpha=1)
        return gt_report[0]

    namespace, stated = {}, []
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.ImportFrom):
            assert node.module == "wcikit"
            assert {a.name for a in node.names} <= set(wcikit.__all__)
            exec(code, namespace)
            namespace["classify"] = shared_run
        elif isinstance(node, ast.Expr):
            want = lines[node.end_lineno - 1].split("#", 1)[1]
            assert eval(code, namespace) == eval(
                want, {"Fraction": Fraction}), code
            stated.append(want.strip())
        else:
            exec(code, namespace)
    assert stated == ["True", "(1, 4, 11, 24)", "Fraction(7, 2)", "122"]
