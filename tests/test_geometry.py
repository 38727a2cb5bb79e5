"""Geometric certificates for the listed families.

A record is a basket whose series the table method inverts, plus a
necessary screen; nothing in the pipeline checks that the family it
names is quasismooth.  These tests hold every listed hypersurface to
Iano-Fletcher's criterion (Thm 8.1), written in tests/oracles.py with
no wcikit code.
"""

from itertools import combinations_with_replacement

import pytest

from oracles import hypersurface_quasismooth_oracle
from wcikit import Candidate, RunConfig, classify, necessary_screen, parse_candidate


def listed_hypersurfaces(report):
    return [r.candidate for r in report.records if r.candidate.codim == 1]


@pytest.mark.parametrize("alpha,count", [(0, 4), (-1, 95), (1, 23)])
def test_every_listed_hypersurface_is_quasismooth(request, alpha, count):
    report = (request.getfixturevalue("gt_report")[0] if alpha == 1
              else classify(RunConfig(alpha=alpha)))
    hypersurfaces = listed_hypersurfaces(report)
    assert len(hypersurfaces) == count
    assert [c.text() for c in hypersurfaces if not
            hypersurface_quasismooth_oracle(c.weights, c.degrees[0])] == []


def test_criterion_controls():
    # At I = {x_4} no monomial x_4^k has degree 7, and no x_4^k x_e
    # either, since every other weight is 1 and 4k + 1 is never 7.
    cand = parse_candidate("1,1,1,1,4 / 7")
    assert necessary_screen(cand).passed
    assert not hypersurface_quasismooth_oracle(cand.weights, 7)
    assert hypersurface_quasismooth_oracle((1, 1, 1, 1, 4), 8)
    # Every I of at most two variables passes, but I = {x_2, x_3, x_4}
    # has only two e outside it, x_0 and x_1, with x_I^M x_e of degree 7.
    assert not hypersurface_quasismooth_oracle((1, 1, 2, 2, 2), 7)


def test_non_quasismooth_hypersurfaces_are_off_the_list():
    # Every amplitude -1 hypersurface with weights up to 11 that passes
    # the screen but fails the criterion; none of them is listed.
    failing = set()
    for weights in combinations_with_replacement(range(1, 12), 5):
        cand = Candidate(weights, (sum(weights) - 1,))
        if necessary_screen(cand).passed and not \
                hypersurface_quasismooth_oracle(weights, cand.degrees[0]):
            failing.add((cand.weights, cand.degrees))
    assert len(failing) == 246
    fano = classify(RunConfig(alpha=-1))
    assert failing.isdisjoint(
        (c.weights, c.degrees) for c in listed_hypersurfaces(fano))
