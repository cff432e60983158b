"""Inputs the timed workloads leave out because homscal fails on them.

Each test asserts the correct behaviour and is a strict xfail: it passes
the suite while the defect stands and fails once homscal is fixed, which
is the signal to put the input back into its workload.
"""

import json
import os
from fractions import Fraction

import numpy as np
import pytest

import oracles
import workloads


def search_problems(hs, workdir, space, flag_n=None):
    path = os.path.join(workdir, "space.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space, fh)
    rc, out, err = workloads.call_cli(hs.cli, ["custom", "--file", path, "--search"])
    return oracles.search_problems(space, flag_n, rc, out, err)[2]


@pytest.mark.xfail(strict=True, reason="classify labels the flag point (1) from a +-1e-14 Hessian")
@pytest.mark.parametrize("n", sorted(workloads.MISLABELLED_FLAG_NS))
def test_mislabelled_flag_space(hs, workdir, n):
    assert search_problems(hs, workdir, workloads.flag_space(n), n) == []


@pytest.mark.xfail(strict=True, raises=OverflowError,
                   reason="Monomial.eval_float overflows during the Newton search")
def test_overflow_on_inadmissible_space(hs, workdir):
    space = {
        "name": "overflow",
        "dims": [27, 1],
        "triples": [{"i": 0, "j": 1, "k": 1, "value": "3/2"},
                    {"i": 1, "j": 1, "k": 1, "value": "7/2"}],
    }
    triples = {(t["i"], t["j"], t["k"]): Fraction(t["value"]) for t in space["triples"]}
    assert not workloads.admissible(space["dims"], triples)
    assert search_problems(hs, workdir, space) == []


def test_workload_leaves_out_only_the_known_defects(hs, workdir):
    wl = workloads.Search(hs, 5, workdir)
    flag_ns = {n for _, _, n in wl.items if n is not None}
    assert flag_ns == set(range(4, 41)) - workloads.MISLABELLED_FLAG_NS
    for _, space, n in wl.items:
        if n is None:
            triples = {(t["i"], t["j"], t["k"]): Fraction(t["value"]) for t in space["triples"]}
            assert workloads.admissible(space["dims"], triples)


def test_catalog_spaces_are_admissible(hs):
    for entry in hs.catalog.default_entries():
        if entry.space is not None and all(b == 1 for b in entry.space.b):
            triples = {tuple(sorted(k)): Fraction(v) for k, v in dict(entry.space.triples).items()}
            assert workloads.admissible(entry.space.dims, triples), entry.family


def test_random_spaces_repeat_for_a_seed():
    draw = lambda seed: [workloads.random_space(np.random.default_rng(seed), i) for i in range(11)]
    assert draw(7) == draw(7)
    assert draw(7) != draw(8)
