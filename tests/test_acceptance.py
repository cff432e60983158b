"""Acceptance criteria, one test per criterion.

Each test prints a PASS line once its assertions hold (visible under
pytest -s or in the failure report otherwise); tolerances are fixed here,
nothing is calibrated at runtime.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from homscal.catalog import build, default_entries, so2n_flag_space
from homscal.flow import integrate_ascent
from homscal.lie_constants import so2n_basis, structural_constants, su_n_basis, summand_dims
from homscal.probe import (
    CurveSpec,
    Verdict,
    directional_derivatives,
    fd_check_auto,
    improving_offset,
    probe_chart,
)
from homscal.signomial import Signomial


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def test_criterion_1_two_summand_exact_pipeline():
    def pipeline():
        entry = build("e6_su2_so6")
        return probe_chart(entry.chart, entry.curve(), mode="exact")

    res, elapsed = timed(pipeline)
    assert (res.s1, res.s2, res.s3) == (0, 0, 180)
    assert res.mode == "exact"
    assert res.verdict is Verdict.NOT_LOCAL_MAX
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: e6 pipeline exact (0, 0, 180), NotLocalMax "
          f"[{elapsed:.3f}s]")


def test_criterion_2_unitary_family_exact_values():
    for n in range(3, 11):
        def one():
            entry = build("su_n", n)
            res = directional_derivatives(entry.chart, entry.curve(), mode="exact")
            f = entry.chart.reduced
            v = entry.kernel_direction
            rows = [
                sum((f.derivative((i, j)).eval_exact(entry.critical_point) * F(v[j])
                     for j in range(2)), F(0))
                for i in range(2)
            ]
            return res, rows

        (res, rows), elapsed = timed(one)
        assert res.s3 == F(n * n * (n - 1), (n - 2) ** 2)
        assert res.s1 == 0 and res.s2 == 0
        assert rows == [0, 0]
        assert elapsed < 1.0
    print("\nACCEPTANCE 2 PASS: su_n n=3..10 exact S3 = n^2(n-1)/(n-2)^2, "
          "Hessian kernel annihilated exactly")


def test_criterion_3_flag_family_exact_values():
    for n in range(4, 9):
        def one():
            entry = build("so2n_flag", n)
            res = directional_derivatives(entry.chart, entry.curve(), mode="exact")
            return entry, res

        (entry, res), elapsed = timed(one)
        assert res.s3 == F(2 * n * n * (n - 1), (n - 2) ** 2)
        assert res.s1 == 0 and res.s2 == 0
        display = Signomial.from_terms(
            2,
            [
                (F(2 * (n - 1)), {0: -1}),
                (F((n - 1) * (n - 2), 2), {1: -1}),
                (F(-(n - 2), 2), {0: -2, 1: 1}),
            ],
        )
        assert so2n_flag_space(n).scalar_curvature() == display
        assert elapsed < 1.0
    print("\nACCEPTANCE 3 PASS: so2n_flag n=4..8 exact S3 = 2n^2(n-1)/(n-2)^2, "
          "collapsed curvature matches the display canonically")


def test_criterion_4_quaternionic_family_float_values():
    for n in range(3, 7):
        def one():
            entry = build("su2n_mod_spn", n)
            return entry, probe_chart(entry.chart, entry.curve(), mode="float")

        (entry, res), elapsed = timed(one)
        rel1, rel2, _ = res.relative()
        assert rel1 < 1e-8
        assert rel2 < 1e-8
        expected = float(entry.expected_s3)
        assert abs(float(res.s3) - expected) <= 1e-6 * abs(expected)
        assert res.verdict is Verdict.NOT_LOCAL_MAX
        assert elapsed < 1.0
    print("\nACCEPTANCE 4 PASS: su2n_mod_spn n=3..6 float |S1|,|S2| < 1e-8 rel, "
          "S3 = -2n^2(n-2)(2n-1)(n-1)/a^4 to 1e-6, NotLocalMax")


def test_criterion_5_bracket_oracle_equivalence():
    def su3_check():
        basis, partition = su_n_basis(3)
        return summand_dims(partition), structural_constants(basis, partition)

    (dims, got), elapsed_su3 = timed(su3_check)
    assert dims == (3, 4, 1)
    assert got == {(0, 0, 0): 2, (0, 1, 1): 1, (1, 1, 2): 1}

    def so8_check():
        basis, partition, _ = so2n_basis(4)
        return structural_constants(basis, partition)

    got8, elapsed_so8 = timed(so8_check)
    assert len(got8) == 4  # the four root-plane triangles
    assert set(got8.values()) == {F(2, 3)}
    assert elapsed_su3 + elapsed_so8 < 10.0
    print(f"\nACCEPTANCE 5 PASS: oracle su(3) -> (2,1,1) dims (3,4,1); "
          f"so(8) -> 2/3 on triangles, exactly [{elapsed_su3 + elapsed_so8:.2f}s]")


def fd_agrees(chart, curve, s3_floor=0.0, tol=(1e-6, 1e-6, 1e-4)):
    # Gaps are measured against the larger of the value and (a fraction of)
    # its no-cancellation contraction scale.  S1 and S2 vanish exactly on
    # catalog curves, so their scale is always in play; for S3 the floor is
    # nonzero only for random triples, where extreme sign cancellation can
    # push |S3| below what central differences can resolve relatively.
    res = directional_derivatives(chart, curve)
    f1, f2, f3 = fd_check_auto(chart, curve)
    s1s, s2s, s3s = res.scales
    gaps = (
        abs(f1 - float(res.s1)) / max(abs(float(res.s1)), s1s),
        abs(f2 - float(res.s2)) / max(abs(float(res.s2)), s2s),
        abs(f3 - float(res.s3)) / max(abs(float(res.s3)), s3_floor * s3s),
    )
    return all(g <= t for g, t in zip(gaps, tol)), gaps


def test_criterion_6_finite_difference_oracle():
    worst = (0.0, 0.0, 0.0)
    for entry in default_entries():
        ok, gaps = fd_agrees(entry.chart, entry.curve())
        worst = tuple(max(w, g) for w, g in zip(worst, gaps))
        assert ok, f"{entry.family}/{entry.n}: {gaps}"
    rng = np.random.default_rng(20260811)
    pool = [
        build("e6_su2_so6"),
        build("su_n", 3),
        build("su_n", 4),
        build("su2n_mod_spn", 3),
    ] + [build("so2n_flag", n) for n in range(4, 9)]
    for i in range(100):
        entry = pool[int(rng.integers(len(pool)))]
        arity = entry.chart.arity
        point = tuple(rng.uniform(0.5, 2.0, size=arity))
        direction = rng.uniform(-1.0, 1.0, size=arity)
        while np.abs(direction).max() < 0.1:
            direction = rng.uniform(-1.0, 1.0, size=arity)
        direction /= np.abs(direction).max()
        curve = CurveSpec(base=point, direction=tuple(direction))
        ok, gaps = fd_agrees(entry.chart, curve, s3_floor=2e-2)
        worst = tuple(max(w, g) for w, g in zip(worst, gaps))
        assert ok, f"triple {i} on {entry.family}/{entry.n}: {gaps}"
    print(f"\nACCEPTANCE 6 PASS: fd oracle matches contractions on 18 catalog "
          f"curves + 100 random triples; worst rel gaps "
          f"{tuple(f'{w:.2e}' for w in worst)}")


def test_criterion_7_witness_property():
    for entry in default_entries():
        res = probe_chart(entry.chart, entry.curve())
        assert res.verdict is Verdict.NOT_LOCAL_MAX
        witness = improving_offset(entry.chart, entry.curve(), res.s3)
        base = [float(x) for x in entry.critical_point]
        assert entry.chart.reduced.eval_float(witness) > entry.chart.reduced.eval_float(base)
    print("\nACCEPTANCE 7 PASS: improving witness found for all 18 catalog entries")


def test_criterion_8_flow_monotonicity():
    rng = np.random.default_rng(8)
    for entry in default_entries():
        crit = np.array([float(x) for x in entry.critical_point])
        region = [(max(c - 0.2, 1e-3), c + 0.2) for c in crit]
        for _ in range(10):
            step_dir = rng.normal(size=len(crit))
            step_dir /= np.linalg.norm(step_dir)
            start = crit + 1e-2 * step_dir
            traj = integrate_ascent(
                entry.chart, tuple(start), max_steps=1500, region=region
            )
            if len(traj.values) > 1:
                assert np.diff(traj.values).min() >= -1e-10
    print("\nACCEPTANCE 8 PASS: scal nondecreasing along 10 random-start "
          "trajectories per catalog entry (per-step tolerance 1e-10)")
