"""Catalog entries: data, invariants, custom-entry files."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

import homscal.catalog as catalog
from homscal.catalog import (
    CatalogEntry,
    ParameterRangeError,
    build,
    collapsed_so2n_constants,
    default_entries,
    load_custom,
    su2n_space,
    su2n_volume_normalizer,
)
from homscal.chart import Classification, find_critical_points, restrict
from homscal.probe import CurveSpec, directional_derivatives, probe_chart
from homscal.signomial import Signomial
from homscal.space import HomogeneousSpace, space_to_dict


def sig(arity, *pairs):
    return Signomial.from_terms(arity, [(F(c), e) for c, e in pairs])


class TestBuild:
    def test_two_summand_entry(self):
        entry = build("e6_su2_so6")
        assert entry.space.dims == (20, 40)
        assert entry.space.canonical_triples() == {(0, 1, 1): F(10)}
        assert entry.critical_point == (F(1),)
        assert entry.expected_s3 == 180

    def test_unitary_entry_at_three(self):
        entry = build("su_n", 3)
        assert entry.space.dims == (3, 4, 1)
        assert entry.space.canonical_triples() == {
            (0, 0, 0): F(2),
            (0, 1, 1): F(1),
            (1, 1, 2): F(1),
        }
        assert entry.critical_point == (F(1), F(1))
        assert entry.kernel_direction == (F(-2), F(1))
        assert entry.expected_s3 == 18

    def test_flag_entry_at_four(self):
        entry = build("so2n_flag", 4)
        assert entry.space.dims == (12, 12)
        expected_scal = sig(2, (6, {0: -1}), (3, {1: -1}), (-1, {0: -2, 1: 1}))
        assert entry.space.scalar_curvature() == expected_scal
        assert entry.expected_s3 == 24

    def test_parameter_floors(self):
        with pytest.raises(ParameterRangeError):
            build("su2n_mod_spn", 2)  # d1 = 0 there
        with pytest.raises(ParameterRangeError):
            build("su_n", 2)
        with pytest.raises(ParameterRangeError):
            build("so2n_flag", 3)
        with pytest.raises(ParameterRangeError):
            build("su_n", None)
        with pytest.raises(ValueError, match="unknown family"):
            build("nope", 3)

    @pytest.mark.parametrize("family, n, error, message", [
        ("nope", 3, ValueError,
         "unknown family 'nope'; known: ['e6_su2_so6', 'so2n_flag', 'su2n_mod_spn', 'su_n']"),
        ("su_n", 2, ParameterRangeError, "su_n requires n >= 3, got 2"),
        ("su2n_mod_spn", 2, ParameterRangeError, "su2n_mod_spn requires n >= 3, got 2"),
        ("so2n_flag", 3, ParameterRangeError, "so2n_flag requires n >= 4, got 3"),
        ("su_n", None, ParameterRangeError, "su_n needs a parameter n >= 3"),
        ("su2n_mod_spn", None, ParameterRangeError, "su2n_mod_spn needs a parameter n >= 3"),
        ("so2n_flag", None, ParameterRangeError, "so2n_flag needs a parameter n >= 4"),
        ("e6_su2_so6", 7, ParameterRangeError, "e6_su2_so6 has a fixed size and takes no n, got 7"),
    ], ids=["unknown", "su_n-floor", "su2n_mod_spn-floor", "so2n_flag-floor", "su_n-missing",
            "su2n_mod_spn-missing", "so2n_flag-missing", "e6_su2_so6-given"])
    def test_error_messages_are_pinned(self, family, n, error, message):
        with pytest.raises(ValueError) as exc:
            build(family, n)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @pytest.mark.parametrize("n", [3.7, 4.0, "5", True])
    def test_non_integer_parameter_is_not_truncated(self, n):
        with pytest.raises(ParameterRangeError) as exc:
            build("su_n", n)
        assert str(exc.value) == f"su_n needs an integer n, got {n!r}"

    def test_integral_parameter_is_a_python_int(self):
        entry = build("su_n", np.int64(4))
        assert type(entry.n) is int and entry == build("su_n", 4)

    def test_default_entries_census(self):
        entries = default_entries()
        assert len(entries) == 18  # 1 + 5 + 4 + 8
        keys = [(e.family, e.n) for e in entries]
        assert keys == sorted(keys, key=lambda fn: (fn[0], -1 if fn[1] is None else fn[1]))


class TestCollapsedConstants:
    def test_values(self):
        assert collapsed_so2n_constants(4) == {(0, 0, 1): F(4), (1, 1, 1): F(4)}
        assert collapsed_so2n_constants(6) == {(0, 0, 1): F(8), (1, 1, 1): F(24)}

    def test_matching_residual_is_zero(self):
        # the collapsed table reproduces the two-variable curvature identically
        for n in range(4, 9):
            space = catalog.so2n_flag_space(n)
            display = sig(
                2,
                (2 * (n - 1), {0: -1}),
                (F((n - 1) * (n - 2), 2), {1: -1}),
                (F(-(n - 2), 2), {0: -2, 1: 1}),
            )
            # term maps hold no zero coefficient, so equal maps leave no residual
            assert space.scalar_curvature() == display

    def test_oracle_cross_check_at_four(self):
        from homscal.lie_constants import (
            so2n_basis,
            so2n_collapsed_partition,
            structural_constants,
        )

        basis, partition, pairs = so2n_basis(4)
        got = structural_constants(basis, so2n_collapsed_partition(partition, pairs))
        assert got == collapsed_so2n_constants(4)

    def test_range_floor(self):
        with pytest.raises(ParameterRangeError):
            collapsed_so2n_constants(3)

    def test_floor_is_the_family_record(self, monkeypatch):
        with pytest.raises(ParameterRangeError) as direct:
            collapsed_so2n_constants(3)
        with pytest.raises(ParameterRangeError) as built:
            build("so2n_flag", 3)
        assert str(direct.value) == str(built.value) == "so2n_flag requires n >= 4, got 3"
        # one floor: a record with a higher one moves the message too
        monkeypatch.setitem(catalog.FAMILIES, "so2n_flag",
                            catalog.FAMILIES["so2n_flag"]._replace(min_n=5))
        with pytest.raises(ParameterRangeError, match=r"^so2n_flag requires n >= 5, got 4$"):
            collapsed_so2n_constants(4)


def su2n_reference_terms(n):
    """The reduced scalar curvature of SU(2n)/Sp(n), the last summand
    eliminated, as the closed form it was once typed in by hand."""
    d1 = (2 * n - 1) * (n - 2)
    c = F(2 * n - 1)
    return list(Signomial.from_terms(2, [
        (c * 4 * (n - 1) * (n - 2), {0: -1}),
        (c * 8 * (n - 1), {1: -1}),
        (-c * (n - 2), {0: 1, 1: -2}),
        (-c, {0: -d1, 1: -(4 * n - 2)}),
    ]).terms.items())


class TestQuaternionicEntry:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_restricted_space_is_the_closed_form_bit_for_bit(self, n):
        # the float kernels sum in term order, so the order is checked too
        chart = restrict(su2n_space(n), eliminated=2)
        assert list(chart.reduced.terms.items()) == su2n_reference_terms(n)
        assert chart.label == f"su{2 * n}_mod_sp{n}"
        assert chart.dims == ((2 * n - 1) * (n - 2), 4 * (n - 1), 1)
        assert chart.eliminated == 2

    @pytest.mark.parametrize("n", range(3, 11))
    def test_symmetric_metric_is_einstein(self, n):
        # critical for scal on the unit-volume slice (Einstein) exactly when
        # x_k * d scal / d x_k / d_k is one value for every k
        space = su2n_space(n)
        scal = space.scalar_curvature()
        metric = (F(2 * n - 1, n), F(2 * n - 1, 2 * n), F(1))
        for k, d in enumerate(space.dims):
            assert metric[k] * scal.partial(k).eval_exact(metric) / d == F(-4 * n * n, 2 * n - 1)
        a = su2n_volume_normalizer(n)
        inflated = build("su2n_mod_spn", n).chart.inflate((a, a / 2))
        ratio = inflated[2]  # the metric's last coordinate is 1
        for x, g in zip(inflated, metric):
            assert x == pytest.approx(ratio * float(g), rel=1e-12)

    def test_normalizer_closed_form_at_three(self):
        assert su2n_volume_normalizer(3) == pytest.approx((1280 / 3) ** (1 / 14), rel=1e-15)

    def test_symmetric_metric_has_unit_volume(self):
        # inflating (a, a/2) with the volume constraint recovers the symmetric
        # metric's third coordinate n a / (2n - 1), so the volume is 1
        for n in range(3, 7):
            entry = build("su2n_mod_spn", n)
            a = su2n_volume_normalizer(n)
            d1, d2, _ = entry.chart.dims
            volume = a ** d1 * (a / 2) ** d2 * (n * a / (2 * n - 1))
            assert volume == pytest.approx(1.0, rel=1e-12)
            inflated = entry.chart.inflate((a, a / 2))
            assert inflated[2] == pytest.approx(n * a / (2 * n - 1), rel=1e-12)

    def test_critical_point_relation(self):
        for n in range(3, 7):
            entry = build("su2n_mod_spn", n)
            x, y = entry.critical_point
            assert y == pytest.approx(x / 2, rel=1e-15)


class TestEntryInvariants:
    def test_every_chart_is_its_space_restricted(self):
        for entry in default_entries():
            assert isinstance(entry.space, HomogeneousSpace)
            assert entry.chart == restrict(entry.space, entry.chart.eliminated)

    def test_gradient_vanishes_at_critical_points(self):
        for entry in default_entries():
            ch = entry.chart
            if all(isinstance(c, (int, F)) for c in entry.critical_point):
                for i in range(ch.arity):
                    assert ch.reduced.partial(i).eval_exact(entry.critical_point) == 0
            else:
                point = [float(c) for c in entry.critical_point]
                grad_scale = math.hypot(*ch.reduced.partials_float(point, 1, absolute=True))
                rel = np.linalg.norm(ch.reduced.partials_float(point, 1)) / grad_scale
                assert rel < 1e-10

    def test_hessian_annihilates_kernel_direction(self):
        for entry in default_entries():
            ch = entry.chart
            v = entry.kernel_direction
            if all(isinstance(c, (int, F)) for c in entry.critical_point):
                for i in range(ch.arity):
                    row = sum(
                        (ch.reduced.derivative((i, j)).eval_exact(entry.critical_point)
                         * F(v[j])
                         for j in range(ch.arity)),
                        F(0),
                    )
                    assert row == 0
            else:
                point = [float(c) for c in entry.critical_point]
                hess = np.array(ch.reduced.hessian_float(point))
                hv = hess @ np.array([float(c) for c in v])
                scale = max(np.abs(hess).max(), 1.0)
                assert np.abs(hv).max() < 1e-8 * scale

    def test_probe_reproduces_expected_s3(self):
        for entry in default_entries():
            res = probe_chart(entry.chart, entry.curve())
            if res.mode == "exact":
                assert res.s3 == entry.expected_s3
            else:
                assert float(res.s3) == pytest.approx(float(entry.expected_s3), rel=1e-6)
            assert str(res.verdict) == "NotLocalMax"


class TestCustomEntries:
    @staticmethod
    def e6_payload(**extra):
        payload = {
            "name": "custom-e6",
            "dims": [20, 40],
            "b": ["1", "1"],
            "triples": [{"i": 0, "j": 1, "k": 1, "value": "10"}],
            "eliminate": 0,
        }
        payload.update(extra)
        return payload

    def test_round_trip_reproduces_builtin(self, tmp_path):
        path = tmp_path / "e6.json"
        path.write_text(json.dumps(self.e6_payload()))
        entry = load_custom(path)
        assert entry.critical_point is None
        assert entry.kernel_direction is None
        (cp,) = [cp for cp in find_critical_points(entry.chart)
                 if cp.label is Classification.DEGENERATE]
        (v,) = cp.kernel()
        res = directional_derivatives(entry.chart, CurveSpec(cp.coords, tuple(v)))
        assert (res.s1, res.s2, float(res.s3)) == (0, 0, 180.0)

    def test_hints_are_honored(self, tmp_path):
        path = tmp_path / "e6.json"
        path.write_text(
            json.dumps(
                self.e6_payload(
                    critical_point=["1"], kernel_direction=["1"], expected_s3="180"
                )
            )
        )
        entry = load_custom(path)
        assert entry.critical_point == (F(1),)
        assert entry.expected_s3 == F(180)
        res = directional_derivatives(entry.chart, entry.curve())
        assert res.s3 == entry.expected_s3

    def test_asymmetric_triples_rejected(self, tmp_path):
        payload = self.e6_payload()
        payload["triples"].append({"i": 1, "j": 0, "k": 1, "value": "9"})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="permutations"):
            load_custom(path)

    def test_zero_denominator_rejected(self, tmp_path):
        payload = self.e6_payload()
        payload["triples"][0]["value"] = "1/0"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="bad rational"):
            load_custom(path)

    @pytest.mark.parametrize("eliminate", [0.5, "0", True])
    def test_non_integer_eliminate_rejected(self, tmp_path, eliminate):
        path = tmp_path / "e6.json"
        path.write_text(json.dumps(self.e6_payload(eliminate=eliminate)))
        with pytest.raises(ValueError, match="eliminate"):
            load_custom(path)

    @pytest.mark.parametrize("key", ["critical_point", "kernel_direction", "expected_s3"])
    def test_non_finite_hint_rejected(self, tmp_path, key):
        hints = {"critical_point": [1.0], "kernel_direction": [1.0], "expected_s3": 180.0}
        hints[key] = [float("nan")] if key != "expected_s3" else float("inf")
        path = tmp_path / "e6.json"
        path.write_text(json.dumps(self.e6_payload(**hints)))
        with pytest.raises(ValueError, match=f"{key}.*finite"):
            load_custom(path)

    def test_entry_curve_round_trip(self):
        entry = build("su_n", 6)
        curve = entry.curve()
        assert curve.base == entry.critical_point
        assert curve.direction == entry.kernel_direction
