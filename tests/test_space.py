"""Homogeneous-space data model and the curvature functional."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from homscal.signomial import Signomial
from homscal.space import (
    HomogeneousSpace,
    load_space,
    space_from_dict,
    space_to_dict,
)


def sig(arity, *pairs):
    return Signomial.from_terms(arity, [(F(c), e) for c, e in pairs])


E6 = HomogeneousSpace(name="e6", dims=(20, 40), triples={(0, 1, 1): F(10)})
SU3 = HomogeneousSpace(
    name="su3",
    dims=(3, 4, 1),
    triples={(0, 0, 0): F(2), (0, 1, 1): F(1), (1, 1, 2): F(1)},
)


class TestValidate:
    def test_two_summand_entry_ok(self):
        assert E6.validate() == []
        assert E6.b == (F(1), F(1))

    def test_zero_dimension_reported(self):
        space = HomogeneousSpace(name="bad", dims=(0, 3))
        assert any("dims[0]" in msg for msg in space.validate())

    def test_permutation_asymmetry_reported(self):
        space = HomogeneousSpace(
            name="bad", dims=(3, 4), triples={(0, 1, 1): F(10), (1, 0, 1): F(9)}
        )
        assert any("permutations" in msg for msg in space.validate())
        with pytest.raises(ValueError):
            space.canonical_triples()

    def test_consistent_permutations_accepted(self):
        space = HomogeneousSpace(
            name="ok", dims=(3, 4), triples={(0, 1, 1): F(10), (1, 0, 1): F(10)}
        )
        assert space.validate() == []
        assert space.canonical_triples() == {(0, 1, 1): F(10)}

    def test_negative_constant_and_bad_index(self):
        space = HomogeneousSpace(name="bad", dims=(2,), triples={(0, 0, 5): F(-1)})
        issues = space.validate()
        assert any("outside" in msg for msg in issues)
        space = HomogeneousSpace(name="bad", dims=(2,), triples={(0, 0, 0): F(-1)})
        assert any("negative" in msg for msg in space.validate())

    def test_b_length_mismatch(self):
        space = HomogeneousSpace(name="bad", dims=(2, 3), b=(F(1),))
        assert any("b has" in msg for msg in space.validate())

    def test_empty_b_is_not_the_default(self):
        space = HomogeneousSpace(name="bad", dims=(2, 3), b=())
        assert space.validate() == ["b has 0 entries for 2 summands"]
        assert HomogeneousSpace(name="ok", dims=(2, 3), b=None).b == (F(1), F(1))

    @pytest.mark.parametrize("dims, message", [
        ((20.9, 40), "x.dims: expected an integer, got 20.9"),
        ((20, "40"), "x.dims: expected an integer, got '40'"),
        ((True, 40), "x.dims: expected an integer, got True"),
    ], ids=["float", "str", "bool"])
    def test_non_integer_dim_is_not_truncated(self, dims, message):
        with pytest.raises(ValueError) as exc:
            HomogeneousSpace(name="x", dims=dims, triples={(0, 1, 1): 10})
        assert str(exc.value) == message

    @pytest.mark.parametrize("key, value", [((0.5, 1, 1), "0.5"), ((0, "1", 1), "'1'"),
                                            ((0, 1, True), "True")], ids=["float", "str", "bool"])
    def test_non_integer_triple_index_is_not_truncated(self, key, value):
        with pytest.raises(ValueError) as exc:
            HomogeneousSpace(name="x", dims=(20, 40), triples={key: 10})
        assert str(exc.value) == f"x.triples: expected an integer, got {value}"


class TestScalarCurvature:
    def test_two_summand_example(self):
        expected = sig(2, (5, {0: -1}), (20, {1: -1}), (F(-5, 2), {0: 1, 1: -2}))
        assert E6.scalar_curvature() == expected

    def test_three_summand_example_with_cancellation(self):
        # the 1/(2z) Casimir term cancels against the triple orbit exactly
        expected = sig(
            3,
            (F(1, 2), {0: -1}),
            (2, {1: -1}),
            (F(-1, 4), {0: 1, 1: -2}),
            (F(-1, 4), {1: -2, 2: 1}),
        )
        scal = SU3.scalar_curvature()
        assert scal == expected
        assert scal.arity == 3
        assert all(m.exponent(2) != -1 for m in scal.terms)

    def test_empty_triples(self):
        space = HomogeneousSpace(name="torus-like", dims=(2, 3), b=(F(1), F(2)))
        assert space.scalar_curvature() == sig(2, (1, {0: -1}), (3, {1: -1}))

    def test_invalid_space_raises(self):
        space = HomogeneousSpace(name="bad", dims=(0,))
        with pytest.raises(ValueError):
            space.scalar_curvature()

    def test_standard_value_without_brackets(self):
        # all b_k = 1 and no triples: scal at the all-ones point is d/2
        space = HomogeneousSpace(name="flat", dims=(5, 7, 2))
        ones = (F(1), F(1), F(1))
        assert space.scalar_curvature().eval_exact(ones) == F(sum(space.dims), 2)

    @settings(deadline=None)
    @given(st.fractions(min_value=F(1, 3), max_value=3).filter(lambda c: c > 0))
    def test_homogeneous_of_degree_minus_one(self, c):
        scal = SU3.scalar_curvature()
        base = (F(1, 2), F(3, 4), F(5, 3))
        scaled = tuple(c * x for x in base)
        assert scal.eval_exact(scaled) == scal.eval_exact(base) / c

    def test_summand_relabeling_permutes_variables(self):
        # swap summands 0 and 1 of the two-summand space
        swapped = HomogeneousSpace(
            name="e6-swapped", dims=(40, 20), triples={(0, 0, 1): F(10)}
        )
        orig, perm = E6.scalar_curvature(), swapped.scalar_curvature()
        for point in ((F(1, 2), F(3)), (F(2), F(5, 7))):
            assert perm.eval_exact((point[1], point[0])) == orig.eval_exact(point)


class TestDerivatives:
    def test_hessian_of_linear_is_zero(self):
        f = sig(2, (3, {0: 1}), (-2, {1: 1}), (7, {}))
        assert all(
            f.derivative((i, j)) == Signomial(2) for i in range(2) for j in range(2)
        )

    def test_hessian_is_structurally_symmetric(self):
        f = SU3.scalar_curvature()
        for i in range(3):
            for j in range(3):
                assert f.derivative((i, j)) is f.derivative((j, i))
                assert f.derivative((i, j)) == f.partial(j).partial(i)

    def test_gradient_entries_are_partials(self):
        f = E6.scalar_curvature()
        assert [f.derivative((i,)) for i in range(2)] == [f.partial(0), f.partial(1)]
        assert f.derivative(()) is f


class TestSpaceFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "e6.json"
        path.write_text(json.dumps(space_to_dict(E6)))
        loaded = load_space(path)
        assert loaded.dims == E6.dims
        assert loaded.canonical_triples() == E6.canonical_triples()
        assert loaded.scalar_curvature() == E6.scalar_curvature()

    def test_zero_denominator_rational_rejected(self):
        data = {"name": "bad", "dims": [2, 3], "triples": [
            {"i": 0, "j": 1, "k": 1, "value": "1/0"}]}
        with pytest.raises(ValueError, match="bad rational"):
            space_from_dict(data)

    def test_float_rational_rejected(self):
        with pytest.raises(ValueError, match="not exact"):
            space_from_dict({"name": "bad", "dims": [2], "b": [0.5]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            space_from_dict({"dims": [2], "bogus": 1})

    def test_missing_dims_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            space_from_dict({"name": "x"})

    @pytest.mark.parametrize(
        "dims, field",
        [
            ([20.7, 40], r"dims\[0\]"),
            ([20, 40.0], r"dims\[1\]"),
            ([True, 40], r"dims\[0\]"),
            (["20", 40], r"dims\[0\]"),
            ("12", r"\.dims"),
        ],
    )
    def test_dims_must_be_json_integers(self, dims, field):
        with pytest.raises(ValueError, match=field):
            space_from_dict({"dims": dims})

    @pytest.mark.parametrize("index", [0.0, 1.5, False, "1", None])
    def test_triple_indices_must_be_json_integers(self, index):
        data = {"dims": [2, 3], "triples": [{"i": 0, "j": index, "k": 1, "value": "1"}]}
        with pytest.raises(ValueError, match=r"triples\[0\]\.j"):
            space_from_dict(data)

    @settings(max_examples=50, deadline=None)
    @given(st.one_of(st.booleans(), st.floats(), st.text(), st.none()))
    def test_non_integer_dim_never_accepted(self, value):
        with pytest.raises(ValueError, match=r"dims\[1\]"):
            space_from_dict({"dims": [2, value]})
