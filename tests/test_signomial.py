"""Exact signomial algebra: frozen examples and algebraic property tests."""

import copy
import itertools
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from homscal.catalog import build
from homscal.signomial import (
    ExactEvaluationError,
    Monomial,
    Signomial,
    integer_root,
    rational_pow,
)


def sig(arity, *pairs):
    return Signomial.from_terms(arity, [(F(c), e) for c, e in pairs])


E6_REDUCED = sig(1, (5, {0: 2}), (20, {0: -1}), (F(-5, 2), {0: -4}))


class TestIntegerRoot:
    def test_exact_roots(self):
        assert integer_root(27, 3) == 3
        assert integer_root(1024, 10) == 2
        assert integer_root(0, 5) == 0
        assert integer_root(1, 7) == 1

    def test_inexact_root_is_none(self):
        assert integer_root(28, 3) is None
        assert integer_root(2, 2) is None

    def test_huge_value(self):
        n = 12345678901234567890123456789
        assert integer_root(n ** 7, 7) == n
        assert integer_root(n ** 7 + 1, 7) is None


class TestRationalPow:
    def test_integer_exponent(self):
        assert rational_pow(F(2, 3), F(-2)) == F(9, 4)

    def test_fractional_exponent_exact(self):
        assert rational_pow(F(4), F(1, 2)) == 2
        assert rational_pow(F(8, 27), F(2, 3)) == F(4, 9)

    def test_fractional_exponent_irrational(self):
        with pytest.raises(ExactEvaluationError):
            rational_pow(F(2), F(1, 2))

    def test_nonpositive_base(self):
        with pytest.raises(ValueError):
            rational_pow(F(-1), F(2))


class TestMonomial:
    def test_zero_exponents_dropped(self):
        assert Monomial({0: 0, 1: 2}).exps == ((1, F(2)),)

    def test_mul_adds_exponents(self):
        m = Monomial({0: F(1, 2)}).mul(Monomial({0: F(1, 2)}))
        assert m == Monomial({0: 1})

    def test_hashable_key(self):
        assert {Monomial({0: 1}): 1}[Monomial({0: F(2, 2)})] == 1


class TestAdd:
    def test_additive_inverse_cancels(self):
        f = sig(1, (5, {0: -1}))
        assert f + (-f) == Signomial.zero(1)

    def test_assembles_two_summand_curvature(self):
        # 1/2 (20/x + 40/y) - 10/4 (2/x + x/y^2) collected termwise
        f = sig(2, (10, {0: -1}), (20, {1: -1}))
        g = sig(2, (-5, {0: -1}), (F(-5, 2), {0: 1, 1: -2}))
        expected = sig(2, (5, {0: -1}), (20, {1: -1}), (F(-5, 2), {0: 1, 1: -2}))
        assert f + g == expected

    def test_zero_is_identity(self):
        assert E6_REDUCED + Signomial.zero(1) == E6_REDUCED

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            sig(1, (1, {0: 1})) + sig(2, (1, {0: 1}))


class TestMul:
    def test_half_powers_combine(self):
        f = sig(1, (1, {0: F(1, 2)}))
        assert f * f == sig(1, (1, {0: 1}))

    def test_inverse_cancels_variable(self):
        f = sig(2, (1, {0: -1}))
        g = sig(2, (1, {0: 1, 1: -2}))
        assert f * g == sig(2, (1, {1: -2}))

    def test_matches_direct_evaluation(self):
        # (2/y)(y/x^2) = 2/x^2; both sides at (x, y) = (2, 3) give 1/2
        f = sig(2, (2, {1: -1}))
        g = sig(2, (1, {0: -2, 1: 1}))
        prod = f * g
        assert prod == sig(2, (2, {0: -2}))
        point = (F(2), F(3))
        assert prod.eval_exact(point) == F(1, 2)
        assert f.eval_exact(point) * g.eval_exact(point) == F(1, 2)

    def test_scalar_multiple(self):
        assert 3 * E6_REDUCED == E6_REDUCED.scale(3)


class TestPartial:
    def test_one_variable_curvature_derivative(self):
        expected = sig(1, (10, {0: 1}), (-20, {0: -2}), (10, {0: -5}))
        assert E6_REDUCED.partial(0) == expected

    def test_rational_power_rule(self):
        f = sig(1, (1, {0: F(3, 2)}))
        assert f.partial(0) == sig(1, (F(3, 2), {0: F(1, 2)}))

    def test_constant_derivative_vanishes(self):
        assert Signomial.constant(2, F(7, 3)).partial(1) == Signomial.zero(2)

    def test_partial_is_memoized(self):
        f = sig(2, (3, {0: 2, 1: -1}), (1, {1: F(1, 2)}))
        assert f.partial(0) is f.partial(0)
        assert f.derivative((1, 0)) is f.derivative((0, 1))
        assert f.derivative((1, 0)) is f.partial(0).partial(1)

    def test_out_of_range_variable_still_raises(self):
        f = sig(2, (1, {0: 1}))
        f.partial(0)
        for var in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                f.partial(var)
        with pytest.raises(ValueError, match="out of range"):
            f.derivative((0, 2))

    def test_equality_and_hash_ignore_the_memo(self):
        f = sig(2, (3, {0: 2, 1: -1}), (1, {1: F(1, 2)}))
        g = sig(2, (3, {0: 2, 1: -1}), (1, {1: F(1, 2)}))
        f.derivative((0, 1, 1))
        f.eval_float((1.5, 2.0))
        f.partials_float((1.5, 2.0), 2)
        assert f == g and hash(f) == hash(g)
        assert g.partial(0) == f.partial(0)


class TestSubstituteMonomial:
    def test_volume_elimination_two_summands(self):
        # x := y^-2 in 5/x + 20/y - 5x/(2y^2) gives 5y^2 + 20/y - 5/(2y^4)
        scal = sig(2, (5, {0: -1}), (20, {1: -1}), (F(-5, 2), {0: 1, 1: -2}))
        reduced = scal.substitute_monomial(0, 1, {1: -2})
        expected = sig(2, (5, {1: 2}), (20, {1: -1}), (F(-5, 2), {1: -4}))
        assert reduced == expected
        assert reduced.drop_variable(0) == E6_REDUCED

    def test_three_variable_elimination(self):
        # z := x^-3 y^-4 in the three-summand reduced form; last term -1/4 x^-3 y^-6
        scal = sig(
            3,
            (F(1, 2), {0: -1}),
            (2, {1: -1}),
            (F(-1, 4), {0: 1, 1: -2}),
            (F(-1, 4), {1: -2, 2: 1}),
        )
        reduced = scal.substitute_monomial(2, 1, {0: -3, 1: -4}).drop_variable(2)
        expected = sig(
            2,
            (F(1, 2), {0: -1}),
            (2, {1: -1}),
            (F(-1, 4), {0: 1, 1: -2}),
            (F(-1, 4), {0: -3, 1: -6}),
        )
        assert reduced == expected

    def test_replacement_mentioning_variable_rejected(self):
        with pytest.raises(ValueError):
            E6_REDUCED.substitute_monomial(0, 1, {0: 1})

    def test_irrational_coefficient_power_rejected(self):
        f = sig(1, (1, {0: F(1, 2)}))
        with pytest.raises(ExactEvaluationError):
            f.substitute_monomial(0, 2, {})
        # a perfect square works: x^(1/2) with x := 4 gives the constant 2
        assert f.substitute_monomial(0, 4, {}) == Signomial.constant(1, 2)

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(ValueError):
            E6_REDUCED.substitute_monomial(0, 0, {})


class TestEval:
    def test_exact_value_at_one(self):
        assert E6_REDUCED.eval_exact((F(1),)) == F(45, 2)

    def test_empty_signomial(self):
        assert Signomial.zero(3).eval_exact((F(1), F(2), F(3))) == 0
        assert Signomial.zero(3).eval_float((0.5, 1.0, 2.0)) == 0.0

    def test_third_derivative_value(self):
        third = E6_REDUCED.partial(0).partial(0).partial(0)
        assert third.eval_exact((F(1),)) == 180

    def test_nonpositive_point_rejected(self):
        with pytest.raises(ValueError):
            E6_REDUCED.eval_float((0.0,))
        with pytest.raises(ValueError, match="coordinate 0 is not positive"):
            E6_REDUCED.partials_float((-1.0,), 0, absolute=True)
        with pytest.raises(ValueError):
            E6_REDUCED.eval_exact((F(-1),))
        with pytest.raises(ValueError, match="coordinate 0 is not positive"):
            E6_REDUCED.partials_float((-1.0,), 1)
        with pytest.raises(ValueError, match="coordinate 0 is not positive"):
            E6_REDUCED.partials_float((0.0,), 3, absolute=True)
        with pytest.raises(ValueError, match="coordinate 0 is not positive"):
            E6_REDUCED.hessian_float((0.0,))

    def test_irrational_power_rejected_in_exact_mode(self):
        f = sig(1, (1, {0: F(1, 2)}))
        with pytest.raises(ExactEvaluationError):
            f.eval_exact((F(2),))
        assert f.eval_float((2.0,)) == pytest.approx(2 ** 0.5)

    def test_overflowing_term_raises(self):
        with pytest.raises(OverflowError):
            E6_REDUCED.eval_float((1e-150,))
        with pytest.raises(OverflowError):
            E6_REDUCED.partials_float((1e-150,), 0, absolute=True)
        with pytest.raises(OverflowError):
            E6_REDUCED.partials_float((1e-150,), 1)
        with pytest.raises(OverflowError):
            E6_REDUCED.partials_float((1e-150,), 3, absolute=True)
        with pytest.raises(OverflowError):
            E6_REDUCED.hessian_float((1e-150,))

    def test_wrong_point_length_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            E6_REDUCED.partials_float((1.0, 1.0), 0, absolute=True)
        with pytest.raises(ValueError, match="arity"):
            E6_REDUCED.partials_float((1.0, 1.0), 1)
        with pytest.raises(ValueError, match="arity"):
            E6_REDUCED.partials_float((1.0, 1.0), 3, absolute=True)
        with pytest.raises(ValueError, match="arity"):
            E6_REDUCED.hessian_float((1.0, 1.0))

    def test_exact_and_float_values(self):
        assert E6_REDUCED.eval_exact((F(1),)) == F(45, 2)
        assert E6_REDUCED.eval_float((1.0,)) == 22.5


class TestCanonicalFractions:
    """Constructors store Fractions only, whatever the input type, and drop
    zeros; a Fraction is kept as is, anything else is converted."""

    def test_monomial_exponents(self):
        m = Monomial({3: False, 0: 2, 1: "1/2", 2: True, 4: "0", 5: F(0)})
        assert m.exps == ((0, F(2)), (1, F(1, 2)), (2, F(1)))
        assert all(type(e) is F for _, e in m.exps)

    def test_signomial_coefficients(self):
        f = Signomial(2, {
            Monomial({0: 1}): 3, Monomial({1: 1}): "-2/3", Monomial(): True,
            Monomial({0: 2}): False, Monomial({1: 2}): "0", Monomial({0: -1}): 0,
        })
        assert list(f.terms.items()) == [
            (Monomial({0: 1}), F(3)), (Monomial({1: 1}), F(-2, 3)), (Monomial(), F(1)),
        ]
        assert all(type(c) is F for c in f.terms.values())

    def test_from_terms_merges_and_drops_cancelled_terms(self):
        f = Signomial.from_terms(1, [(1, {0: 1}), ("1/2", {0: True}), (True, {}), (-1, {})])
        assert list(f.terms.items()) == [(Monomial({0: 1}), F(3, 2))]
        assert all(type(c) is F for c in f.terms.values())

    def test_fraction_subclass_is_converted(self):
        class Half(F):
            pass

        m = Monomial({0: Half(1, 2)})
        f = Signomial(1, {m: Half(3, 2)})
        assert type(m.exps[0][1]) is F
        assert type(f.terms[m]) is F


class TestExactPoint:
    """eval_exact checks the whole point once and skips unit coordinates."""

    f = sig(3, (2, {0: 1, 1: F(1, 2)}), (3, {2: -2}))

    def test_nonpositive_coordinate_rejected_beside_unit_ones(self):
        with pytest.raises(ValueError, match="coordinate 2 is not positive"):
            self.f.eval_exact((F(1), 1, F(-1)))
        with pytest.raises(ValueError, match="coordinate 0 is not positive"):
            self.f.eval_exact((0, 1, 1))
        with pytest.raises(ValueError, match="coordinate 1 is not positive"):
            sig(2, (1, {0: 1})).eval_exact((1, 0))
        with pytest.raises(ValueError, match="coordinate 1 is not positive"):
            Monomial({0: F(1, 2)}).eval_exact((1, -2))

    def test_short_point_rejected(self):
        with pytest.raises(ValueError, match="point has 1 coordinates"):
            Monomial({2: 1}).eval_exact((F(2),))
        with pytest.raises(ValueError, match="arity"):
            self.f.eval_exact((1, 1))

    def test_unit_base_root_is_exactly_one(self):
        root = sig(1, (1, {0: F(1, 2)}))
        assert root.eval_exact((F(1),)) == 1
        assert type(root.eval_exact((1,))) is F
        assert Monomial({0: F(1, 2)}).eval_exact((True,)) == 1
        assert rational_pow(1, F(1, 2)) == 1
        assert self.f.eval_exact((F(4), 1, F(1, 3))) == 2 * 4 + 3 * 9

    def test_irrational_root_still_raises(self):
        with pytest.raises(ExactEvaluationError):
            sig(1, (1, {0: F(1, 2)})).eval_exact((F(2),))
        with pytest.raises(ExactEvaluationError):
            self.f.eval_exact((1, F(2), 1))
        with pytest.raises(ExactEvaluationError):
            rational_pow(2, F(1, 2))


class TestText:
    def test_deterministic_rendering(self):
        assert E6_REDUCED.to_text(["y"]) == "-5/2 * y^-4 + 20 * y^-1 + 5 * y^2"

    def test_fractional_exponent_rendering(self):
        f = sig(2, (F(1, 3), {0: F(2, 3), 1: -1}))
        assert f.to_text() == "1/3 * x0^2/3 * x1^-1"

    def test_zero(self):
        assert Signomial.zero(2).to_text() == "0"


# -- property tests ---------------------------------------------------------------

coeffs = st.fractions(min_value=-8, max_value=8).filter(lambda c: c != 0)
int_exponents = st.integers(min_value=-4, max_value=4)
rat_exponents = st.fractions(min_value=-4, max_value=4).map(
    lambda q: F(q.numerator % 13 - 6, min(q.denominator, 3))
)


def signomials(arity, exponents=rat_exponents, max_terms=4):
    term = st.tuples(coeffs, st.dictionaries(st.integers(0, arity - 1), exponents, max_size=arity))
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda pairs: Signomial.from_terms(arity, pairs)
    )


positive_rationals = st.fractions(min_value=F(1, 4), max_value=4).filter(lambda q: q > 0)
# exponent 1 differentiates to a factor that disappears; the point 1 to one that is skipped
unit_or_rat_exponents = st.one_of(st.just(F(1)), rat_exponents)
unit_or_positive_rationals = st.one_of(st.just(F(1)), st.just(1), positive_rationals)


def reference_partial(f, var):
    """partial(var) by the per-term rule, built with the public constructors."""
    out = {}
    for m, c in f.terms.items():
        e = m.exponent(var)
        if e == 0:
            continue
        exps = dict(m.exps)
        exps[var] = e - 1
        nm = Monomial(exps)
        out[nm] = out.get(nm, F(0)) + c * e
    return Signomial(f.arity, out)


@settings(deadline=None)
@given(signomials(3, exponents=unit_or_rat_exponents), st.integers(0, 2))
def test_partial_terms_match_the_reference_in_order(f, var):
    got = list(f.partial(var).terms.items())
    assert got == list(reference_partial(f, var).terms.items())
    assert all(type(c) is F for _, c in got)
    assert all(type(e) is F for m, _ in got for _, e in m.exps)


@settings(deadline=None)
@given(
    signomials(2, exponents=int_exponents),
    st.tuples(unit_or_positive_rationals, unit_or_positive_rationals),
)
def test_eval_exact_matches_the_term_sum(f, point):
    reference = F(0)
    for m, c in f.terms.items():
        value = c
        for idx, e in m.exps:
            value *= F(point[idx]) ** e
        reference += value
    assert f.eval_exact(point) == reference


@settings(deadline=None)
@given(signomials(2))
def test_add_neg_cancels(f):
    assert f + (-f) == Signomial.zero(2)


@settings(deadline=None)
@given(signomials(3), st.integers(0, 2), st.integers(0, 2))
def test_partials_commute(f, i, j):
    assert f.partial(i).partial(j) == f.partial(j).partial(i)


@settings(deadline=None)
@given(signomials(2), signomials(2), st.integers(0, 1))
def test_product_rule(f, g, i):
    lhs = (f * g).partial(i)
    rhs = f.partial(i) * g + f * g.partial(i)
    assert lhs == rhs


@settings(deadline=None)
@given(
    signomials(2, exponents=int_exponents),
    st.tuples(positive_rationals, positive_rationals),
)
def test_float_eval_tracks_exact_eval(f, point):
    exact = f.eval_exact(point)
    approx = f.eval_float([float(x) for x in point])
    scale = max(abs(float(exact)), f.partials_float(point, 0, absolute=True)[0], 1.0)
    assert abs(approx - float(exact)) <= 1e-12 * scale


@settings(deadline=None)
@given(
    signomials(2),
    st.dictionaries(st.just(1), st.integers(-3, 3), min_size=0, max_size=1),
    st.tuples(positive_rationals, positive_rationals),
)
def test_substitute_then_eval_consistent(f, repl, point):
    # replacing x0 by the monomial prod x_j^{a_j} (coefficient 1), then
    # evaluating, must agree with evaluating f at the substituted coordinate
    substituted = f.substitute_monomial(0, 1, repl)
    fpoint = [float(x) for x in point]
    x0 = 1.0
    for j, a in repl.items():
        x0 *= fpoint[j] ** float(a)
    direct = f.eval_float([x0, fpoint[1]])
    via_sub = substituted.eval_float(fpoint)
    scale = max(abs(direct), f.partials_float([x0, fpoint[1]], 0, absolute=True)[0], 1.0)
    assert abs(via_sub - direct) <= 1e-9 * scale


def reference_float_sum(f, point, absolute):
    """Term-by-term float sum straight from the exact term map."""
    total = 0.0
    for mono, c in f.terms.items():
        prod = 1.0
        for idx, e in mono.exps:
            prod *= float(point[idx]) ** float(e)
        total += (abs(float(c)) if absolute else float(c)) * prod
    return total


positive_floats = st.floats(min_value=1 / 16, max_value=16)


@settings(deadline=None)
@given(signomials(3), st.tuples(positive_floats, positive_floats, positive_floats))
def test_float_eval_is_bitwise_the_term_sum(f, point):
    for _ in range(2):  # the first call builds the float form, the second reuses it
        assert f.eval_float(point).hex() == reference_float_sum(f, point, False).hex()
        abs_sum = f.partials_float(point, 0, absolute=True)[0]
        assert abs_sum.hex() == reference_float_sum(f, point, True).hex()


@settings(deadline=None)
@given(signomials(3), st.tuples(positive_floats, positive_floats, positive_floats))
def test_first_partials_float_is_bitwise_each_partial(f, point):
    # the first call builds the first partials' float forms, the second reuses them
    for _ in range(2):
        assert [g.hex() for g in f.partials_float(point, 1)] == [
            f.partial(i).eval_float(point).hex() for i in range(3)
        ]


@settings(deadline=None)
@given(signomials(3), st.tuples(positive_floats, positive_floats, positive_floats))
def test_hessian_float_is_bitwise_each_second_partial(f, point):
    # the first call builds the second partials' float forms, the second reuses them
    for _ in range(2):
        assert [[h.hex() for h in row] for row in f.hessian_float(point)] == [
            [f.derivative((i, j)).eval_float(point).hex() for j in range(3)]
            for i in range(3)
        ]


@settings(deadline=None)
@given(
    signomials(3),
    st.tuples(positive_floats, positive_floats, positive_floats),
    st.integers(0, 3),
    st.booleans(),
)
def test_partials_float_is_bitwise_the_term_sum_of_each_partial(f, point, order, absolute):
    alphas = list(itertools.combinations_with_replacement(range(3), order))
    want = [reference_float_sum(f.derivative(a), point, absolute).hex() for a in alphas]
    # the first call builds the order's float forms, the second reuses them
    for _ in range(2):
        assert [v.hex() for v in f.partials_float(point, order, absolute)] == want
    upper = [v.hex() for v in f.partials_float(point, 2)]
    hess = f.hessian_float(point)
    pairs = itertools.combinations_with_replacement(range(3), 2)
    assert [hess[i][j].hex() for i, j in pairs] == upper
    assert all(hess[i][j].hex() == hess[j][i].hex() for i in range(3) for j in range(3))


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("copier", [_pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
class TestCopy:
    def test_monomial(self, copier):
        m = Monomial({0: F(3, 2), 2: -1})
        c = copier(m)
        assert c == m and hash(c) == hash(m)
        assert c.eval_exact((F(4), 7, F(1, 2))) == m.eval_exact((F(4), 7, F(1, 2)))

    def test_signomial(self, copier):
        point = (1.3, 0.7)
        f = sig(2, (3, {0: 2}), (F(-1, 3), {0: -1, 1: F(1, 2)}), (5, {}))
        f.partial(0).eval_float(point)  # fill the memos the copy must not carry
        f.partials_float(point, 2)
        c = copier(f)
        assert c == f and hash(c) == hash(f)
        assert c.eval_float(point).hex() == f.eval_float(point).hex()
        for order in range(3):
            assert c.partials_float(point, order) == f.partials_float(point, order)
        assert c.partial(0).eval_float(point).hex() == f.partial(0).eval_float(point).hex()
        with pytest.raises(AttributeError, match="immutable"):
            c.arity = 3

    def test_catalog_chart(self, copier):
        chart = build("su2n_mod_spn", 4).chart
        point = (1.2, 0.6)
        c = copier(chart)
        assert c == chart
        assert c.reduced.eval_float(point).hex() == chart.reduced.eval_float(point).hex()
        assert c.reduced.partials_float(point, 1) == chart.reduced.partials_float(point, 1)
