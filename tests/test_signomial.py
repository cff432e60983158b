"""Exact signomial algebra: frozen examples and algebraic property tests."""

import ast
import copy
import itertools
import pickle
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homscal import chart as chart_mod, flow as flow_mod, signomial as signomial_mod
from homscal.catalog import build
from homscal.chart import _search_template
from homscal.flow import _ascent_template
from homscal.signomial import (
    ExactEvaluationError,
    Signomial,
    _kernel_template,
    integer_root,
    rational_pow,
)


def sig(arity, *pairs):
    return Signomial.from_terms(arity, [(F(c), e) for c, e in pairs])


E6_REDUCED = sig(1, (5, {0: 2}), (20, {0: -1}), (F(-5, 2), {0: -4}))


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


def _fresh(f):
    """A copy of f without its memos: its first float call compiles a kernel."""
    return _pickled(f)


def _gradient_kernel(f):
    """The kernel that partials_float(point, 1) runs, after running it."""
    f.partials_float((1.3, 0.7), 1)
    return f._kernels[_kernel_template, False, 1]


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

    @pytest.mark.parametrize("value, k", [(-1, 2), (4, 0)])
    def test_negative_value_or_nonpositive_degree_rejected(self, value, k):
        with pytest.raises(ValueError, match="needs value >= 0, k >= 1"):
            integer_root(value, k)


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

    @settings(max_examples=300, deadline=None)
    @given(root=st.fractions(min_value=F(1, 60), max_value=60, max_denominator=60),
           cofactor=st.sampled_from([1, 2, F(1, 3), F(4, 9), F(8, 27), 32]),
           p=st.integers(-12, 12), q=st.integers(1, 8))
    def test_root_first_matches_powered_first(self, root, cofactor, p, q):
        # root^q is a q-th power; a cofactor may keep base a power or spoil it
        base, exp = root ** q * cofactor, F(p, q)
        assert _outcome(rational_pow, base, exp) == _outcome(_powered_first_pow, base, exp)


def _powered_first_pow(base, exp):
    """rational_pow as it raised base to the numerator of exp before taking
    the roots of the powered numerator and denominator."""
    base, exp = F(base), F(exp)
    if base <= 0:
        raise ValueError(f"rational_pow needs a positive base, got {base}")
    if exp == 0 or base == 1:
        return F(1)
    if exp < 0:
        base, exp = 1 / base, -exp
    powered = base ** exp.numerator
    if exp.denominator == 1:
        return powered
    num = integer_root(powered.numerator, exp.denominator)
    den = integer_root(powered.denominator, exp.denominator)
    if num is None or den is None:
        raise ExactEvaluationError(f"{base}^{exp} is irrational")
    return F(num, den)


def _outcome(pow_rule, base, exp):
    """The value with its type, or the type and message of the error."""
    try:
        value = pow_rule(base, exp)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return type(value), value


def key_of(arity, exps):
    """The term key the public constructor makes of one power product."""
    (key,) = Signomial.from_terms(arity, [(1, exps)]).terms
    return key


class TestTermKey:
    """A term is keyed by its exponent tuple: nonzero Fraction exponents
    paired with their indices, sorted by index."""

    def test_sorted_key_without_zero_exponents(self):
        assert key_of(3, {2: -1, 0: 0, 1: 2}) == ((1, F(2)), (2, F(-1)))
        assert key_of(3, [(2, F(1, 2)), (0, 3)]) == ((0, F(3)), (2, F(1, 2)))
        assert key_of(2, {0: 0, 1: F(0)}) == ()

    def test_equal_keys_hash_equal_and_look_up(self):
        a, b = key_of(1, {0: 1}), key_of(1, {0: F(2, 2)})
        assert a == b and hash(a) == hash(b)
        assert sig(1, (3, {0: 1})).terms[b] == 3

    def test_mapping_keys_are_made_canonical_and_merged(self):
        f = Signomial(3, {((2, 1), (0, 2)): 1, ((0, 2), (1, 0), (2, 1)): 2, ((1, "1/2"),): 5})
        assert list(f.terms.items()) == [(((0, F(2)), (2, F(1))), F(3)), (((1, F(1, 2)),), F(5))]
        assert Signomial(2, {((0, 1),): 1, ((1, 0), (0, F(2, 2))): -1}) == Signomial(2)


class Index:
    """An integer type other than int: operator.index accepts it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class TestConstructorChecks:
    """Every index and the arity is an integer, by operator.index and not
    bool, in range; anything else is a ValueError from every constructor."""

    @pytest.mark.parametrize("exps, match", [
        ({1.9: 1}, "variable index: expected an integer, got 1.9"),
        ({True: 2}, "variable index: expected an integer, got True"),
        ({"1": 1}, "variable index: expected an integer, got '1'"),
        ({-1: 1}, "variable index -1 out of range for arity 2"),
        ({2: 1}, "variable index 2 out of range for arity 2"),
        ({2: 0}, "variable index 2 out of range for arity 2"),
        ([(0, 1), (0, 2)], "duplicate variable index"),
    ], ids=["float", "bool", "str", "negative", "at-arity", "at-arity-zero-exponent",
            "repeated"])
    def test_bad_index(self, exps, match):
        with pytest.raises(ValueError, match=match):
            Signomial.from_terms(2, [(1, exps)])
        with pytest.raises(ValueError, match=match):
            Signomial(2, {tuple(exps.items() if isinstance(exps, dict) else exps): 1})

    @pytest.mark.parametrize("arity, match", [
        (2.5, "arity: expected an integer, got 2.5"),
        (True, "arity: expected an integer, got True"),
        ("2", "arity: expected an integer, got '2'"),
        (-1, "arity must be nonnegative"),
    ], ids=["float", "bool", "str", "negative"])
    def test_bad_arity(self, arity, match):
        with pytest.raises(ValueError, match=match):
            Signomial(arity)
        with pytest.raises(ValueError, match=match):
            Signomial.from_terms(arity, [])

    def test_integer_types_are_taken_by_their_index(self):
        f = Signomial.from_terms(Index(2), [(1, {Index(1): 2})])
        assert type(f.arity) is int and f.arity == 2
        assert f == sig(2, (1, {1: 2})) and list(f.terms) == [((1, F(2)),)]
        assert type(next(iter(f.terms))[0][0]) is int


class TestAdd:
    def test_assembles_two_summand_curvature(self):
        # 1/2 (20/x + 40/y) - 10/4 (2/x + x/y^2) collected termwise
        f = [(10, {0: -1}), (20, {1: -1})]
        g = [(-5, {0: -1}), (F(-5, 2), {0: 1, 1: -2})]
        expected = sig(2, (5, {0: -1}), (20, {1: -1}), (F(-5, 2), {0: 1, 1: -2}))
        assert Signomial.from_terms(2, f + g) == expected


class TestPartial:
    def test_one_variable_curvature_derivative(self):
        expected = sig(1, (10, {0: 1}), (-20, {0: -2}), (10, {0: -5}))
        assert E6_REDUCED.partial(0) == expected

    def test_rational_power_rule(self):
        f = sig(1, (1, {0: F(3, 2)}))
        assert f.partial(0) == sig(1, (F(3, 2), {0: F(1, 2)}))

    def test_constant_derivative_vanishes(self):
        assert sig(2, (F(7, 3), {})).partial(1) == Signomial(2)

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
        for _ in range(2):  # the first calls compile kernels, the second rerun them
            f.eval_float((1.5, 2.0))
            f.partials_float((1.5, 2.0), 2)
            f._compiled(_search_template, 2, 1)
            f._compiled(_ascent_template, 1, 0)
        for key in [(_kernel_template, False, 0), (_kernel_template, False, 2),
                    (_search_template, False, 2, 1), (_ascent_template, False, 1, 0)]:
            assert f._kernels[key] is not None
        assert f == g and hash(f) == hash(g)
        assert g.partial(0) == f.partial(0)


class TestEval:
    def test_exact_value_at_one(self):
        assert E6_REDUCED.eval_exact((F(1),)) == F(45, 2)

    def test_empty_signomial(self):
        assert Signomial(3).eval_exact((F(1), F(2), F(3))) == 0
        assert Signomial(3).eval_float((0.5, 1.0, 2.0)) == 0.0

    def test_third_derivative_value(self):
        third = E6_REDUCED.partial(0).partial(0).partial(0)
        assert third.eval_exact((F(1),)) == 180

    @staticmethod
    def raises_on_every_call(calls, exc, match=None):
        # each call runs three times on a fresh copy of E6_REDUCED, whose
        # shared memos would make the first call depend on test order: the
        # first call compiles the kernel and runs it, the later ones rerun it
        for call in calls:
            f = _fresh(E6_REDUCED)
            for _ in range(3):
                with pytest.raises(exc, match=match):
                    call(f)

    def test_nonpositive_point_rejected(self):
        self.raises_on_every_call([
            lambda f: f.eval_float((0.0,)),
            lambda f: f.partials_float((-1.0,), 0, absolute=True),
            lambda f: f.partials_float((-1.0,), 1),
            lambda f: f.partials_float((0.0,), 3, absolute=True),
            lambda f: f.hessian_float((0.0,)),
        ], ValueError, "coordinate 0 is not positive: -?[01]\\.0$")
        with pytest.raises(ValueError):
            E6_REDUCED.eval_exact((F(-1),))

    def test_irrational_power_rejected_in_exact_mode(self):
        f = sig(1, (1, {0: F(1, 2)}))
        with pytest.raises(ExactEvaluationError):
            f.eval_exact((F(2),))
        assert f.eval_float((2.0,)) == pytest.approx(2 ** 0.5)

    def test_overflowing_term_raises(self):
        self.raises_on_every_call([
            lambda f: f.eval_float((1e-150,)),
            lambda f: f.partials_float((1e-150,), 0, absolute=True),
            lambda f: f.partials_float((1e-150,), 1),
            lambda f: f.partials_float((1e-150,), 3, absolute=True),
            lambda f: f.hessian_float((1e-150,)),
        ], OverflowError)

    def test_wrong_point_length_rejected(self):
        self.raises_on_every_call([
            lambda f: f.eval_float((1.0, 1.0)),
            lambda f: f.partials_float((1.0, 1.0), 0, absolute=True),
            lambda f: f.partials_float((1.0, 1.0), 1),
            lambda f: f.partials_float((1.0, 1.0), 3, absolute=True),
            lambda f: f.hessian_float((1.0, 1.0)),
        ], ValueError, "^point has 2 coordinates, arity is 1$")

    def test_coefficient_beyond_the_double_range_is_named(self):
        f = sig(1, (F(3, 2) * 10 ** 308, {0: 3}), (1, {}))
        with pytest.raises(OverflowError, match=r"partial \(0,\) of order 1 has "
                                                r"coefficient 4.5e\+308"):
            f.partials_float((1.0,), 1)

    def test_exact_and_float_values(self):
        assert E6_REDUCED.eval_exact((F(1),)) == F(45, 2)
        assert E6_REDUCED.eval_float((1.0,)) == 22.5


class TestKernels:
    """The kernel compiled on the first call per order and absolute gives the
    bits of the term sum on that call and on every later one."""

    @staticmethod
    def values_of_three_calls(f, point, order, absolute):
        f = _fresh(f)
        return [
            [v.hex() for v in f.partials_float(point, order, absolute)] for _ in range(3)
        ]

    def test_five_thousand_terms_compile_and_match_the_term_sum(self):
        f = Signomial.from_terms(2, [
            (F((-1) ** k * (k + 1), 13), {0: F(k % 71 - 35, 7), 1: F(k // 71 - 35, 5)})
            for k in range(5000)
        ])
        assert len(f) == 5000
        point = (1.1, 0.95)
        for order, absolute in ((0, False), (0, True)):
            want = [
                reference_float_sum(f.derivative(a), point, absolute).hex()
                for a in itertools.combinations_with_replacement(range(2), order)
            ]
            assert self.values_of_three_calls(f, point, order, absolute) == [want] * 3

    def test_coefficient_underflowing_to_negative_zero(self):
        tiny = F(-1, 10 ** 400)
        f = sig(1, (tiny, {0: 2}), (tiny, {}))
        assert float(tiny).hex() == "-0x0.0p+0"
        for order in range(3):
            for absolute in (False, True):
                got = self.values_of_three_calls(f, (1.5,), order, absolute)
                assert got == [["0x0.0p+0"]] * 3  # 0.0 + -0.0 is +0.0

    @pytest.mark.parametrize("compiled, literals", [
        # the kernel's own floats: each sum's start and the empty product
        (_gradient_kernel, {0.0, 1.0}),
        # the Newton search's damping factor 1.0, halved by 0.5, and its
        # convergence threshold
        (lambda f: f._compiled(_search_template, 2, 1), {0.0, 1.0, 0.5, 1e-12}),
        # the RK4 ascent's half and sixth steps, its stop threshold and its
        # tolerance on a decrease
        (lambda f: f._compiled(_ascent_template, 1, 0),
         {0.0, 1.0, 0.5, 6.0, 1e-10, -1e-10}),
    ], ids=["kernel", "newton-search", "rk4-ascent"])
    def test_source_holds_no_coefficient_or_exponent(self, compiled, literals):
        f = _fresh(sig(2, (F(7, 3), {0: F(5, 11)}), (F(-13, 17), {0: 2, 1: F(-19, 23)})))
        for _ in range(2):
            fn = compiled(f)
        # a constant tuple such as (1.0, None) is folded from its items
        items = [c for const in fn.__code__.co_consts
                 for c in (const if isinstance(const, tuple) else (const,))]
        consts = {c for c in items if not isinstance(c, (int, str))}
        assert consts <= {None} | literals
        assert float(F(-6, 11)) in fn.__defaults__
        assert float(F(-19, 23)) in fn.__defaults__

    def test_charts_of_one_shape_share_the_compiled_code(self):
        kernels = []
        for n in (5, 6):
            f = _fresh(build("su_n", n).chart.reduced)
            for _ in range(2):
                f.partials_float((1.1, 0.9), 1)
            kernels.append(f._kernels[_kernel_template, False, 1])
        assert kernels[0] is not kernels[1]
        assert kernels[0].__code__ is kernels[1].__code__

    @pytest.mark.parametrize("order, absolute, call", [
        (0, False, lambda f: f.eval_float((1.5,))),
        (1, True, lambda f: f.partials_float((1.5,), 1, absolute=True)),
        (2, False, lambda f: f.hessian_float((1.5,))),
        (3, False, lambda f: f.partials_float((1.5,), 3)),
    ])
    def test_first_call_compiles_and_the_next_reuses_the_kernel(self, order, absolute, call):
        f = _fresh(E6_REDUCED)
        first = call(f)
        key = (_kernel_template, absolute, order)
        kernel = f._kernels[key]
        assert list(f._kernels) == [key]
        assert kernel.__code__.co_filename == "<signomial kernel, arity 1>"
        assert call(f) == first
        assert f._kernels[key] is kernel


class TestCanonicalFractions:
    """Constructors store Fractions only, whatever the input type, and drop
    zeros; a Fraction is kept as is, anything else is converted."""

    def test_key_exponents(self):
        key = key_of(6, {3: False, 0: 2, 1: "1/2", 2: True, 4: "0", 5: F(0)})
        assert key == ((0, F(2)), (1, F(1, 2)), (2, F(1)))
        assert all(type(e) is F for _, e in key)

    def test_signomial_coefficients(self):
        f = Signomial(2, {
            ((0, 1),): 3, ((1, 1),): "-2/3", (): True,
            ((0, 2),): False, ((1, 2),): "0", ((0, -1),): 0,
        })
        assert list(f.terms.items()) == [
            (((0, F(1)),), F(3)), (((1, F(1)),), F(-2, 3)), ((), F(1)),
        ]
        assert all(type(c) is F for c in f.terms.values())
        assert all(type(e) is F for key in f.terms for _, e in key)

    def test_from_terms_merges_and_drops_cancelled_terms(self):
        f = Signomial.from_terms(1, [(1, {0: 1}), ("1/2", {0: True}), (True, {}), (-1, {})])
        assert list(f.terms.items()) == [(((0, F(1)),), F(3, 2))]
        assert all(type(c) is F for c in f.terms.values())

    def test_fraction_subclass_is_converted(self):
        class Half(F):
            pass

        f = Signomial(1, {((0, Half(1, 2)),): Half(3, 2)})
        ((key, c),) = f.terms.items()
        assert key == ((0, F(1, 2)),) and type(key[0][1]) is F
        assert c == F(3, 2) and type(c) is F


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
            sig(2, (1, {0: F(1, 2)})).eval_exact((1, -2))

    def test_short_point_rejected(self):
        with pytest.raises(ValueError, match="^point has 1 coordinates, arity is 3$"):
            sig(3, (1, {2: 1})).eval_exact((F(2),))
        with pytest.raises(ValueError, match="arity"):
            self.f.eval_exact((1, 1))

    def test_unit_base_root_is_exactly_one(self):
        root = sig(1, (1, {0: F(1, 2)}))
        assert root.eval_exact((F(1),)) == 1
        assert type(root.eval_exact((1,))) is F
        assert sig(1, (1, {0: F(1, 2)})).eval_exact((True,)) == 1
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
        assert Signomial(2).to_text() == "0"
        assert not Signomial(2) and len(Signomial(2)) == 0
        assert sig(2, (1, {})) and len(sig(2, (1, {}), (2, {0: 1}))) == 2


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
    for key, c in f.terms.items():
        exps = dict(key)
        e = exps.get(var, 0)
        if e == 0:
            continue
        exps[var] = e - 1
        nk = key_of(f.arity, exps)
        out[nk] = out.get(nk, F(0)) + c * e
    return Signomial(f.arity, out)


@settings(deadline=None)
@given(signomials(3, exponents=unit_or_rat_exponents), st.integers(0, 2))
def test_partial_terms_match_the_reference_in_order(f, var):
    got = list(f.partial(var).terms.items())
    assert got == list(reference_partial(f, var).terms.items())
    assert all(type(c) is F for _, c in got)
    assert all(type(e) is F for key, _ in got for _, e in key)


@settings(deadline=None)
@given(signomials(3, exponents=unit_or_rat_exponents), st.integers(0, 2))
def test_partial_keys_equal_and_hash_as_constructed_ones(f, var):
    for key in f.partial(var).terms:
        assert list(key) == sorted(key) and all(e for _, e in key)
        for other in (key_of(3, key), key_of(3, dict(key)), key_of(3, key[::-1]), _pickled(key)):
            assert other == key and hash(other) == hash(key)


@settings(deadline=None)
@given(
    signomials(2, exponents=int_exponents),
    st.tuples(unit_or_positive_rationals, unit_or_positive_rationals),
)
def test_eval_exact_matches_the_term_sum(f, point):
    reference = F(0)
    for key, c in f.terms.items():
        value = c
        for idx, e in key:
            value *= F(point[idx]) ** e
        reference += value
    assert f.eval_exact(point) == reference


def exact_term_sum(f, point):
    """f at a positive rational point, term by term in Fractions, with
    rational_pow for each factor: the exact oracle of the evaluator."""
    total = F(0)
    for key, c in f.terms.items():
        for idx, e in key:
            c *= rational_pow(F(point[idx]), e)
        total += c
    return total


# perfect squares, cubes and fourth powers keep most powers with
# denominators up to 4 rational; 2/3 and 5 close the exact path
power_bases = st.sampled_from([F(1), F(4), F(9, 4), F(1, 8), F(27), F(16, 81), F(2, 3), F(5)])


@settings(deadline=None)
@given(signomials(3), st.tuples(power_bases, power_bases, power_bases), st.integers(0, 2))
def test_line_exact_along_an_axis_is_the_term_sum_of_each_partial(f, point, var):
    axis = tuple(int(j == var) for j in range(3))
    try:
        want, g = [], f
        for _ in range(4):
            want.append(exact_term_sum(g, point))
            g = reference_partial(g, var)
    except ExactEvaluationError:
        # a partial's power is irrational only where f's is
        with pytest.raises(ExactEvaluationError, match="is irrational"):
            f.line_exact(point, axis)
        return
    got = f.line_exact(point, axis)
    assert all(type(v) is F for v in got)
    assert list(got) == want


@settings(deadline=None)
@given(signomials(3), st.integers(0, 2), st.integers(0, 2))
def test_partials_commute(f, i, j):
    assert f.partial(i).partial(j) == f.partial(j).partial(i)


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


def reference_float_sum(f, point, absolute):
    """Term-by-term float sum straight from the exact term map."""
    total = 0.0
    for key, c in f.terms.items():
        prod = 1.0
        for idx, e in key:
            prod *= float(point[idx]) ** float(e)
        total += (abs(float(c)) if absolute else float(c)) * prod
    return total


positive_floats = st.floats(min_value=1 / 16, max_value=16)


@settings(deadline=None)
@given(signomials(3), st.tuples(positive_floats, positive_floats, positive_floats))
def test_float_eval_is_bitwise_the_term_sum(f, point):
    for _ in range(3):  # the first call compiles the kernels, the later ones rerun them
        assert f.eval_float(point).hex() == reference_float_sum(f, point, False).hex()
        abs_sum = f.partials_float(point, 0, absolute=True)[0]
        assert abs_sum.hex() == reference_float_sum(f, point, True).hex()


@settings(deadline=None)
@given(signomials(3), st.tuples(positive_floats, positive_floats, positive_floats))
def test_first_partials_float_is_bitwise_each_partial(f, point):
    # the first call compiles the kernel, the later ones rerun it
    for _ in range(3):
        assert [g.hex() for g in f.partials_float(point, 1)] == [
            f.partial(i).eval_float(point).hex() for i in range(3)
        ]


@settings(deadline=None)
@given(signomials(3), st.tuples(positive_floats, positive_floats, positive_floats))
def test_hessian_float_is_bitwise_each_second_partial(f, point):
    # the first call compiles the kernel, the later ones rerun it
    for _ in range(3):
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
    # the first call compiles the kernel, the later ones rerun it
    for _ in range(3):
        assert [v.hex() for v in f.partials_float(point, order, absolute)] == want
    upper = [v.hex() for v in f.partials_float(point, 2)]
    hess = f.hessian_float(point)
    pairs = itertools.combinations_with_replacement(range(3), 2)
    assert [hess[i][j].hex() for i, j in pairs] == upper
    assert all(hess[i][j].hex() == hess[j][i].hex() for i in range(3) for j in range(3))




def reference_order_constants(f, order):
    """The shape and the constants, as .hex(), of the partials of one order,
    each partial built by derivative(alpha) and each of its Fractions
    converted by float() in term order: per term the coefficient, then the
    exponent of each factor."""
    shape, constants = [], []
    for alpha in itertools.combinations_with_replacement(range(f.arity), order):
        terms = f.derivative(alpha).terms
        shape.append(tuple(tuple(i for i, _ in key) for key in terms))
        for key, c in terms.items():
            constants += [float(c), *(float(e) for _, e in key)]
    return tuple(shape), [x.hex() for x in constants]


# integer exponents kill terms at high orders; (7/3)^k and its inverse give
# numerators and denominators beyond a double whose quotients are not
big_coeffs = st.tuples(coeffs, st.integers(-500, 500)).map(lambda ck: ck[0] * F(7, 3) ** ck[1])


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda arity: st.lists(
           st.tuples(big_coeffs, st.dictionaries(st.integers(0, arity - 1), unit_or_rat_exponents,
                                                 max_size=arity)),
           max_size=4).map(lambda pairs: Signomial.from_terms(arity, pairs))),
       st.integers(0, 5))
def test_order_constants_are_the_partials_constants(f, order):
    fresh = _fresh(f)
    shape, constants = fresh._order_constants(order)
    assert (shape, [x.hex() for x in constants]) == reference_order_constants(f, order)
    assert fresh._partials == {}  # no partial signomial was built


@pytest.mark.parametrize("f, order, message", [
    (sig(1, (F(10 ** 308, 4), {0: 4})), 2, r"partial \(0, 0\) of order 2 has coefficient 3e\+308"),
    (sig(2, (1, {0: 2}), (-1, {1: 10 ** 309})), 0, r"partial \(\) of order 0 has exponent 1e\+309"),
    (sig(2, (2, {0: 2, 1: F(-17, 10) * 10 ** 308})), 1,
     r"partial \(1,\) of order 1 has coefficient -3.4e\+308"),
])
def test_order_constants_name_the_partial_beyond_a_double(f, order, message):
    if order:  # the order below converts
        f._order_constants(order - 1)
    with pytest.raises(OverflowError, match=message):
        f._order_constants(order)
    assert order not in f._floats


def test_order_constants_build_the_int_form_once(monkeypatch):
    # orders 0-3 of one chart read one int form of its terms: one _int_form
    # call per term, where a build per order made four
    f = _fresh(build("su2n_mod_spn", 4).chart.reduced)
    int_form, calls = signomial_mod._int_form, []
    monkeypatch.setattr(signomial_mod, "_int_form", lambda key: calls.append(key) or int_form(key))
    for order in range(4):
        f._order_constants(order)
    assert len(calls) / len(f.terms) == 1
    assert calls == list(f.terms)
    # the int form is a memo: no part of a copy, of == or of the hash
    c = _pickled(f)
    assert c._ints is None and c == f and hash(c) == hash(f)
    assert c._order_constants(2) == f._order_constants(2)


@pytest.mark.parametrize("copier", [_pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
class TestCopy:
    def test_term_key(self, copier):
        key = key_of(3, {0: F(3, 2), 2: -1})
        c = copier(key)
        assert c == key and hash(c) == hash(key)
        point = (F(4), 7, F(1, 2))
        assert Signomial(3, {c: 1}).eval_exact(point) == 16
        assert Signomial(3, {key: 1}).eval_exact(point) == 16

    def test_signomial(self, copier):
        point = (1.3, 0.7)
        f = sig(2, (3, {0: 2}), (F(-1, 3), {0: -1, 1: F(1, 2)}), (5, {}))
        for _ in range(2):  # fill the memos the copy must not carry, kernels too
            f.partial(0).eval_float(point)
            f.partials_float(point, 2)
            search = f._compiled(_search_template, 2, 1)
            ascent = f._compiled(_ascent_template, 1, 0)
        c = copier(f)
        assert c._kernels == {} and c._partials == {}
        # the copy binds its own search and ascent, to the same doubles
        assert c._compiled(_search_template, 2, 1) is not search
        assert c._compiled(_search_template, 2, 1).__defaults__ == search.__defaults__
        assert c._compiled(_ascent_template, 1, 0).__defaults__ == ascent.__defaults__
        c = copier(f)
        assert c == f and hash(c) == hash(f)
        for _ in range(3):  # the copy compiles its own kernels, then reruns them
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


@pytest.mark.parametrize("module", [chart_mod, flow_mod], ids=["chart", "flow"])
def test_compiled_functions_are_bound_only_in_signomial(module):
    # Signomial._compiled is the one place that lays out, numbers and binds
    # the constants of a generated function; a module that builds functions
    # from code objects or reads shapes itself has a second copy of that
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1]
            imported.add(source)
            imported.update(f"{source}.{alias.name}" for alias in node.names)
    assert "signomial._define" in imported
    assert not {name for name in imported if name.split(".")[0] == "types"}
    assert "signomial._shape" not in imported


def _function_type_calls(tree, scope=()):
    """The qualified name of the function around each types.FunctionType call."""
    out = []
    for node in ast.iter_child_nodes(tree):
        inner = (*scope, node.name) if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else scope
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("FunctionType"):
            out.append(".".join(scope))
        out += _function_type_calls(node, inner)
    return out


def test_only_compiled_makes_functions_from_code():
    # one binder: no other function in the package, kernels' included,
    # turns a code object and constants into a function
    package = Path(chart_mod.__file__).parent
    calls = {path.name: _function_type_calls(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(package.glob("*.py"))}
    assert {name: c for name, c in calls.items() if c} == {"signomial.py": ["Signomial._compiled"]}
