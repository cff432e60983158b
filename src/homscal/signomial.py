"""Exact signomial algebra over the rationals.

A signomial is a finite sum of terms c * x0^e0 * x1^e1 * ... with rational
coefficient c and rational exponents e_i, defined on the positive orthant
x_i > 0.  The representation is a canonical term map

    Signomial.terms : dict[Monomial, Fraction]

with no zero coefficients stored, so two signomials are equal exactly when
their term maps are equal.  A Monomial stores only its nonzero exponents as a
sorted tuple of (variable index, exponent) pairs, which makes it hashable.

Exponents are Fractions rather than ints because eliminating a coordinate
against a volume constraint produces powers like x^(n/(n-2)).  All algebra
(addition, multiplication, differentiation, monomial substitution) is exact;
only evaluation may leave the rationals, and then the caller chooses between
the exact path (which raises ExactEvaluationError if an irrational power
appears) and the float path.

The exact path does no work twice.  eval_exact converts and checks the point
once per call, not once per term and factor; a coordinate equal to 1
contributes no factor, and rational_pow returns 1 for base 1 before any root
is taken.  A Fraction is already in lowest terms, so the constructors store
one as is and convert only other values (int, str, bool); every stored
coefficient and exponent is a Fraction either way.

The float path is the only float evaluator in the package: each signomial
converts its coefficients and exponents to doubles once, on first use, and
eval_float loops over that memoized form with scalar powers.
partials_float(point, order) evaluates every partial of one order in one
pass, from one memo of their float forms per order; with absolute=True it
sums |term| values instead, the scale against which cancellation is judged.
hessian_float is its order-2 result as a symmetric matrix.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fraction(value: Rat) -> Fraction:
    """value as a Fraction; a Fraction is already canonical and is kept as is."""
    return value if type(value) is Fraction else Fraction(value)


class ExactEvaluationError(ArithmeticError):
    """An exact operation would require an irrational number."""


def integer_root(value: int, k: int) -> int | None:
    """Return the exact k-th root of a nonnegative integer, or None.

    Newton iteration on integers; no floating point, so correct for
    arbitrarily large values.
    """
    if value < 0 or k < 1:
        raise ValueError(f"integer_root needs value >= 0, k >= 1, got {value}, {k}")
    if value in (0, 1) or k == 1:
        return value
    x = 1 << (value.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + value // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x ** k == value else None


def rational_pow(base: Rat, exp: Fraction) -> Fraction:
    """Exact base**exp for positive rational base, or raise ExactEvaluationError."""
    base = _fraction(base)
    if base <= 0:
        raise ValueError(f"rational_pow needs a positive base, got {base}")
    exp = _fraction(exp)
    if exp == 0 or base == 1:
        return _ONE
    if exp < 0:
        base, exp = 1 / base, -exp
    powered = base ** exp.numerator
    if exp.denominator == 1:
        return powered
    num = integer_root(powered.numerator, exp.denominator)
    den = integer_root(powered.denominator, exp.denominator)
    if num is None or den is None:
        raise ExactEvaluationError(f"{base}^{exp} is irrational")
    return Fraction(num, den)


class Monomial:
    """A power product prod x_i^{e_i} with rational exponents, coefficient-free.

    Stored as a sorted tuple of (index, exponent) pairs with all exponents
    nonzero, so instances are hashable and comparison is structural.
    """

    __slots__ = ("exps",)

    def __init__(self, exps: Mapping[int, Rat] | Iterable[tuple[int, Rat]] = ()):
        items = exps.items() if isinstance(exps, Mapping) else exps
        cleaned = []
        for idx, e in items:
            if idx < 0:
                raise ValueError(f"negative variable index {idx}")
            e = _fraction(e)
            if e:
                cleaned.append((int(idx), e))
        cleaned.sort()
        if len({i for i, _ in cleaned}) != len(cleaned):
            raise ValueError("duplicate variable index in monomial")
        object.__setattr__(self, "exps", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    def __reduce__(self):
        return Monomial, (self.exps,)

    def exponent(self, var: int) -> Fraction:
        for idx, e in self.exps:
            if idx == var:
                return e
        return _ZERO

    def mul(self, other: "Monomial") -> "Monomial":
        out = dict(self.exps)
        for idx, e in other.exps:
            _accumulate(out, idx, e)
        return Monomial(out)

    def pow(self, c: Rat) -> "Monomial":
        c = _fraction(c)
        return Monomial({i: e * c for i, e in self.exps})

    def eval_exact(self, point: Sequence[Rat]) -> Fraction:
        if self.exps and self.exps[-1][0] >= len(point):
            raise ValueError(f"point has {len(point)} coordinates, {self!r} needs more")
        return self._power_product(_exact_point(point))

    def _power_product(self, xs: dict[int, Fraction]) -> Fraction:
        """The exact value at a checked point given by its non-unit coordinates."""
        out = _ONE
        for idx, e in self.exps:
            x = xs.get(idx)
            if x is not None:
                out *= rational_pow(x, e)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __repr__(self) -> str:
        if not self.exps:
            return "Monomial()"
        body = ", ".join(f"{i}: {e}" for i, e in self.exps)
        return f"Monomial({{{body}}})"


def _exact_point(point: Sequence[Rat]) -> dict[int, Fraction]:
    """The point as Fractions, checked once: none <= 0.  Only the coordinates
    other than 1 are kept, by index; a unit coordinate contributes no factor."""
    xs = {}
    for idx, x in enumerate(point):
        x = _fraction(x)
        if x <= 0:
            raise ValueError(f"coordinate {idx} is not positive: {x}")
        if x != 1:
            xs[idx] = x
    return xs


def _accumulate(acc: dict, key, value: Fraction) -> None:
    """acc[key] += value, starting from value itself for a new key."""
    prev = acc.get(key)
    acc[key] = value if prev is None else prev + value


def _format_exponent(e: Fraction) -> str:
    return str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"


def _float_sum(form: tuple, xs: list[float], column: int) -> float:
    """Sum over the terms of a float form, in term order, of column (0: c,
    1: |c|) times the power product at the checked point xs."""
    total = 0.0
    for term in form:
        prod = 1.0
        for idx, e in term[2]:
            prod *= xs[idx] ** e
        total += term[column] * prod
    return total


class Signomial:
    """Finite rational combination of power products in `arity` variables."""

    __slots__ = ("arity", "terms", "_partials", "_float_terms", "_order_forms")

    def __init__(self, arity: int, terms: Mapping[Monomial, Rat] | None = None):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        # a mapping's keys are distinct monomials, so nothing merges here
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            if mono.exps and mono.exps[-1][0] >= arity:
                raise ValueError(
                    f"monomial {mono!r} uses variable index >= arity {arity}"
                )
            c = _fraction(coeff)
            if c:
                clean[mono] = c
        object.__setattr__(self, "arity", int(arity))
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_partials", {})
        object.__setattr__(self, "_float_terms", None)

    def __setattr__(self, name, value):
        raise AttributeError("Signomial is immutable")

    def __reduce__(self):
        # the memos are not carried; a copy rebuilds them on first use
        return Signomial, (self.arity, self.terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "Signomial":
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, value: Rat) -> "Signomial":
        return cls(arity, {Monomial(): Fraction(value)})

    @classmethod
    def variable(cls, arity: int, idx: int) -> "Signomial":
        if not 0 <= idx < arity:
            raise ValueError(f"variable index {idx} out of range for arity {arity}")
        return cls(arity, {Monomial({idx: 1}): Fraction(1)})

    @classmethod
    def from_terms(
        cls, arity: int, pairs: Iterable[tuple[Rat, Mapping[int, Rat]]]
    ) -> "Signomial":
        acc: dict[Monomial, Fraction] = {}
        for coeff, exps in pairs:
            _accumulate(acc, Monomial(exps), _fraction(coeff))
        return cls(arity, acc)

    # -- algebra ------------------------------------------------------------

    def _require_same_arity(self, other: "Signomial") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "Signomial") -> "Signomial":
        self._require_same_arity(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(out, m, c)
        return Signomial(self.arity, out)

    def __neg__(self) -> "Signomial":
        return Signomial(self.arity, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Signomial") -> "Signomial":
        return self + (-other)

    def __mul__(self, other) -> "Signomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same_arity(other)
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                _accumulate(out, ma.mul(mb), ca * cb)
        return Signomial(self.arity, out)

    def __rmul__(self, other) -> "Signomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Rat) -> "Signomial":
        c = _fraction(c)
        return Signomial(self.arity, {m: c * v for m, v in self.terms.items()})

    def partial(self, var: int) -> "Signomial":
        """Exact partial derivative: c*x^e per term goes to (c*e)*x^(e-1).

        The only place that differentiates.  The result is memoized on this
        (immutable) instance, so repeated derivatives of one signomial are
        derived once and shared.
        """
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range for arity {self.arity}")
        hit = self._partials.get(var)
        if hit is not None:
            return hit
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            exps = m.exps
            for pos, (idx, e) in enumerate(exps):
                if idx == var:
                    break
            else:
                continue
            lowered = list(exps)
            lowered[pos] = (var, e - 1)
            # distinct terms keep distinct monomials: x^e differs from x^e'
            # exactly when x^(e-1) differs from x^(e'-1)
            out[Monomial(lowered)] = c * e
        result = self._partials[var] = Signomial(self.arity, out)
        return result

    def derivative(self, alpha: Iterable[int]) -> "Signomial":
        """Mixed partial for the multi-index alpha (a sequence of variables).

        Chains the memoized partial over sorted(alpha), so every ordering of
        one multi-index returns the same object.
        """
        out = self
        for var in sorted(alpha):
            out = out.partial(var)
        return out

    def substitute_monomial(
        self, var: int, coeff: Rat, exps: Mapping[int, Rat]
    ) -> "Signomial":
        """Replace x_var by coeff * prod_j x_j^{exps[j]} everywhere, exactly.

        The replacement may not mention var itself and coeff must be positive.
        Each occurrence x_var^e turns into coeff^e * prod x_j^{e*exps[j]};
        if coeff^e is irrational for some term, the substitution is refused
        (evaluate in float mode instead of substituting in that case).
        """
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range for arity {self.arity}")
        coeff = _fraction(coeff)
        if coeff <= 0:
            raise ValueError(f"replacement coefficient must be positive, got {coeff}")
        repl = Monomial(exps)
        if repl.exponent(var) != 0:
            raise ValueError("replacement monomial mentions the substituted variable")
        if repl.exps and repl.exps[-1][0] >= self.arity:
            raise ValueError("replacement monomial uses an out-of-range variable")
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m.exponent(var)
            if e == 0:
                _accumulate(out, m, c)
                continue
            factor = rational_pow(coeff, e)
            rest = Monomial({i: ee for i, ee in m.exps if i != var})
            _accumulate(out, rest.mul(repl.pow(e)), c * factor)
        return Signomial(self.arity, out)

    def drop_variable(self, var: int) -> "Signomial":
        """Remove an unused variable and shift higher indices down by one."""
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range for arity {self.arity}")
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            if m.exponent(var) != 0:
                raise ValueError(f"variable {var} still occurs in {m!r}")
            nm = Monomial({(i if i < var else i - 1): e for i, e in m.exps})
            out[nm] = c
        return Signomial(self.arity - 1, out)

    # -- evaluation ----------------------------------------------------------

    def eval_exact(self, point: Sequence[Rat]) -> Fraction:
        if len(point) != self.arity:
            raise ValueError(f"point has {len(point)} coordinates, arity is {self.arity}")
        xs = _exact_point(point)
        total = _ZERO
        for m, c in self.terms.items():
            total += c * m._power_product(xs)
        return total

    def _float_form(self) -> tuple:
        """Per term, in term order: (float(c), |float(c)|, ((idx, float(e)), ...)).

        Built on the first float evaluation and kept on this (immutable)
        instance, so signomials that are only used exactly never build it.
        """
        form = self._float_terms
        if form is None:
            form = tuple(
                (float(c), abs(float(c)), tuple((i, float(e)) for i, e in m.exps))
                for m, c in self.terms.items()
            )
            object.__setattr__(self, "_float_terms", form)
        return form

    def _float_point(self, point: Sequence[float]) -> list[float]:
        """The point as doubles, checked once: arity coordinates, none <= 0."""
        # an ndarray's tolist() gives the same doubles as float() per entry, faster
        xs = point.tolist() if hasattr(point, "tolist") else [float(x) for x in point]
        if len(xs) != self.arity:
            raise ValueError(f"point has {len(xs)} coordinates, arity is {self.arity}")
        for idx, x in enumerate(xs):
            if x <= 0:
                raise ValueError(f"coordinate {idx} is not positive: {x}")
        return xs

    def eval_float(self, point: Sequence[float]) -> float:
        """Value at a positive point in doubles; a term that overflows raises
        OverflowError."""
        return _float_sum(self._float_form(), self._float_point(point), 0)

    def partials_float(
        self, point: Sequence[float], order: int, absolute: bool = False
    ) -> list[float]:
        """Every partial of the given order at a positive point, as doubles,
        in itertools.combinations_with_replacement(range(arity), order) order.

        The point is converted and checked once.  Entry alpha has the bits of
        derivative(alpha).eval_float(point); with absolute, of the sum of
        |term| values instead, the natural magnitude scale for cancellation.
        Order 0 is the signomial itself.
        """
        xs = self._float_point(point)
        try:
            forms = self._order_forms[order]
        except (AttributeError, KeyError):
            forms = self._build_order_forms(order)
        column = 1 if absolute else 0
        return [_float_sum(form, xs, column) for form in forms]

    def _build_order_forms(self, order: int) -> tuple:
        """The float forms of every partial of one order, memoized per order."""
        try:
            memo = self._order_forms
        except AttributeError:
            # left unset by __init__: most signomials never take a float
            # partial, and constructing them stays one store cheaper
            memo = {}
            object.__setattr__(self, "_order_forms", memo)
        alphas = itertools.combinations_with_replacement(range(self.arity), order)
        forms = memo[order] = tuple(self.derivative(a)._float_form() for a in alphas)
        return forms

    def hessian_float(self, point: Sequence[float]) -> list[list[float]]:
        """partials_float(point, 2) as a symmetric matrix: the order-2 forms
        are the row-major upper triangle, and the lower triangle mirrors it."""
        xs = self._float_point(point)
        try:
            forms = self._order_forms[2]
        except (AttributeError, KeyError):
            forms = self._build_order_forms(2)
        m = self.arity
        out = [[0.0] * m for _ in range(m)]
        k = 0
        for i in range(m):
            for j in range(i, m):
                out[i][j] = out[j][i] = _float_sum(forms[k], xs, 0)
                k += 1
        return out

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Signomial)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda mc: mc[0].exps)

    def to_text(self, names: Sequence[str] | None = None) -> str:
        """Deterministic text form: `c * x0^p/q * x1^p/q + ...`"""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.arity)]
        parts = []
        for m, c in self.sorted_terms():
            factors = [str(c)]
            for idx, e in m.exps:
                if e == 1:
                    factors.append(names[idx])
                else:
                    factors.append(f"{names[idx]}^{_format_exponent(e)}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Signomial({self.arity}, {self.to_text()})"
