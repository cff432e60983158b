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

The float path is the only float evaluator in the package: each signomial
converts its coefficients and exponents to doubles once, on first use, and
eval_float / eval_abs / gradient_float / hessian_float loop over that
memoized form with scalar powers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rat = Union[int, Fraction]


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
    base = Fraction(base)
    if base <= 0:
        raise ValueError(f"rational_pow needs a positive base, got {base}")
    exp = Fraction(exp)
    if exp == 0:
        return Fraction(1)
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
            e = Fraction(e)
            if e != 0:
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
        return Fraction(0)

    def mul(self, other: "Monomial") -> "Monomial":
        out = dict(self.exps)
        for idx, e in other.exps:
            out[idx] = out.get(idx, Fraction(0)) + e
        return Monomial(out)

    def pow(self, c: Rat) -> "Monomial":
        c = Fraction(c)
        return Monomial({i: e * c for i, e in self.exps})

    def eval_exact(self, point: Sequence[Rat]) -> Fraction:
        out = Fraction(1)
        for idx, e in self.exps:
            x = Fraction(point[idx])
            if x <= 0:
                raise ValueError(f"coordinate {idx} is not positive: {x}")
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

    __slots__ = (
        "arity", "terms", "_partials", "_float_terms", "_float_gradient", "_float_hessian"
    )

    def __init__(self, arity: int, terms: Mapping[Monomial, Rat] | None = None):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            if mono.exps and mono.exps[-1][0] >= arity:
                raise ValueError(
                    f"monomial {mono!r} uses variable index >= arity {arity}"
                )
            c = Fraction(coeff)
            if c != 0:
                clean[mono] = clean.get(mono, Fraction(0)) + c
        object.__setattr__(self, "arity", int(arity))
        object.__setattr__(
            self, "terms", {m: c for m, c in clean.items() if c != 0}
        )
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
            m = Monomial(exps)
            acc[m] = acc.get(m, Fraction(0)) + Fraction(coeff)
        return cls(arity, acc)

    # -- algebra ------------------------------------------------------------

    def _require_same_arity(self, other: "Signomial") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "Signomial") -> "Signomial":
        self._require_same_arity(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
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
                m = ma.mul(mb)
                out[m] = out.get(m, Fraction(0)) + ca * cb
        return Signomial(self.arity, out)

    def __rmul__(self, other) -> "Signomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Rat) -> "Signomial":
        c = Fraction(c)
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
            e = m.exponent(var)
            if e == 0:
                continue
            exps = dict(m.exps)
            exps[var] = e - 1
            nm = Monomial(exps)
            out[nm] = out.get(nm, Fraction(0)) + c * e
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
        coeff = Fraction(coeff)
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
                out[m] = out.get(m, Fraction(0)) + c
                continue
            factor = rational_pow(coeff, e)
            rest = Monomial({i: ee for i, ee in m.exps if i != var})
            nm = rest.mul(repl.pow(e))
            out[nm] = out.get(nm, Fraction(0)) + c * factor
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
        total = Fraction(0)
        for m, c in self.terms.items():
            total += c * m.eval_exact(point)
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

    def _gradient_form(self) -> tuple:
        """The float forms of partial(0), ..., partial(arity - 1), memoized."""
        try:
            return self._float_gradient
        except AttributeError:
            # left unset by __init__: most signomials never take a float
            # gradient, and constructing them stays one store cheaper
            form = tuple(self.partial(i)._float_form() for i in range(self.arity))
            object.__setattr__(self, "_float_gradient", form)
            return form

    def _hessian_form(self) -> tuple:
        """Row i: the float forms of derivative((i, j)) for j = i, ..., arity - 1,
        memoized like the gradient's."""
        try:
            return self._float_hessian
        except AttributeError:
            m = self.arity
            form = tuple(
                tuple(self.derivative((i, j))._float_form() for j in range(i, m))
                for i in range(m)
            )
            object.__setattr__(self, "_float_hessian", form)
            return form

    def eval_float(self, point: Sequence[float]) -> float:
        """Value at a positive point in doubles; a term that overflows raises
        OverflowError."""
        return _float_sum(self._float_form(), self._float_point(point), 0)

    def eval_abs(self, point: Sequence[float]) -> float:
        """Sum of |term| values: the natural magnitude scale for cancellation."""
        return _float_sum(self._float_form(), self._float_point(point), 1)

    def gradient_float(self, point: Sequence[float]) -> list[float]:
        """All first partials at a positive point, as doubles, in one pass.

        The point is converted and checked once; entry i has the same bits
        as partial(i).eval_float(point).
        """
        xs = self._float_point(point)
        return [_float_sum(form, xs, 0) for form in self._gradient_form()]

    def hessian_float(self, point: Sequence[float]) -> list[list[float]]:
        """All second partials at a positive point, as doubles, in one pass.

        The point is converted and checked once; entry (i, j) has the same
        bits as derivative((i, j)).eval_float(point).  Only the upper
        triangle is summed; the lower triangle mirrors it.
        """
        xs = self._float_point(point)
        m = self.arity
        out = [[0.0] * m for _ in range(m)]
        for i, row in enumerate(self._hessian_form()):
            for j, form in enumerate(row, i):
                out[i][j] = out[j][i] = _float_sum(form, xs, 0)
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
