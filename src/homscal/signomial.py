"""Exact signomial algebra over the rationals.

A signomial is a finite sum of terms c * x0^e0 * x1^e1 * ... with rational
coefficient c and rational exponents e_i, defined on the positive orthant
x_i > 0.  The representation is a canonical term map

    Signomial.terms : dict[TermKey, Fraction]

with no zero coefficients stored, so two signomials are equal exactly when
their term maps are equal.  A term's key is the power product's exponents
as a tuple of (variable index, exponent) pairs, sorted by index, with no
zero exponent: hashable, and equal exactly when the power products are.

Exponents are Fractions rather than ints because eliminating a coordinate
against a volume constraint (chart.restrict) produces powers like
x^(n/(n-2)).  The public constructors, from_terms on (coefficient,
exponents) pairs and Signomial(arity, terms) on a map of keys, make every
key by one canonicalizer, _monomial, which checks each index (an integer in
[0, arity)), and merge equal keys; scal, its slice charts and the partials
build canonical keys in ints and pass them to _unchecked, through no
_monomial.  Differentiation is exact, its rule written once, in _lowered,
which lowers one term's ints (_int_form) by a multi-index; partial builds
the exact partial signomials from it.  Only evaluation may leave the
rationals, and then the caller chooses between the exact path (which raises
ExactEvaluationError if an irrational power appears) and the float path.

The exact path is one evaluator, line_exact(base, direction): f and its
first three derivatives along base + t direction at t = 0, summed term by
term from power sums in ints, no partial built; eval_exact is its t^0 term
along the zero direction.  It checks the point once per call; a unit
coordinate contributes no factor, and rational_pow, the one exact power,
takes each other power once, rooting the base before it raises it.  A
Fraction is already in lowest terms, so the constructors store one as is and
convert only other values (int, str, bool).

The float path is the only float evaluator in the package.
partials_float(point, order) evaluates every partial of one order in one
pass; with absolute=True it sums |term| values instead, the scale against
which cancellation is judged.  eval_float is its order-0 value and
hessian_float its order-2 result as a symmetric matrix (_order2_layout).
The first call for an (order, absolute) pair on a signomial compiles its
kernel, which every call runs from then on: one generated Python function
whose body writes out the term sum of every partial, one statement per
term (sum from 0.0 in term order, product of scalar powers left to right).
Those statements have one source, _partial_sums, and the generated
functions one binder, _compiled(template, *orders): it binds a kernel, the
chart's whole Newton search and the flow's whole RK4 ascent alike to the
float constants of those orders' partials, memoized on the signomial.  The
generated source holds only integer indices, the arity and generated
names; the coefficients and exponents are parameter defaults, converted to
doubles once per order (_order_constants) and shared by every function
bound to it, an absolute kernel taking abs() of each coefficient.  Those
constants come straight from one int form of this signomial's terms, each
lowered by _lowered and divided once as a pair of ints, with the bits
float() gives the partial's Fraction; no partial signomial is built.
Templates are cached per shape (the arity and the variable indices of each
term), so charts of one structure compile once.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types
from collections.abc import Iterable, Mapping, Sequence
from decimal import Context
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]
TermKey = tuple[tuple[int, Fraction], ...]

_ONE = Fraction(1)
_SIX_DIGITS = Context(prec=6)


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
    """Exact base**exp for positive rational base, or raise ExactEvaluationError.

    For exp = p/q in lowest terms the q-th roots of base's numerator and
    denominator are taken first and then raised to p: as gcd(p, q) = 1, a^p
    is a q-th power exactly when a is, so the roots of the smaller integers
    decide rationality and give the same value."""
    base = _fraction(base)
    if base <= 0:
        raise ValueError(f"rational_pow needs a positive base, got {base}")
    exp = _fraction(exp)
    if exp == 0 or base == 1:
        return _ONE
    if exp < 0:
        base, exp = 1 / base, -exp
    if exp.denominator == 1:
        return base ** exp.numerator
    num = integer_root(base.numerator, exp.denominator)
    den = integer_root(base.denominator, exp.denominator)
    if num is None or den is None:
        raise ExactEvaluationError(f"{base}^{exp} is irrational")
    return Fraction(num, den) ** exp.numerator


def _as_int(value, where: str) -> int:
    # bool is an int subclass, and int() would truncate floats and split strings
    if not isinstance(value, bool):
        try:
            return operator.index(value)  # an int, or an integer type such as numpy's
        except TypeError:
            pass
    raise ValueError(f"{where}: expected an integer, got {value!r}")


def _monomial(exps: Mapping[int, Rat] | Iterable[tuple[int, Rat]], arity: int) -> TermKey:
    """The term key of the power product prod x_i^{e_i}: its nonzero
    exponents as Fractions, each paired with its index, sorted by index.
    Every index is an integer in [0, arity) and none repeats."""
    items = exps.items() if isinstance(exps, Mapping) else exps
    cleaned = []
    for idx, e in items:
        idx = _as_int(idx, "variable index")
        if not 0 <= idx < arity:
            raise ValueError(f"variable index {idx} out of range for arity {arity}")
        e = _fraction(e)
        if e:
            cleaned.append((idx, e))
    cleaned.sort()
    if len({i for i, _ in cleaned}) != len(cleaned):
        raise ValueError("duplicate variable index in monomial")
    return tuple(cleaned)


def _term_map(arity: int, items: Iterable[tuple]) -> tuple[int, dict[TermKey, Fraction]]:
    """The checked arity and the canonical term map of (exponents,
    coefficient) items: each key made by _monomial, the coefficients of
    equal keys summed in the first one's place, and zero sums dropped."""
    arity = _as_int(arity, "arity")
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    acc: dict[TermKey, Fraction] = {}
    for exps, coeff in items:
        key, c = _monomial(exps, arity), _fraction(coeff)
        prev = acc.get(key)  # a new key keeps c itself
        acc[key] = c if prev is None else prev + c
    return arity, {key: c for key, c in acc.items() if c}


def _int_form(key: TermKey) -> tuple:
    """key's factors in ints: (index, numerator, denominator) of each exponent."""
    return tuple([(idx, e.numerator, e.denominator) for idx, e in key])


def _lowered(factors: tuple, counts: Mapping[int, int]) -> "tuple[int, int, list] | None":
    """The differentiation rule, the one place it is written: the term with
    the factors of _int_form differentiated counts[i] times in each x_i.
    None when the term dies, as a constant does; otherwise the factor its
    coefficient gains, the falling factorial prod e_i (e_i - 1) ... (e_i -
    k_i + 1), as an unreduced pair (numerator, denominator) of ints, and per
    factor left (index, numerator, denominator) of its exponent e_i - k_i =
    (p - k_i q) / q, in lowest terms as p / q is.

    A factor whose exponent reaches 0 is dropped, and the factors left keep
    their order and distinct indices, so the lowered key is canonical as
    built; a term dies exactly when the falling factorial is 0 or a counted
    variable is absent, so a surviving coefficient is nonzero.
    """
    num = den = 1
    left, seen = [], 0
    for idx, p, q in factors:
        k = counts.get(idx, 0)
        if k:
            seen += 1
            for j in range(k):
                num *= p - j * q
            if not num:
                return None
            den *= q ** k
            p -= k * q
            if not p:
                continue
        left.append((idx, p, q))
    if seen < len(counts):
        return None
    return num, den, left


def _format_exponent(e: Fraction) -> str:
    return str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"


def _beyond_double(alpha: tuple, num: int, den: int, factors: list) -> OverflowError:
    """The OverflowError of partial alpha for its first value beyond the
    range of a double: the coefficient num / den of a term, then the
    exponent of each of its factors (as _lowered gives them)."""
    values = [("coefficient", num, den)]
    values += [("exponent", p, q) for _, p, q in factors]
    for kind, n, d in values:
        try:
            n / d
        except OverflowError:
            break
    approx = _SIX_DIGITS.divide(n, d).normalize()
    return OverflowError(f"partial {alpha} of order {len(alpha)} has {kind} "
                         f"{approx:g}, beyond the range of a double")


def _names(form: str, count: int, sep: str = ", ", empty: str = "") -> str:
    """form with {i} filled in for i = 0, ..., count - 1, joined by sep;
    empty for none.  _names("x{i}", 2) is `x0, x1`."""
    return sep.join(form.format(i=i) for i in range(count)) or empty


@functools.cache
def _order2_layout(arity: int) -> tuple[tuple[int, ...], ...]:
    """The symmetric matrix of the order-2 partials: entry (i, j) is the
    position of partial (min(i, j), max(i, j)) in
    combinations_with_replacement order, the row-major upper triangle."""
    pairs = itertools.combinations_with_replacement(range(arity), 2)
    position = {pair: n for n, pair in enumerate(pairs)}
    return tuple(tuple(position[min(i, j), max(i, j)] for j in range(arity))
                 for i in range(arity))


def _partial_sums(shape: tuple, target: str, point: str, first: int = 0) -> tuple[list[str], int]:
    """The statements that sum every partial of shape at the coordinates
    point0, point1, ...: the number after the last constant they use, and per
    partial j `target{j} = 0.0`, then one statement per term,
    `target{j} += k{first} * (point0 ** k{first+1} * ...)`.

    One counter numbers the constants from first in term order, per term its
    coefficient, then the exponent of each factor.  The product of scalar
    powers runs left to right from 1.0, since 1.0 * a == a, and no
    expression nests deeper than the arity however many terms there are.
    """
    lines, names = [], itertools.count(first)
    for j, form in enumerate(shape):
        lines.append(f"    {target}{j} = 0.0")
        for indices in form:
            c = next(names)
            factors = " * ".join(f"{point}{i} ** k{next(names)}" for i in indices) or "1.0"
            lines.append(f"    {target}{j} += k{c} * ({factors})")
    return lines, next(names)


def _define(name: str, params: str, count: int, lines: list[str], filename: str,
            names: Mapping | None = None):
    """Compile `def name(params, k0, k1, ...):` with count constants and the
    given body lines and return it; names are the globals the body reads
    besides the builtins."""
    signature = ", ".join(filter(None, (params, _names("k{i}", count))))
    namespace = dict(names or {})
    exec(compile("\n".join([f"def {name}({signature}):", *lines]), filename, "exec"), namespace)
    return namespace[name]


@functools.lru_cache(maxsize=256)
def _kernel_template(arity: int, shape: tuple):
    """Compile the kernel of one shape (see Signomial._order_constants).

    The kernel takes a point, then the constants of _partial_sums.  It checks
    the point's length, then each coordinate in turn (a double > 0), and
    returns the term sum of every partial.  The source is built from
    integers and generated names only.  The constants are parameters rather
    than closure cells: compiling 30,000 cells took seconds, the parameters
    a tenth of that.
    """
    lines = [
        f"    if len(p) != {arity}:",
        f"        raise ValueError(f'point has {{len(p)}} coordinates, arity is {arity}')",
    ]
    for i in range(arity):
        lines += [
            f"    x{i} = float(p[{i}])",
            f"    if x{i} <= 0:",
            f"        raise ValueError(f'coordinate {i} is not positive: {{x{i}}}')",
        ]
    sums, count = _partial_sums(shape, "t", "x")
    lines += sums
    lines.append(f"    return [{_names('t{i}', len(shape))}]")
    return _define("kernel", "p", count, lines, f"<signomial kernel, arity {arity}>")


class Signomial:
    """Finite rational combination of power products in `arity` variables."""

    __slots__ = ("arity", "terms", "_partials", "_kernels", "_floats", "_ints")

    def __init__(self, arity: int, terms: Mapping[TermKey, Rat] | None = None):
        """The sum of c * key over the items of terms, in their order; each key,
        a tuple of (variable index, exponent) pairs, is made canonical by
        _monomial and equal keys merge.  A bad arity or index is a ValueError."""
        self._fill(*_term_map(arity, (terms or {}).items()))

    def _fill(self, arity: int, terms: dict) -> None:
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_partials", {})
        object.__setattr__(self, "_kernels", {})
        object.__setattr__(self, "_floats", {})
        object.__setattr__(self, "_ints", None)

    @classmethod
    def _unchecked(cls, arity: int, terms: dict) -> "Signomial":
        """A signomial from a canonical term map (nonzero Fraction
        coefficients, indices below arity), without checking it."""
        s = object.__new__(cls)
        s._fill(arity, terms)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Signomial is immutable")

    def __reduce__(self):
        # the memos are not carried; _fill gives a copy empty ones
        return Signomial, (self.arity, self.terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_terms(
        cls, arity: int, pairs: Iterable[tuple[Rat, Mapping[int, Rat]]]
    ) -> "Signomial":
        """The signomial sum of c * prod x_i^{e_i} over (c, {i: e_i}) pairs
        (or (c, [(i, e_i), ...])), checked and merged as Signomial(arity,
        terms) does, in the order of pairs."""
        return cls._unchecked(*_term_map(arity, ((exps, c) for c, exps in pairs)))

    # -- differentiation ----------------------------------------------------

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
        out: dict[TermKey, Fraction] = {}
        for exps, c in self.terms.items():
            lowered = _lowered(_int_form(exps), {var: 1})
            if lowered is not None:
                # distinct terms keep distinct keys: x^e differs from x^e'
                # exactly when x^(e-1) differs from x^(e'-1)
                num, den, factors = lowered
                key = tuple((idx, Fraction(p, q)) for idx, p, q in factors)
                out[key] = c * Fraction(num, den)
        result = self._partials[var] = Signomial._unchecked(self.arity, out)
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

    # -- evaluation ----------------------------------------------------------

    def line_exact(self, base: Sequence[Rat], direction: Sequence[Rat]) -> tuple[Fraction, ...]:
        """Exact (f, S1, S2, S3) along the line base + t direction at t = 0:
        the value and the first three derivatives in t, the one exact
        evaluator.  The line is checked once: both lengths, then each base
        coordinate in turn (a finite number > 0) and the direction (finite).

        No partial is built.  With w = direction / base, a term
        c * prod x_i^e_i is B prod (1 + t w_i)^e_i along the line, B = c *
        prod base_i^e_i, and the derivatives of its log at t = 0 are p1, -p2
        and 2 p3 for the power sums p_k = sum_i e_i w_i^k.  So the term adds B
        to f, B p1 to S1, B (p1^2 - p2) to S2 and B (p1^3 - 3 p1 p2 + 2 p3)
        to S3.  The sums run in ints: w_i = a_i / D and e_i = n_i / E over
        common denominators D and E (D of the unreduced w_i), so the t^m sum
        is sum B Y_m / (E^m D^m) with integer Y_m; the B are grouped by their
        unreduced denominators, and each sum is one Fraction at the end.
        rational_pow takes each power base_i^e_i of a non-unit coordinate
        once; an irrational one raises ExactEvaluationError.
        """
        if len(base) != self.arity:
            raise ValueError(f"point has {len(base)} coordinates, arity is {self.arity}")
        if len(direction) != self.arity:
            raise ValueError(f"direction has {len(direction)} coordinates, arity is {self.arity}")
        xs = []
        for idx, x in enumerate(base):
            try:
                x = _fraction(x)
            except (OverflowError, ValueError):
                raise ValueError(f"coordinate {idx} is not a finite number: {x!r}") from None
            if x <= 0:
                raise ValueError(f"coordinate {idx} is not positive: {x}")
            xs.append(x)
        try:
            vs = [_fraction(v) for v in direction]
        except (OverflowError, ValueError):
            raise ValueError(f"direction is not finite: {tuple(direction)}") from None
        dens = [v.denominator * x.numerator for v, x in zip(vs, xs)]
        d_all = math.lcm(*dens)
        a = [v.numerator * x.denominator * (d_all // den) for v, x, den in zip(vs, xs, dens)]
        e_all = math.lcm(*(e.denominator for key in self.terms for _, e in key))
        powers: dict = {}
        sums: dict[int, list[int]] = {}
        for key, c in self.terms.items():
            num, den = c.numerator, c.denominator
            p1 = p2 = p3 = 0
            for i, e in key:
                n = e.numerator * (e_all // e.denominator)
                p1 += n * a[i]
                p2 += n * a[i] ** 2
                p3 += n * a[i] ** 3
                if xs[i] != 1:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[i, e] = rational_pow(xs[i], e)
                    num *= power.numerator
                    den *= power.denominator
            acc = sums.setdefault(den, [0, 0, 0, 0])
            acc[0] += num
            acc[1] += num * p1
            acc[2] += num * (p1 * p1 - e_all * p2)
            acc[3] += num * (p1 ** 3 - 3 * e_all * p1 * p2 + 2 * e_all ** 2 * p3)
        common = math.lcm(*sums)
        return tuple(
            Fraction(sum(acc[m] * (common // den) for den, acc in sums.items()),
                     common * (e_all * d_all) ** m)
            for m in range(4)
        )

    def eval_exact(self, point: Sequence[Rat]) -> Fraction:
        """Exact value at a positive rational point: line_exact's t^0 term."""
        return self.line_exact(point, (0,) * self.arity)[0]

    def eval_float(self, point: Sequence[float]) -> float:
        """Value at a positive point in doubles; a term that overflows raises
        OverflowError."""
        try:
            kernel = self._kernels[_kernel_template, False, 0]
        except KeyError:
            kernel = self._compiled(_kernel_template, 0)
        return kernel(point)[0]

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
        # the memo is read here, as in eval_float, rather than through
        # _compiled: the saved call is a fifth of a small kernel's time
        try:
            kernel = self._kernels[_kernel_template, absolute, order]
        except KeyError:
            kernel = self._compiled(_kernel_template, order, absolute=absolute)
        return kernel(point)

    def hessian_float(self, point: Sequence[float]) -> list[list[float]]:
        """partials_float(point, 2) as a symmetric matrix, by _order2_layout."""
        upper = self.partials_float(point, 2)
        return [[upper[k] for k in row] for row in _order2_layout(self.arity)]

    def _order_constants(self, order: int) -> tuple[tuple, list[float]]:
        """The shape of the partials of one order and their float constants,
        taken straight from this signomial's terms, read once per signomial
        as ints (_int_form and each coefficient's numerator and denominator,
        in _ints, which _fill sets to None), no partial being built.

        The partials are taken in itertools.combinations_with_replacement(
        range(arity), order) order and each partial's terms in term order,
        as derivative(alpha) has them: the shape holds, per partial, per
        term, the variable indices of its factors, with the arity all that a
        compiled template depends on; the constants are numbered as
        _partial_sums numbers them, per term the coefficient, then the
        exponent of each factor.  Each constant is one correctly rounded
        int division, numerator / denominator of the lowered coefficient
        c * falling factorial (_lowered) or exponent (p - k q) / q, left
        unreduced: the bits of float() of the partial's Fraction.  A value
        beyond the range of a double raises OverflowError naming alpha and
        the value.  Memoized per order in this (immutable) instance's
        _floats, which _fill creates empty as it does _partials, so every
        bind of the order shares one conversion.
        """
        hit = self._floats.get(order)
        if hit is None:
            shape, constants = [], []
            if (terms := self._ints) is None:  # built whole, then published
                terms = [(c.numerator, c.denominator, _int_form(key))
                         for key, c in self.terms.items()]
                object.__setattr__(self, "_ints", terms)
            for alpha in itertools.combinations_with_replacement(range(self.arity), order):
                counts = {var: alpha.count(var) for var in alpha}
                form = []
                for cnum, cden, ints in terms:
                    lowered = _lowered(ints, counts)
                    if lowered is None:
                        continue
                    num, den, factors = lowered
                    num, den = cnum * num, cden * den
                    try:
                        constants.append(num / den)
                        constants += [p / q for _, p, q in factors]
                    except OverflowError:
                        raise _beyond_double(alpha, num, den, factors) from None
                    form.append(tuple(idx for idx, _, _ in factors))
                shape.append(tuple(form))
            hit = self._floats[order] = tuple(shape), constants
        return hit

    def _compiled(self, template, *orders: int, absolute: bool = False):
        """template(arity, *shapes of the orders' partials) with the float
        constants of those partials, order after order, as the defaults of
        its parameters k0, k1, ...: the one binder of generated functions.
        The constants come from _order_constants; with absolute each
        coefficient is its abs().

        Memoized in this (immutable) instance's _kernels, which _fill
        creates empty as it does _partials, under (template, absolute,
        *orders).  A constant beyond a double raises the first such
        partial's OverflowError, and a failed bind memoizes no function.
        """
        key = (template, absolute, *orders)
        bound = self._kernels.get(key)
        if bound is None:
            shapes, constants = [], []
            for order in orders:
                shape, floats = self._order_constants(order)
                shapes.append(shape)
                if absolute:  # per term: the coefficient, then one exponent per factor
                    floats, at = list(floats), 0
                    for form in shape:
                        for indices in form:
                            floats[at] = abs(floats[at])
                            at += 1 + len(indices)
                constants += floats
            fn = template(self.arity, *shapes)
            bound = self._kernels[key] = types.FunctionType(
                fn.__code__, fn.__globals__, fn.__name__, tuple(constants))
        return bound

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

    def to_text(self, names: Sequence[str] | None = None) -> str:
        """Deterministic text form: `c * x0^p/q * x1^p/q + ...`"""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.arity)]
        parts = []
        for key, c in sorted(self.terms.items()):  # keys are distinct: no coefficient is compared
            factors = [str(c)]
            for idx, e in key:
                if e == 1:
                    factors.append(names[idx])
                else:
                    factors.append(f"{names[idx]}^{_format_exponent(e)}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Signomial({self.arity}, {self.to_text()})"
