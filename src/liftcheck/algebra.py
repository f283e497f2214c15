"""Exact scalar, polynomial and polynomial-matrix arithmetic.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``).
Polynomials are sparse multivariate with a fixed, ordered variable list;
the canonical term order is graded lexicographic over that list, so two
equal polynomials always print and hash identically.  There is no floating
point anywhere: every verification downstream reduces to testing that a
polynomial in canonical form is literally zero.

Every sum of products runs through one kernel, ``_contract`` and its ``_dot``,
on integer numerators over a common denominator.  A sum with at least
``_PACK_CUTOFF`` term products keys each monomial by one int instead of a
tuple: each variable gets an unsigned field of 1, 2, 4 or 8 bytes, wider than
the highest exponent sum that variable reaches in the call, so a product's key
is the sum of its factors' keys with no carry between fields.  Smaller sums,
and sums whose fields would need more than 8 bytes, add exponent tuples.
``Poly.terms`` is keyed by exponent tuples either way.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]


class AlgebraError(Exception):
    """Base class for exact-arithmetic failures."""


class VariableMismatch(AlgebraError):
    """Operands live over variable lists that cannot be aligned."""


class EpsilonMismatch(AlgebraError):
    """EpsComplex operands with different squaring conventions."""


class NotUnimodular(AlgebraError):
    """Matrix determinant is not the constant +1 or -1."""


class ExactDivisionError(AlgebraError):
    """Polynomial division that was assumed exact left a remainder."""


def as_fraction(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class EpsComplex:
    """Number a + b*i with i*i = epsilon (ordinary complex for -1, split for +1)."""

    __slots__ = ("re", "im", "epsilon")

    def __init__(self, re: int | Fraction, im: int | Fraction, epsilon: int):
        if epsilon not in (-1, 1):
            raise ValueError("epsilon must be -1 or +1")
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))
        object.__setattr__(self, "epsilon", epsilon)

    def __setattr__(self, name, value):
        raise AttributeError("EpsComplex is immutable")

    @classmethod
    def unit(cls, epsilon: int) -> "EpsComplex":
        """The imaginary unit i for the given squaring convention."""
        return cls(0, 1, epsilon)

    def _check(self, other: "EpsComplex") -> None:
        if self.epsilon != other.epsilon:
            raise EpsilonMismatch(
                f"cannot combine epsilon={self.epsilon} with epsilon={other.epsilon}"
            )

    def __add__(self, other: "EpsComplex") -> "EpsComplex":
        self._check(other)
        return EpsComplex(self.re + other.re, self.im + other.im, self.epsilon)

    def __sub__(self, other: "EpsComplex") -> "EpsComplex":
        self._check(other)
        return EpsComplex(self.re - other.re, self.im - other.im, self.epsilon)

    def __neg__(self) -> "EpsComplex":
        return EpsComplex(-self.re, -self.im, self.epsilon)

    def __mul__(self, other: "EpsComplex") -> "EpsComplex":
        self._check(other)
        return EpsComplex(
            self.re * other.re + self.epsilon * self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.epsilon,
        )

    def scale(self, value: int | Fraction) -> "EpsComplex":
        value = as_fraction(value)
        return EpsComplex(self.re * value, self.im * value, self.epsilon)

    def norm(self) -> Fraction:
        """z * conj(z): re^2 - epsilon * im^2.  Multiplicative for both epsilon."""
        return self.re * self.re - self.epsilon * self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpsComplex):
            return NotImplemented
        return (
            self.epsilon == other.epsilon
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self) -> int:
        return hash((self.re, self.im, self.epsilon))

    def __repr__(self) -> str:
        sign = "-" if self.im < 0 else "+"
        return f"({self.re} {sign} {abs(self.im)}i|eps={self.epsilon})"


def _grlex_key(exps: Exponents) -> tuple:
    return (sum(exps), exps)


def _term_grlex_key(term: tuple[Exponents, Fraction]) -> tuple:
    """``_grlex_key`` of an (exponents, coefficient) term."""
    exps = term[0]
    return (sum(exps), exps)


class Poly:
    """Sparse multivariate polynomial over an ordered variable list.

    Immutable after construction.  ``terms`` maps exponent tuples (aligned
    with ``variables``) to nonzero Fraction coefficients.

    ``Poly(...)`` validates its input; arithmetic results are built with
    ``_trusted``, which skips the checks because they hold by construction.
    """

    __slots__ = ("variables", "terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[Exponents, int | Fraction] | None = None,
    ):
        variables = tuple(variables)
        clean: dict[Exponents, Fraction] = {}
        if terms:
            width = len(variables)
            for exps, coeff in terms.items():
                coeff = as_fraction(coeff)
                if coeff == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != width:
                    raise VariableMismatch(
                        f"exponent tuple {exps} does not match {width} variables"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                clean[exps] = coeff
        _set_variables(self, variables)
        _set_terms(self, clean)

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], terms: dict[Exponents, Fraction]) -> "Poly":
        """Wrap parts that are valid by construction, without checking them.

        ``variables`` must be a tuple and ``terms`` a dict, owned by the new
        Poly, of exponent tuples of that width with no negative entry to
        nonzero Fractions.
        """
        self = object.__new__(cls)
        _set_variables(self, variables)
        _set_terms(self, terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls._trusted(tuple(variables), {})

    @classmethod
    def const(cls, value: int | Fraction, variables: Sequence[str]) -> "Poly":
        variables = tuple(variables)
        value = as_fraction(value)
        if value == 0:
            return cls._trusted(variables, {})
        return cls._trusted(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str]) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatch(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls._trusted(variables, {exps: Fraction(1)})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        terms = self.terms
        if not terms:
            return True
        if len(terms) > 1:
            return False
        (exps,) = terms
        return not any(exps)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise AlgebraError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(exps) for exps in self.terms)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order (canonical print order)."""
        return sorted(self.terms.items(), key=_term_grlex_key, reverse=True)

    def leading(self) -> tuple[Exponents, Fraction]:
        if not self.terms:
            raise AlgebraError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    # -- alignment ----------------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.variables == self.variables:
                return other
            if other.is_constant():
                return Poly.const(other.constant_value(), self.variables)
            if self.is_constant():
                return other
            raise VariableMismatch(
                f"cannot align variables {self.variables} with {other.variables}"
            )
        if isinstance(other, (int, Fraction)):
            return Poly.const(other, self.variables)
        return None

    def extend(self, variables: Sequence[str]) -> "Poly":
        """Reinterpret over a longer variable list that starts with ours."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        if variables[: len(self.variables)] != self.variables:
            raise VariableMismatch(
                f"{variables} does not extend {self.variables}"
            )
        pad = (0,) * (len(variables) - len(self.variables))
        return Poly._trusted(variables, {exps + pad: c for exps, c in self.terms.items()})

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, False)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, True)

    def __rsub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._plus(self, True)

    def _plus(self, other: "Poly", negate: bool) -> "Poly":
        """self + other, or self - other if ``negate``, in one pass over other's terms."""
        if self.variables != other.variables and self.is_constant():
            return (-other if negate else other) + self.constant_value()
        if not other.terms:
            return self
        if not self.terms:
            return -other if negate else other
        out = dict(self.terms)
        _accumulate(out, other.terms, negate)
        return Poly._trusted(self.variables, out)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self._scale(as_fraction(other))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.variables != other.variables and self.is_constant():
            return other._scale(self.constant_value())
        if not self.terms or not other.terms:
            return Poly._trusted(self.variables, {})
        # a single term shifts the other operand's exponents, injectively
        if len(other.terms) == 1:
            return self._shift(other.terms)
        if len(self.terms) == 1:
            return other._shift(self.terms)
        return _dot([(self, other)], self.variables, {})

    def _shift(self, monomial: dict[Exponents, Fraction]) -> "Poly":
        """self times the single term in ``monomial``."""
        ((shift, value),) = monomial.items()
        if not any(shift):
            return self._scale(value)
        terms = self.terms
        if value == 1:
            shifted = {tuple(map(add, e, shift)): c for e, c in terms.items()}
        elif value == -1:
            shifted = {tuple(map(add, e, shift)): -c for e, c in terms.items()}
        else:
            shifted = {tuple(map(add, e, shift)): c * value for e, c in terms.items()}
        return Poly._trusted(self.variables, shifted)

    def _scale(self, value: Fraction) -> "Poly":
        # a unit factor costs no Fraction product
        if value == 1:
            return self
        if value == -1:
            return -self
        if not value:
            return Poly._trusted(self.variables, {})
        return Poly._trusted(self.variables, {e: c * value for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if len(self.terms) == 1:
            ((exps, coeff),) = self.terms.items()
            return Poly._trusted(self.variables, {tuple(e * power for e in exps): coeff**power})
        result = Poly.const(1, self.variables)
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    def diff(self, var: str) -> "Poly":
        """Exact partial derivative; zero when var does not occur."""
        if var not in self.variables:
            return Poly._trusted(self.variables, {})
        idx = self.variables.index(var)
        # lowering one exponent is injective on the terms where it is positive
        return Poly._trusted(
            self.variables,
            {
                exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]: coeff * exps[idx]
                for exps, coeff in self.terms.items()
                if exps[idx]
            },
        )

    def eval_at(self, point: Mapping[str, Fraction]) -> Fraction:
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise AlgebraError(f"missing value for variable {missing[0]!r}")
        values = [as_fraction(point[v]) for v in self.variables]
        if not self.terms:
            return Fraction(0)
        # With c = n / D and each value p_i / q_i, every term is an integer
        # over D * prod q_i^top_i (top_i: the highest exponent of variable i),
        # so the sum runs over integers and one Fraction is built at the end.
        numerators, den = _numerators(self.terms)
        used = []
        for i, (value, top) in enumerate(zip(values, map(max, zip(*self.terms)))):
            if top:
                used.append((i, value.numerator, value.denominator, top, {}))
                den *= value.denominator**top
        total = 0
        for exps, n in numerators:
            for i, p, q, top, cache in used:
                e = exps[i]
                factor = cache.get(e)
                if factor is None:
                    factor = cache[e] = p**e * q ** (top - e)
                n *= factor
            total += n
        return Fraction(total, den)

    def divide_exact(self, divisor: "Poly") -> "Poly":
        """Quotient self / divisor when the division is exact; raises otherwise.

        Used by fraction-free elimination, where exactness is guaranteed.
        """
        divisor = self._coerce(divisor)
        if divisor is None or not isinstance(divisor, Poly):
            raise TypeError("divisor must be a Poly")
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if divisor.is_constant():
            return self._scale(1 / divisor.constant_value())
        lead_exps, lead_coeff = divisor.leading()
        remainder = dict(self.terms)
        quotient: dict[Exponents, Fraction] = {}
        while remainder:
            rexps = max(remainder, key=_grlex_key)
            rcoeff = remainder[rexps]
            qexps = tuple(a - b for a, b in zip(rexps, lead_exps))
            if any(e < 0 for e in qexps):
                raise ExactDivisionError("division is not exact")
            qcoeff = rcoeff / lead_coeff
            quotient[qexps] = quotient.get(qexps, Fraction(0)) + qcoeff
            for dexps, dcoeff in divisor.terms.items():
                exps = tuple(a + b for a, b in zip(qexps, dexps))
                acc = remainder.get(exps, Fraction(0)) - qcoeff * dcoeff
                if acc == 0:
                    remainder.pop(exps, None)
                else:
                    remainder[exps] = acc
        # the leading remainder term strictly decreases, so each quotient
        # exponent is produced once, with a nonzero coefficient
        return Poly._trusted(self.variables, quotient)

    # -- equality and printing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.variables)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.variables, exps)
                if e
            ]
            num, den = coeff.numerator, coeff.denominator
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if factors and mag == "1":
                body = "*".join(factors)
            elif factors:
                body = "*".join([mag] + factors)
            else:
                body = mag
            if not parts:
                parts.append(body if num > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if num > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


# slot setters that bypass Poly.__setattr__, which refuses every write
_set_variables = Poly.variables.__set__
_set_terms = Poly.terms.__set__


def _numerators(terms: dict[Exponents, Fraction]) -> tuple[list[tuple[Exponents, int]], int]:
    """Integer numerators over the common denominator D, and D itself."""
    den = lcm(*[c.denominator for c in terms.values()])
    return [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()], den


def _accumulate(
    out: dict[Exponents, Fraction], terms: dict[Exponents, Fraction], negate: bool
) -> None:
    """Add (or, if ``negate``, subtract) ``terms`` into ``out``, dropping keys that cancel."""
    for exps, coeff in terms.items():
        acc = out.get(exps)
        if acc is None:
            out[exps] = -coeff if negate else coeff
        else:
            total = acc - coeff if negate else acc + coeff
            if total:
                out[exps] = total
            else:
                del out[exps]


def _contract(
    rows: Sequence[Sequence[Poly]], cols: Iterable[Sequence[Poly]], zero: Poly
) -> list[list[Poly]]:
    """Every row . column sum: out[i][j] = sum_k rows[i][k] * cols[j][k].

    The one multiply-accumulate loop behind every matrix, tensor and lift
    product.  Zero factors are skipped, so they cost no product.  A sum with
    one nonzero product is that product; a longer one goes to ``_dot``.  The
    caller passes the columns explicitly, so the shape of the result is
    len(rows) x len(cols) even when the inner dimension is 0; every sum is
    then ``zero``, as is any sum with no nonzero product.  Every nonzero
    entry must live over ``zero.variables``.
    """
    variables = zero.variables
    cols = [_nonzero(col, variables) for col in cols]
    operands: dict[int, _Operand] = {}
    out = []
    for row in rows:
        nonzero = _nonzero(row, variables).items()
        line = []
        for col in cols:
            pairs = [(a, b) for k, a in nonzero if (b := col.get(k)) is not None]
            if not pairs:
                line.append(zero)
            elif len(pairs) == 1:
                ((a, b),) = pairs
                line.append(a * b)
            else:
                line.append(_dot(pairs, variables, operands))
        out.append(line)
    return out


def _nonzero(line: Sequence[Poly], variables: tuple[str, ...]) -> dict[int, Poly]:
    """The nonzero entries of ``line`` by position; each must live over ``variables``."""
    found = {}
    for k, a in enumerate(line):
        if a.terms:
            if a.variables != variables:
                raise VariableMismatch(
                    f"cannot contract an entry over {a.variables} into {variables}"
                )
            found[k] = a
    return found


def _dot(
    pairs: list[tuple[Poly, Poly]],
    variables: tuple[str, ...],
    operands: dict[int, _Operand],
) -> Poly:
    """sum a * b over pairs of nonzero Polys, in one integer accumulator.

    Every product is written over D, the LCM of the pairs' denominators
    D_a * D_b, and its integer numerators are added into one dict; one
    Fraction is built per nonzero sum.  ``operands`` keeps each entry's
    ``_Operand`` for the whole contraction, by ``id`` and next to the entry
    itself, so that no id is reused while the cache lives.  A sum of at least
    ``_PACK_CUTOFF`` term products is keyed by packed exponents when they fit
    (``_packed_dot``).  A general product of ``Poly.__mul__`` comes here as a
    single pair.
    """
    parts = []
    for a, b in pairs:
        left = operands.get(id(a))
        if left is None:
            left = operands[id(a)] = _Operand(a)
        right = operands.get(id(b))
        if right is None:
            right = operands[id(b)] = _Operand(b)
        parts.append((left, right))
    den = lcm(*[left.den * right.den for left, right in parts])
    if sum(len(left.numerators) * len(right.numerators) for left, right in parts) >= _PACK_CUTOFF:
        layout = _layout(parts)
        if layout is not None:
            return _packed_dot(parts, den, layout, variables)
    acc: dict[Exponents, int] = {}
    get = acc.get
    for left, right in parts:
        scale = den // (left.den * right.den)
        left, right = left.numerators, right.numerators
        if len(left) > len(right):
            left, right = right, left
        for e1, n1 in left:
            n1 *= scale
            if any(e1):
                for e2, n2 in right:
                    exps = tuple(map(add, e1, e2))
                    acc[exps] = get(exps, 0) + n1 * n2
            else:
                # a constant factor leaves the other side's exponents as they are
                for e2, n2 in right:
                    acc[e2] = get(e2, 0) + n1 * n2
    if den == 1:
        terms = {e: Fraction(n) for e, n in acc.items() if n}
    else:
        terms = {e: Fraction(n, den) for e, n in acc.items() if n}
    return Poly._trusted(variables, terms)


# A row . column sum of at least this many term products is accumulated on
# packed exponents.  Packing an operand costs more than the tuple sums it
# saves on small products, such as the few-term entries of most contractions.
_PACK_CUTOFF = 256

# (bound, struct code) of the unsigned field widths of a packed exponent: 1, 2,
# 4 and 8 bytes
_FIELDS = ((1 << 8, "B"), (1 << 16, "H"), (1 << 32, "I"), (1 << 64, "Q"))


class _Operand:
    """An entry of a contraction as ``_dot`` reads it.

    ``numerators`` and ``den`` are its coefficients as integers over their
    common denominator.  ``top`` (each variable's highest exponent) and
    ``packed`` (the numerators keyed by packed exponents, per field layout)
    are made the first time a sum of the entry is packed.
    """

    __slots__ = ("poly", "numerators", "den", "top", "packed")

    def __init__(self, poly: Poly):
        self.poly = poly
        self.numerators, self.den = _numerators(poly.terms)
        self.top: Exponents | None = None
        self.packed: dict[str, list[tuple[int, int]]] | None = None

    def tops(self) -> Exponents:
        if self.top is None:
            self.top = tuple(map(max, zip(*self.poly.terms)))
        return self.top

    def pack(self, layout: struct.Struct) -> list[tuple[int, int]]:
        if self.packed is None:
            self.packed = {}
        packed = self.packed.get(layout.format)
        if packed is None:
            pack, from_bytes = layout.pack, int.from_bytes
            packed = self.packed[layout.format] = [
                (from_bytes(pack(*e), "big"), n) for e, n in self.numerators
            ]
        return packed


def _layout(parts: list[tuple[_Operand, _Operand]]) -> struct.Struct | None:
    """The packed exponent layout of a sum, or None when a field needs over 8 bytes.

    Each variable gets the narrowest field above its highest exponent sum over
    the pairs, so that adding two packed exponents of one pair never carries
    from one field into the next: the packed sum is the packing of the sum.
    """
    codes = []
    for top in map(max, zip(*[map(add, left.tops(), right.tops()) for left, right in parts])):
        code = next((code for bound, code in _FIELDS if top < bound), None)
        if code is None:
            return None
        codes.append(code)
    return struct.Struct(">" + "".join(codes))


def _packed_dot(
    parts: list[tuple[_Operand, _Operand]],
    den: int,
    layout: struct.Struct,
    variables: tuple[str, ...],
) -> Poly:
    """``_dot``'s sum with each monomial keyed by its packed exponents, one int.

    A product's key is the sum of its factors' keys, and each surviving key is
    unpacked once, into the exponent tuple of the result.
    """
    acc: dict[int, int] = {}
    get = acc.get
    for left, right in parts:
        scale = den // (left.den * right.den)
        left, right = left.pack(layout), right.pack(layout)
        if len(left) > len(right):
            left, right = right, left
        for k1, n1 in left:
            n1 *= scale
            for k2, n2 in right:
                key = k1 + k2
                acc[key] = get(key, 0) + n1 * n2
    unpack, size = layout.unpack, layout.size
    if den == 1:
        terms = {unpack(k.to_bytes(size, "big")): Fraction(n) for k, n in acc.items() if n}
    else:
        terms = {unpack(k.to_bytes(size, "big")): Fraction(n, den) for k, n in acc.items() if n}
    return Poly._trusted(variables, terms)


class PolyMatrix:
    """Rectangular matrix of Poly entries over one shared variable list."""

    __slots__ = ("rows", "cols", "entries", "variables")

    def __init__(self, entries: Sequence[Sequence[Poly]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        variables = rows[0][0].variables
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for entry in row:
                if not isinstance(entry, Poly) or entry.variables != variables:
                    raise VariableMismatch("matrix entries over mixed variable lists")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "variables", variables)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def identity(cls, n: int, variables: Sequence[str]) -> "PolyMatrix":
        one = Poly.const(1, variables)
        zero = Poly.zero(variables)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_values(
        cls, values: Sequence[Sequence[int | Fraction | Poly]], variables: Sequence[str]
    ) -> "PolyMatrix":
        rows = []
        for row in values:
            rows.append(
                [
                    v if isinstance(v, Poly) else Poly.const(v, variables)
                    for v in row
                ]
            )
        return cls(rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch")
        return PolyMatrix(
            _contract(self.entries, zip(*other.entries), Poly.zero(self.variables))
        )

    def det(self) -> Poly:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        m = [list(row) for row in self.entries]
        sign = 1
        prev = Poly.const(1, self.variables)
        for k in range(n - 1):
            if m[k][k].is_zero():
                pivot_row = next(
                    (i for i in range(k + 1, n) if not m[i][k].is_zero()), None
                )
                if pivot_row is None:
                    return Poly.zero(self.variables)
                m[k], m[pivot_row] = m[pivot_row], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                    m[i][j] = num.divide_exact(prev)
                m[i][k] = Poly.zero(self.variables)
            prev = m[k][k]
        result = m[n - 1][n - 1]
        return result if sign == 1 else -result

    def minor(self, drop_row: int, drop_col: int) -> "PolyMatrix":
        return PolyMatrix(
            [
                [e for j, e in enumerate(row) if j != drop_col]
                for i, row in enumerate(self.entries)
                if i != drop_row
            ]
        )

    def unimodular_inverse(self) -> "PolyMatrix":
        """Polynomial inverse of a matrix with constant determinant +1 or -1.

        Computed as the adjugate divided by the determinant; requires and
        checks exact unimodularity, so every entry stays polynomial.
        """
        if self.rows != self.cols:
            raise NotUnimodular("matrix is not square")
        d = self.det()
        if not d.is_constant() or d.constant_value() not in (1, -1):
            raise NotUnimodular(f"determinant {d} is not the constant +1 or -1")
        d_value = d.constant_value()
        n = self.rows
        if n == 1:
            return PolyMatrix.from_values([[d_value]], self.variables)
        adj = []
        for i in range(n):
            row = []
            for j in range(n):
                cof = self.minor(j, i).det()
                if (i + j) % 2:
                    cof = -cof
                row.append(cof * d_value)
            adj.append(row)
        return PolyMatrix(adj)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return f"PolyMatrix[{body}]"
