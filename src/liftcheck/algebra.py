"""Exact scalar, polynomial and polynomial-matrix arithmetic.

Coefficients are arbitrary-precision rationals.  Polynomials are sparse
multivariate with a fixed, ordered variable list, and each one keeps its
coefficients as integer numerators (``Poly.nums``) over one positive
denominator (``Poly.den``) that shares no factor with all of them, so two
equal polynomials are stored, print and hash identically; the print order
is graded lexicographic over the variable list.  Arithmetic runs on the
integers and takes a gcd only where the denominator is above 1.  There is
no floating point anywhere: every verification downstream reduces to testing
that a polynomial in canonical form is literally zero.

Every sum of products runs through one kernel, ``_contract`` and its ``_dot``,
on the integer numerators over the LCM of the denominators.  A sum with at least
``_PACK_CUTOFF`` term products keys each monomial by one int instead of a
tuple: each variable gets an unsigned field of 1, 2, 4 or 8 bytes, wider than
the highest exponent sum that variable reaches in the call, so a product's key
is the sum of its factors' keys with no carry between fields.  Smaller sums,
and sums whose fields would need more than 8 bytes, add exponent tuples.
``Poly.nums`` is keyed by exponent tuples either way.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add

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


def _term_grlex_key(term: tuple[Exponents, int]) -> tuple:
    """``_grlex_key`` of an (exponents, coefficient) term."""
    exps = term[0]
    return (sum(exps), exps)


class Poly:
    """Sparse multivariate polynomial over an ordered variable list.

    Immutable after construction.  ``nums`` maps exponent tuples (aligned
    with ``variables``) to nonzero integer numerators over the one
    denominator ``den`` >= 1, and gcd(den, *nums.values()) == 1, so the form
    is canonical.  ``terms`` is the read-only view of the same polynomial
    with one ``Fraction`` coefficient per exponent tuple.

    ``Poly(...)`` validates its input; arithmetic results are built with
    ``_trusted`` or ``_reduced``, which skip the checks because they hold by
    construction.
    """

    __slots__ = ("variables", "nums", "den")

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
        nums, den = _over_lcm(clean)
        _set_variables(self, variables)
        _set_nums(self, nums)
        _set_den(self, den)

    @classmethod
    def _trusted(
        cls, variables: tuple[str, ...], nums: dict[Exponents, int], den: int
    ) -> "Poly":
        """Wrap parts that are valid by construction, without checking them.

        ``variables`` must be a tuple and ``nums`` a dict, owned by the new
        Poly, of exponent tuples of that width with no negative entry to
        nonzero ints; ``den`` >= 1 must have no common factor with them.
        """
        self = object.__new__(cls)
        _set_variables(self, variables)
        _set_nums(self, nums)
        _set_den(self, den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> "Mapping[Exponents, Fraction]":
        """The coefficients as a read-only mapping, one Fraction per lookup."""
        return _Terms(self.nums, self.den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls._trusted(tuple(variables), {}, 1)

    @classmethod
    def const(cls, value: int | Fraction, variables: Sequence[str]) -> "Poly":
        variables = tuple(variables)
        value = as_fraction(value)
        if value == 0:
            return cls._trusted(variables, {}, 1)
        return cls._trusted(
            variables, {(0,) * len(variables): value.numerator}, value.denominator
        )

    @classmethod
    def variable(cls, name: str, variables: Sequence[str]) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatch(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls._trusted(variables, {exps: 1}, 1)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        nums = self.nums
        if not nums:
            return True
        if len(nums) > 1:
            return False
        (exps,) = nums
        return not any(exps)

    def constant_value(self) -> Fraction:
        if not self.nums:
            return Fraction(0)
        if not self.is_constant():
            raise AlgebraError("polynomial is not constant")
        (n,) = self.nums.values()
        return Fraction(n, self.den)

    def total_degree(self) -> int:
        if not self.nums:
            return 0
        return max(sum(exps) for exps in self.nums)

    def leading(self) -> tuple[Exponents, Fraction]:
        if not self.nums:
            raise AlgebraError("zero polynomial has no leading term")
        exps = max(self.nums, key=_grlex_key)
        return exps, Fraction(self.nums[exps], self.den)

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
        return Poly._trusted(variables, {exps + pad: n for exps, n in self.nums.items()}, self.den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, False)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.variables, {e: -n for e, n in self.nums.items()}, self.den)

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
        if not other.nums:
            return self
        if not self.nums:
            return -other if negate else other
        den = self.den
        if other.den == den:
            out = dict(self.nums)
            _accumulate(out, other.nums, negate)
        else:
            den = lcm(den, other.den)
            k1, k2 = den // self.den, den // other.den
            out = {e: n * k1 for e, n in self.nums.items()}
            _accumulate(out, {e: n * k2 for e, n in other.nums.items()}, negate)
        return _reduced(self.variables, out, den)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.variables != other.variables and self.is_constant():
            return other._scale(self.constant_value())
        if not self.nums or not other.nums:
            return Poly._trusted(self.variables, {}, 1)
        # a single term shifts the other operand's exponents, injectively
        if len(other.nums) == 1:
            ((shift, n),) = other.nums.items()
            return self._shift(shift, n, other.den)
        if len(self.nums) == 1:
            ((shift, n),) = self.nums.items()
            return other._shift(shift, n, self.den)
        return _dot([(self, other)], self.variables, {})

    def _shift(self, shift: Exponents, n: int, d: int) -> "Poly":
        """self times the single term (n / d) * x^shift, n / d in lowest terms."""
        nums = self.nums
        if any(shift):
            if n == 1:
                shifted = {tuple(map(add, e, shift)): c for e, c in nums.items()}
            else:
                shifted = {tuple(map(add, e, shift)): c * n for e, c in nums.items()}
        elif n == 1 and d == 1:
            return self
        else:
            shifted = {e: c * n for e, c in nums.items()}
        if d == 1 and (n == 1 or n == -1):
            # a unit factor leaves the numerators prime to the denominator
            return Poly._trusted(self.variables, shifted, self.den)
        return _reduced(self.variables, shifted, self.den * d)

    def _scale(self, value: int | Fraction) -> "Poly":
        if not value:
            return Poly._trusted(self.variables, {}, 1)
        return self._shift((0,) * len(self.variables), value.numerator, value.denominator)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if len(self.nums) == 1:
            # powers of coprime n and den stay coprime
            ((exps, n),) = self.nums.items()
            return Poly._trusted(
                self.variables, {tuple(e * power for e in exps): n**power}, self.den**power
            )
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
            return Poly._trusted(self.variables, {}, 1)
        idx = self.variables.index(var)
        # lowering one exponent is injective on the terms where it is positive
        return _reduced(
            self.variables,
            {
                exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]: n * exps[idx]
                for exps, n in self.nums.items()
                if exps[idx]
            },
            self.den,
        )

    def eval_at(self, point: Mapping[str, Fraction]) -> Fraction:
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise AlgebraError(f"missing value for variable {missing[0]!r}")
        values = [as_fraction(point[v]) for v in self.variables]
        if not self.nums:
            return Fraction(0)
        # With each value p_i / q_i, every term is an integer over
        # den * prod q_i^top_i (top_i: the highest exponent of variable i),
        # so the sum runs over integers and one Fraction is built at the end.
        den = self.den
        used = []
        for i, (value, top) in enumerate(zip(values, map(max, zip(*self.nums)))):
            if top:
                used.append((i, value.numerator, value.denominator, top, {}))
                den *= value.denominator**top
        total = 0
        for exps, n in self.nums.items():
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
        # the quotient of the numerators N / M, times M's den over N's
        lead_exps, lead = divisor.leading()
        lead *= divisor.den
        remainder = {e: Fraction(n) for e, n in self.nums.items()}
        quotient: dict[Exponents, Fraction] = {}
        while remainder:
            rexps = max(remainder, key=_grlex_key)
            qexps = tuple(a - b for a, b in zip(rexps, lead_exps))
            if any(e < 0 for e in qexps):
                raise ExactDivisionError("division is not exact")
            qcoeff = quotient[qexps] = remainder[rexps] / lead
            for dexps, m in divisor.nums.items():
                exps = tuple(a + b for a, b in zip(qexps, dexps))
                acc = remainder.get(exps, 0) - qcoeff * m
                if acc:
                    remainder[exps] = acc
                else:
                    remainder.pop(exps, None)
        # the leading remainder term strictly decreases, so each quotient
        # exponent is produced once, with a nonzero coefficient
        return Poly._trusted(self.variables, *_over_lcm(quotient))._scale(
            Fraction(divisor.den, self.den)
        )

    # -- equality and printing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.variables)
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.den, frozenset(self.nums.items())))

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        den = self.den
        parts: list[str] = []
        for exps, n in sorted(self.nums.items(), key=_term_grlex_key, reverse=True):
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.variables, exps)
                if e
            ]
            if den == 1:
                mag = str(abs(n))
            else:
                g = gcd(n, den)
                mag = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
            if factors and mag == "1":
                body = "*".join(factors)
            elif factors:
                body = "*".join([mag] + factors)
            else:
                body = mag
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if n > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


# slot setters that bypass Poly.__setattr__, which refuses every write
_set_variables = Poly.variables.__set__
_set_nums = Poly.nums.__set__
_set_den = Poly.den.__set__


class _Terms(Mapping):
    """``Poly.terms``: exponent tuples to ``Fraction(n, den)``, built on lookup."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: dict[Exponents, int], den: int):
        self._nums = nums
        self._den = den

    def __getitem__(self, exps: Exponents) -> Fraction:
        return Fraction(self._nums[exps], self._den)

    def __contains__(self, exps) -> bool:
        return exps in self._nums

    def __iter__(self):
        return iter(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _over_lcm(terms: dict[Exponents, Fraction]) -> tuple[dict[Exponents, int], int]:
    """Nonzero Fractions as integer numerators over the LCM D of their
    denominators, and D.  Some numerator is prime to each prime power of D,
    so the gcd is 1 already."""
    den = lcm(*[c.denominator for c in terms.values()])
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _reduced(variables: tuple[str, ...], nums: dict[Exponents, int], den: int) -> Poly:
    """The Poly of ``nums`` over ``den``, divided through by their gcd; each
    numerator must be nonzero.  A denominator of 1 takes no gcd."""
    if den > 1:
        g = gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {e: n // g for e, n in nums.items()}
    return Poly._trusted(variables, nums, den)


def _sum_over_lcm(variables: tuple[str, ...], sums: dict[int, dict[Exponents, int]]) -> Poly:
    """The sum of numerator dicts, each over its key in ``sums`` as denominator.

    Each dict is rewritten over the LCM once, so the cost is linear in the
    number of terms however many denominators there are.  ``sums`` must not
    be empty, and its dicts are consumed.
    """
    den = lcm(*sums)
    out = sums.pop(den, {})
    for d, nums in sums.items():
        k = den // d
        _accumulate(out, {e: n * k for e, n in nums.items()}, False)
    return _reduced(variables, out, den)


def _accumulate(
    out: dict[Exponents, int], nums: dict[Exponents, int], negate: bool
) -> None:
    """Add (or, if ``negate``, subtract) ``nums`` into ``out``, dropping keys that cancel."""
    for exps, n in nums.items():
        acc = out.get(exps)
        if acc is None:
            out[exps] = -n if negate else n
        else:
            total = acc - n if negate else acc + n
            if total:
                out[exps] = total
            else:
                del out[exps]


def _contract(
    left: Mapping[tuple, Poly], right: Mapping[tuple, Poly], variables: tuple[str, ...]
) -> dict[tuple, Poly]:
    """The nonzero sums out[a + b] = sum_k left[a + (k,)] * right[(k,) + b].

    The one multiply-accumulate loop behind every matrix, tensor and lift
    product.  Both operands hold nonzero entries only, keyed by index tuple;
    the last index of a left key is contracted with the first of a right key.
    Only products of two present entries are formed: a sum of one product is
    that product, a longer one goes to ``_dot``, and a sum that cancels is
    left out.  Every entry must live over ``variables``.
    """
    for a in chain(left.values(), right.values()):
        if a.variables != variables:
            raise VariableMismatch(f"cannot contract an entry over {a.variables} into {variables}")
    by_first: dict = {}
    for key, b in right.items():
        by_first.setdefault(key[0], []).append((key[1:], b))
    sums: dict[tuple, list] = {}
    for key, a in left.items():
        head = key[:-1]
        for tail, b in by_first.get(key[-1], ()):
            sums.setdefault(head + tail, []).append((a, b))
    operands: dict[int, _Operand] = {}
    out = {}
    for key, pairs in sums.items():
        if len(pairs) == 1:
            ((a, b),) = pairs
            out[key] = a * b
        elif value := _dot(pairs, variables, operands):
            out[key] = value
    return out


def _dot(
    pairs: list[tuple[Poly, Poly]],
    variables: tuple[str, ...],
    operands: dict[int, _Operand],
) -> Poly:
    """sum a * b over pairs of nonzero Polys, in one integer accumulator.

    Every product is written over D, the LCM of the pairs' denominators
    D_a * D_b, and its integer numerators are added into one dict, which
    becomes the result over D once the zero sums are dropped.  ``operands``
    keeps each entry's ``_Operand`` for the whole contraction, by ``id`` and
    next to the entry itself, so that no id is reused while the cache lives.  A sum of at least
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
    if sum(len(left.nums) * len(right.nums) for left, right in parts) >= _PACK_CUTOFF:
        layout = _layout(parts)
        if layout is not None:
            return _packed_dot(parts, den, layout, variables)
    acc: dict[Exponents, int] = {}
    get = acc.get
    for left, right in parts:
        scale = den // (left.den * right.den)
        left, right = left.nums.items(), right.nums.items()
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
    return _reduced(variables, {e: n for e, n in acc.items() if n}, den)


# A row . column sum of at least this many term products is accumulated on
# packed exponents.  Packing an operand costs more than the tuple sums it
# saves on small products, such as the few-term entries of most contractions.
_PACK_CUTOFF = 256

# (bound, struct code) of the unsigned field widths of a packed exponent: 1, 2,
# 4 and 8 bytes
_FIELDS = ((1 << 8, "B"), (1 << 16, "H"), (1 << 32, "I"), (1 << 64, "Q"))


class _Operand:
    """An entry of a contraction as ``_dot`` reads it.

    ``nums`` and ``den`` are the entry's own.  ``top`` (each variable's
    highest exponent) and ``packed`` (the numerators keyed by packed
    exponents, per field layout) are made the first time a sum of the entry
    is packed.
    """

    __slots__ = ("poly", "nums", "den", "top", "packed")

    def __init__(self, poly: Poly):
        self.poly = poly
        self.nums, self.den = poly.nums, poly.den
        self.top: Exponents | None = None
        self.packed: dict[str, list[tuple[int, int]]] | None = None

    def tops(self) -> Exponents:
        if self.top is None:
            self.top = tuple(map(max, zip(*self.nums)))
        return self.top

    def pack(self, layout: struct.Struct) -> list[tuple[int, int]]:
        if self.packed is None:
            self.packed = {}
        packed = self.packed.get(layout.format)
        if packed is None:
            pack, from_bytes = layout.pack, int.from_bytes
            packed = self.packed[layout.format] = [
                (from_bytes(pack(*e), "big"), n) for e, n in self.nums.items()
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
    return _reduced(
        variables, {unpack(k.to_bytes(size, "big")): n for k, n in acc.items() if n}, den
    )


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
        # the kernel reads nonzero entries, keyed (row, column)
        left, right = ({(i, j): a for i, row in enumerate(m.entries) for j, a in enumerate(row) if a}
                       for m in (self, other))
        product = _contract(left, right, self.variables)
        zero = Poly.zero(self.variables)
        return PolyMatrix(
            [[product.get((i, j), zero) for j in range(other.cols)] for i in range(self.rows)]
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
