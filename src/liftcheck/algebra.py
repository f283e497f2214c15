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

Each monomial is one int key (packed exponents, after Monagan and Pearce,
CASC 2007).  Over m variables, the total degree sits in the top field and
each variable's exponent in one ``_W``-bit field below it, the first variable
highest.  So the key of a product is the sum of its factors' keys, graded
lexicographic order is int order, and the constant monomial is key 0.  Every
exponent and total degree is at most ``_MASK`` = 65,535: the constructor
refuses a tuple past it, and a product or power past it raises
``DegreeOverflow`` before any work.  No field exceeds the total degree, so
two keys whose degrees sum to at most ``_MASK`` add with no carry between
fields, and that one check is exact.  ``Poly.terms`` decodes the keys into
exponent tuples on read.

Every sum of products runs through one kernel, ``_contract`` and its
``_dot``, on the integer numerators over the LCM of the denominators.
A sum of single-term products is added straight into the result; otherwise
``_dot`` has two paths that give the same numerators, chosen from the
operands alone: a plain loop over term products, and a packed path for
dense operands that multiplies whole rows of terms as single ints, with one
variable's exponents as the digit positions (Kronecker substitution in one
variable; Fateman 2005, Harvey 2009).  The packed path pays only where many
term products fall in each pair of rows, so small, lopsided and sparse
products, such as those of a lift's many-variable entries, keep the plain
loop.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, lcm
from operator import or_

Exponents = tuple[int, ...]


class AlgebraError(Exception):
    """Base class for exact-arithmetic failures."""


class VariableMismatch(AlgebraError):
    """Operands live over variable lists that cannot be aligned."""


class EpsilonMismatch(AlgebraError):
    """EpsComplex operands with different squaring conventions."""


class NotUnimodular(AlgebraError):
    """Matrix determinant is not the constant +1 or -1."""


class DegreeOverflow(AlgebraError):
    """An exponent or total degree past the fields of a monomial key."""


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

    def __reduce__(self):
        return EpsComplex, (self.re, self.im, self.epsilon)

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


# Bits per exponent field of a monomial key.  Every exponent and total degree
# is at most _MASK = 65,535, far above expr.MAX_DEGREE.
_W = 16
_MASK = (1 << _W) - 1


def _offset(m: int, i: int) -> int:
    """The bit offset of variable i's exponent field in a key over m variables."""
    return (m - 1 - i) * _W


def _unit(m: int, i: int) -> int:
    """The key of variable i alone over m variables: degree 1, exponent 1."""
    return 1 << m * _W | 1 << _offset(m, i)


def _exponents(key: int, m: int) -> Exponents:
    """The exponent tuple of a key over m variables."""
    return tuple(key >> s & _MASK for s in range(_offset(m, 0), -1, -_W))


def _checked_key(exps, variables: tuple[str, ...]) -> int:
    """The key of an exponent tuple over ``variables``, or a located error for a
    tuple that no key holds."""
    exps = tuple(exps)
    if len(exps) != len(variables):
        raise VariableMismatch(f"exponent tuple {exps} does not match {len(variables)} variables")
    key = 0
    for name, e in zip(variables, exps):
        if not isinstance(e, int):
            raise TypeError(f"exponent {e!r} of {name} in {exps} is not an int")
        if e < 0:
            raise ValueError(f"negative exponent {e} of {name} in {exps}")
        if e > _MASK:
            raise DegreeOverflow(f"exponent {e} of {name} in {exps} exceeds {_MASK}")
        key = key << _W | e
    degree = sum(exps)
    if degree > _MASK:
        raise DegreeOverflow(f"total degree {degree} of {exps} exceeds {_MASK}")
    return degree << len(exps) * _W | key


def _check_degree(degree: int) -> None:
    """Refuse a product or power of total ``degree`` past the key's fields."""
    if degree > _MASK:
        raise DegreeOverflow(f"a product or power of total degree {degree} exceeds {_MASK}")


_new = object.__new__


class _PolyParts:
    """The three slots of a ``Poly`` with no write guard: ``Poly._trusted``
    fills one with plain stores, then makes it a ``Poly``."""

    __slots__ = ("variables", "nums", "den")


class Poly(_PolyParts):
    """Sparse multivariate polynomial over an ordered variable list.

    Immutable after construction.  ``nums`` maps monomial keys (see the
    module docstring) to nonzero integer numerators over the one denominator
    ``den`` >= 1, and gcd(den, *nums.values()) == 1, so the form is
    canonical.  ``terms`` is the read-only view of the same polynomial with
    one ``Fraction`` coefficient per exponent tuple.

    ``Poly(...)`` validates its input; arithmetic results are built with
    ``_trusted`` or ``_reduced``, which skip the checks because they hold by
    construction.  Nothing subclasses ``Poly``: ``_trusted`` assigns
    ``__class__``, which needs the layout of ``_PolyParts``.
    """

    __slots__ = ()

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[Exponents, int | Fraction] | None = None,
    ):
        variables = tuple(variables)
        clean: dict[int, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = as_fraction(coeff)
                if coeff != 0:
                    clean[_checked_key(exps, variables)] = coeff
        nums, den = _over_lcm(clean)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], nums: dict[int, int], den: int) -> "Poly":
        """Wrap parts that are valid by construction, without checking them.

        ``variables`` must be a tuple and ``nums`` a dict, owned by the new
        Poly, of keys over that many variables to nonzero ints; ``den`` >= 1
        must have no common factor with them.  The parts are stored into a
        ``_PolyParts``, which has no guard, and the class is set last.
        """
        self = _new(_PolyParts)
        self.variables = variables
        self.nums = nums
        self.den = den
        self.__class__ = cls
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly._trusted, (self.variables, self.nums, self.den)

    @property
    def terms(self) -> "Mapping[Exponents, Fraction]":
        """The coefficients as a read-only mapping, one Fraction per lookup."""
        return _Terms(self)

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
        return cls._trusted(variables, {0: value.numerator}, value.denominator)

    @classmethod
    def variable(cls, name: str, variables: Sequence[str]) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatch(f"unknown variable {name!r}")
        return cls._trusted(variables, {_unit(len(variables), variables.index(name)): 1}, 1)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        nums = self.nums
        return not nums or (len(nums) == 1 and 0 in nums)

    def constant_value(self) -> Fraction:
        if not self.nums:
            return Fraction(0)
        if not self.is_constant():
            raise AlgebraError("polynomial is not constant")
        return Fraction(self.nums[0], self.den)

    def total_degree(self) -> int:
        if not self.nums:
            return 0
        return max(self.nums) >> len(self.variables) * _W

    def leading(self) -> tuple[Exponents, Fraction]:
        if not self.nums:
            raise AlgebraError("zero polynomial has no leading term")
        key = max(self.nums)
        return _exponents(key, len(self.variables)), Fraction(self.nums[key], self.den)

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
        # the new variables' zero fields go below the old ones
        shift = (len(variables) - len(self.variables)) * _W
        return Poly._trusted(variables, {k << shift: n for k, n in self.nums.items()}, self.den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, False)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.variables, {k: -n for k, n in self.nums.items()}, self.den)

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
        variables = self.variables
        if other.variables is not variables and other.variables != variables and self.is_constant():
            return (-other if negate else other) + self.constant_value()
        if not other.nums:
            return self
        if not self.nums:
            return -other if negate else other
        den = self.den
        if other.den == den:
            # a difference of equal operands cancels: one dict comparison
            if negate and (other is self or other.nums == self.nums):
                return Poly._trusted(variables, {}, 1)
            out = dict(self.nums)
            _accumulate(out, other.nums, negate)
        else:
            den = lcm(den, other.den)
            k1, k2 = den // self.den, den // other.den
            out = {k: n * k1 for k, n in self.nums.items()}
            _accumulate(out, {k: n * k2 for k, n in other.nums.items()}, negate)
        return _reduced(variables, out, den)

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
        return _times(self, other)

    def _shift(self, shift: int, n: int, d: int) -> "Poly":
        """self times the single term (n / d) * x^shift, n / d in lowest terms
        and ``shift`` a key."""
        nums = self.nums
        if shift:
            _check_degree(self.total_degree() + (shift >> len(self.variables) * _W))
            if n == 1:
                shifted = {k + shift: c for k, c in nums.items()}
            else:
                shifted = {k + shift: c * n for k, c in nums.items()}
        elif n == 1 and d == 1:
            return self
        else:
            shifted = {k: c * n for k, c in nums.items()}
        if d == 1 and (n == 1 or n == -1):
            # a unit factor leaves the numerators prime to the denominator
            return Poly._trusted(self.variables, shifted, self.den)
        return _reduced(self.variables, shifted, self.den * d)

    def _scale(self, value: int | Fraction) -> "Poly":
        if not value:
            return Poly._trusted(self.variables, {}, 1)
        return self._shift(0, value.numerator, value.denominator)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        _check_degree(self.total_degree() * power)
        if len(self.nums) == 1:
            # powers of coprime n and den stay coprime
            ((key, n),) = self.nums.items()
            return Poly._trusted(self.variables, {key * power: n**power}, self.den**power)
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
        m, i = len(self.variables), self.variables.index(var)
        offset, unit = _offset(m, i), _unit(m, i)
        # lowering one exponent is injective on the terms where it is positive
        return _reduced(
            self.variables,
            {k - unit: n * e for k, n in self.nums.items() if (e := k >> offset & _MASK)},
            self.den,
        )

    def eval_at(self, point: Mapping[str, Fraction]) -> Fraction:
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise AlgebraError(f"missing value for variable {missing[0]!r}")
        den, (num,) = _numerators_at([self], [as_fraction(point[v]) for v in self.variables])
        return Fraction(num, den)

    # -- equality and printing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if other is self:
            return True
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
        if self.is_constant():  # equal to its value, so hashed as that value
            return hash(self.constant_value())
        return hash((self.variables, self.den, frozenset(self.nums.items())))

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        nums, den = self.nums, self.den
        # only the variables that occur, found from the bitwise or of the keys,
        # each with its field's offset and its pieces "name^e", made once per e
        occur, offset, fields = reduce(or_, nums), len(self.variables) * _W, []
        for name in self.variables:
            offset -= _W
            if occur >> offset & _MASK:
                fields.append((offset, {1: name}, name))
        parts: list[str] = []
        for key in sorted(nums, reverse=True):
            n = nums[key]
            if den == 1:
                mag = str(abs(n))
            else:
                g = gcd(n, den)
                mag = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
            factors = [] if mag == "1" else [mag]
            for offset, pieces, name in fields:
                if e := key >> offset & _MASK:
                    piece = pieces.get(e)
                    if piece is None:
                        piece = pieces[e] = f"{name}^{e}"
                    factors.append(piece)
            parts.append(" + " if n > 0 else " - ")
            parts.append("*".join(factors) or mag)
        # the first term has no operator, only the sign of a negative one
        parts[0] = "" if parts[0] == " + " else "-"
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


class _Terms(Mapping):
    """``Poly.terms``: exponent tuples to ``Fraction(n, den)``, decoded on read."""

    __slots__ = ("_poly",)

    def __init__(self, poly: Poly):
        self._poly = poly

    def __getitem__(self, exps: Exponents) -> Fraction:
        poly = self._poly
        try:
            key = _checked_key(exps, poly.variables)
        except (TypeError, ValueError, AlgebraError):
            raise KeyError(exps) from None
        return Fraction(poly.nums[key], poly.den)

    def __iter__(self):
        m = len(self._poly.variables)
        return (_exponents(k, m) for k in self._poly.nums)

    def __len__(self) -> int:
        return len(self._poly.nums)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _numerators_at(polys: Sequence[Poly], values: Sequence[Fraction]) -> tuple[int, Iterator[int]]:
    """(D, numerators): the value at ``values``, one per variable, of each of
    ``polys`` as an integer numerator over one positive denominator D, each
    made on demand.  The one evaluation loop.  With value i = p / q and top
    the bitwise or of variable i's exponents (at least the highest, below
    twice it), a table t[e] = p^e * q^(top - e) serves every term, and D is
    the product of the q^top times the LCM of the Polys' denominators."""
    fields, scale = 0, 1
    for p in polys:
        if p.nums:
            fields |= reduce(or_, p.nums)
            scale = lcm(scale, p.den)
    den, used, m = scale, [], len(values)
    for i, value in enumerate(values):
        offset = _offset(m, i)
        if top := fields >> offset & _MASK:
            n, d, ps, qs = value.numerator, value.denominator, [1], [1]
            for _ in range(top):
                ps.append(ps[-1] * n)
                qs.append(qs[-1] * d)
            used.append((offset, [a * b for a, b in zip(ps, reversed(qs))]))
            den *= qs[-1]

    def numerator(p: Poly) -> int:
        total = 0
        for key, n in p.nums.items():
            for offset, table in used:
                n *= table[key >> offset & _MASK]
            total += n
        return total * (scale // p.den)

    return den, map(numerator, polys)


def _over_lcm(terms: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """Nonzero Fractions as integer numerators over the LCM D of their
    denominators, and D.  Some numerator is prime to each prime power of D,
    so the gcd is 1 already."""
    den = lcm(*[c.denominator for c in terms.values()])
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _reduced(variables: tuple[str, ...], nums: dict[int, int], den: int) -> Poly:
    """The Poly of ``nums`` over ``den``, divided through by their gcd; each
    numerator must be nonzero.  A denominator of 1 takes no gcd."""
    if den > 1:
        g = gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {k: n // g for k, n in nums.items()}
    return Poly._trusted(variables, nums, den)


def _sum_over_lcm(variables: tuple[str, ...], sums: dict[int, dict[int, int]]) -> Poly:
    """The sum of numerator dicts, each over its key in ``sums`` as denominator.

    Each dict is rewritten over the LCM once, so the cost is linear in the
    number of terms however many denominators there are.  ``sums`` must not
    be empty, and its dicts are consumed.
    """
    den = lcm(*sums)
    out = sums.pop(den, {})
    for d, nums in sums.items():
        k = den // d
        _accumulate(out, {key: n * k for key, n in nums.items()}, False)
    return _reduced(variables, out, den)


def _accumulate(out: dict[int, int], nums: dict[int, int], negate: bool) -> None:
    """Add (or, if ``negate``, subtract) ``nums`` into ``out``, dropping keys that cancel."""
    for key, n in nums.items():
        acc = out.get(key)
        if acc is None:
            out[key] = -n if negate else n
        else:
            total = acc - n if negate else acc + n
            if total:
                out[key] = total
            else:
                del out[key]


def _contract(
    left: Mapping[tuple, Poly], right: Mapping[tuple, Poly], variables: tuple[str, ...]
) -> dict[tuple, Poly]:
    """The nonzero sums out[a + b] = sum_k left[a + (k,)] * right[(k,) + b].

    The one multiply-accumulate loop behind every matrix, tensor and lift
    product.  Both operands hold nonzero entries only, keyed by index tuple;
    the last index of a left key is contracted with the first of a right key.
    Only products of two present entries are formed: a sum of one product is
    that product (``_times``, where a single-term factor shifts the other's
    keys), a longer one goes to ``_dot``, and a sum that cancels is left out.
    Every entry must live over ``variables``.
    """
    for a in chain(left.values(), right.values()):
        if a.variables is not variables and a.variables != variables:
            raise VariableMismatch(f"cannot contract an entry over {a.variables} into {variables}")
    by_first: dict = {}
    for key, b in right.items():
        by_first.setdefault(key[0], []).append((key[1:], b))
    sums: dict[tuple, list] = {}
    for key, a in left.items():
        head = key[:-1]
        for tail, b in by_first.get(key[-1], ()):
            sums.setdefault(head + tail, []).append((a, b))
    out = {}
    for key, pairs in sums.items():
        if len(pairs) == 1:
            out[key] = _times(*pairs[0])
        elif (value := _dot(pairs, variables)).nums:
            out[key] = value
    return out


def _times(a: Poly, b: Poly) -> Poly:
    """a * b for nonzero a and b over the same variables.  A single term
    shifts the other operand's keys, injectively; any other product is one
    pair of ``_dot``."""
    if len(b.nums) == 1:
        ((shift, n),) = b.nums.items()
        return a._shift(shift, n, b.den)
    if len(a.nums) == 1:
        ((shift, n),) = a.nums.items()
        return b._shift(shift, n, a.den)
    return _dot([(a, b)], a.variables)


def _dot(pairs: list[tuple[Poly, Poly]], variables: tuple[str, ...]) -> Poly:
    """sum a * b over pairs of nonzero Polys, on integer numerators.

    Every product is written over D, the LCM of the pairs' denominators
    D_a * D_b, and the numerators of all products are summed into one result
    over D, with the zero sums dropped.  Each pair's degrees are checked
    before any product is formed.  A general product of ``_times`` comes
    here as a single pair.

    A sum whose every factor is a single term forms one term product per
    pair, added straight into the result.  Any other sum takes one of two
    paths, chosen from the operands by ``_packing``, and both give the same
    numerators.  The plain loop, ``_plain_dot``, forms one term product at a
    time; the packed path, ``_packed_dot``, multiplies whole rows of terms as
    single ints (Kronecker substitution in one variable).  Packing pays only
    on dense operands with many terms per row; on small or sparse ones, such
    as the many-variable entries of a lift, the plain loop is faster, so it
    stays the path for them.

    A square, a pair of one Poly or of two equal ones, forms each cross
    product once and doubles it: n(n + 1)/2 term products, or row products,
    where a general pair of n forms n * n (Knuth, TAOCP vol. 2).
    """
    # a Poly's degree is the top field of its highest key
    den, products, shift = 1, 0, len(variables) * _W
    for a, b in pairs:
        if (max(a.nums) >> shift) + (max(b.nums) >> shift) > _MASK:
            _check_degree(a.total_degree() + b.total_degree())
        den = lcm(den, a.den * b.den)
        products += len(a.nums) * len(b.nums)
    if products == len(pairs):
        # every factor a single term: n_a * n_b * (D / (d_a * d_b)) per pair
        acc = {}
        for a, b in pairs:
            ((k1, n1),), ((k2, n2),) = a.nums.items(), b.nums.items()
            key = k1 + k2
            acc[key] = acc.get(key, 0) + n1 * n2 * (den // (a.den * b.den))
        acc = {k: n for k, n in acc.items() if n}
    else:
        # the first bound of _packing, counted here, so that small calls skip it
        rows = None if products < _PACK_PRODUCTS else _packing(pairs, len(variables))
        acc = _plain_dot(pairs, den) if rows is None else _packed_dot(pairs, rows, den)
    return _reduced(variables, acc, den)


def _plain_dot(pairs: list[tuple[Poly, Poly]], den: int) -> dict[int, int]:
    """The nonzero numerators over ``den`` of sum a * b, one term product at a
    time, added into one dict keyed by the sums of the factors' keys."""
    acc: dict[int, int] = {}
    get = acc.get
    for a, b in pairs:
        scale = den // (a.den * b.den)
        if a is b or (a.den == b.den and len(a.nums) > 1 and a.nums == b.nums):
            # each term pops off and meets only the terms left after it
            rest = list(a.nums.items())
            while rest:
                k1, n = rest.pop()
                n1 = n * scale
                key = k1 + k1
                acc[key] = get(key, 0) + n * n1
                n1 += n1
                for k2, n2 in rest:
                    key = k1 + k2
                    acc[key] = get(key, 0) + n1 * n2
            continue
        left, right = a.nums.items(), b.nums.items()
        if len(left) > len(right):
            left, right = right, left
        for k1, n1 in left:
            n1 *= scale
            for k2, n2 in right:
                key = k1 + k2
                acc[key] = get(key, 0) + n1 * n2
    return {k: n for k, n in acc.items() if n}


# The packed path of ``_dot`` is taken only where all four hold: the call
# forms at least _PACK_PRODUCTS term products, at least _PACK_PER_TERM of them
# per operand term and at least _PACK_PER_ROW per pair of rows, and no
# operand's rows span more than _PACK_SPAN slots per term.  The first three
# keep the plain loop on small products, on lopsided ones (a few terms times
# many, where packing and reading off the slots cost as much as the loop) and
# on many-variable ones with a few terms per row, such as the entries of a
# lift.  The last keeps a sparse operand, say one with an exponent of 60,000
# in the packed variable, from building an int of that many slots.
_PACK_PRODUCTS = 1000
_PACK_PER_TERM = 8
_PACK_PER_ROW = 4
_PACK_SPAN = 4


def _rows(nums: dict[int, int]) -> dict[int, list[tuple[int, int]]]:
    """The (slot, numerator) pairs of each row.  Over m >= 2 variables, a
    term's slot is e_{m-2}, its next-to-last exponent, and its row key is its
    key less slot * _MASK: the same key with that exponent moved into the
    last field.  So the row key holds the total degree and the first m - 2
    exponents, the key of a term is row + slot * _MASK, and the row keys and
    slots of a product are the sums of its factors'."""
    rows: dict[int, list[tuple[int, int]]] = {}
    for key, n in nums.items():
        slot = key >> _W & _MASK
        rows.setdefault(key - slot * _MASK, []).append((slot, n))
    return rows


def _packing(pairs: list[tuple[Poly, Poly]], m: int) -> dict[int, dict] | None:
    """The ``_rows`` of each operand, by id, where ``_packed_dot`` pays (see
    _PACK_PRODUCTS), else None for the plain loop.  Only term counts are read
    until the first two bounds pass, and no int is packed here."""
    products = sum(len(a.nums) * len(b.nums) for a, b in pairs)
    terms = sum(len(a.nums) + len(b.nums) for a, b in pairs)
    if m < 2 or products < max(_PACK_PRODUCTS, _PACK_PER_TERM * terms):
        return None
    rows: dict[int, dict] = {}
    for q in chain.from_iterable(pairs):
        if id(q) not in rows:
            rows[id(q)] = q_rows = _rows(q.nums)
            span = sum(max(slot for slot, _ in row) + 1 for row in q_rows.values())
            if span > _PACK_SPAN * len(q.nums):
                return None
    row_pairs = sum(len(rows[id(a)]) * len(rows[id(b)]) for a, b in pairs)
    return rows if products >= _PACK_PER_ROW * row_pairs else None


def _packed_dot(pairs: list[tuple[Poly, Poly]], rows: dict[int, dict], den: int) -> dict[int, int]:
    """``_plain_dot`` by rows: each row of each operand packed into one int,
    sum n * 2^(B * slot) over its terms, the row products formed as ints and
    summed by the row key of the result, and the result's slots read off as
    signed digits.  ``rows`` is ``_packing``'s.

    The coefficient of one key in a * b sums at most min(len a, len b) term
    products, so no result numerator exceeds the sum over the pairs of
    min(len a, len b) * max|a| * max|b| * scale.  The slot width B has room
    for that bound and a sign bit, so a result row's int is sum n * 2^(B *
    slot) with every |n| < 2^(B - 1), and its signed digits are exactly the
    numerators of the row.
    """
    bound = sum(
        min(len(a.nums), len(b.nums)) * max(map(abs, a.nums.values()))
        * max(map(abs, b.nums.values())) * (den // (a.den * b.den))
        for a, b in pairs
    )
    bits = bound.bit_length() + 1
    packed = {
        key: [(row, sum(n << bits * slot for slot, n in terms)) for row, terms in q_rows.items()]
        for key, q_rows in rows.items()
    }
    acc: dict[int, int] = {}
    get = acc.get
    for a, b in pairs:
        scale = den // (a.den * b.den)
        if a is b or (a.den == b.den and len(a.nums) > 1 and a.nums == b.nums):
            # a square, as in _plain_dot: each row meets only the rows after it
            rest = packed[id(a)][:]
            while rest:
                r1, p1 = rest.pop()
                key = r1 + r1
                acc[key] = get(key, 0) + p1 * p1 * scale
                p1 *= 2 * scale
                for r2, p2 in rest:
                    key = r1 + r2
                    acc[key] = get(key, 0) + p1 * p2
            continue
        left, right = packed[id(a)], packed[id(b)]
        if len(left) > len(right):
            left, right = right, left
        for r1, p1 in left:
            p1 *= scale
            for r2, p2 in right:
                key = r1 + r2
                acc[key] = get(key, 0) + p1 * p2
    out: dict[int, int] = {}
    mask, half = (1 << bits) - 1, 1 << bits - 1
    for key, value in acc.items():
        # value = n + 2^B * rest with -2^(B - 1) <= n < 2^(B - 1)
        while value:
            n = value & mask
            value >>= bits
            if n >= half:
                n -= mask + 1
                value += 1
            if n:
                out[key] = n
            key += _MASK
    return out


class PolyMatrix:
    """Rectangular matrix of Poly entries over one shared variable list."""

    __slots__ = ("rows", "cols", "entries", "variables")

    def __init__(self, entries: Sequence[Sequence[Poly]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError("ragged matrix")
            for j, entry in enumerate(row):
                if not isinstance(entry, Poly):
                    raise TypeError(f"matrix entry ({i}, {j}) is of type {type(entry).__name__}, not Poly")
                if entry.variables != rows[0][0].variables:
                    raise VariableMismatch("matrix entries over mixed variable lists")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "variables", rows[0][0].variables)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __reduce__(self):
        return PolyMatrix, (self.entries,)

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

    def _faddeev_leverrier(self) -> tuple[Poly, dict[tuple, Poly], dict[tuple, Poly]]:
        """(det A, M_n, A M_n) for this square matrix A, by Faddeev-LeVerrier
        (Le Verrier 1840; Faddeev and Sominsky 1949).  From M_1 = I, step k
        forms P = A M_k with one ``_contract``, takes c_{n-k} = -tr(P) / k and,
        while k < n, sets M_{k+1} = P + c_{n-k} I.  The c_i are the coefficients
        of det(tI - A), so det A = (-1)^n c_0, and by Cayley-Hamilton the last P
        is -c_0 I.  Matrices are dicts of nonzero entries keyed (row, column)."""
        n, variables, zero = self.rows, self.variables, Poly.zero(self.variables)
        a = {(i, j): e for i, row in enumerate(self.entries) for j, e in enumerate(row) if e}
        m = {(i, i): Poly.const(1, variables) for i in range(n)}
        for k in range(1, n + 1):
            p = _contract(a, m, variables)
            c = sum([p.get((i, i), zero) for i in range(n)], zero) * Fraction(-1, k)
            if k == n:
                return (-c if n % 2 else c), m, p
            for i in range(n):
                p[i, i] = p.get((i, i), zero) + c
            m = {key: e for key, e in p.items() if e}

    def det(self) -> Poly:
        """Exact determinant by Faddeev-LeVerrier."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return self._faddeev_leverrier()[0]

    def unimodular_inverse(self) -> "PolyMatrix":
        """Polynomial inverse -M_n / c_0 by Faddeev-LeVerrier of a matrix with
        constant determinant +1 or -1, with A M_n = -c_0 I checked."""
        if self.rows != self.cols:
            raise NotUnimodular("matrix is not square")
        n, zero = self.rows, Poly.zero(self.variables)
        d, m, p = self._faddeev_leverrier()
        if not d.is_constant() or d.constant_value() not in (1, -1):
            raise NotUnimodular(f"determinant {d} is not the constant +1 or -1")
        unit = d if n % 2 else -d  # -c_0, +1 or -1 and so its own inverse
        if p != {(i, i): unit for i in range(n)}:
            raise AlgebraError("Faddeev-LeVerrier inverse fails A * A^-1 = I")
        return PolyMatrix([[m.get((i, j), zero) * unit for j in range(n)] for i in range(n)])

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return f"PolyMatrix[{body}]"
