"""Infix polynomial expressions: `+ - * ^`, rational literals `p/q`, parentheses.

Division appears only inside rational literals; dividing by a variable or a
parenthesized expression is a syntax error.  ``parse_poly`` is the single
entry point used by the definition-file reader, and the canonical string
produced by ``Poly.__str__`` always reparses to an equal polynomial.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from math import comb, gcd
from typing import Collection, Sequence

from .algebra import Poly, _accumulate, _sum_over_lcm, _unit


class ParseError(ValueError):
    """Syntax or name error with a 0-based column offset into the text."""

    def __init__(self, message: str, column: int):
        super().__init__(message)
        self.column = column

    def __str__(self) -> str:
        return f"{self.args[0]} (column {self.column + 1})"


# Each parenthesis level costs four Python frames, so this keeps any input
# well inside the interpreter's default recursion limit.
MAX_NESTING = 100

# The highest total degree of a power or product, checked before it is made,
# so that a short entry such as a1^100000000 starts no unbounded work.
MAX_DEGREE = 1000

# The most terms in the support of a power or product of two sums: its keys
# k + j over the operands' keys (``_sumset``), counted before any coefficient
# is formed.  A power of t terms with comb(t + k - 1, k) <= MAX_TERMS, and a
# product with t1 * t2 <= MAX_TERMS or a one-term side, is not counted.  So
# (a1+b1+c1)^98, of 4,950 terms, is read, and ^99, of 5,050, is refused.
MAX_TERMS = 5000

# The digit limit of a coefficient made by a power or product of literals where
# the interpreter reads integers of any length: CPython's default
# sys.get_int_max_str_digits()
DEFAULT_DIGITS = 4300

# whitespace | ASCII integer | word | symbol | any other character; a word
# that does not start with a letter or "_" (a non-ASCII digit, say) is an
# unexpected character, so integers are ASCII digits only
_TOKEN_RE = re.compile(r"(\s+)|([0-9]+)|(\w+)|([-+*^()/])|(.)", re.DOTALL)
_KINDS = (None, None, "int", "name", "sym")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        if group == 1:
            continue
        token = match.group()
        if group == 5 or (group == 3 and not (token[0].isalpha() or token[0] == "_")):
            raise ParseError(f"unexpected character {token[0]!r}", match.start())
        tokens.append((_KINDS[group], token, match.start()))
    return tokens


def is_name(text: str) -> bool:
    """True when ``text`` is read as exactly one name token, itself."""
    try:
        return [tok[:2] for tok in _tokenize(text)] == [("name", text)]
    except ParseError:
        return False


def _int(tok: tuple[str, str, int]) -> int:
    """The value of an integer token; one longer than ``int`` reads (over
    ``sys.get_int_max_str_digits()`` digits) is an error at its column."""
    try:
        return int(tok[1])
    except ValueError:
        raise ParseError(f"integer of {len(tok[1])} digits is too long", tok[2]) from None


def _capped(degree: int, column: int) -> int:
    """``degree``, or a ParseError at ``column`` when it is over MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise ParseError(f"total degree {degree} exceeds the cap of {MAX_DEGREE}", column)
    return degree


def _sumset(a: Collection[int], b: Collection[int]) -> set[int] | None:
    """The keys k + j for k in ``a`` and j in ``b``: the support of a product
    of polynomials with those keys, before any coefficient is formed.  None
    as soon as they are more than MAX_TERMS.  The loop runs over the shorter
    side: for a power, the base's few keys, each against the partial sumset."""
    if len(a) > len(b):
        a, b = b, a
    keys: set[int] = set()
    for k in a:
        keys.update([k + j for j in b])
        if len(keys) > MAX_TERMS:
            return None
    return keys


def _digit_limit() -> tuple[int, int]:
    """(d, 10**d): the most digits of an integer literal (as ``_int`` reads
    them, or DEFAULT_DIGITS where any length is read) and the least integer
    with more."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or DEFAULT_DIGITS
    return digits, _power_of_ten(digits)


@lru_cache(maxsize=4)
def _power_of_ten(digits: int) -> int:
    return 10**digits


def _coefficient_power(p: int, q: int, power: int, column: int) -> tuple[int, int]:
    """(p**power, q**power) for p, q >= 0, or a ParseError at ``column`` (the
    ``^``) when either has more digits than an integer literal may."""
    digits, limit = _digit_limit()
    # base >= 2**(bit_length - 1), so past this bound the power is past the
    # limit without being computed; below it, it has under twice the limit's bits
    bound = limit.bit_length()
    if not any(base > 1 and power * (base.bit_length() - 1) >= bound for base in (p, q)):
        p, q = p**power, q**power
        if p < limit and q < limit:
            return p, q
    raise ParseError(f"a power has a coefficient of more than {digits} digits", column)


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], variables: Sequence[str], length: int):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)
        self.units = {name: _unit(len(self.variables), i) for i, name in enumerate(self.variables)}
        self.length = length
        self.depth = 0
        self.digits, self.limit = _digit_limit()

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int] | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def expect_sym(self, sym: str) -> None:
        tok = self.next()
        if tok is None:
            raise ParseError(f"expected {sym!r} before end of expression", self.length)
        if tok[0] != "sym" or tok[1] != sym:
            raise ParseError(f"expected {sym!r}, found {tok[1]!r}", tok[2])

    def parse_expr(self) -> Poly:
        # every term is added into the one dict of the terms over its
        # denominator, and the dicts meet once, so a sum costs linear time
        term = self.parse_term()
        sums = {term.den: dict(term.nums)}
        tok = self.peek()
        while tok and tok[0] == "sym" and tok[1] in "+-":
            self.next()
            term = self.parse_term()
            _accumulate(sums.setdefault(term.den, {}), term.nums, tok[1] == "-")
            tok = self.peek()
        return _sum_over_lcm(self.variables, sums)

    def parse_term(self) -> Poly:
        # literals and coordinates fold into one coefficient num/den and one
        # monomial key; only parenthesised factors are multiplied as Polys
        num, den = 1, 1
        key = 0
        factors = []
        degree, star = 0, None
        while True:
            negate, atom, power, factor_degree = self.parse_factor()
            # each factor is within the cap alone, so a product past it has a "*"
            degree = _capped(degree + factor_degree, star)
            if negate:
                num = -num
            if isinstance(atom, Poly):
                factors.append((star, atom if power is None else atom**power))
            elif isinstance(atom, int):
                key += atom * (1 if power is None else power)
            else:
                num, den = num * atom[0], den * atom[1]
                if star is not None and (abs(num) >= self.limit or den >= self.limit):
                    raise ParseError(
                        f"a product has a coefficient of more than {self.digits} digits", star
                    )
            tok = self.peek()
            if tok and tok[0] == "sym" and tok[1] == "*":
                star = tok[2]
                self.next()
            elif tok and tok[0] == "sym" and tok[1] == "/":
                raise ParseError("division is allowed only in rational literals", tok[2])
            else:
                break
        g = gcd(num, den)
        value = Poly._trusted(self.variables, {key: num // g} if num else {}, den // g)
        for star, factor in factors:
            # the literal part, like any one-term side, shifts the other side's
            # terms; only a product of two sums can grow past the cap
            t1, t2 = len(value.nums), len(factor.nums)
            if t1 > 1 and t2 > 1 and t1 * t2 > MAX_TERMS and _sumset(value.nums, factor.nums) is None:
                raise ParseError(f"a product may have more than {MAX_TERMS} terms", star)
            value = value * factor
        return value

    def parse_factor(self) -> tuple[bool, Poly | int | tuple[int, int], int | None, int]:
        """(negate, atom, power, degree): a run of unary signs, a primary, its
        exponent, or None when there is no ``^``, and the factor's total degree.
        A literal comes raised to its power, with power None.  The coefficient
        of a power of a literal is bounded like a literal, and so is the
        bound (||N||_1)^k, D^k on every coefficient of a power (N / D)^k of a
        Poly, where ||N||_1 is the sum of the numerators' absolute values.  The
        power's support, the k-fold sumset of the Poly's keys, may have at most
        MAX_TERMS terms."""
        # a run of unary signs is read in a loop, so its length costs no stack
        negate = False
        tok = self.peek()
        while tok and tok[0] == "sym" and tok[1] in "+-":
            self.next()
            negate ^= tok[1] == "-"
            tok = self.peek()
        atom = self.parse_primary()
        degree = atom.total_degree() if isinstance(atom, Poly) else int(isinstance(atom, int))
        tok = self.peek()
        if tok and tok[0] == "sym" and tok[1] == "^":
            self.next()
            exp_tok = self.next()
            if exp_tok is None or exp_tok[0] != "int":
                col = exp_tok[2] if exp_tok else self.length
                raise ParseError("exponent must be a nonnegative integer", col)
            power = _int(exp_tok)
            if isinstance(atom, tuple):
                return negate, _coefficient_power(*atom, power, tok[2]), None, 0
            degree = _capped(degree * power, tok[2])
            if isinstance(atom, Poly):
                norm = sum(abs(n) for n in atom.nums.values())
                _coefficient_power(norm, atom.den, power, tok[2])
                if power > 1 and comb(len(atom.nums) + power - 1, power) > MAX_TERMS:
                    # the support of each partial power, which never shrinks
                    keys = atom.nums
                    for _ in range(power - 1):
                        keys = _sumset(keys, atom.nums)
                        if keys is None:
                            raise ParseError(f"a power may have more than {MAX_TERMS} terms", tok[2])
            return negate, atom, power, degree
        return negate, atom, None, degree

    def parse_primary(self) -> Poly | int | tuple[int, int]:
        """A parenthesised Poly, a coordinate's unit key, or a literal as (p, q)."""
        tok = self.next()
        if tok is None:
            raise ParseError("unexpected end of expression", self.length)
        kind, text, col = tok
        if kind == "int":
            nxt = self.peek()
            if nxt and nxt[0] == "sym" and nxt[1] == "/":
                self.next()
                den_tok = self.next()
                if den_tok is None or den_tok[0] != "int":
                    dcol = den_tok[2] if den_tok else self.length
                    raise ParseError("denominator must be an integer literal", dcol)
                den = _int(den_tok)
                if den == 0:
                    raise ParseError("zero denominator", den_tok[2])
                return _int(tok), den
            return _int(tok), 1
        if kind == "name":
            unit = self.units.get(text)
            if unit is None:
                raise ParseError(f"unknown coordinate {text!r}", col)
            return unit
        if kind == "sym" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", col)
            self.depth += 1
            inner = self.parse_expr()
            self.expect_sym(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected {text!r}", col)


# One term of a sum as Poly.__str__ prints it, with the sign or operator before
# it: a literal p or p/q, alone or followed by "*"-joined names or powers
# name^k, or those names without a literal.  ASCII only: a name is then exactly
# what the tokenizer reads as one, and any other character ends the match.
_MONOMIAL = r"[A-Za-z_]\w*(?:\^[0-9]+)?(?:\*[A-Za-z_]\w*(?:\^[0-9]+)?)*"
_TERM_RE = re.compile(
    rf"[ \t]*([-+]?)[ \t]*(?:([0-9]+)(?:/([0-9]+))?(?:\*({_MONOMIAL}))?|({_MONOMIAL}))",
    re.ASCII,
)


def _read_sum(text: str, variables: tuple[str, ...]) -> Poly | None:
    """The Poly of ``text`` when it is a sum of monomials as ``Poly.__str__``
    prints them, else None; it never raises.

    The text is read one term at a time, each term matched where the last
    ended.  Anything outside that form, and anything a check of the general
    parser could refuse (an unknown name, a zero denominator, a literal of
    more than ``_digit_limit()`` digits, a term past MAX_DEGREE), is None, so
    that every error comes from the general parser.
    """
    if not text:
        return None
    units = {name: _unit(len(variables), i) for i, name in enumerate(variables)}
    digits = _digit_limit()[0]
    match = _TERM_RE.match
    # each distinct factor text, such as "a1^12", read once: its (key, degree)
    factors: dict[str, tuple[int, int]] = {}
    sums: dict[int, dict[int, int]] = {}
    pos, end = 0, len(text)
    while pos < end:
        term = match(text, pos)
        # the first term may have a "-" only, every later one needs its operator
        if term is None or (term[1] == "+" if pos == 0 else not term[1]):
            return None
        sign, num, den, names, bare = term.groups()
        n, d = 1, 1
        if num is not None:
            if len(num) > digits or (den is not None and len(den) > digits):
                return None
            n = int(num)
            if den is not None:
                d = int(den)
                if not d:
                    return None
        else:
            names = bare
        key = degree = 0
        for factor in names.split("*") if names else ():
            got = factors.get(factor)
            if got is None:
                name, _, power = factor.partition("^")
                unit = units.get(name)
                if unit is None or len(power) > digits:
                    return None
                k = int(power) if power else 1
                got = factors[factor] = (unit * k, k)
            key += got[0]
            degree += got[1]
        # a term's degree only grows, so one check per term refuses what one
        # per factor would
        if degree > MAX_DEGREE:
            return None
        if n:
            # straight into the dict of its denominator, dropped if it cancels
            out = sums.setdefault(d, {})
            total = out.get(key, 0) + (-n if sign == "-" else n)
            if total:
                out[key] = total
            else:
                del out[key]
        pos = term.end()
    return _sum_over_lcm(variables, sums) if sums else Poly._trusted(variables, {}, 1)


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse an infix polynomial expression over the given coordinate names.

    A sum of monomials as ``Poly.__str__`` prints it is read in one pass by
    ``_read_sum``; any other text, and every error, goes to the general parser.
    """
    variables = tuple(variables)
    value = _read_sum(text, variables)
    return _parse_general(text, variables) if value is None else value


def _parse_general(text: str, variables: Sequence[str]) -> Poly:
    """Parse any expression of the grammar, or raise a located ParseError."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    parser = _Parser(tokens, variables, len(text))
    value = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected {trailing[1]!r} after expression", trailing[2])
    return value
