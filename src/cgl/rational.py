"""Exact rational arithmetic for the kernel.

Rationals are Python ints and stdlib fractions (arbitrary-precision, lowest
terms, positive denominator).  Wherever cgl evaluates, a rational is held
in one canonical form: an integral one is an `int`, any other a `Fraction`
with denominator > 1, as Common Lisp canonicalizes its ratios.  The form is
only a matter of speed: an `int` and a `Fraction` of the same value compare
and hash equal, so no result depends on which one a value is.

Play-time evaluation runs on a small kernel rather than on `Fraction`'s
generic operators.  `add`, `sub` and `mul` compute on numerators and
denominators and build at most one `Fraction`, whose constructor takes the
result's one gcd (Knuth, TAOCP vol. 2, 4.5.1); `RELATIONS` compare by
cross-multiplication, which keeps the order since denominators are
positive.  They agree with `Fraction` on ints and `Fraction`s of either
form, and the arithmetic returns canonical values.  The compiled
evaluators (`syntax.compile_term`) keep an int pair on Python's int
operators, and an int's quotient and remainder by a nonzero int literal
too, without a call into this kernel.

The only non-stdlib operations are the generalized quotient and remainder:
the quotient of two rationals is an integer, leaving a rational remainder
r with 0 <= r < |divisor|.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class DivisionByZero(ArithmeticError):
    """Raised when a quotient or remainder divisor evaluates to zero."""


def canon(v) -> Rational:
    """v in canonical form: an int when integral, else a Fraction; v may be
    anything `Fraction` accepts."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _ratio(n: int, d: int) -> Rational:
    """n/d, for d > 0, in canonical form.  `Fraction(n, d)` is the public
    way to build the Fraction; the private constructor arguments that skip
    its gcd differ between Python versions."""
    return n // d if n % d == 0 else Fraction(n, d)


def add(a: Rational, b: Rational) -> Rational:
    if type(a) is int and type(b) is int:
        return a + b
    ad, bd = a.denominator, b.denominator
    return _ratio(a.numerator * bd + b.numerator * ad, ad * bd)


def sub(a: Rational, b: Rational) -> Rational:
    if type(a) is int and type(b) is int:
        return a - b
    ad, bd = a.denominator, b.denominator
    return _ratio(a.numerator * bd - b.numerator * ad, ad * bd)


def mul(a: Rational, b: Rational) -> Rational:
    if type(a) is int and type(b) is int:
        return a * b
    return _ratio(a.numerator * b.numerator, a.denominator * b.denominator)


# relation symbol -> the relation on ints, which a comparison of rationals
# applies to their cross products
INT_RELATIONS = {
    "<=": operator.le,
    "<": operator.lt,
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
}
# relation symbol -> the symbol of the same relation with its sides swapped
CONVERSE = {"<=": ">=", "<": ">", "=": "=", "!=": "!=", ">": "<", ">=": "<="}


def _relation(op):
    def rel(a: Rational, b: Rational) -> bool:
        if type(a) is int and type(b) is int:
            return op(a, b)
        return op(a.numerator * b.denominator, b.numerator * a.denominator)

    return rel


RELATIONS = {sym: _relation(op) for sym, op in INT_RELATIONS.items()}


def rat_quot(f: Rational, g: Rational) -> int:
    """Integer quotient q of f by g, chosen so that 0 <= f - g*q < |g|."""
    gn = g.numerator
    if gn == 0:
        raise DivisionByZero("division by zero")
    # floor of f/g for positive divisors, ceiling for negative ones keeps
    # the remainder in [0, |g|); computed on raw integers
    a = f.numerator * g.denominator
    b = f.denominator * gn
    return a // b if gn > 0 else -((-a) // b)


def rat_rem(f: Rational, g: Rational) -> Rational:
    """Rational remainder of f by g; satisfies f = g*quot(f,g) + rem(f,g)."""
    return sub(f, mul(g, rat_quot(f, g)))


def parse_rational(text: str) -> Fraction:
    """Parse decimal ('0.5', '-3') or fraction ('7/2') notation exactly, as
    `Fraction(text)` does: the same value, type and exceptions.  Plain ASCII
    'n' and 'n/d', an optional '-' before n, skip `Fraction`'s regular
    expression."""
    num, slash, den = text.partition("/")
    if (text.isascii() and (num[1:] if num[:1] == "-" else num).isdigit()
            and (den.isdigit() or not slash)):
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    return Fraction(text)


def format_rational(q: Rational) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
