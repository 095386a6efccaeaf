"""Exact rational arithmetic for the kernel.

Rationals are Python ints and stdlib fractions (arbitrary-precision, lowest
terms, positive denominator).  Wherever cgl evaluates, a rational is held
in one canonical form: an integral one is an `int`, any other a `Fraction`
with denominator > 1, as Common Lisp canonicalizes its ratios.  The form is
only a matter of speed: an `int` and a `Fraction` of the same value compare
and hash equal, so no result depends on which one a value is.  The only
non-stdlib operations are the generalized quotient and remainder: the
quotient of two rationals is an integer, leaving a rational remainder r
with 0 <= r < |divisor|.
"""

from __future__ import annotations

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
    return f - g * rat_quot(f, g)


def parse_rational(text: str) -> Rational:
    """Parse decimal ('0.5', '-3') or fraction ('7/2') notation exactly."""
    return Fraction(text)


def format_rational(q: Rational) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
