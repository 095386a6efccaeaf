"""Exact rational arithmetic for the kernel.

Rationals are stdlib fractions (arbitrary-precision, lowest terms, positive
denominator).  The only non-stdlib operations are the generalized quotient
and remainder: the quotient of two rationals is an integer, leaving a
rational remainder r with 0 <= r < |divisor|.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


class DivisionByZero(ArithmeticError):
    """Raised when a quotient or remainder divisor evaluates to zero."""


def rat_quot(f: Rational, g: Rational) -> Rational:
    """Integer quotient q of f by g, chosen so that 0 <= f - g*q < |g|."""
    gn = g.numerator
    if gn == 0:
        raise DivisionByZero("division by zero")
    # floor of f/g for positive divisors, ceiling for negative ones keeps
    # the remainder in [0, |g|); computed on raw integers
    a = f.numerator * g.denominator
    b = f.denominator * gn
    n = a // b if gn > 0 else -((-a) // b)
    return Fraction(n)


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
