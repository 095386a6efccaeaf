"""The exact-rational kernel: arithmetic, comparisons and parsing agree
with `fractions.Fraction`, and results come back in canonical form."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgl.rational import RELATIONS, add, mul, parse_rational, sub

BIG = 10**40
ints = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))
nonzero = ints.filter(bool)
# ints, Fractions in lowest terms (zero, negative and large parts, negative
# denominators normalized away) and integral Fractions, which evaluation
# never makes but a caller's state may hold
rationals = st.one_of(
    ints,
    st.builds(Fraction, ints, nonzero),
    ints.map(Fraction),
)


def canonical(v) -> bool:
    return type(v) is int if v.denominator == 1 else type(v) is Fraction


@settings(max_examples=500, deadline=None)
@given(rationals, rationals)
def test_arithmetic_is_exact_and_canonical(a, b):
    for kernel, op in ((add, operator.add), (sub, operator.sub), (mul, operator.mul)):
        got = kernel(a, b)
        assert got == op(Fraction(a), Fraction(b))
        assert canonical(got)


@settings(max_examples=500, deadline=None)
@given(rationals, rationals)
def test_comparisons_agree_with_python(a, b):
    python = {"<=": operator.le, "<": operator.lt, "=": operator.eq,
              "!=": operator.ne, ">": operator.gt, ">=": operator.ge}
    assert RELATIONS.keys() == python.keys()
    for sym, rel in RELATIONS.items():
        assert rel(a, b) is python[sym](a, b)
        assert rel(a, a) is python[sym](a, a)


def _outcome(parse, text):
    try:
        v = parse(text)
    except Exception as e:  # the exception type is part of the contract
        return type(e)
    return type(v), v


@pytest.mark.parametrize("text", [
    "3", "-3/4", "+3/4", "3/-4", "3 /4", " 3/4 ", "1_000/3", "1/0", "1/²", "٣/٤",
    "0.5", "1e3", "",
    "007", "-0/5", "-", "3/", "/3", "1/2/3", "--3", "٣", "²", "-12345678901234567890/7",
])
def test_parse_matches_fraction(text):
    assert _outcome(parse_rational, text) == _outcome(Fraction, text)
