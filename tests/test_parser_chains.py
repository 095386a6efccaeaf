"""Long chains of one right-associative operator parse without a parser
frame per operator: the run is collected and folded from the right."""

import pytest

from cgl import syntax as S
from cgl.parser import parse_formula_text, parse_game_text
from cgl.printer import print_formula, print_game

N = 10_000


def _fold_right(build, parts):
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = build(p, out)
    return out


def _spine(x, split):
    """The operands of a right-nested chain, read by a loop."""
    out = []
    while (parts := split(x)) is not None:
        out.append(parts[0])
        x = parts[1]
    return out + [x]


@pytest.mark.parametrize("token, build, split", [
    ("&", S.And, S.split_and),
    ("|", S.Or, S.split_or),
    ("->", S.Implies, S.split_implies),
])
def test_a_long_formula_chain_folds_to_the_right(token, build, split):
    parts = [S.Cmp(S.Var(f"x{i}"), ">", S.lit(0)) for i in range(N)]
    text = f" {token} ".join(f"x{i} > 0" for i in range(N))
    phi = parse_formula_text(text)
    assert phi is _fold_right(build, parts)
    assert _spine(phi, split) == parts


@pytest.mark.parametrize("token, cls", [(";", S.Seq), ("++", S.Choice)])
def test_a_long_game_chain_folds_to_the_right(token, cls):
    parts = [S.Assign("x", S.lit(i)) for i in range(N)]
    g = parse_game_text(f" {token} ".join(f"x := {i}" for i in range(N)))
    assert g is _fold_right(cls, parts)
    assert _spine(g, lambda x: (x.left, x.right) if type(x) is cls else None) == parts


@pytest.mark.parametrize("text", [
    "a > 0 | b > 0 -> c > 0 & d > 0 | e > 0",
    "a > 0 -> b > 0 <-> c > 0 -> d > 0",
    "(a > 0 -> b > 0) -> c > 0 & (d > 0 | e > 0) & f > 0",
])
def test_mixed_precedences_nest_as_printed(text):
    phi = parse_formula_text(text)
    assert parse_formula_text(print_formula(phi)) is phi


def test_mixed_game_operators_nest_as_the_recursive_reading_did():
    a, b, c, d, e = (S.Assign(v, S.lit(1)) for v in "abcde")
    g = parse_game_text("a := 1 ++ b := 1 cap c := 1 ; d := 1 ++ e := 1")
    assert g is S.Choice(a, S.DormantChoice(b, S.Choice(S.Seq(c, d), e)))
    assert parse_game_text(print_game(g)) is g
