"""Surface syntax: round trips, precedence laws, and positioned errors."""

import random
from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgl import proofterms as P
from cgl import syntax as S
from cgl.parser import (
    _PUNCT, _UNICODE_ALIASES, KEYWORDS, ParseError, parse_formula_text,
    parse_game_text, parse_proof_text, parse_script, parse_term_text, tokenize,
)
from cgl.printer import print_formula, print_game, print_proof, print_script
from conftest import corpus_text, rand_formula, rand_game, rand_term

L = S.lit
x, y, c = S.Var("x"), S.Var("y"), S.Var("c")


def test_assign_any_then_test_precedence():
    g = parse_game_text("x := * ; ? x > 0")
    assert g == S.Seq(S.AssignAny("x"), S.Test(S.Cmp(x, ">", L(0))))


def test_choice_associates_right():
    g = parse_game_text("x := 1 ++ x := 2 ++ x := 3")
    assert isinstance(g, S.Choice) and isinstance(g.right, S.Choice)


def test_seq_associates_right():
    g = parse_game_text("x := 1 ; x := 2 ; x := 3")
    assert isinstance(g, S.Seq) and isinstance(g.right, S.Seq)


def test_nim_shape():
    text = corpus_text("nim.cgl")
    script = parse_script(text)
    nim = script.games["Nim"]
    assert isinstance(nim, S.Seq)
    assert isinstance(nim.right, S.Dual)
    half = nim.left
    assert isinstance(half, S.Seq) and isinstance(half.left, S.Choice)
    assert isinstance(half.right, S.Test)
    assert nim.right.body == half


def test_dormant_choice_elaboration():
    g = parse_game_text("{x := 1} cap {x := 2}")
    assert g == S.Dual(S.Choice(S.Dual(S.Assign("x", L(1))), S.Dual(S.Assign("x", L(2)))))


def test_derived_connective_elaboration():
    assert parse_formula_text("tt") == S.TRUE
    assert parse_formula_text("x > 0 & x < 1") == S.And(
        S.Cmp(x, ">", L(0)), S.Cmp(x, "<", L(1))
    )
    assert parse_formula_text("!x = 0") == S.Not(S.Cmp(x, "=", L(0)))
    assert parse_formula_text("forall z z >= 0") == S.Forall(
        "z", S.Cmp(S.Var("z"), ">=", L(0))
    )
    imp = parse_formula_text("x > 0 -> x > 1 -> x > 2")
    assert imp == S.Implies(
        S.Cmp(x, ">", L(0)), S.Implies(S.Cmp(x, ">", L(1)), S.Cmp(x, ">", L(2)))
    )


def test_fraction_and_decimal_literals():
    assert parse_term_text("1/2") == L("1/2")
    assert parse_term_text("0.5") == L("1/2")
    assert parse_term_text("-3") == L(-3)


@pytest.mark.parametrize("text, message", [
    ("x = 1/0", "1/0: denominator 0"),
    ("x = 0/0", "0/0: denominator 0"),
    ("x = 1/1.5", "1/1.5: a fraction's parts are integers"),
    ("x = 1.5/2", "1.5/2: a fraction's parts are integers"),
    ("x = ²", "non-decimal digit '²' in a number"),
])
def test_malformed_number_is_a_positioned_error(text, message):
    with pytest.raises(ParseError) as e:
        parse_formula_text(text)
    assert (e.value.message, e.value.line, e.value.col) == (message, 1, 5)


def test_error_inside_parentheses_is_not_masked():
    # '(' reads as a formula or as a term; when both fail, the error is
    # the one that got furthest, here the same as without the parentheses
    for text, col in (("(x = 1/0 & y = 0)", 18), ("x = 1/0 & y = 0", 17)):
        with pytest.raises(ParseError) as e:
            parse_script(f"theorem t : {text} -> tt = \\h : tt. FO[tt]()\n")
        assert (e.value.message, e.value.line, e.value.col) == ("1/0: denominator 0", 1, col)


def test_decimal_digits_of_any_script_are_numbers():
    assert parse_term_text("٣/٤") == L("3/4")
    assert parse_term_text("1.٥") == L("3/2")


def test_unicode_aliases():
    assert parse_formula_text("⟨x := 1⟩ x ≥ 1") == parse_formula_text(
        "<x := 1> x >= 1"
    )


def test_succ_sugar():
    from cgl.checker import succ_formula

    assert parse_formula_text("x succ y") == succ_formula(x, y)


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_script("theorem t : x > = FO[tt]()")
    assert e.value.line == 1 and e.value.col > 0


def test_unknown_game_reference():
    with pytest.raises(ParseError):
        parse_game_text("NoSuchGame*")


def test_corpus_round_trip(corpus):
    for name, script in corpus.items():
        printed = print_script(script)
        again = parse_script(printed)
        assert again.games == script.games, name
        assert again.formulas == script.formulas, name
        assert again.theorems == script.theorems, name


def test_random_round_trip(rng):
    for _ in range(300):
        t = rand_term(rng, 3)
        assert parse_term_text(print_term_str(t)) == t
    for _ in range(300):
        phi = rand_formula(rng, 3)
        assert parse_formula_text(print_formula(phi)) == phi
    for _ in range(300):
        g = rand_game(rng, 3)
        assert parse_game_text(print_game(g)) == g


def print_term_str(t):
    from cgl.printer import print_term

    return print_term(t)


def test_proof_round_trip_on_shapes():
    shapes = [
        "\\p : x > 0. p",
        "pi1 <FO[tt](), FO[tt]()>",
        "case split(x, 0) of l. inl pi1 l | r. inr pi1 r",
        "wit y := x + 1 (y0, h. FO[y = x + 1](h))",
        "asgnd c (g1, h. <FO[c > 0](h), FO[tt]()>)",
        "mon(asgnd c (g1, h. FO[c = 1](h)); p. FO[c >= 0](p))",
        "rep(FO[tt](); p : tt. FO[tt](); p)",
        "unroll roll <FO[tt](), FO[tt]()>",
        "(\\q : tt. q) FO[tt]()",
        "(\\z : Q as z0. FO[z = z]()) @ 7/2",
        "ghost(g9 := x + 1; p. FO[tt]())",
        "unpack(wit y := 1 (y1, h. FO[tt]()); y, y2, p. FO[tt]())",
        "fp go FO[tt]() of s. s | g. FO[tt]()",
        "yieldd seqb [FO[tt](), FO[tt]()]",
        "for(FO[tt](); p : tt; q; M9 := c; p; p)",
    ]
    for text in shapes:
        m = parse_proof_text(text)
        assert parse_proof_text(print_proof(m)) == m, text


FORMS = [
    cls for cls in vars(P).values()
    if isinstance(cls, type) and issubclass(cls, P.ProofTerm) and cls is not P.ProofTerm
]


def _rand_proof(rng, depth):
    """A proof of any form, its fields filled by their annotations."""
    if depth == 0:
        return P.PVar(rng.choice(["p", "q", "x"]))
    cls = rng.choice(FORMS)
    args = []
    for f in fields(cls):
        if f.name == "flavor":
            args.append(rng.choice((P.DIA, P.BOX)))
        elif f.type == "str":
            args.append(rng.choice(["p", "q", "x", "y0"]))
        elif f.type == "Term":
            args.append(rand_term(rng, 1))
        elif f.type == "Formula":
            args.append(rand_formula(rng, 1))
        else:  # a proof, or the FO/Dec payload
            args.append(_rand_proof(rng, depth - 1) if f.type == "ProofTerm" or rng.random() < 0.7
                        else None)
    return cls(*args)


def test_every_proof_form_round_trips():
    rng = random.Random(10)
    for _ in range(400):
        m = _rand_proof(rng, 3)
        assert parse_proof_text(print_proof(m)) == m, print_proof(m)


def test_application_to_a_pair_round_trips():
    m = P.App(P.PVar("f"), P.DPair(P.PVar("p"), P.PVar("q")))
    assert parse_proof_text(print_proof(m)) == m


def test_duplicate_definition_rejected():
    with pytest.raises(ParseError):
        parse_script("game G = x := 1\ngame G = x := 2")


def test_comments_ignored():
    script = parse_script("// leading\ngame G = x := 1 // trailing\n")
    assert script.games["G"] == S.Assign("x", L(1))


def test_proof_json_interchange(all_theorems):
    from cgl.interchange import proof_from_json, to_json
    from test_normalizer import coverage_seeds
    import json

    # the coverage seeds add Go, Roll, Stop and Unpack, which no corpus
    # proof builds: together they use every constructor
    proofs = [proof for _phi, proof in all_theorems.values()] + coverage_seeds()
    used = {type(n).__name__ for m in proofs for n in _subterms(m)}
    # by name: __subclasses__() also lists the classes slots=True replaced
    assert used == {cls.__name__ for cls in P.ProofTerm.__subclasses__()}
    for proof in proofs:
        data = json.loads(json.dumps(to_json(proof)))  # serializable
        assert proof_from_json(data) == proof, proof


def _subterms(m):
    yield m
    for name, kind in P._child_spec(type(m)):
        v = getattr(m, name)
        if kind in ("pt", "pt?") and v is not None:
            yield from _subterms(v)


# sha256 (16 hex digits) of each corpus proof's JSON with sorted keys,
# taken before the realizer and proof codecs were merged.
PROOF_JSON_DIGESTS = {
    "dNim": "2d7a5f4f71e70d8d",
    "aNim": "969c036ceb18c35f",
    "aCake": "b9cdbc622feacdc2",
    "dCake": "e585c95a20ccf96b",
    "witPlus": "d7354898f54e0199",
    "witAbs": "962d40851cfd06ed",
    "witMax": "416904f4f5cea3bf",
    "pairProj": "c820aa02a8d75576",
    "applyId": "3eb87670af404129",
    "instForall": "1ef9ec993432fe52",
    "monAssign": "107c8acc7a468f5c",
    "unrollRep": "86fa015c014aa8c0",
    "projChain": "6787823d7c7ffddd",
    "forCounter": "f3b50b0bdfcc0363",
    "splitDemo": "cc52720daebee73e",
    "decDemo": "52cb99f09c55c5e2",
    "absFold": "180aba34ec9497a5",
    "fpTrivial": "03efdd0618157258",
    "rcaseTrivial": "4fdacfeec608f884",
    "ghostRemember": "c2a5ed4eb34f13c5",
    "signFlip": "313ad27fda518bd3",
    "raceLoop": "085bebd3f0f57abd",
}


def test_corpus_proof_json_pinned(all_theorems):
    from cgl.interchange import to_json
    import hashlib
    import json

    got = {
        name: hashlib.sha256(
            json.dumps(to_json(proof), sort_keys=True).encode()
        ).hexdigest()[:16]
        for name, (_phi, proof) in all_theorems.items()
    }
    assert got == PROOF_JSON_DIGESTS


# -- the lexer against the one it replaced -----------------------------------


@dataclass(frozen=True)
class _RefToken:
    kind: str
    text: str
    line: int
    col: int


def _reference_tokenize(text: str):
    """The character-by-character lexer that the regex lexer replaced."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _UNICODE_ALIASES:
            alias = _UNICODE_ALIASES[ch]
            toks.append(_RefToken("punct", alias, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            toks.append(_RefToken("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            toks.append(_RefToken(kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(_RefToken("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"stray character {ch!r}", line, col)
    toks.append(_RefToken("eof", "", line, col))
    return toks


_LEXEMES = (
    sorted(set("".join(_PUNCT))) + ["//", "// c\n"] + list(_UNICODE_ALIASES)
    + list("azAZxq09_") + [" ", "  ", "\t", "\r", "\n"]
    + ["é", "ª", "٣", "²", "½"] + ["mod", "div", "Q", "theorem", "1.5"]
)
# drawn half of the time: what numbers, words, comments and lines are made of
_DENSE = ["x", "_", "1", "٣", "²", ".", "/", " ", "\n"]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_DENSE), st.sampled_from(_LEXEMES)),
                max_size=30).map("".join))
def test_lexer_agrees_with_the_reference(text):
    try:
        got = [tuple(t) for t in tokenize(text)]
    except ParseError as e:
        got = e
    try:
        want, error = _reference_tokenize(text), None
    except ParseError as e:
        # the tokens before the stray character
        lines = text.split("\n")
        want = _reference_tokenize(text[:sum(len(s) + 1 for s in lines[:e.line - 1]) + e.col - 1])
        error = e
    # the one difference: a number holding a digit that is not a decimal
    # one, such as '²', was a token that `Fraction` could not read, and is
    # an error now
    if any(t.kind == "number" and not t.text.replace(".", "").isdecimal() for t in want):
        assert isinstance(got, ParseError)
    elif error is not None:
        assert isinstance(got, ParseError)
        assert (got.message, got.line, got.col) == (error.message, error.line, error.col)
    else:
        assert got == [(t.kind, t.text, t.line, t.col) for t in want]
