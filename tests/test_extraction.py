"""Strategy extraction: shapes, witnesses, decided disjuncts, and
observational agreement with normalization."""

import random
from fractions import Fraction

import pytest

from cgl import normalizer as N
from cgl import proofterms as P
from cgl import realizer as R
from cgl import syntax as S
from cgl.engine import (
    ACTIVE, DORMANT, Budget, DemonMenu, Finished, ScriptedDemon, close,
    force, modal_core, num_of, pair_view, play, strip_assumptions,
    verify_exhaustive,
)
from cgl.extraction import (
    UncheckedInput, extract, extract_disjunct, extract_existential,
    validate_existential,
)
from cgl.realizer import realizer_from_json, realizer_to_json
from cgl.syntax import State

L = S.lit
x, c = S.Var("x"), S.Var("c")
ONE_POS = S.Cmp(L(1), ">", L(0))


def test_identity_extracts_to_prooflam():
    m = P.Lam("p", ONE_POS, P.PVar("p"))
    rz = extract(m, S.Implies(ONE_POS, ONE_POS))
    assert rz == R.ProofLam("p", ONE_POS, R.RVar("p"))


def test_witness_intro_extracts_to_pair():
    phi = S.Exists("y", S.Cmp(S.Var("y"), "=", S.Plus(x, L(1))))
    m = P.TCons("y", "y0", "h", S.Plus(x, L(1)),
                P.QE(S.Cmp(S.Var("y"), "=", S.Plus(x, L(1))), P.PVar("h")))
    rz = extract(m, phi)
    assert isinstance(rz, R.Pair)
    assert rz.fst == R.TermVal(S.Plus(x, L(1)))


def test_unchecked_input_rejected():
    with pytest.raises(UncheckedInput):
        extract(P.PVar("p"), S.TRUE)


def test_existential_witness_plus(corpus):
    phi, proof = corpus["exists.cgl"].theorems["witPlus"]
    witness, _rest = extract_existential(proof, phi)
    assert witness == S.Plus(x, L(1))
    assert validate_existential(phi, witness, samples=1000) is None


def test_existential_witness_abs(corpus):
    phi, proof = corpus["exists.cgl"].theorems["witAbs"]
    witness, _rest = extract_existential(proof, phi)
    assert witness == S.Abs(x)
    assert validate_existential(phi, witness, samples=1000) is None


def test_disjunct_sides_match_evaluation(corpus):
    phi, proof = corpus["basics.cgl"].theorems["splitDemo"]
    rng = random.Random(5)
    for _ in range(1000):
        st = State({"x": Fraction(rng.randint(-40, 40), rng.randint(1, 6))})
        side, _sub = extract_disjunct(proof, phi, st)
        assert side == ("L" if st.get("x") <= 0 else "R")


def test_disjunct_side_flips_across_states():
    # x > 0 | x < 1 holds everywhere but which side holds depends on x
    phi = S.Or(S.Cmp(x, ">", L(0)), S.Cmp(x, "<", L(1)))
    proof = P.Dec(phi, None)
    sideA, _ = extract_disjunct(proof, phi, State({"x": 2}))
    sideB, _ = extract_disjunct(proof, phi, State({"x": 0}))
    assert sideA == "L" and sideB == "R"
    # and neither disjunct is valid on its own
    from cgl.oracle import VALID, ArithOracle

    o = ArithOracle()
    assert o.decide(None, S.Cmp(x, ">", L(0))).status != VALID
    assert o.decide(None, S.Cmp(x, "<", L(1))).status != VALID


def test_realizer_json_roundtrip(all_theorems):
    for name in ("dCake", "dNim", "aNim", "forCounter"):
        phi, proof = all_theorems[name]
        rz = extract(proof, phi)
        data = realizer_to_json(rz)
        back = realizer_from_json(data)
        assert back == rz, name


def _outcome_stream(phi, rz, state, script):
    stripped = strip_assumptions(phi, close(rz), state)
    if stripped is None:
        return None
    core, cl = stripped
    game, role, post = modal_core(core)
    out = play(game, role, cl, state, ScriptedDemon(script), fuel=200000)
    if isinstance(out, Finished):
        return ("finished", out.state, S.eval_fo(post, out.state))
    return (type(out).__name__,)


SCRIPTS = {
    "dNim": [
        ["continue", "L", "assert", "stop"],
        ["continue", "R", "L", "assert", "continue", "L", "assert", "stop"],
        ["continue", "R", "R", "assert", "stop"],
    ],
    "aNim": [["L", "assert"], ["R", "L", "assert"], ["R", "R", "assert"]],
    "aCake": [["L"], ["R"]],
    "dCake": [["1/3", "assert", "L"], ["2/3", "assert", "R"], ["1/2", "assert", "L"]],
    "signFlip": [["-5"], ["7/2"], ["0"]],
}

STATES = {
    "dNim": State({"c": 9}),
    "aNim": State({"c": 8}),
    "aCake": State(),
    "dCake": State(),
    "signFlip": State(),
}


def test_extraction_commutes_with_normalization(all_theorems):
    # observational agreement: identical outcome streams against identical
    # scripted adversaries, before and after proof normalization
    for name, scripts in SCRIPTS.items():
        phi, proof = all_theorems[name]
        nf, _steps, _trace = N.normalize(proof, 10**6)
        rz1 = extract(proof, phi)
        rz2 = extract(nf, phi, checked=True)
        for script in scripts:
            o1 = _outcome_stream(phi, rz1, STATES[name], list(script))
            o2 = _outcome_stream(phi, rz2, STATES[name], list(script))
            assert o1 == o2, (name, script, o1, o2)
            assert o1 is not None


def test_extract_total_on_corpus(all_theorems):
    for name, (phi, proof) in all_theorems.items():
        rz = extract(proof, phi)
        assert isinstance(rz, R.Realizer), name


def test_check_and_extract_share_one_oracle(all_theorems, monkeypatch):
    import cgl.checker
    import cgl.extraction

    made = []

    class Counting(cgl.extraction.ArithOracle):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cgl.checker, "ArithOracle", Counting)
    monkeypatch.setattr(cgl.extraction, "ArithOracle", Counting)
    phi, proof = all_theorems["dNim"]
    extract(proof, phi)
    assert len(made) == 1
