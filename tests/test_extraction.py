"""Strategy extraction: shapes, witnesses, decided disjuncts, and
observational agreement with normalization."""

import copy
import hashlib
import json
import pickle
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from cgl import normalizer as N
from cgl import proofterms as P
from cgl import realizer as R
from cgl import syntax as S
from cgl.checker import Checker, _Elaboration, accepted, elaborate
from cgl.oracle import ArithOracle
from cgl.engine import (
    ACTIVE, DORMANT, Budget, DemonMenu, Finished, RandomDemon, ScriptedDemon, Tracer, app_rz,
    close, modal_core, play, strip_assumptions, verify_exhaustive,
)
from cgl.extraction import (
    UncheckedInput, extract, extract_disjunct, extract_existential,
    validate_existential,
)
from cgl.proofterms import Context
from cgl.interchange import realizer_from_json, to_json
from cgl.parser import parse_script
from cgl.syntax import State
from test_checker import WRAPPED_STEPS, _counter_loop

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


def test_leaf_without_closed_witness_checks_but_has_no_realizer():
    # under a contradictory hypothesis the oracle certifies any existential,
    # but no closed term witnesses y = x; the check still accepts the proof
    absurd = S.Cmp(L(1), "=", L(0))
    goal = S.Exists("y", S.Cmp(S.Var("y"), "=", x))
    phi = S.Implies(absurd, goal)
    m = P.Lam("h", absurd, P.QE(goal, P.PVar("h")))
    assert Checker().check_result(Context(), m, phi) is None
    assert accepted(Context(), m, phi) is None
    with pytest.raises(UncheckedInput, match="no closed witness"):
        extract(m, phi, checked=True)
    with pytest.raises(UncheckedInput, match="no closed witness"):
        extract(m, phi)
    with pytest.raises(UncheckedInput, match="no closed witness"):
        Checker().check(Context(), m, phi)


def test_nested_synthesized_mon_is_walked_once():
    # pi1 mon(<pi1 mon(<... , tt>; p. p), tt>; p. p), 60 deep: each mon is
    # in synthesis position, so its scrutinee's game is known only after
    # synthesis, yet its strategy absorbs the body statically: the pair
    # shows `realizer.compose` where the residual is
    tt = S.TRUE
    m = P.DPair(P.QE(tt, None), P.QE(tt, None))
    for _ in range(60):
        m = P.DPair(P.Proj1(P.Mon(m, "p", P.PVar("p"))), P.QE(tt, None))
    asked = []

    class Counting(ArithOracle):
        def decide(self, rho, phi):
            asked.append(phi)
            return super().decide(rho, phi)

    rz = extract(m, S.And(tt, tt), oracle=Counting())
    assert len(asked) == 62  # each oracle leaf once
    assert "Compose" not in json.dumps(to_json(rz))


# Eliminations of a `mon` whose scrutinee is an application: its strategy
# composes at run time, and the engine applies, projects, instantiates and
# cases through that composition.
MON_THROUGH = r"""
theorem monApp : x > 0 -> <x := *> x > 1 =
  \q : x > 0. (mon((\f : x > 0 -> <x := *> x > 1. f) (\h : x > 0. wit x := 5 (x0, k. FO[x > 1](k))); p. p)) q
theorem monProj : x > 0 -> <x := *> x > 1 =
  \q : x > 0. pi2 (mon((\f : <?x > 0> <x := *> x > 1. f) (<q, wit x := 5 (x0, k. FO[x > 1](k))>); p. p))
theorem monNumApp : <y := *> y > 1 =
  (mon((\f : [x := *] <y := *> y > x. f) (\x : Q as x1. wit y := x + 1 (y1, k2. FO[y > x](k2))); p. p)) @ 1
theorem monCase : <x := 1 ++ x := 2> x > 0 =
  case mon((\f : <x := 1 ++ x := 2> x > 0. f) (inl asgnd x (x0, k. FO[x > 0](k))); p. p) of l. inl l | r. inr r
theorem monSplit : x <= 0 | x > 0 = mon((\f : x <= 0 | x > 0. f) (split(x, 0)); p. p)
"""


@pytest.mark.parametrize("name", ["monApp", "monProj", "monNumApp", "monCase"])
def test_eliminations_go_through_a_composition(name):
    phi, m = parse_script(MON_THROUGH).theorems[name]
    rz = Checker().check(Context(), m, phi)
    assert "Compose" in json.dumps(to_json(rz))
    st = State({"x": 2})
    core, cl = strip_assumptions(phi, close(rz), st)
    game, role, post = modal_core(core)
    out = play(game, role, cl, st, RandomDemon(1))
    assert type(out) is Finished and S.eval_fo(post, out.state), out


def test_composed_disjunction_sides():
    phi, m = parse_script(MON_THROUGH).theorems["monSplit"]
    assert extract_disjunct(m, phi, State({"x": -1}))[0] == "L"
    assert extract_disjunct(m, phi, State({"x": 3}))[0] == "R"


# `fp h of s. stop s | g. go g` plays like h: the go branch's evidence
# plays a round of h's strategy, then recurses on the residual
FP_REPLAY = r"""
theorem fpA : <{c := c + 1}*> c > 3 -> <{c := c + 1}*> c > 3 =
  \h : <{c := c + 1}*> c > 3. fp h of s. stop s | g. go g
theorem fpS : <{c := c + 1 ; ?c > 0}*> c > 3 -> <{c := c + 1 ; ?c > 0}*> c > 3 =
  \h : <{c := c + 1 ; ?c > 0}*> c > 3. fp h of s. stop s | g. go g
theorem fpC : <{c := c + 1 ++ c := c + 2}*> c > 3 -> <{c := c + 1 ++ c := c + 2}*> c > 3 =
  \h : <{c := c + 1 ++ c := c + 2}*> c > 3. fp h of s. stop s | g. go g
"""


@pytest.mark.parametrize("name, rounds, end", [("fpA", 4, 4), ("fpS", 4, 4), ("fpC", 2, 4)])
def test_fp_plays_like_its_scrutinee(name, rounds, end):
    phi, m = parse_script(FP_REPLAY).theorems[name]
    game, role, post = modal_core(phi)
    tag = R.TermVal(L(1))
    h = R.Pair(R.TermVal(L(0)), R.Unit())  # stop; before it, each round goes
    for _ in range(rounds):
        h = {S.Assign: h, S.Seq: R.Pair(R.Unit(), h), S.Choice: R.Pair(tag, h)}[type(game.body)]
        h = R.Pair(tag, h)
    st, traces = State({"c": 0}), []
    for cl in (close(h), app_rz(close(extract(m, phi)), close(h), st, Budget(100))):
        tracer = Tracer()
        out = play(game, role, cl, st, ScriptedDemon([]), tracer=tracer)
        assert out == Finished(State({"c": end}), out.residual)
        traces.append(list(tracer))
    assert traces[0] == traces[1]


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


def test_equal_realizers_are_one_node():
    # built apart, by position or by keyword, the same realizer is one
    # object, so == is `is` and a realizer hashes as itself
    assert R.Pair(R.Unit(), R.Unit()) is R.Pair(R.Unit(), R.Unit())
    assert R.Pair(R.Unit(), R.Unit()) is R.Pair(snd=R.Unit(), fst=R.Unit())
    ev = R.IfTerm(S.Cmp(x, "<=", L(1)), R.TermVal(S.Plus(x, L(1))), R.RVar("r"))
    assert ev is R.IfTerm(S.Cmp(x, "<=", L(1)), R.TermVal(S.Plus(x, L(1))), R.RVar("r"))
    assert R.Pair(R.Unit(), R.RVar("a")) != R.Pair(R.RVar("a"), R.Unit())
    assert hash(ev) == object.__hash__(ev)


def test_realizer_json_roundtrip(all_theorems):
    # an elaboration, a copy, a pickle and a JSON round trip each give the node
    for name in ("dCake", "dNim", "aNim", "forCounter"):
        phi, proof = all_theorems[name]
        rz = extract(proof, phi)
        assert extract(proof, phi) is rz, name
        assert copy.copy(rz) is rz and copy.deepcopy(rz) is rz, name
        assert pickle.loads(pickle.dumps(rz)) is rz, name
        data = json.loads(json.dumps(to_json(rz)))
        back = realizer_from_json(data)
        assert back is rz, name


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


@pytest.mark.parametrize("wrapper", sorted(WRAPPED_STEPS))
def test_wrapped_loop_step_plays_to_zero(wrapper):
    # the step's strategy runs at run time, then the next round
    phi, proof = _counter_loop("c >= 0 & c mod 1 = 0", WRAPPED_STEPS[wrapper])
    rz = extract(proof, phi)
    assert _outcome_stream(phi, rz, State({"c": 5}), []) == (
        "finished", State({"c": 0}), True,
    )


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


# -- extraction right after a check reuses the check's realizer -------------


def _counted_rules(monkeypatch):
    """A list that grows by one at every `_Elaboration._rule` call."""
    calls = []
    rule = _Elaboration._rule

    def counted(self, *args):
        calls.append(args[1])
        return rule(self, *args)

    monkeypatch.setattr(_Elaboration, "_rule", counted)
    return calls


def test_extract_after_check_returns_the_checks_realizer(all_theorems):
    from test_checker import MON_SCRUTINEES
    from test_fuzz import _mutate_once

    theorems = dict(all_theorems)
    theorems.update(parse_script(MON_SCRUTINEES).theorems)
    ck = Checker()
    served = 0
    for name in sorted(theorems):
        phi, proof = theorems[name]
        rng = random.Random(f"mutants-{name}")  # the pinned verdicts' mutants
        proofs = [proof]
        for i in range(26):
            mut = _mutate_once(proof, rng)
            if mut is not None and i % 2:
                mut = _mutate_once(mut, rng)
            proofs.append(mut)
        for m in proofs:
            if m is None or ck.check_result(Context(), m, phi) is not None:
                continue
            built = accepted(Context(), m, phi)
            if built is None:  # a leaf without a closed witness
                with pytest.raises(UncheckedInput):
                    extract(m, phi, checked=True)
                continue
            assert extract(m, phi, checked=True) is built, name
            assert built == elaborate(Context(), m, phi, ArithOracle()), name
            served += 1
    assert served >= 250  # 22 corpus proofs and most of their mutants


def test_extract_after_check_walks_no_proof(all_theorems, monkeypatch):
    calls = _counted_rules(monkeypatch)
    for name, (phi, proof) in all_theorems.items():
        assert Checker().check_result(Context(), proof, phi) is None
        calls.clear()
        extract(proof, phi, checked=True)
        assert calls == [], name


def test_extract_elaborates_what_the_check_did_not_accept(all_theorems, monkeypatch):
    calls = _counted_rules(monkeypatch)
    phi, m = all_theorems["dNim"]
    ck = Checker()
    assert ck.check_result(Context(), m, phi) is None
    built = accepted(Context(), m, phi)

    # an equal but distinct term, and a wider context: walked afresh
    for args, ctx in (((replace(m), phi), None), ((m, phi), Context({"junk": ONE_POS}))):
        calls.clear()
        rz = extract(*args, ctx=ctx, checked=True)
        assert calls and rz is built

    # a different goal: walked, and rejected
    calls.clear()
    with pytest.raises(UncheckedInput):
        extract(m, all_theorems["aNim"][0], checked=True)
    assert calls

    # a rejected proof: vouched for, it is walked and rejected
    false_phi, false_m = parse_script(
        r"theorem falseStep : x > 0 -> x > 1 = \h : x > 0. FO[x > 1](h)"
    ).theorems["falseStep"]
    assert ck.check_result(Context(), false_m, false_phi) is not None
    calls.clear()
    with pytest.raises(UncheckedInput):
        extract(false_m, false_phi, checked=True)
    assert calls


def test_no_realizer_for_a_rejected_proof():
    false_phi, false_m = parse_script(
        r"theorem falseStep : x > 0 -> x > 1 = \h : x > 0. FO[x > 1](h)"
    ).theorems["falseStep"]
    assert Checker().check_result(Context(), false_m, false_phi) is not None
    assert accepted(Context(), false_m, false_phi) is None
    with pytest.raises(UncheckedInput):
        extract(false_m, false_phi, checked=True)


def test_any_accepted_proof_is_reused(all_theorems, monkeypatch):
    calls = _counted_rules(monkeypatch)
    ck = Checker()
    (d_phi, d_m), (a_phi, a_m) = all_theorems["dNim"], all_theorems["aNim"]
    built = ck.check(Context(), d_m, d_phi)
    ck.check(Context(), a_m, a_phi)
    calls.clear()
    assert extract(d_m, d_phi, checked=True) is built
    assert calls == []
    # the record stays on its term: copies and pickles start without one
    for twin in (replace(d_m), copy.copy(d_m), copy.deepcopy(d_m), pickle.loads(pickle.dumps(d_m))):
        assert twin == d_m and accepted(Context(), twin, d_phi) is None


# -- parity pin: the realizer of every corpus theorem -----------------------

_FRESH = re.compile(r"\b(loop|t|fp|z)#\d+")


def realizer_digest(rz) -> str:
    """sha256 of the realizer's JSON, with extraction's fresh names
    (`loop#n`, `t#n`, `fp#n`, `z#n`) renumbered in order of first
    occurrence, so only their allocation order may move."""
    text = json.dumps(to_json(rz), sort_keys=True)
    seen = {}

    def canon(mo):
        return f"{mo.group(1)}#{seen.setdefault(mo.group(0), len(seen) + 1)}"

    return hashlib.sha256(_FRESH.sub(canon, text).encode()).hexdigest()[:16]


REALIZER_DIGESTS = {
    "dNim": "f2528bc9e375fa02",
    "aNim": "73a2da853e98a84f",
    "aCake": "64b89d2e10003c7f",
    "dCake": "e2d4c74cd0b3d17f",
    "witPlus": "28a6d13cd4c89942",
    "witAbs": "2a77abf667547f89",
    "witMax": "30450bfc84dcab54",
    "pairProj": "24bd695173f4c16c",
    "applyId": "86a583174484d66e",
    "instForall": "d1a96eb0c0e204a9",
    "monAssign": "d49d5efc94ad38c8",
    "unrollRep": "9013be059b84b295",
    "projChain": "3552a0713603cb27",
    "forCounter": "8177f39e457214f7",
    "splitDemo": "a9734d7641e9c8fc",
    "decDemo": "582acb96ed50bbe4",
    "absFold": "6242c3a04ab75ee5",
    "fpTrivial": "c139a7159eff2dea",
    "rcaseTrivial": "25c7d150c50654fc",
    "ghostRemember": "fde8b0c1cbeb567a",
    "signFlip": "17bf5da25b92074b",
    "raceLoop": "0a9f6ec6dcdb40c0",
}


def test_corpus_realizers_pinned(all_theorems):
    got = {name: realizer_digest(extract(proof, phi))
           for name, (phi, proof) in all_theorems.items()}
    assert got == REALIZER_DIGESTS


# A `mon` body plugged into its scrutinee's strategy: in `outer` the body's
# h is the outer hypothesis and must not become the scrutinee's h (the
# test's evidence); in `inner` the body's own h must not capture the
# scrutinee's h that the hole hands it as p.
CAPTURE = r"""
formula Z = <z := 1 ++ z := 2> z > 0
theorem outer : Z -> [?c > 0] Z = \h : Z. mon(\h : c > 0. FO[tt](); p. h)
theorem inner : Z -> [?c > 0] Z = mon(\h : Z. h; p. \h : c > 0. p)
"""


@pytest.mark.parametrize("name", ["outer", "inner"])
def test_mon_plug_captures_nothing(name):
    phi, m = parse_script(CAPTURE).theorems[name]
    game, role, post = modal_core(phi)
    st, budget = State({"c": 1}), Budget(100)
    right = close(R.Pair(R.TermVal(L(1)), R.Unit()))  # evidence: play z := 2
    cl = app_rz(app_rz(close(extract(m, phi)), right, st, budget), close(R.Unit()), st, budget)
    out = play(game, role, cl, st, ScriptedDemon([]))
    assert out == Finished(State({"c": 1, "z": 2}), out.residual)
    assert S.eval_fo(post, out.state)


# Hole I: `unpack` never binds its witness.  The body's `wit y := x` reads x
# from the state at play time, not the 6 the scrutinee unpacked, so the
# theorem checks but its strategy loses from x = 0.
HOLE_I = r"""
theorem unp : <y := *> y > 5 =
  unpack((\h : <x := *> x > 5. h) (wit x := 6 (x0, k. FO[x > 5](k))); x, x1, p.
    wit y := x (y0, k2. FO[y > 5](p, k2)))
"""


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="hole I: unpack does not bind its witness"
)
def test_unpacked_witness_is_played():
    phi, m = parse_script(HOLE_I).theorems["unp"]
    assert Checker().check_result(Context(), m, phi) is None
    game, role, post = modal_core(phi)
    cex = verify_exhaustive(
        game, role, close(extract(m, phi)), [State({"x": 0})], post, DemonMenu({}, 2)
    )
    assert cex is None, cex.outcome


# Hole J: a strategy's terms are evaluated when the engine first needs the
# realizer, which can be after a later assignment changed what they read.
# lateGhost plays z := 5 (the ghost reads c after c := 5); lateCase and
# lateHyp decide c > 0 after c := 0, and so does lateNested, whose case
# evidence `o` is decided only by the inner case, after c := 0.
HOLE_J = r"""
formula G = (g <= 0 & z = 1) | (g > 0 & z = 2)
theorem lateGhost : c = 3 -> <c := 5 ; z := *> z = 3 =
  \h : c = 3. ghost(g := c; p. seqd asgnd c (c0, k. wit z := g (z0, k2. FO[z = 3](h, p, k, k2))))
theorem lateCase : <g := c ; {c := 0 ; z := *}> G =
  seqd asgnd g (g0, hg. case split(c, 0) of
    l. seqd asgnd c (c0, hc. wit z := 1 (z0, hz. FO[G](hg, l, hz)))
  | r. seqd asgnd c (c1, hc. wit z := 2 (z1, hz. FO[G](hg, r, hz))))
theorem lateHyp : (c > 0 | c <= 0) -> <g := c ; {c := 0 ; z := *}> G =
  \h : (c > 0 | c <= 0). seqd asgnd g (g0, hg. seqd asgnd c (c0, hc. case h of
    l. wit z := 2 (z0, hz. FO[G](hg, l, hz))
  | r. wit z := 1 (z1, hz. FO[G](hg, r, hz))))
theorem lateNested : <g := c ; {c := 0 ; z := *}> G =
  seqd asgnd g (g0, hg. case Dec[(c <= 0 | c > 0) | c < c]() of
    o. seqd asgnd c (c0, hc. case pi1 o of
      l. wit z := 1 (z0, hz. FO[G](hg, l, hz))
    | r. wit z := 2 (z1, hz. FO[G](hg, r, hz)))
  | n. seqd asgnd c (c0, hc. wit z := 1 (z0, hz. FO[G](n, hz))))
"""


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="hole J: strategy terms are evaluated after later assignments",
)
@pytest.mark.parametrize(
    "name, c", [("lateGhost", 3), ("lateCase", 5), ("lateHyp", 5), ("lateNested", 5)]
)
def test_strategy_terms_see_the_state_they_were_formed_in(name, c):
    phi, m = parse_script(HOLE_J).theorems[name]
    assert Checker().check_result(Context(), m, phi) is None
    st = State({"c": c})
    core, cl = strip_assumptions(phi, close(extract(m, phi)), st)
    game, role, post = modal_core(core)
    cex = verify_exhaustive(game, role, cl, [st], post, DemonMenu({}, 2))
    assert cex is None, cex.outcome


# Hole K: the ghost's number for x outlives the assignment x := 1, and the
# strategy reads it over the state, so it plays z := 5 against x = 1.
HOLE_K = r"""
theorem shadow : <x := 1 ; z := *> z = x =
  ghost(x := 5; p. seqd asgnd x (x0, k. wit z := x (z0, k2. FO[z = x](k, k2))))
"""


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="hole K: a bound number shadows a later assignment",
)
def test_assignment_is_not_shadowed_by_a_bound_number():
    phi, m = parse_script(HOLE_K).theorems["shadow"]
    assert Checker().check_result(Context(), m, phi) is None
    game, role, post = modal_core(phi)
    cex = verify_exhaustive(game, role, close(extract(m, phi)), [State()], post, DemonMenu({}, 2))
    assert cex is None, cex.outcome
