"""Judgment checking: rule examples, diagnostics, and the structural
metatheory the checker must respect."""

import random

import pytest

from cgl import checker as C
from cgl import proofterms as P
from cgl import syntax as S
from cgl.checker import Checker
from cgl.parser import parse_script
from cgl.proofterms import Context

L = S.lit
x, c = S.Var("x"), S.Var("c")
ONE_POS = S.Cmp(L(1), ">", L(0))


def ck():
    return Checker()


def test_identity_function_proof():
    m = P.Lam("p", ONE_POS, P.PVar("p"))
    assert ck().check_result(Context(), m, S.Implies(ONE_POS, ONE_POS)) is None


def test_unbound_hypothesis():
    err = ck().check_result(Context(), P.PVar("p"), S.TRUE)
    assert err.kind == C.UNBOUND


def test_error_paths_point_at_subterm():
    bad = P.DPair(P.QE(ONE_POS, None), P.PVar("nope"))
    err = ck().check_result(Context(), bad, S.And(ONE_POS, ONE_POS))
    assert err.kind == C.UNBOUND
    assert err.path == ("snd",)


def test_rule_mismatch_reports_expectation():
    m = P.InjL(P.QE(ONE_POS, None))
    err = ck().check_result(Context(), m, ONE_POS)
    assert err.kind == C.RULE_MISMATCH


def test_split_conclusion_shape():
    m = P.Split(x, L(0))
    good = S.Or(S.Cmp(x, "<=", L(0)), S.Cmp(x, ">", L(0)))
    assert ck().check_result(Context(), m, good) is None
    bad = S.Or(S.Cmp(x, "<", L(0)), S.Cmp(x, ">=", L(0)))
    assert ck().check_result(Context(), m, bad) is not None


def test_oracle_refuted_vs_incomplete():
    refuted = ck().check_result(
        Context({"h": S.Cmp(x, "=", L(1))}), P.QE(S.Cmp(x, ">", L(2)), P.PVar("h")),
        S.Cmp(x, ">", L(2)),
    )
    assert refuted.kind == C.ORACLE_REFUTED
    unknown = ck().check_result(
        Context(), P.QE(S.Cmp(S.Times(x, x), ">=", L(0)), None),
        S.Cmp(S.Times(x, x), ">=", L(0)),
    )
    assert unknown.kind == C.ORACLE_INCOMPLETE
    # the oracle's reason reaches the message and the JSON diagnostic
    assert unknown.message.endswith("(nonlinear term)")
    assert unknown.to_json()["reason"] == "nonlinear term"
    assert "reason" not in refuted.to_json()


HOLE_A = r"""
theorem bad : ((forall x x < x) -> y > 0) -> y > 0 =
  \h : (forall x x < x) -> y > 0. FO[y > 0](h)
"""


def test_negated_forall_hypothesis_rejected():
    # y = 0 falsifies the theorem: its premise holds vacuously
    phi, m = parse_script(HOLE_A).theorems["bad"]
    err = ck().check_result(Context(), m, phi)
    assert err is not None and err.kind == C.ORACLE_INCOMPLETE
    assert err.reason == "quantified sequent: no certificate; witness search skipped"


# -- the loop rule -------------------------------------------------------------


def _counter_loop(inv_text, step="STEP"):
    """The countdown loop; `step` is its step with STEP standing for the
    plain `asgnd` proof of one round."""
    step = step.replace(
        "STEP", f"asgnd c (cc, ch. FO[({inv_text}) & M0 succ c](p, q, ch))"
    )
    text = f"""
theorem counter : c = 5 -> <{{c := c - 1}}*> c = 0 =
  \\h : c = 5. for(FO[{inv_text}](h); p : {inv_text}; q; M0 := c;
     {step};
     FO[c = 0](p, q))
"""
    script = parse_script(text)
    return script.theorems["counter"]


# loop steps whose last rule has no premise for the residual: the loop
# composes them with the next round at run time
WRAPPED_STEPS = {
    "ghost": "ghost(g := c; gh. STEP)",
    "unpack": (
        "unpack((\\k : <z := *> z = 1. k) (wit z := 1 (zz, zh. FO[z = 1](zh)));"
        " z, zz, zh. STEP)"
    ),
    "rcase": "rcase (\\k : <{y := y + 1}*> tt. k) (stop FO[tt]()) of s. STEP | g. STEP",
}


@pytest.mark.parametrize("wrapper", sorted(WRAPPED_STEPS))
def test_wrapped_loop_step_checks(wrapper):
    phi, proof = _counter_loop("c >= 0 & c mod 1 = 0", WRAPPED_STEPS[wrapper])
    assert ck().check_result(Context(), proof, phi) is None


def test_wrong_loop_step_leaf_named_at_the_leaf():
    # the step is checked against its goal, so the leaf's own conclusion is
    # compared before the oracle is asked
    phi, proof = _counter_loop(
        "c >= 0 & c mod 1 = 0",
        "asgnd c (cc, ch. FO[(c >= 0 & c mod 1 = 0) & M0 succ c + 1](p, q, ch))",
    )
    err = ck().check_result(Context(), proof, phi)
    assert err.kind == C.RULE_MISMATCH
    assert err.path == ("body", "step", "body")
    assert err.message.startswith("expected FO conclusion")


def test_counter_loop_checks_with_integral_invariant():
    phi, proof = _counter_loop("c >= 0 & c mod 1 = 0")
    assert ck().check_result(Context(), proof, phi) is None


def test_fractional_metric_rejected():
    # a metric that can sit strictly between 0 and 1 breaks the
    # integer-gap descent discipline
    phi, proof = _counter_loop("c >= 0")
    err = ck().check_result(Context(), proof, phi)
    assert err.kind == C.METRIC_ILL_FORMED


def test_nim_metric_without_offset_rejected(corpus):
    # the quotient c div 4 does not descend on every demon reply; the
    # descent obligation is arithmetically refuted
    text = corpus_nim_with_metric("c div 4")
    script = parse_script(text)
    phi, proof = script.theorems["aNim"]
    err = ck().check_result(Context(), proof, phi)
    assert err is not None
    assert err.kind in (C.ORACLE_REFUTED, C.ORACLE_INCOMPLETE)


def corpus_nim_with_metric(metric):
    from conftest import corpus_text

    text = corpus_text("nim.cgl")
    assert text.count("(c - 2) div 4") >= 3
    return text.replace("(c - 2) div 4", metric)


def test_ghost_freshness():
    m = P.Ghost("x", L(1), "p", P.QE(S.Cmp(x, "=", L(1)), P.PVar("p")))
    err = ck().check_result(Context(), m, S.Cmp(x, "=", L(1)))
    assert err.kind == C.FRESHNESS  # x is free in the goal


def test_numapp_inadmissible():
    inner = P.NumLam(
        "x", "x0",
        P.QE(S.Forall("y", S.Or(S.Cmp(x, "<", S.Var("y")), S.Cmp(x, ">=", S.Var("y")))), None),
    )
    m = P.NumApp(inner, S.Var("y"))
    err = ck().check_result(Context(), m, S.TRUE)
    assert err.kind == C.INADMISSIBLE


# `mon` scrutinees: the ghost is chosen before the goal is known, and each
# game under the scrutinee keeps its own flavor
MON_SCRUTINEES = r"""
theorem ghostEscape : <c := c + 1> c = x + 1 =
  mon(asgnd c (x, ch. FO[c = x + 1](ch)); p. p)
theorem restEscape : <c := c + 1 ; ?c = x + 1> tt =
  mon(seqd asgnd c (x, ch. <FO[c = x + 1](ch), FO[tt]()>); p. p)
theorem dualFlip : <{x := *}^d ; ?x > 0> tt =
  mon(seqd yieldd (\x : Q as xd. \t : x > 0. FO[tt]()); p. FO[tt]())
theorem dualOk : <{x := *}^d ; c := 1> c = 1 =
  mon(seqd yieldd (\x : Q as xd. asgnd c (cz, ch. FO[c = 1](ch))); p. p)
"""


@pytest.mark.parametrize("name, kind", [
    ("ghostEscape", C.FRESHNESS),  # false: the ghost x is the old c
    ("restEscape", C.FRESHNESS),  # false from x = 5: the test reads x
    ("dualFlip", C.RULE_MISMATCH),  # false: the demon picks x <= 0
    ("dualOk", None),
])
def test_mon_scrutinee_verdicts(name, kind):
    phi, m = parse_script(MON_SCRUTINEES).theorems[name]
    err = ck().check_result(Context(), m, phi)
    assert (err and err.kind) == kind, err


# a scrutinee that does not fit its game is checked against the goal's own
# postcondition, so the diagnostic names the rule and a formula of the proof
MISFIT_SCRUTINEES = {
    "[asgnd c (c0, h. FO[c = 1](h)), asgnd c (c1, h. FO[c = 1](h))]":
        "scrut: RuleMismatch: box-pair needs [a++b], got <c := 1>c >= 0",
    "inl asgnd c (c0, h. FO[c = 1](h))":
        "scrut: RuleMismatch: inl needs <a++b>, got <c := 1>c >= 0",
    "asgnb c (c0, h. FO[c = 1](h))":
        "scrut: RuleMismatch: assignment proof has box flavor, goal is <c := 1>c >= 0",
}


@pytest.mark.parametrize("scrut", sorted(MISFIT_SCRUTINEES))
def test_misfit_mon_scrutinee_diagnostic(scrut):
    text = f"theorem t : <c := 1> c >= 0 = mon({scrut}; p. FO[c >= 0](p))"
    phi, m = parse_script(text).theorems["t"]
    assert str(ck().check_result(Context(), m, phi)) == MISFIT_SCRUTINEES[scrut]


# false theorems that one guard of the checker alone rejects: without it,
# each passes `cgl check`
@pytest.mark.parametrize("goal, proof, message", [
    # the lambda's annotation is not the implication's hypothesis
    ("x > 0 -> x > 1", r"\h : x > 1. FO[x > 1](h)",
     "root: RuleMismatch: expected lambda annotation x > 0, got x > 1"),
    # the number lambda binds another variable than the quantifier
    ("y = 1 -> [y := *] y = 1", r"\h : y = 1. \x : Q as x0. FO[y = 1](h)",
     "body: RuleMismatch: binds x but goal binds y"),
    # Dec decides another disjunction than the goal's
    ("x > 0 | x < 0", "Dec[tt | tt]()",
     "root: RuleMismatch: expected Dec conclusion x > 0 | x < 0, got tt | tt"),
])
def test_guard_alone_rejects_false_theorem(goal, proof, message):
    phi, m = parse_script(f"theorem t : {goal} = {proof}").theorems["t"]
    err = ck().check_result(Context(), m, phi)
    assert (err.kind, str(err)) == (C.RULE_MISMATCH, message)


def test_dual_flip_diagnostic_names_the_goal():
    phi, m = parse_script(MON_SCRUTINEES).theorems["dualFlip"]
    err = ck().check_result(Context(), m, phi)
    assert err.message == "lambda needs a test-box goal, got x > 0 & tt"


# `unpack` and `Dec` make the same side conditions in both modes: as the
# payload of an oracle leaf they are synthesized, as the lambda's body checked
BOTH_MODES = r"""
theorem ghostNotFresh : y = 5 -> z = 1 =
  \h : y = 5. FO[z = 1](unpack((\q : <x := *> x > 10. q) (wit x := 11 (x0, k. FO[x > 10](k))); x, y, p. FO[z = 1](p, h)))
theorem varMismatch : w = 0 -> z = 1 =
  \h : w = 0. FO[z = 1](unpack((\q : <w := *> w > 10. q) (wit w := 11 (w0, k. FO[w > 10](k))); x, x1, p. FO[z = 1](p, h)))
theorem decNotOr : x > 0 -> x > 0 =
  \h : x > 0. FO[x > 0](Dec[x > 0](h))
"""


@pytest.mark.parametrize("name, message", [
    # false at y = 5, z = 0: renaming y to the ghost turns h into x = 5
    ("ghostNotFresh", "FreshnessViolation: ghost y is not fresh here"),
    # false at w = 0, z = 0: the unpacked x is not the scrutinee's w
    ("varMismatch", "RuleMismatch: unpacks x but scrutinee binds w"),
    # true, but only a disjunction is decided
    ("decNotOr", "RuleMismatch: Dec needs a disjunction, got x > 0"),
])
@pytest.mark.parametrize("position", ["body.payload", "body"])
def test_side_conditions_hold_in_both_modes(name, message, position):
    phi, m = _at_position(name, position)
    assert str(ck().check_result(Context(), m, phi)) == f"{position}: {message}"


def _at_position(name, position):
    phi, m = parse_script(BOTH_MODES).theorems[name]
    return phi, (m if position == "body.payload" else P.Lam(m.hyp, m.ann, m.body.payload))


def test_synthesis_agrees_with_checking(all_theorems):
    # whatever a closed proof synthesizes, it checks against: on the corpus,
    # the proofs above in both positions, and seeded mutants of each
    from test_fuzz import _mutate, _subterms

    seeds = {name: m for name, (_, m) in all_theorems.items()}
    for name in parse_script(BOTH_MODES).theorems:
        for position in ("body.payload", "body"):
            seeds[f"{name} {position}"] = _at_position(name, position)[1]
    proofs = []
    for name, proof in sorted(seeds.items()):
        rng = random.Random(f"synth-{name}")
        proofs.append(proof)
        proofs += [m for m in (_mutate(proof, rng) for _ in range(30)) if m is not None]
    checker, synthesized = ck(), 0
    for proof in proofs:
        for _, sub in _subterms(proof):
            if P.free_pvars(sub):
                continue
            try:
                phi = checker.synth(Context(), sub)
            except C.CheckError:
                continue
            synthesized += 1
            assert checker.check_result(Context(), sub, phi) is None, (sub, phi)
    assert synthesized > 500


# -- structural metatheory -------------------------------------------------------


def test_weakening(all_theorems, rng):
    checker = ck()
    for name, (phi, proof) in all_theorems.items():
        for i in range(16):
            junk = Context({f"fresh{i}": S.Cmp(S.Var("w"), ">", L(i))})
            assert checker.check_result(junk, proof, phi) is None, name


def test_exchange_insensitive(all_theorems):
    checker = ck()
    phi, proof = all_theorems["splitDemo"]
    a = Context({"h1": S.TRUE, "h2": ONE_POS})
    b = Context({"h2": ONE_POS, "h1": S.TRUE})
    assert checker.check_result(a, proof, phi) is None
    assert checker.check_result(b, proof, phi) is None


def test_renaming_stability(all_theorems):
    checker = ck()
    for name, (phi, proof) in all_theorems.items():
        phi2 = S.rename(phi, "c", "k")
        proof2 = P.rename_pt(proof, "c", "k")
        assert checker.check_result(Context(), proof2, phi2) is None, name


def test_determinism(all_theorems):
    checker = ck()
    for name, (phi, proof) in all_theorems.items():
        r1 = checker.check_result(Context(), proof, phi)
        r2 = checker.check_result(Context(), proof, phi)
        assert (r1 is None) == (r2 is None)


def test_substitution_lemma_on_corpus():
    # if ctx,p:psi |- M : phi and ctx |- N : psi then ctx |- M[p:=N] : phi
    checker = ck()
    psi = ONE_POS
    n = P.QE(psi, None)
    cases = [
        (P.PVar("p"), psi),
        (P.DPair(P.PVar("p"), P.PVar("p")), S.And(psi, psi)),
        (P.InjL(P.DPair(P.PVar("p"), P.QE(S.TRUE, None))), S.Or(psi, psi)),
        (
            P.Lam("q", S.Cmp(x, ">", L(2)), P.PVar("p")),
            S.Implies(S.Cmp(x, ">", L(2)), psi),
        ),
    ]
    for m, phi in cases:
        assert checker.check_result(Context({"p": psi}), m, phi) is None
        assert checker.check_result(Context(), n, psi) is None
        sub = P.subst_pt(m, "p", n)
        assert checker.check_result(Context(), sub, phi) is None


def test_substitution_lemma_randomized(all_theorems, rng):
    checker = ck()
    phi, proof = all_theorems["dNim"]
    # substitute trivial lemmas for lambda-bound hypotheses after peeling
    assert isinstance(proof, P.Lam)
    hyp_phi = proof.ann
    body = proof.body
    lemma = P.QE(hyp_phi, P.PVar("outer"))
    ctx = Context({"outer": hyp_phi})
    inner_phi = S.split_implies(phi)[1]
    assert checker.check_result(ctx.extend(proof.hyp, hyp_phi), body, inner_phi) is None
    sub = P.subst_pt(body, proof.hyp, lemma)
    assert checker.check_result(ctx, sub, inner_phi) is None


def test_contraction_admissible():
    # duplicate hypotheses collapse by substituting one name for the other
    checker = ck()
    phi = S.And(ONE_POS, ONE_POS)
    m = P.DPair(P.PVar("p"), P.PVar("q"))
    two = Context({"p": ONE_POS, "q": ONE_POS})
    assert checker.check_result(two, m, phi) is None
    contracted = P.subst_pt(m, "q", P.PVar("p"))
    assert checker.check_result(Context({"p": ONE_POS}), contracted, phi) is None


def test_alpha_equivalent_proofs_check_alike(all_theorems):
    checker = ck()
    for name in ("dNim", "dCake", "forCounter", "signFlip"):
        phi, proof = all_theorems[name]
        renamed = _alpha_vary_binders(proof)
        assert P.alpha_eq(renamed, proof), name
        assert checker.check_result(Context(), renamed, phi) is None, name


def _alpha_vary_binders(m):
    """Rename every proof-variable binder by a tick, via substitution."""
    import dataclasses

    updates = {}
    for f in dataclasses.fields(type(m)):
        v = getattr(m, f.name)
        if isinstance(v, P.ProofTerm):
            updates[f.name] = _alpha_vary_binders(v)
    vals = {f.name: getattr(m, f.name) for f in dataclasses.fields(type(m))}
    vals.update(updates)
    out = type(m)(**vals)
    for hyp, targets in P._PVAR_BINDERS.get(type(m), ()):
        old = getattr(out, hyp)
        new = old + "_t"
        vals = {f.name: getattr(out, f.name) for f in dataclasses.fields(type(out))}
        vals[hyp] = new
        for t in targets:
            vals[t] = P.subst_pt(vals[t], old, P.PVar(new))
        out = type(out)(**vals)
    return out
