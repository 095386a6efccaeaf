"""Operational semantics: normal forms, single steps, and full coverage of
the named conversion rules."""

import collections
import contextlib
import hashlib
import random
import sys

import pytest

from cgl import normalizer as N
from cgl import proofterms as P
from cgl import syntax as S
from cgl.checker import Checker
from cgl.oracle import _WITNESS_POOL, ArithOracle
from cgl.parser import parse_script
from cgl.proofterms import Context

L = S.lit
x, y, c = S.Var("x"), S.Var("y"), S.Var("c")

SP = P.Split(x, L(0))  # simple leaf
REDEX = P.Proj1(P.DPair(SP, P.Split(y, L(0))))  # one-step redex
CASE0 = P.Case(SP, "l", P.Split(y, L(0)), "r", P.Split(c, L(0)))  # normal case


def rules_of(m, fuel=400):
    try:
        _nf, _steps, trace = N.normalize(m, fuel)
    except N.FuelExhausted as e:
        raise AssertionError(f"diverged: {m}") from e
    return [r for r, _ in trace]


# -- normal-form predicate ------------------------------------------------------


def test_binder_shields_redex():
    m = P.Lam("p", S.TRUE, P.App(P.PVar("p"), SP))
    assert N.is_normal(m) and N.is_simple(m)


def test_root_redex_not_normal():
    assert not N.is_normal(P.Proj1(P.DPair(SP, SP)))


def test_top_level_state_case_is_normal():
    assert N.is_normal(CASE0)
    assert not N.is_simple(CASE0)
    dec = P.Dec(S.Or(S.Cmp(x, ">", L(0)), S.Cmp(x, "<=", L(0))), None)
    assert N.is_normal(P.Case(dec, "l", SP, "r", SP))


def test_nested_case_not_normal():
    assert not N.is_normal(P.InjL(CASE0))


def test_normal_forms_are_stuck():
    for m in (SP, CASE0, P.Lam("p", S.TRUE, P.App(P.PVar("p"), SP))):
        assert N.step(m) is None


def test_step_deterministic():
    m = P.DPair(REDEX, REDEX)
    s1 = N.step(m)
    s2 = N.step(m)
    assert s1 == s2


# -- the four spec-level step examples ------------------------------------------


def test_beta_app():
    m = P.App(P.Lam("p", S.TRUE, P.PVar("p")), SP)
    red, rule = N.step(m)
    assert rule == N.LAM_PHI_BETA and red == SP


def test_mon_pushes_through_injection():
    m = P.Mon(P.InjL(SP), "p", P.PVar("p"))
    red, rule = N.step(m)
    assert rule == N.INJL_MON
    assert red == P.InjL(P.Mon(SP, "p", P.PVar("p")))


def test_commuting_conversion_lifts_case():
    m = P.InjL(CASE0)
    red, rule = N.step(m)
    assert rule == N.INJL_C
    assert isinstance(red, P.Case)
    assert red.bleft == P.InjL(CASE0.bleft) and red.bright == P.InjL(CASE0.bright)


def test_unroll_roll():
    m = P.Unroll(P.Roll(SP))
    red, rule = N.step(m)
    assert rule == N.UNROLL_BETA and red == SP


def test_fp_of_stop_reduces_via_case_beta():
    m = P.FP(P.Stop(SP), "s", P.PVar("s"), "g", P.PVar("g"))
    nf, steps, trace = N.normalize(m, 10)
    assert [r for r, _ in trace][:2] == [N.FP_BETA, N.CASE_BETA_L]
    assert nf == SP


def test_projections():
    assert N.step(P.Proj1(P.DPair(SP, SP)))[1] == N.PROJ1_BETA
    assert N.step(P.Proj2(P.BPair(SP, SP)))[1] == N.PROJ2_BETA


# -- corpus traces: progress, preservation, normality ----------------------------


def test_corpus_progress_preservation(all_theorems):
    ck = Checker()
    for name, (phi, proof) in all_theorems.items():
        cur = proof
        for _ in range(10**6):
            s = N.step(cur)
            if s is None:
                assert N.is_normal(cur), f"{name}: stuck non-normal"
                break
            cur = s[0]
            err = ck.check_result(Context(), cur, phi)
            assert err is None, f"{name}: preservation broke at {s[1]}: {err}"
        else:
            pytest.fail(f"{name}: did not normalize within fuel")


def test_corpus_step_counts_stable(all_theorems):
    # regression baselines for the observable traces
    counts = {}
    for name, (_phi, proof) in all_theorems.items():
        _nf, steps, _trace = N.normalize(proof, 10**6)
        counts[name] = steps
    assert counts["pairProj"] == 1
    assert counts["applyId"] == 1
    assert counts["instForall"] == 1
    assert counts["monAssign"] == 1
    assert counts["projChain"] == 2
    assert counts["dNim"] == 0 and counts["aNim"] == 0  # binder-rooted
    assert counts["unrollRep"] == 3
    assert counts["aCake"] == 2


def test_fo_exists_beta_finds_witness():
    m = P.QE(S.Exists("x", S.Cmp(x, "=", L(1))), None)
    red, rule = N.step(m)
    assert rule == N.FO_EX_BETA
    assert isinstance(red, P.TCons) and red.witness == L(1)


def test_fo_exists_without_witness_is_normal():
    m = P.QE(S.Exists("x", S.Cmp(x, "=", S.Plus(y, L("1/7")))), None)
    assert N.step(m) is None
    assert N.is_normal(m)


def test_ghost_mon_reduct_checks_at_the_same_formula():
    from test_checker import GHOST_MON

    phi, m = parse_script(GHOST_MON.format(0)).theorems["gm"]
    red, rule = N.step(m)
    assert rule == N.GHOST_MON
    assert red == P.Ghost("y", x, "g", P.Mon(m.scrut.body, m.hyp, m.body))
    ck = Checker()
    assert ck.check_result(Context(), m, phi) is None
    assert ck.check_result(Context(), red, phi) is None
    assert rules_of(m) == [N.GHOST_MON] and N.is_normal(red)


# -- full rule coverage ------------------------------------------------------------


def coverage_seeds():
    f = P.PVar("f")
    mon = lambda a: P.Mon(a, "p", P.PVar("p"))
    return [
        # beta
        P.App(P.Lam("p", S.TRUE, P.PVar("p")), SP),
        P.NumApp(P.NumLam("x", "x0", SP), L(3)),
        P.Proj1(P.DPair(SP, SP)),
        P.Proj2(P.DPair(SP, SP)),
        P.Case(P.InjL(SP), "l", P.PVar("l"), "r", P.PVar("r")),
        P.Case(P.InjR(SP), "l", P.PVar("l"), "r", P.PVar("r")),
        P.Unroll(P.Roll(SP)),
        P.Unpack("x", "yu", "p", P.TCons("x", "yt", "q", L(1), SP), P.PVar("p")),
        P.FP(P.Stop(SP), "s", P.PVar("s"), "g", P.PVar("g")),
        P.FP(P.Go(SP), "s", P.PVar("s"), "g", P.PVar("g")),
        P.Rep("p", SP, P.PVar("p"), P.PVar("p"), S.TRUE),
        P.For("p", "q", "M0", SP, P.PVar("p"), P.PVar("p"), c, S.TRUE),
        P.QE(S.Forall("x", S.Cmp(x, "=", x)), None),
        P.QE(S.And(S.TRUE, S.TRUE), None),
        P.QE(S.Or(S.TRUE, S.FALSE), None),
        P.QE(S.Exists("x", S.Cmp(x, "=", L(1))), None),
        # monotonicity conversions
        mon(P.Lam("q", S.TRUE, SP)),
        mon(P.NumLam("x", "x0", SP)),
        mon(P.BPair(SP, SP)),
        mon(P.DPair(SP, SP)),
        mon(P.InjL(SP)),
        mon(P.InjR(SP)),
        mon(P.Swap(SP, P.BOX)),
        mon(P.Swap(SP, P.DIA)),
        mon(P.SeqI(SP, P.BOX)),
        mon(P.SeqI(SP, P.DIA)),
        mon(P.TCons("x", "xg", "h", L(1), SP)),
        mon(P.Asgn("x", "xg", "h", SP, P.DIA)),
        mon(P.Asgn("x", "xg", "h", SP, P.BOX)),
        mon(CASE0),
        mon(P.Roll(SP)),
        mon(P.Stop(SP)),
        mon(P.Go(SP)),
        # commuting conversions
        P.Proj1(CASE0),
        P.Proj2(CASE0),
        P.BPair(CASE0, SP),
        P.BPair(SP, CASE0),
        P.DPair(CASE0, SP),
        P.DPair(SP, CASE0),
        P.Stop(CASE0),
        P.Go(CASE0),
        P.InjL(CASE0),
        P.InjR(CASE0),
        P.RCase(CASE0, "s", SP, "g", SP),
        P.Case(CASE0, "l", SP, "r", SP),
        P.Unroll(CASE0),
        P.Rep("p", CASE0, P.PVar("p"), P.PVar("p"), S.TRUE),
        P.For("p", "q", "M0", CASE0, P.PVar("p"), P.PVar("p"), c, S.TRUE),
        P.FP(CASE0, "s", P.PVar("s"), "g", P.PVar("g")),
        P.SeqI(CASE0, P.DIA),
        P.SeqI(CASE0, P.BOX),
        P.Swap(CASE0, P.DIA),
        P.Swap(CASE0, P.BOX),
        P.App(CASE0, SP),
        P.App(f, CASE0),
        P.NumApp(CASE0, L(1)),
        mon(CASE0),
        P.TCons("x", "xg", "h", L(1), P.Case(P.Split(y, L(0)), "l", SP, "r", SP)),
        P.Unpack("x", "yu", "p", CASE0, P.PVar("p")),
        # structural
        P.Proj1(P.DPair(REDEX, SP)),
        P.Proj2(P.DPair(REDEX, SP)),
        P.Rep("p", REDEX, P.PVar("p"), P.PVar("p"), S.TRUE),
        P.Unroll(REDEX),
        P.NumApp(REDEX, L(1)),
        P.App(REDEX, SP),
        P.App(f, REDEX),
        P.SeqI(REDEX, P.BOX),
        P.SeqI(REDEX, P.DIA),
        P.Mon(REDEX, "p", P.PVar("p")),
        P.InjL(REDEX),
        P.InjR(REDEX),
        P.BPair(REDEX, SP),
        P.BPair(SP, REDEX),
        P.DPair(REDEX, SP),
        P.DPair(SP, REDEX),
        P.Swap(REDEX, P.BOX),
        P.Swap(REDEX, P.DIA),
        P.For("p", "q", "M0", REDEX, P.PVar("p"), P.PVar("p"), c, S.TRUE),
        P.FP(REDEX, "s", P.PVar("s"), "g", P.PVar("g")),
        P.Case(REDEX, "l", SP, "r", SP),
        P.Unpack("x", "yu", "p", REDEX, P.PVar("p")),
    ]


def test_every_named_rule_fires():
    fired = set()
    for seed in coverage_seeds():
        fired.update(rules_of(seed))
    missing = N.APPENDIX_RULES - fired
    assert not missing, f"unfired rules: {sorted(missing)}"


def test_coverage_report_lists_zero_unfired():
    fired = set()
    for seed in coverage_seeds():
        fired.update(rules_of(seed))
    report = sorted(N.APPENDIX_RULES - fired)
    assert report == []


# -- golden traces: corpus proofs inside seeded identity redexes -----------------
#
# Recorded with the recursive single-step normalizer that the resumable
# machine replaced: every step's rule, redex path and reduct must stay the
# same.


def _tt():
    return P.QE(S.TRUE, None)


def wrap(kind, phi, m, tag):
    """A proof of phi, (\\q : phi. K) m, whose body K reduces to q through
    a redex of the given kind."""
    q = P.PVar(f"q{tag}")
    if kind == "beta":
        body = q
    elif kind == "proj":
        body = P.Proj1(P.DPair(q, _tt()))
    elif kind == "case":
        # case ((\\s. s) inl <tt, q> : <?tt ++ ?ff> phi) of l. pi2 l | r. pi2 r
        ann = S.Diamond(S.Choice(S.Test(S.TRUE), S.Test(S.FALSE)), phi)
        s, l, r = f"s{tag}", f"l{tag}", f"r{tag}"
        scrut = P.App(P.Lam(s, ann, P.PVar(s)), P.InjL(P.DPair(_tt(), q)))
        body = P.Case(scrut, l, P.Proj2(P.PVar(l)), r, P.Proj2(P.PVar(r)))
    elif kind == "unroll":
        # pi1 unroll ((\\s. s) roll <q, \\f : ff. rep(q; p. \\g : ff. p; p)>)
        p = f"p{tag}"
        rep = P.Rep(p, q, P.Lam(f"g{tag}", S.FALSE, P.PVar(p)), P.PVar(p), phi)
        rolled = P.Roll(P.DPair(q, P.Lam(f"f{tag}", S.FALSE, rep)))
        loop = S.Box(S.Repeat(S.Test(S.FALSE)), phi)
        body = P.Proj1(P.Unroll(P.App(P.Lam(f"s{tag}", loop, P.PVar(f"s{tag}")), rolled)))
    else:  # mon: pi1 mon(<q, tt>; p. p)
        p = f"p{tag}"
        body = P.Proj1(P.Mon(P.DPair(q, _tt()), p, P.PVar(p)))
    return P.App(P.Lam(q.name, phi, body), m)


KINDS = ("beta", "proj", "case", "unroll", "mon")


def wrapped(name, phi, m, per_kind=2):
    """m inside `per_kind` wrappers of every kind, in an order seeded by name."""
    kinds = list(KINDS) * per_kind
    random.Random(f"golden-{name}").shuffle(kinds)
    for i, k in enumerate(kinds):
        m = wrap(k, phi, m, str(i))
    return m


def trace_digest(m, trace):
    h = hashlib.sha256()
    for rule, reduct in trace:
        h.update(f"{rule} {N.redex_path(m, reduct)} {reduct!r}\n".encode())
        m = reduct
    return h.hexdigest()[:16]


GOLDEN = {
    "dNim": (28, "36ae2447f29ce35a"),
    "aNim": (28, "6c8f7f32cfc5fc0e"),
    "aCake": (30, "b13e6cebd5560bd6"),
    "dCake": (28, "6011b2521a5f0b50"),
    "witPlus": (28, "2e5864cb6e5ccc7b"),
    "witAbs": (28, "2e3c9e95571d95ef"),
    "witMax": (28, "bd68359253fa79dd"),
    "pairProj": (29, "db306b744f3e7feb"),
    "applyId": (29, "7522ac7ea2244039"),
    "instForall": (29, "2fb4a15c20e3a2ba"),
    "monAssign": (29, "c20dd6a7797f67eb"),
    "unrollRep": (31, "b8717116c3be2384"),
    "projChain": (30, "1406664daa7ceaa0"),
    "forCounter": (28, "02dad8250d7acd9a"),
    "splitDemo": (28, "4323925858bac678"),
    "decDemo": (28, "78eff136f4036143"),
    "absFold": (28, "ed62c4d4f1329d9b"),
    "fpTrivial": (28, "a29cc10e7367960e"),
    "rcaseTrivial": (28, "046d99dc5a6ae045"),
    "ghostRemember": (28, "ff42211e3e1f0e56"),
    "signFlip": (28, "201e65891e9025a6"),
    "raceLoop": (28, "5aa318e32a9550f0"),
}

# the root-level rules: every wrapper step happens under the outermost App
UNROLL_REP_RULES = [N.APP_SR] * 30 + [N.LAM_PHI_BETA]

# one wrapper around a normal leaf: (rule, redex path) per step
WRAPPER_STEPS = {
    "beta": [("lam-phi-beta", "root")],
    "proj": [("lam-phi-beta", "root"), ("proj1-beta", "root")],
    "case": [("lam-phi-beta", "root"), ("case-S", "scrut"), ("case-beta-L", "root"),
             ("proj2-beta", "root")],
    "unroll": [("lam-phi-beta", "root"), ("proj1-S", "arg.body"), ("proj1-S", "arg"),
               ("proj1-beta", "root")],
    "mon": [("lam-phi-beta", "root"), ("proj1-S", "arg"), ("proj1-beta", "root")],
}


def test_golden_wrapped_corpus_traces(all_theorems):
    assert set(all_theorems) == set(GOLDEN)
    for name, (phi, m) in all_theorems.items():
        w = wrapped(name, phi, m)
        _nf, steps, trace = N.normalize(w)
        assert (steps, trace_digest(w, trace)) == GOLDEN[name], name
        if name == "unrollRep":
            assert [r for r, _ in trace] == UNROLL_REP_RULES


def test_stuck_existential_leaf_is_judged_once(monkeypatch):
    # no pool value squares to 2, so the leaf stays stuck while the 30
    # wrappers above it reduce and the search passes it again and again
    goal = S.Exists("x", S.Cmp(S.Times(x, x), "=", L(2)))
    inner = P.DPair(P.QE(goal, None), _tt())
    w = wrapped("stuck", S.And(goal, S.TRUE), inner, per_kind=6)
    decide, calls = ArithOracle._decide, []

    def counting_decide(self, rho, phi):
        calls.append(phi)
        return decide(self, rho, phi)

    monkeypatch.setattr(ArithOracle, "_decide", counting_decide)
    nf, steps, _trace = N.normalize(w)
    assert nf == inner and steps == 84
    assert len(calls) <= len(_WITNESS_POOL)  # one search over the pool at most


def _forget_goal_facts(m):
    """Drop the decomposition kept on the goal of each oracle leaf of m."""

    def go(n):
        if type(n) is P.QE:
            with contextlib.suppress(AttributeError):
                object.__delattr__(n.goal, "_qe")
        return P.map_children(n, go, lambda t: t, lambda phi: phi)

    go(m)


def test_a_step_pays_only_for_its_redex(all_theorems, monkeypatch):
    # over the wrapped corpus: the normalizer judges each oracle leaf's goal
    # once, however often the search passes the leaf, and a substitution
    # replaces a proof variable where its parent is walked
    judged, pvar_calls = collections.Counter(), []
    split_or, subst = S.split_or, P._subst_pt

    def counting_split_or(phi):
        if sys._getframe(1).f_globals["__name__"] == N.__name__:
            judged[phi] += 1
        return split_or(phi)

    def counting_subst(m, *args):
        if type(m) is P.PVar:
            pvar_calls.append(m)
        return subst(m, *args)

    monkeypatch.setattr(S, "split_or", counting_split_or)
    monkeypatch.setattr(P, "_subst_pt", counting_subst)
    for _phi, m in all_theorems.values():
        _forget_goal_facts(m)
    for name, (phi, m) in all_theorems.items():
        N.normalize(wrapped(name, phi, m))
    assert judged and max(judged.values()) == 1
    assert pvar_calls == []


def test_wrapper_steps():
    for kind, expected in WRAPPER_STEPS.items():
        cur = wrap(kind, S.TRUE, SP, "")
        _nf, _steps, trace = N.normalize(cur)
        got = []
        for rule, reduct in trace:
            got.append((rule, N.redex_path(cur, reduct)))
            cur = reduct
        assert got == expected and cur == SP, kind


def test_golden_coverage_traces():
    h, steps = hashlib.sha256(), 0
    for seed in coverage_seeds():
        _nf, n, trace = N.normalize(seed, 400)
        h.update(trace_digest(seed, trace).encode())
        steps += n
    assert (steps, h.hexdigest()[:16]) == (88, "bae787da59ca9cf7")


def test_iterated_step_matches_normalize(all_theorems):
    for name, (phi, m) in all_theorems.items():
        w = wrapped(name, phi, m)
        nf, steps, trace = N.normalize(w)
        cur, stepped = w, []
        while (s := N.step(cur)) is not None:
            cur = s[0]
            stepped.append((s[1], cur))
        assert stepped == trace and cur == nf, name


def test_fuel_exhausted_keeps_last_term(all_theorems):
    phi, m = all_theorems["unrollRep"]
    w = wrapped("unrollRep", phi, m)
    _nf, _steps, trace = N.normalize(w)
    with pytest.raises(N.FuelExhausted) as e:
        N.normalize(w, 7)
    assert e.value.steps == 7 and e.value.last == trace[6][1]
    assert hashlib.sha256(repr(e.value.last).encode()).hexdigest()[:16] == "762dc14301c13191"
    # a term that is normal after exactly `fuel` steps still runs out
    with pytest.raises(N.FuelExhausted) as e:
        N.normalize(w, len(trace))
    assert e.value.steps == len(trace) and e.value.last == trace[-1][1]


def test_deep_term_normalizes_without_recursion():
    m = REDEX
    for _ in range(2000):
        m = P.InjL(m)
    nf, steps, trace = N.normalize(m)
    assert steps == 1 and [r for r, _ in trace] == [N.INJL_S]
    for _ in range(2000):
        assert type(nf) is P.InjL
        nf = nf.arg
    assert nf == SP


def _spine(m, depth):
    """The term under `depth` InjL ancestors, unwrapped without recursion."""
    for _ in range(depth):
        assert type(m) is P.InjL
        m = m.arg
    return m


def test_step_cost_does_not_grow_with_depth(monkeypatch):
    # k redexes under 2,000 InjL ancestors: the machine rebuilds each
    # ancestor once, on the way up, not once per step
    k, depth = 5, 2000
    m = REDEX
    for _ in range(k - 1):
        m = P.BPair(REDEX, m)
    for _ in range(depth):
        m = P.InjL(m)
    built, init = [], P.InjL.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(P.InjL, "__init__", counting_init)
    nf, steps, trace = N.normalize(m)
    assert steps == k and len(built) <= k + depth
    monkeypatch.undo()
    cur, stepped = m, []
    while (s := N.step(cur)) is not None:
        cur = s[0]
        stepped.append((s[1], cur))
    # equality on 2,000-deep terms would recurse past Python's limit
    assert [(r, _spine(t, depth)) for r, t in trace] == [
        (r, _spine(t, depth)) for r, t in stepped
    ]
    assert _spine(nf, depth) == _spine(cur, depth)
