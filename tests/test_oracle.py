"""Arithmetic oracle: soundness, the documented capability tiers, and the
modular/integer reasoning the proof corpus leans on."""

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from cgl import oracle as O
from cgl import syntax as S
from cgl.checker import Checker
from cgl.oracle import REFUTED, UNKNOWN, VALID, ArithOracle
from cgl.parser import parse_formula_text
from cgl.printer import print_term
from cgl.proofterms import Context
from conftest import rand_state

L = S.lit
x, y, c = S.Var("x"), S.Var("y"), S.Var("c")


def oracle():
    return ArithOracle()


def test_trichotomy_instance():
    assert oracle().decide(None, S.Or(S.Cmp(x, "<=", L(0)), S.Cmp(x, ">", L(0)))).status == VALID


def test_refuted_with_witness():
    res = oracle().decide(S.Cmp(x, "=", L(1)), S.Cmp(x, ">", L(2)))
    assert res.status == REFUTED
    assert res.witness.get("x") == 1


def test_nonlinear_is_unknown():
    res = oracle().decide(None, S.Cmp(S.Times(x, x), ">=", L(0)))
    assert res.status == UNKNOWN


def test_ground_tier():
    assert oracle().decide(None, S.Cmp(L(3), ">", L(2))).status == VALID
    assert oracle().decide(None, S.Cmp(L(2), ">", L(3))).status == REFUTED


def test_linear_tier():
    rho = S.And(S.Cmp(x, ">=", L(2)), S.Cmp(y, ">=", x))
    assert oracle().decide(rho, S.Cmp(S.Plus(x, y), ">=", L(4))).status == VALID


def test_mod_transport():
    rho = S.And(
        S.Cmp(S.Mod(y, L(4)), "=", L(1)),
        S.And(S.Cmp(y, ">", L(0)), S.Cmp(c, "=", S.Minus(y, L(1)))),
    )
    assert oracle().decide(rho, S.Cmp(S.Mod(c, L(4)), "=", L(0))).status == VALID


def test_integrality_positivity():
    rho = S.And(
        S.Cmp(S.Mod(y, L(4)), "=", L(2)),
        S.And(S.Cmp(y, ">", L(0)), S.Cmp(c, "=", S.Minus(y, L(1)))),
    )
    assert oracle().decide(rho, S.Cmp(c, ">", L(0))).status == VALID


def test_quotient_monotonicity():
    m0 = S.Var("M0")
    c2 = S.Var("c2")
    div4 = lambda t: S.Div(S.Minus(t, L(2)), L(4))
    rho = S.And(
        S.Cmp(S.Plus(div4(c2), L(1)), "<=", m0),
        S.And(
            S.Cmp(c, "<=", S.Minus(c2, L(1))),
            S.And(S.Cmp(c, ">", L(0)), S.Cmp(S.Mod(c2, L(4)), "=", L(1))),
        ),
    )
    assert oracle().decide(rho, S.Cmp(S.Plus(div4(c), L(1)), "<=", m0)).status == VALID


def test_abs_case_split():
    rho = S.Cmp(y, "=", S.Abs(x))
    goal = S.Or(
        S.And(S.Cmp(x, "=", y), S.Cmp(x, ">=", L(0))),
        S.And(S.Cmp(x, "=", S.Neg(y)), S.Cmp(x, "<", L(0))),
    )
    assert oracle().decide(rho, goal).status == VALID


@pytest.mark.parametrize("goal", [
    "x div abs(-2) = x div 2",
    "x div max(2, 1) = x div 2",
    "x mod max(2, 1) = x mod 2",
    "x div min(-3, 2) = x div (-3)",
    "x div max(3, 1) != x div min(-1, 3) + -1",
])
def test_divisor_case_rows_reach_the_quotient(goal):
    # each case of the divisor holds only under its own side rows: without
    # them `abs(-2)` is -2 in one branch, and the quotients differ there
    assert oracle().decide(None, parse_formula_text(goal)).status == VALID


def test_excluded_middle_for_comparisons():
    phi = S.Cmp(S.Mod(c, L(4)), "=", L(3))
    assert oracle().decide(None, S.Or(phi, S.Not(phi))).status == VALID


def test_implication_and_quantifier():
    # forall x (x > 1 -> x > 0)
    goal = S.Forall("x", S.Implies(S.Cmp(x, ">", L(1)), S.Cmp(x, ">", L(0))))
    assert oracle().decide(None, goal).status == VALID


def test_contradictory_hypotheses_prove_anything():
    rho = S.And(S.Cmp(x, ">", L(1)), S.Cmp(x, "<", L(0)))
    assert oracle().decide(rho, S.Cmp(L(0), "=", L(1))).status == VALID


def test_soundness_never_valid_for_falsifiable(rng):
    # whenever the oracle says valid, random states fail to falsify
    o = oracle()
    checked = 0
    tries = random.Random(99)
    from conftest import rand_formula

    while checked < 60:
        rho = rand_formula(tries, 2)
        goal = rand_formula(tries, 2)
        res = o.decide(rho, goal)
        if res.status != VALID:
            continue
        evaluated = 0
        for _ in range(200):
            st = rand_state(tries)
            try:
                falsified = S.eval_fo(rho, st) and not S.eval_fo(goal, st)
            except ArithmeticError:
                continue
            except TypeError:
                break  # a quantifier or modality has no play-time value
            evaluated += 1
            assert not falsified, f"oracle unsound: {rho!r} -> {goal!r} at {st!r}"
        # only pairs that were actually evaluated count
        checked += evaluated > 0


def test_refuted_always_carries_true_witness(rng):
    o = oracle()
    from conftest import rand_formula

    tries = random.Random(3)
    seen = 0
    while seen < 40:
        rho = rand_formula(tries, 2)
        goal = rand_formula(tries, 2)
        res = o.decide(rho, goal)
        if res.status != REFUTED:
            continue
        seen += 1
        assert S.eval_fo(rho, res.witness) and not S.eval_fo(goal, res.witness)


# -- integer rows: tightening and substitution --------------------------------

q3, q2 = S.Div(y, L(3)), S.Div(y, L(2))  # quotients are integer-valued


def test_tightening_rounds_integer_bounds_down():
    # 2q <= 1 gives q <= 1/2 over the rationals, q <= 0 over the integers
    assert oracle().decide(S.Cmp(S.Times(L(2), q3), "<=", L(1)), S.Cmp(q3, "<=", L(0))).status == VALID
    # the same step is unsound for a rational variable
    res = oracle().decide(S.Cmp(S.Times(L(2), y), "<=", L(1)), S.Cmp(y, "<=", L(0)))
    assert res.status == REFUTED and res.witness.get("y") == Fraction(1, 4)


def test_integer_equality_with_odd_constant_is_unsat():
    # 2q = 1 has no integer solution: the hypothesis proves ff
    assert oracle().decide(S.Cmp(S.Times(L(2), q3), "=", L(1)), S.Cmp(L(0), "=", L(1))).status == VALID


def test_strict_integer_bound_becomes_nonstrict():
    assert oracle().decide(S.Cmp(q2, "<", L(1)), S.Cmp(q2, "<=", L(0))).status == VALID


def test_rational_equality_substitution():
    rho = S.And(S.Cmp(S.Plus(x, y), "=", L(3)), S.Cmp(S.Minus(x, y), "=", L(1)))
    assert oracle().decide(rho, S.Cmp(x, "=", L(2))).status == VALID
    # x is substituted away, then the remainder's bounds pin it to 1
    odd = S.Cmp(x, "=", S.Plus(S.Times(L(2), q2), L(1)))
    assert oracle().decide(odd, S.Cmp(S.Mod(x, L(2)), "=", L(1))).status == VALID


# -- soundness hole A: a negated universal is an existential of the negation --


def test_negated_forall_in_hypothesis_is_not_valid():
    # the premise is vacuously true, and y = 0 falsifies the conclusion
    rho = S.Implies(S.Forall("x", S.Cmp(x, "<", x)), S.Cmp(y, ">", L(0)))
    assert oracle().decide(rho, S.Cmp(y, ">", L(0))).status != VALID
    assert oracle().decide(None, S.Forall("x", S.Cmp(x, "<", x))).status != VALID


# -- the reason an answer is UNKNOWN -----------------------------------------


def _too_many_branches():
    rho = S.Cmp(x, "!=", L(0))
    for i in range(1, 13):
        rho = S.And(rho, S.Cmp(x, "!=", L(i)))
    return rho, S.Cmp(x, ">", L(100))


def _too_many_systems():
    # one DNF branch whose 14 abs literals fork 2^14 linear systems
    rho = S.Cmp(S.Abs(x), ">=", L(0))
    for i in range(1, 13):
        rho = S.And(rho, S.Cmp(S.Abs(x), ">=", L(-i)))
    return rho, S.Cmp(S.Abs(x), ">=", L(0))


_MODAL = S.Box(S.Assign("x", L(1)), S.Cmp(x, "=", L(1)))

_BEYOND_INTEGER_MODEL = (
    parse_formula_text(
        "(((2 * z + (2 * y + (1 * x + -3)) != 0 & (1 * z + (2 * y + (-2 * x + 3))) mod 4 = 2)"
        " & 2 * z + (2 * y + (-1 * x + 1)) = -2) & 2 * z + (1 * y + (1 * x + 1)) > 2)"
        " & (2 * z + (2 * y + (-2 * x + -3))) mod 4 = 0"
    ),
    parse_formula_text("-2 * y + (2 * x + 1) != -2 | 2 * z + (1 * x + 4) > -2"),
)


@pytest.mark.parametrize("rho, goal, reason", [
    (None, S.Cmp(S.Times(x, x), ">=", L(0)), "nonlinear term"),
    (*_too_many_branches(), "formula too large"),
    (*_too_many_systems(), "formula too large"),
    (None, _MODAL, "goal is not first-order"),
    (_MODAL, S.Cmp(y, "=", y), "hypothesis is not first-order"),
    # sequent 36 of `_rand_family(random.Random(1))` below: falsified at
    # x = 10, y = 23/2, z = -8, but the elimination's model fails (a
    # quotient variable has no integer between its bounds) and the point
    # lies outside the search's grid and its random draws
    (*_BEYOND_INTEGER_MODEL, "no certificate and no witness found"),
    # a quantifier on either side: no witness search at all
    (S.Forall("x", S.Cmp(x, "<", y)), S.Cmp(y, ">", L(0)),
     "quantified sequent: no certificate; witness search skipped"),
    (None, S.Exists("x", S.Cmp(x, ">", y)),
     "quantified sequent: no certificate; witness search skipped"),
    # a modal body under a quantifier that the negated sequent weakens
    (None, S.Exists("y", _MODAL), "goal is not first-order"),
    (S.Forall("y", _MODAL), S.Cmp(y, "=", y), "hypothesis is not first-order"),
    # the goal's reason wins
    (_MODAL, _MODAL, "goal is not first-order"),
])
def test_unknown_reasons(rho, goal, reason):
    res = oracle().decide(rho, goal)
    assert res.status == UNKNOWN and res.reason == reason


# -- counter-models from the elimination -------------------------------------


def _refuted_at(rho, goal):
    res = oracle().decide(rho, goal)
    assert res.status == REFUTED
    assert S.eval_fo(rho, res.witness) and not S.eval_fo(goal, res.witness)
    return res.witness


def test_model_beyond_the_grid():
    # falsified only where x > 20, beyond the search's grid
    w = _refuted_at(S.Cmp(y, ">", L(0)), S.Cmp(x, "<=", L(20)))
    assert w.get("x") == 21


def test_model_off_the_grid_on_a_line():
    # falseShare's leaf: every counter-model is non-integer with x + y = 1
    w = _refuted_at(parse_formula_text("x <= 1/2 & x + y = 1 & d = y"),
                    parse_formula_text("d >= 3/5"))
    assert w.get("x") + w.get("y") == 1 and w.get("x").denominator > 1


@pytest.mark.parametrize("hyp, c0", [("c mod 4 = 1", None), ("c mod 4 = 1 & c > 40", 41)])
def test_model_gives_quotients_integer_values(hyp, c0):
    w = _refuted_at(parse_formula_text(hyp), parse_formula_text("(c - 2) mod 4 = 0"))
    assert w.get("c").denominator == 1 and c0 in (None, w.get("c"))


def test_integer_gap_leaves_a_falsifiable_sequent_unknown():
    # the point named where test_unknown_reasons pins this sequent
    rho, goal = _BEYOND_INTEGER_MODEL
    point = S.State({"x": Fraction(10), "y": Fraction(23, 2), "z": Fraction(-8)})
    assert S.eval_fo(rho, point) and not S.eval_fo(goal, point)


def test_memo_is_bounded():
    o = oracle()
    for i in range(4100):
        o.decide(None, S.Cmp(L(i), "<=", L(i + 1)))
        assert len(o._memo) <= 4096
    assert o.decide(None, S.Cmp(L(0), "<=", L(1))).status == VALID


# sequent 43 of random.Random(4) in the search over linear and mod-4
# sequents (`_rand_atom` below, 3 to 6 hypotheses, a two-atom goal): with
# no cap on the rows a round of elimination builds, deciding it ran past
# 40 s; the cap ended it UNKNOWN until the tightening pass kept only the
# tightest row of each coefficient vector
_PAST_THE_CAP = (
    parse_formula_text(
        "((((2 * z + 4 != 2 & (-1 * z + (-1 * y + (1 * x + 2))) mod 4 != -1)"
        " & -2 * z + (2 * x + 1) <= 2) & -1 * z + (1 * y + (2 * x + 1)) > 1)"
        " & -1 * z + (2 * y + 4) <= 1) & -2 * z + (-1 * y + (-1 * x + 4)) = 0"
    ),
    parse_formula_text(
        "(2 * z + (-2 * y + (1 * x + -4))) mod 4 > 0"
        " | (-1 * z + (1 * y + (2 * x + 2))) mod 4 <= -1"
    ),
)


def test_elimination_row_cap_ends_unknown():
    # sequent 294 of `_rand_family(random.Random(3), 400)` below: a round
    # of elimination would still build more than 4,096 rows; capped, it
    # ends in about 0.15 s, so the generous bound below only catches a
    # runaway
    rho, goal = _rand_family(random.Random(3), 400)[294]
    t = time.perf_counter()
    res = oracle().decide(rho, goal)
    assert res.status == UNKNOWN and res.reason == "formula too large"
    assert time.perf_counter() - t < 30


def test_dominated_rows_keep_the_elimination_under_the_cap():
    _refuted_at(*_PAST_THE_CAP)


@pytest.mark.parametrize("seed, i", [(2, 44), (2, 224), (3, 73)])
def test_dominated_rows_keep_valid_answers(seed, i):
    # each of these ended "formula too large" when every row was kept
    rho, goal = _rand_family(random.Random(seed), 400)[i]
    assert oracle().decide(rho, goal).status == VALID


# -- VALID never has a falsifying grid point ---------------------------------


def _rand_linear(rng, names):
    t = S.lit(rng.randint(-4, 4))
    for v in names:
        c = rng.randint(-2, 2)
        if c:
            t = S.Plus(S.Times(L(c), S.Var(v)), t)
    return S.Mod(t, L(4)) if rng.random() < 0.3 else t


def _rand_atom(rng, names):
    return S.Cmp(_rand_linear(rng, names), rng.choice(S.REL_OPS), L(rng.randint(-2, 2)))


def test_valid_has_no_falsifying_grid_point():
    rng = random.Random(4)
    o = oracle()
    grid = [Fraction(i) for i in range(-4, 5)]
    valid = 0
    for _ in range(150):
        names = ["x", "y", "z"][: rng.randint(1, 3)]
        rho = _rand_atom(rng, names)
        for _ in range(rng.randint(0, 2)):
            rho = S.And(rho, _rand_atom(rng, names))
        goal = _rand_atom(rng, names)
        if rng.random() < 0.4:
            goal = S.Or(goal, _rand_atom(rng, names))
        if o.decide(rho, goal).status != VALID:
            continue
        valid += 1
        for point in itertools.product(grid, repeat=len(names)):
            st = S.State(dict(zip(names, point)))
            assert not S.eval_fo(rho, st) or S.eval_fo(goal, st), (
                f"oracle unsound: {rho!r} -> {goal!r} at {st!r}")
    assert valid >= 30


def _rand_family(rng, n):
    """n sequents over x, y, z: three to six `_rand_atom` hypotheses and a
    goal of two such atoms in a disjunction."""
    names = ["x", "y", "z"]
    out = []
    for _ in range(n):
        rho = _rand_atom(rng, names)
        for _ in range(rng.randint(2, 5)):
            rho = S.And(rho, _rand_atom(rng, names))
        out.append((rho, S.Or(_rand_atom(rng, names), _rand_atom(rng, names))))
    return out


def test_models_keep_every_valid_answer():
    o = oracle()
    valid, unknown = [], 0
    for i, (rho, goal) in enumerate(_rand_family(random.Random(1), 200)):
        res = o.decide(rho, goal)
        if res.status == VALID:
            valid.append(i)
        elif res.status == REFUTED:
            assert S.eval_fo(rho, res.witness) and not S.eval_fo(goal, res.witness)
        else:
            unknown += 1
    # the same VALID answers as the oracle that refuted by grid search
    # only; that oracle left 7 sequents UNKNOWN, this one leaves 4
    assert len(valid) == 109
    assert hashlib.sha256(repr(valid).encode()).hexdigest()[:16] == "a1d392319af16138"
    assert unknown <= 4


@pytest.mark.parametrize("seed, digest", [
    (1, "373eb37cafb963b2"), (2, "d9643c8be75285f3"),
    (3, "fb3bf74799335ede"), (4, "45a9f4f07378eebd"),
])
def test_family_answers_pinned(seed, digest):
    # status, reason and witness of each of the 400 sequents; skipping the
    # branches that hold an unsat core changes none of them
    o = oracle()
    answers = []
    for rho, goal in _rand_family(random.Random(seed), 400):
        res = o.decide(rho, goal)
        answers.append((res.status, res.reason, repr(res.witness)))
    assert hashlib.sha256(repr(answers).encode()).hexdigest()[:16] == digest


# -- unsat cores: a refuted set of literals retires every branch holding it --

# aNim's largest loop-step leaf (`nim.cgl`): the three cases of `g3 mod 4`
# in the hypothesis times the negated goal make 108 DNF branches
_NIM_STEP = (
    parse_formula_text(
        "(g3 > 0 & (g3 mod 4 = 0 | g3 mod 4 = 2 | g3 mod 4 = 3))"
        " & (M0 = (g3 - 2) div 4 & (g3 - 2) div 4 >= 1)"
        " & (!g3 mod 4 = 3 & tt) & (!g3 mod 4 = 2 & tt) & c = g3 - 3"
    ),
    parse_formula_text("(c > 0 & c mod 4 = 1) & (c - 2) div 4 + 1 <= M0"),
)


def test_cores_skip_branches(monkeypatch):
    rho, goal = _NIM_STEP
    branches = O._dnf(S.Implies(rho, goal), True, {}, None, [])
    eliminations = []
    unsat = O._unsat
    monkeypatch.setattr(O, "_unsat", lambda rows: eliminations.append(1) or unsat(rows))
    assert oracle().decide(rho, goal).status == VALID
    assert len(branches) == 108 and len(eliminations) < len(branches)


# valid, and refuted only through both halves of the integer equality,
# which Fourier-Motzkin splits when it eliminates `x div 2`
_SPLIT_EQUALITY = (parse_formula_text("x div 2 - y div 3 = 1 & x div 2 <= 0"),
                   parse_formula_text("y div 3 < 0"))


def test_cores_have_no_grid_point(monkeypatch, corpus):
    # every core learned here: the literals whose bits it holds
    cores = []
    branch_unsat = O._branch_unsat

    def recording(literals, lin, bits, expanded):
        res = branch_unsat(literals, lin, bits, expanded)
        if type(res) is int:
            cores.append([lit for lit in literals if bits[id(lit)] & res])
        return res

    monkeypatch.setattr(O, "_branch_unsat", recording)
    assert oracle().decide(*_SPLIT_EQUALITY).status == VALID
    for seed in (1, 2):
        o = oracle()
        for rho, goal in _rand_family(random.Random(seed), 400):
            o.decide(rho, goal)
    family = len(cores)
    for script in corpus.values():
        ck = Checker(oracle())
        for phi, m in script.theorems.values():
            assert ck.check_result(Context(), m, phi) is None
    assert family > 500 and len(cores) - family > 100
    for core in {repr(c): c for c in cores}.values():
        _assert_no_grid_point(core)


def _assert_no_grid_point(core):
    """No point of the grid -4..4 satisfies all the literals of the core."""
    conj = S.TRUE
    for rel, a, b in core:
        conj = S.And(conj, S.Cmp(a, rel, b))
    names = sorted(S.free_vars(conj))
    holds = S.compile_fo(conj)
    for point in itertools.product(range(-4, 5), repeat=len(names)):
        assert not holds(S.State.of(dict(zip(names, point)))), (core, point)


# -- expansion pin: the rows each literal becomes ----------------------------


def _certify_sequents(rng):
    """24 sequents shaped like a certify operation's: 12 valid ones over
    x, y, z, whose goal is a nonnegative combination of four hypotheses
    loosened by a constant, and 12 over x, y that fail at a planted
    integer point."""
    def lin(cs, names, k):
        t = L(k)
        for c, v in zip(cs, names):
            t = S.Plus(S.Times(L(c), S.Var(v)), t)
        return t

    out = []
    for names in (["x", "y", "z"], ["x", "y"]):
        for _ in range(12):
            hyps = [([rng.randint(-3, 3) for _ in names], rng.randint(-10, 10)) for _ in range(4)]
            if len(names) == 3:
                lam = [rng.randint(0, 3) for _ in hyps]
                goal = ([sum(l * h[0][j] for l, h in zip(lam, hyps)) for j in range(3)],
                        sum(l * h[1] for l, h in zip(lam, hyps)) + rng.randint(0, 2))
            else:
                goal = ([rng.randint(-3, 3) for _ in names], rng.randint(-10, 10))
            rho = S.TRUE
            for cs, k in hyps:
                rho = S.And(rho, S.Cmp(lin(cs, names, 0), "<=", L(k)))
            out.append((rho, S.Cmp(lin(goal[0], names, 0), "<=", L(goal[1]))))
    return out


def _expansions(monkeypatch, run):
    """repr of every `_expand` result that `run` makes the oracle compute,
    in order; the oracle builds one `_Linearizer` per query."""
    seen = []
    expand = O._expand

    def recording(lin, lit, bit):
        try:
            rows = expand(lin, lit, bit)
        except O._NonLinear:
            seen.append("nonlinear")
            raise
        seen.append(repr(rows))
        return rows

    monkeypatch.setattr(O, "_expand", recording)
    run()
    return seen


def _corpus_checks(corpus):
    for script in corpus.values():
        ck = Checker(oracle())
        for phi, m in script.theorems.values():
            ck.check_result(Context(), m, phi)


def _decide_all(sequents):
    o = oracle()
    for rho, goal in sequents:
        o.decide(rho, goal)


def _rand_pairs(n):
    tries = random.Random(99)
    from conftest import rand_formula
    return [(rand_formula(tries, 2), rand_formula(tries, 2)) for _ in range(n)]


@pytest.mark.parametrize("source, count, digest", [
    ("corpus", 352, "b93270485a25e1f1"),
    ("certify", 144, "3dedee42a0b47de3"),
    ("family", 5450, "b2f537ee3eb9b970"),
    ("random", 488, "83630c3866d5ec83"),
])
def test_expansions_pinned(monkeypatch, corpus, source, count, digest):
    # the rows of each literal, dict key order included: `_unsat`
    # substitutes the first rational variable of an equality in key order,
    # so reordered rows change models and witnesses; recorded while sums
    # were still `LinSum` objects
    run = {
        "corpus": lambda: _corpus_checks(corpus),
        "certify": lambda: _decide_all(_certify_sequents(random.Random(301))),
        "family": lambda: [_decide_all(_rand_family(random.Random(s), 400)) for s in (1, 2)],
        "random": lambda: _decide_all(_rand_pairs(300)),
    }[source]
    seen = _expansions(monkeypatch, run)
    assert (len(seen), hashlib.sha256(repr(seen).encode()).hexdigest()[:16]) == (count, digest)


# -- DNF pin: the branches each decided sequent becomes ----------------------


def _branches(rho, goal):
    """Every DNF branch of the negated sequent, in order, each literal
    printed; None when a side is not first-order, "too large" past the cap."""
    counter = itertools.count()
    if not all(O._first_order(p) for p in (rho, goal) if p is not None):
        return None
    sequent = goal if rho is None else S.Implies(rho, goal)
    try:
        branches = O._dnf(sequent, True, {}, lambda v: f"{v}?{next(counter)}", [])
    except O._TooBig:
        return "too large"
    return [[(rel, print_term(a), print_term(b)) for rel, a, b in br] for br in branches]


@pytest.mark.parametrize("source, count, digest", [
    ("corpus", 62, "041edd92a6f4a75a"),
    ("certify", 24, "8d5ec40a9abdf470"),
    ("family", 800, "1d3175acba1d7bf9"),
    ("random", 300, "c25fca992d9de9aa"),
])
def test_dnf_branches_pinned(monkeypatch, corpus, source, count, digest):
    # the full branch list of every sequent the sources of
    # `test_expansions_pinned` decide, skipped branches included: branch
    # order decides which cores are learned first and which model is found
    seen = []
    decide = ArithOracle.decide

    def recording(self, rho, goal):
        seen.append(_branches(rho, goal))
        return decide(self, rho, goal)

    monkeypatch.setattr(ArithOracle, "decide", recording)
    {
        "corpus": lambda: _corpus_checks(corpus),
        "certify": lambda: _decide_all(_certify_sequents(random.Random(301))),
        "family": lambda: [_decide_all(_rand_family(random.Random(s), 400)) for s in (1, 2)],
        "random": lambda: _decide_all(_rand_pairs(300)),
    }[source]()
    assert (len(seen), hashlib.sha256(repr(seen).encode()).hexdigest()[:16]) == (count, digest)


# -- equalities first: a round substitutes every equality it can -------------


def _unsat_one_per_round(rows):
    """The elimination loop `_unsat` replaced, kept as a reference: each
    round runs the whole tightening pass, then substitutes one equality or
    eliminates one variable by Fourier-Motzkin."""
    work, eliminated = rows, []
    for _round in range(200):
        nxt = {}
        for op, co, k, m in work:
            if not co:
                if k > 0 if op == "<=" else k >= 0 if op == "<" else k != 0:
                    return m
                continue
            for v in co:
                if v[0] != "q":
                    break
            else:
                g = math.gcd(*co.values())
                if op == "=":
                    if k % g:
                        return m
                    k //= g
                else:
                    k = -(-k // g) if op == "<=" else k // g + 1
                    op = "<="
                if g > 1:
                    co = {v: c // g for v, c in co.items()}
            key = (op == "=", frozenset(co.items()))
            old = nxt.get(key)
            if old is None or op != "=" and (k > old[2] or k == old[2] and op == "<"):
                nxt[key] = (op, co, k, m)
            elif op == "=" and k != old[2]:
                return m | old[3]
        work = list(nxt.values())
        if not work:
            return O._back_substitute(eliminated)
        for i, (op, co, k, m) in enumerate(work):
            v = next((u for u in co if not O._is_int(u)), None) if op == "=" else None
            if v is None:
                continue
            c = co[v]
            eliminated.append((v, [work[i]]))
            new_work = []
            for j, (op2, co2, k2, m2) in enumerate(work):
                if j == i:
                    continue
                cv = co2.get(v)
                if cv is not None:
                    co2, k2 = O._comb(co2, k2, abs(c), co, k, -cv if c > 0 else cv, v)
                    m2 |= m
                new_work.append((op2, co2, k2, m2))
            work = new_work
            break
        else:
            v = min({u for _, co, _, _ in work for u in co}, key=lambda u: (O._is_int(u), str(u)))
            uppers, lowers, new_work, eqs = [], [], [], []
            for row in work:
                c = row[1].get(v)
                if c is None:
                    new_work.append(row)
                elif row[0] == "=":
                    eqs.append(row)
                else:
                    (uppers if c > 0 else lowers).append(row)
            eliminated.append((v, eqs + uppers + lowers))
            for _, co, k, m in eqs:
                pos, neg = ("<=", co, k, m), ("<=", {u: -w for u, w in co.items()}, -k, m)
                uppers.append(pos if co[v] > 0 else neg)
                lowers.append(neg if co[v] > 0 else pos)
            if len(new_work) + len(uppers) * len(lowers) > O._BRANCH_CAP:
                raise O._TooBig()
            for opu, cou, ku, mu in uppers:
                cu = cou[v]
                for opl, col, kl, ml in lowers:
                    cl = -col[v]
                    g = math.gcd(cu, cl)
                    co, k = O._comb(col, kl, cu // g, cou, ku, cl // g, v)
                    new_work.append(("<" if "<" in (opu, opl) else "<=", co, k, mu | ml))
            work = new_work
    return None


def _verdict(unsat, rows):
    """("core", mask), ("model", its items in key order), ("none", None)
    or ("too large", None)."""
    try:
        res = unsat(rows)
    except O._TooBig:
        return "too large", None
    if type(res) is int:
        return "core", res
    return ("none", None) if res is None else ("model", list(res.items()))


def test_batched_substitution_matches_one_per_round(monkeypatch, corpus):
    # every system the certify sequents, two families and the corpus
    # checks send to `_unsat`, with the branch it came from
    branches, unsat, branch_unsat = [], O._unsat, O._branch_unsat

    def recording(literals, lin, bits, expanded):
        branches.append((literals, bits, []))
        return branch_unsat(literals, lin, bits, expanded)

    monkeypatch.setattr(O, "_branch_unsat", recording)
    monkeypatch.setattr(O, "_unsat", lambda rows: branches[-1][2].append(rows) or unsat(rows))
    _decide_all(_certify_sequents(random.Random(301)))
    for seed in (1, 2):
        _decide_all(_rand_family(random.Random(seed), 400))
    _corpus_checks(corpus)

    kinds, systems, differ = {}, 0, 0
    for literals, bits, rows_list in branches:
        new_core = old_core = 0
        for rows in rows_list:
            new, old = _verdict(unsat, rows), _verdict(_unsat_one_per_round, rows)
            assert new[0] == old[0] and (new[0] == "core" or new == old), (rows, new, old)
            kinds[new[0]] = kinds.get(new[0], 0) + 1
            systems += 1
            if new[0] == "core":
                new_core, old_core = new_core | new[1], old_core | old[1]
        if new_core != old_core:
            # a batch may meet another contradiction first: still a core
            differ += 1
            _assert_no_grid_point([lit for lit in literals if bits[id(lit)] & new_core])
    assert systems > 1000 and all(kinds.get(k) for k in ("core", "model", "none", "too large"))


# how many tightening passes a decision runs: one per round, and a round
# substitutes all of its equalities before the next pass
@pytest.mark.parametrize("sequent, passes", [(_NIM_STEP, 20), (_SPLIT_EQUALITY, 6)])
def test_substitutions_share_a_tightening_pass(monkeypatch, sequent, passes):
    seen = []
    tighten = O._tighten
    monkeypatch.setattr(O, "_tighten", lambda rows: seen.append(1) or tighten(rows))
    assert oracle().decide(*sequent).status == VALID
    assert len(seen) == passes
