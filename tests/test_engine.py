"""Gameplay interpreter: single plays, oracles, exhaustive verification,
and the trace-level semantic properties."""

import copy
import gc
import hashlib
import json
import time
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from cgl import engine as E
from cgl import realizer as R
from cgl import syntax as S
from cgl.checker import elaborate
from cgl.cli import corpus_path
from cgl.engine import (
    ACTIVE, DORMANT, DemonMenu, Finished, AngelViolation, DemonViolation,
    RandomDemon, ScriptedDemon, Tracer, close, modal_core, play,
    strip_assumptions, verify_exhaustive,
)
from cgl.extraction import extract
from cgl.oracle import ArithOracle
from cgl.parser import parse_script
from cgl.proofterms import Context
from cgl.rational import parse_rational
from cgl.syntax import State
from conftest import rand_game, rand_rational, rand_state

L = S.lit
x, y, c = S.Var("x"), S.Var("y"), S.Var("c")


def test_failed_active_test_loses():
    out = play(S.Test(S.Cmp(L(0), ">", L(1))), ACTIVE, close(R.Pair(R.Unit(), R.Unit())),
               State(), ScriptedDemon([]))
    assert isinstance(out, AngelViolation)


def test_demon_value_then_sign_flip():
    # adversary announces x, the strategy negates it when negative
    game = S.Seq(S.Dual(S.AssignAny("x")), S.Choice(S.Assign("x", x), S.Assign("x", S.Neg(x))))
    rz = R.NumLamR(
        "v",
        R.IfTerm(S.Cmp(x, "<", L(0)), R.Pair(R.TermVal(L(1)), R.Unit()),
                 R.Pair(R.TermVal(L(0)), R.Unit())),
    )
    out = play(game, ACTIVE, close(rz), State(), ScriptedDemon(["-5"]))
    assert isinstance(out, Finished)
    assert out.state.get("x") == 5


def test_active_loop_counts_to_four():
    # repeat x := x+1 until x > y, from x=0, y=3
    game = S.Repeat(S.Assign("x", S.Plus(x, L(1))))
    rz = R.Ind(
        "w",
        R.IfTerm(S.Cmp(x, ">", y), R.Pair(R.TermVal(L(0)), R.Unit()),
                 R.Pair(R.TermVal(L(1)), R.RVar("w"))),
    )
    out = play(game, ACTIVE, close(rz), State({"x": 0, "y": 3}), ScriptedDemon([]))
    assert isinstance(out, Finished)
    assert out.state.get("x") == 4


def test_role_duality():
    g = S.Choice(S.Assign("x", L(1)), S.Assign("x", L(2)))
    rz = R.Pair(R.Unit(), R.Unit())
    out1 = play(S.Dual(g), ACTIVE, close(rz), State(), ScriptedDemon(["L"]))
    out2 = play(g, DORMANT, close(rz), State(), ScriptedDemon(["L"]))
    assert out1.state == out2.state


def test_demon_concede_is_angel_win():
    out = play(S.Test(S.Cmp(L(1), ">", L(0))), DORMANT, close(R.ProofLam("t", S.TRUE, R.Unit())),
               State(), ScriptedDemon(["concede"]))
    assert isinstance(out, DemonViolation)


def test_demon_false_assert_is_angel_win():
    out = play(S.Test(S.Cmp(L(0), ">", L(1))), DORMANT, close(R.ProofLam("t", S.TRUE, R.Unit())),
               State(), ScriptedDemon(["assert"]))
    assert isinstance(out, DemonViolation)


def test_scripted_determinism():
    game = S.Seq(S.Dual(S.AssignAny("x")), S.Choice(S.Assign("y", x), S.Assign("y", S.Neg(x))))
    rz = R.NumLamR("v", R.Pair(R.TermVal(L(0)), R.Unit()))
    outs = [
        play(game, ACTIVE, close(rz), State(), ScriptedDemon(["7/2"]))
        for _ in range(3)
    ]
    assert all(isinstance(o, Finished) and o.state == outs[0].state for o in outs)


def test_trace_format():
    tr = Tracer()
    game = S.Seq(S.Assign("x", L(5)), S.Test(S.Cmp(x, ">", L(0))))
    play(game, ACTIVE, close(R.Pair(R.Unit(), R.Unit())), State(), ScriptedDemon([]), tracer=tr)
    assert tr.events[0] == "assign x 5"
    assert tr.events[1] == "angel-test (x > 0) pass"


# -- suitable-realizer generator for the trace-level lemmas -----------------------


def suitable(rng, game, role):
    """A structurally suitable random realizer for (game, role)."""
    match game:
        case S.Test(_):
            if role == ACTIVE:
                return R.Pair(R.Unit(), R.Unit())
            return R.ProofLam("t", S.TRUE, R.Unit())
        case S.Assign(_, _):
            return R.Unit()
        case S.AssignAny(v):
            if role == ACTIVE:
                return R.Pair(R.TermVal(S.Lit(rand_rational(rng))), R.Unit())
            return R.NumLamR("n", R.Unit())
        case S.Choice(a, b):
            if role == ACTIVE:
                pick = rng.random() < 0.5
                return R.Pair(
                    R.TermVal(L(0 if pick else 1)),
                    suitable(rng, a if pick else b, role),
                )
            return R.Pair(suitable(rng, a, role), suitable(rng, b, role))
        case S.Seq(a, b):
            return _graft(rng, game, role)
        case S.Repeat(a):
            if role == ACTIVE:
                k = rng.randrange(3)
                out = R.Pair(R.TermVal(L(0)), R.Unit())
                for _ in range(k):
                    out = R.Pair(R.TermVal(L(1)), _seq_rz(rng, a, role, out))
                return out
            return R.Gen(R.Unit(), "v", _seq_rz(rng, a, role, R.Unit()), R.Unit(), a)
        case S.Dual(a):
            return suitable(rng, a, E.flip(role))
    raise AssertionError(game)


def _graft(rng, game, role):
    return _seq_rz(rng, game.left, role, suitable(rng, game.right, role))


def _seq_rz(rng, game, role, cont):
    """Realizer for `game` whose residual is `cont`."""
    match game:
        case S.Test(_):
            if role == ACTIVE:
                return R.Pair(R.Unit(), cont)
            return R.ProofLam("t", S.TRUE, cont)
        case S.Assign(_, _):
            return cont
        case S.AssignAny(v):
            if role == ACTIVE:
                return R.Pair(R.TermVal(S.Lit(rand_rational(rng))), cont)
            return R.NumLamR("n", cont)
        case S.Choice(a, b):
            if role == ACTIVE:
                pick = rng.random() < 0.5
                return R.Pair(
                    R.TermVal(L(0 if pick else 1)),
                    _seq_rz(rng, a if pick else b, role, cont),
                )
            return R.Pair(_seq_rz(rng, a, role, cont), _seq_rz(rng, b, role, cont))
        case S.Seq(a, b):
            return _seq_rz(rng, a, role, _seq_rz(rng, b, role, cont))
        case S.Repeat(a):
            if role == ACTIVE:
                out = R.Pair(R.TermVal(L(0)), cont)
                for _ in range(rng.randrange(3)):
                    out = R.Pair(R.TermVal(L(1)), _seq_rz(rng, a, role, out))
                return out
            return R.Gen(R.Unit(), "v", _seq_rz(rng, a, role, R.Unit()), cont, a)
        case S.Dual(a):
            return _seq_rz(rng, a, E.flip(role), cont)
    raise AssertionError(game)


def _demon_script(rng, n=64):
    # a pool of decisions consumed as needed; uniform across runs
    out = []
    for _ in range(n):
        out.append(rng.choice(["L", "R"]))
        out.append(str(rand_rational(rng)))
        out.append("assert")
        out.append(rng.choice(["continue", "stop", "stop"]))
    return out


class PooledDemon(E.DemonOracle):
    """Draws branch/value/test/repeat decisions from independent pools, so
    two runs over coincident games consume decisions identically."""

    def __init__(self, script):
        self.branches = [s for s in script if s in ("L", "R")]
        self.values = [s for s in script if "/" in s or s.lstrip("-").isdigit()]
        self.repeats = [s for s in script if s in ("continue", "stop")]
        self.bi = self.vi = self.ri = 0

    def choose_branch(self, game, state):
        self.bi += 1
        return self.branches[(self.bi - 1) % len(self.branches)]

    def choose_value(self, var, state):
        self.vi += 1
        from cgl.rational import parse_rational

        return parse_rational(self.values[(self.vi - 1) % len(self.values)])

    def assert_test(self, phi, state):
        try:
            return "assert" if S.eval_fo(phi, state) else "concede"
        except TypeError:
            return "concede"

    def continue_repeat(self, state, iteration):
        if iteration > 8:
            return False
        self.ri += 1
        return self.repeats[(self.ri - 1) % len(self.repeats)] == "continue"


def test_bound_effect_random(rng):
    # final states agree with initial states outside the bound variables
    done = 0
    while done < 250:
        game = rand_game(rng, 3)
        role = rng.choice([ACTIVE, DORMANT])
        rz = suitable(rng, game, role)
        st = rand_state(rng)
        out = play(game, role, close(rz), st, PooledDemon(_demon_script(rng)), fuel=20000)
        if not isinstance(out, Finished):
            continue
        done += 1
        outside = (st.vars() | out.state.vars()) - S.bound_vars(game)
        assert out.state.agrees_with(st, outside), (game, st, out.state)


def test_coincidence_random(rng):
    # runs from states agreeing on the free variables, with the same
    # realizer and demon script, agree on must-bound + shared variables
    done = 0
    while done < 250:
        game = rand_game(rng, 3)
        role = rng.choice([ACTIVE, DORMANT])
        rz = suitable(rng, game, role)
        fv = S.free_vars(game)
        st1 = rand_state(rng)
        st2 = rand_state(rng)
        for v in fv:
            st2 = st2.set(v, st1.get(v))
        script = _demon_script(rng)
        out1 = play(game, role, close(rz), st1, PooledDemon(script), fuel=20000)
        out2 = play(game, role, close(rz), st2, PooledDemon(script), fuel=20000)
        if not (isinstance(out1, Finished) and isinstance(out2, Finished)):
            assert type(out1) is type(out2), (game, st1, st2)
            continue
        done += 1
        agree_on = S.must_bound_vars(game) | fv
        assert out1.state.agrees_with(out2.state, agree_on), (game, st1, st2)


def test_verify_counterexample_has_trace():
    game = S.Seq(S.Dual(S.AssignAny("x")), S.Test(S.Cmp(x, ">", L(0))))
    rz = R.NumLamR("n", R.Pair(R.Unit(), R.Unit()))
    menu = DemonMenu(values={"x": ["1", "-1"]}, repeat_depth=4)
    cex = verify_exhaustive(game, ACTIVE, close(rz), [State()], S.TRUE, menu)
    assert cex is not None
    assert any("demon-value x -1" in t for t in cex.trace)
    assert len(cex.trace) <= 40
    # an empty value list offers Demon no move: no line may pass vacuously
    with pytest.raises(E.NoMenuValues):
        verify_exhaustive(game, ACTIVE, close(rz), [State()], S.TRUE, DemonMenu({"x": []}, 4))


def test_fuel_exhaustion_reported():
    game = S.Repeat(S.Assign("x", S.Plus(x, L(1))))
    rz = R.Ind("w", R.Pair(R.TermVal(L(1)), R.RVar("w")))  # never stops
    out = play(game, ACTIVE, close(rz), State(), ScriptedDemon([]), fuel=500)
    assert isinstance(out, E.FuelOut)


def test_corrupted_nim_strategy_yields_counterexample(all_theorems):
    # negate the mirroring decision tree: the strategy answers the wrong
    # residue class and a short demon line defeats it
    import dataclasses

    from cgl import realizer as R
    from cgl.extraction import extract
    from cgl.engine import modal_core, strip_assumptions

    phi, proof = all_theorems["dNim"]
    rz = extract(proof, phi, checked=True)

    def flip(r):
        if isinstance(r, R.IfTerm):
            return R.IfTerm(r.cond, flip(r.els), flip(r.then))
        updates = {}
        for f in dataclasses.fields(type(r)):
            v = getattr(r, f.name)
            if isinstance(v, R.Realizer):
                updates[f.name] = flip(v)
        if not updates:
            return r
        vals = {f.name: getattr(r, f.name) for f in dataclasses.fields(type(r))}
        vals.update(updates)
        return type(r)(**vals)

    st = State({"c": 9})
    stripped = strip_assumptions(phi, close(flip(rz)), st)
    game, role, post = modal_core(phi)
    menu = DemonMenu(values={}, repeat_depth=6)
    cex = verify_exhaustive(game, role, stripped[1], [st], post, menu)
    assert cex is not None
    assert len(cex.trace) <= 40
    # recorded before play and verify shared one machine
    assert _cex_record(cex) == ("State(c=9)", "Finished", "State(c=7)", (
        "demon-loop continue@0", "demon-branch L", "demon-loop stop@1"))


# -- exhaustive verification with the transposition table ----------------------

MOD4_IS_1 = S.Cmp(S.Mod(c, L(4)), "=", L(1))
POST_A = S.Or(S.Cmp(c, "=", L(2)), S.Or(S.Cmp(c, "=", L(3)), S.Cmp(c, "=", L(4))))


def _nim(all_theorems, name, c0):
    phi, proof = all_theorems[name]
    st = State({"c": c0})
    game, role, _ = modal_core(phi)
    return game, role, strip_assumptions(phi, close(extract(proof, phi, checked=True)), st)[1], st


@pytest.mark.parametrize("name,c0,post,depth,req", [
    ("dNim", 401, MOD4_IS_1, 100, False),  # about 3^100 lines unmemoized
    ("aNim", 402, POST_A, 12, True),
])
def test_verify_nim_scales_to_hundreds(all_theorems, name, c0, post, depth, req):
    game, role, cl, st = _nim(all_theorems, name, c0)
    t0 = time.monotonic()
    cex = verify_exhaustive(game, role, cl, [st], post, DemonMenu({}, depth),
                            require_finished=req)
    dt = time.monotonic() - t0
    assert cex is None
    assert dt < 1.0, f"{name} from c={c0} took {dt:.2f}s"


@pytest.mark.parametrize("post", [MOD4_IS_1, S.And(MOD4_IS_1, S.Cmp(c, ">", L(9)))])
def test_verify_ignores_the_form_of_integral_values(all_theorems, post):
    game, role, cl, _ = _nim(all_theorems, "dNim", 29)
    answers = []
    for st in (State({"c": 29}), State.of({"c": Fraction(29)})):
        cex = verify_exhaustive(game, role, cl, [st], post, DemonMenu({}, 12))
        answers.append(cex and (cex.state, type(cex.outcome), cex.outcome.state, cex.trace))
    assert answers[0] == answers[1]
    assert (answers[0] is None) == (post is MOD4_IS_1)


def _line(*moves):
    """The trail of a dNim line whose adversary always takes 1."""
    trail = []
    for i, move in enumerate(moves):
        trail.append(f"demon-loop {move}@{i}")
        if move == "continue":
            trail.append("demon-branch L")
    return tuple(trail)


# Counterexamples recorded with the explorer that replayed every line in
# full; the transposition table must report them unchanged.
def test_pinned_counterexamples(all_theorems):
    game, role, cl, st = _nim(all_theorems, "dNim", 29)
    menu = DemonMenu({}, 12)

    cex = verify_exhaustive(game, role, cl, [st], S.And(MOD4_IS_1, S.Cmp(c, ">", L(9))), menu)
    assert (cex.state, type(cex.outcome), cex.outcome.state) == (st, Finished, State({"c": 9}))
    assert cex.trace == _line(*["continue"] * 5, "stop")

    cex = verify_exhaustive(game, role, cl, [st], S.TRUE, menu, require_finished=True)
    assert (type(cex.outcome), cex.outcome.state) == (DemonViolation, State({"c": 0}))
    assert cex.trace == _line(*["continue"] * 8)[:-1] + ("demon-branch L", "demon-test concede")

    # both branches play the same loop: the right one replays the left one's
    # loop heads, and its continuation loses
    both = E.Closure(R.Pair(R.RVar("k"), R.RVar("k")), {"k": cl})
    fork = S.Choice(S.Seq(game, S.Assign("x", L(1))), S.Seq(game, S.Assign("x", L(2))))
    for bound, moves in ((9, 5), (20, 3)):
        post = S.Or(S.Cmp(x, "=", L(1)), S.Cmp(c, ">", L(bound)))
        cex = verify_exhaustive(fork, DORMANT, both, [st], post, menu)
        assert (type(cex.outcome), repr(cex.outcome.state)) == (
            Finished, f"State(c={29 - 4 * moves}, x=2)")
        assert cex.trace == ("demon-branch R",) + _line(*["continue"] * moves, "stop")

    game, role, cl, st = _nim(all_theorems, "aNim", 31)
    post = S.Or(S.Cmp(c, "=", L(3)), S.Cmp(c, "=", L(4)))
    cex = verify_exhaustive(game, role, cl, [st], post, menu, require_finished=True)
    assert (type(cex.outcome), cex.outcome.state) == (Finished, State({"c": 2}))
    assert cex.trace == ("demon-branch L",) * 6 + ("demon-branch R",) * 2


def test_table_keys_see_environment_residual_and_iteration():
    # Each case differs from a position explored earlier only in what one
    # part of the key covers; results recorded without the table.
    n = S.Var("n")
    count_past_n = R.NumLamR("y", R.AppNum(R.NumLamR("n", R.Pair(R.Unit(), R.Ind("w", R.IfTerm(
        S.Cmp(x, ">", n), R.Pair(R.TermVal(L(0)), R.Unit()),
        R.Pair(R.TermVal(L(1)), R.RVar("w")))))), S.Var("y")))
    # the loop head differs only in the number n, let-bound to the demon's
    # value of y before y is reset
    game = S.Seq(S.Dual(S.AssignAny("y")), S.Seq(S.Test(S.TRUE), S.Seq(
        S.Assign("y", L(0)), S.Repeat(S.Assign("x", S.Plus(x, L(1)))))))
    cex = verify_exhaustive(game, ACTIVE, close(count_past_n), [State()],
                            S.Cmp(x, "<", L(3)), DemonMenu({"y": ["0", "5"]}, 2))
    assert (cex.outcome.state, cex.trace) == (State({"x": 6, "y": 0}), ("demon-value y 5",))

    # outcomes differ only in the residual, which a later choice reads
    def ev(k):
        return R.Pair(R.TermVal(L(k)), R.Unit())

    body = S.Choice(S.Test(S.TRUE), S.Test(S.TRUE))
    step = R.Pair(R.ProofLam("t", S.TRUE, ev(0)), R.ProofLam("t", S.TRUE, ev(1)))
    game = S.Seq(S.Repeat(body), S.Dual(S.Choice(S.Assign("x", L(1)), S.Assign("x", L(2)))))
    cex = verify_exhaustive(game, DORMANT, close(R.Gen(ev(0), "v", step, R.RVar("v"), body)),
                            [State()], S.Cmp(x, "=", L(1)), DemonMenu({}, 2))
    assert cex.outcome.state == State({"x": 2})
    assert cex.trace == ("demon-loop continue@0", "demon-branch L", "demon-loop continue@1",
                         "demon-branch R", "demon-loop stop@2")

    # a state recurs at a later iteration, where fewer repetitions remain
    body = S.Choice(S.Assign("x", x), S.Assign("x", S.Plus(x, L(1))))
    gen = R.Gen(R.Unit(), "v", R.Pair(R.Unit(), R.Unit()), R.Unit(), body)
    cex = verify_exhaustive(S.Repeat(body), DORMANT, close(gen), [State()],
                            S.Cmp(x, "<", L(2)), DemonMenu({}, 3))
    assert cex.outcome.state == State({"x": 2})
    assert cex.trace == ("demon-loop continue@0", "demon-branch L", "demon-loop continue@1",
                         "demon-branch R", "demon-loop continue@2", "demon-branch R",
                         "demon-loop stop@3")


class TrailDemon(E.DemonOracle):
    """Replays a verify counterexample's trail; asserts a test iff it
    holds, as the explorer's adversary does."""

    def __init__(self, trail):
        self.trail = [t.split(" ") for t in trail]

    def _next(self, kind):
        words = self.trail.pop(0)
        assert words[0] == kind, (words, kind)
        return words[1:]

    def choose_branch(self, game, state):
        return self._next("demon-branch")[0]

    def choose_value(self, var, state):
        return parse_rational(self._next("demon-value")[1])

    def assert_test(self, phi, state):
        if S.eval_fo(phi, state):
            return "assert"
        self._next("demon-test")
        return "concede"

    def continue_repeat(self, state, iteration):
        move, at = self._next("demon-loop")[0].split("@")
        assert at == str(iteration)
        return move == "continue"


def test_counterexample_trails_replay_as_plays(rng):
    # random games with loops: the trail of every counterexample, replayed
    # or explored, plays back to the reported outcome
    menu = DemonMenu({v: ["1", "-1/2"] for v in ("x", "y", "z", "c")}, 3)
    replayed = 0
    for _ in range(400):
        game = S.Repeat(rand_game(rng, 2)) if rng.random() < 0.5 else rand_game(rng, 3)
        role = rng.choice([ACTIVE, DORMANT])
        rz = suitable(rng, game, role)
        st = rand_state(rng)
        post = S.Cmp(rng.choice((x, y, c)), rng.choice(S.REL_OPS), S.Lit(rand_rational(rng)))
        try:
            cex = verify_exhaustive(game, role, close(rz), [st], post, menu,
                                    fuel=20_000, require_finished=rng.random() < 0.3)
        except E.IllStructuredRealizer:
            continue
        if cex is None or isinstance(cex.outcome, E.FuelOut):
            continue
        demon = TrailDemon(cex.trace)
        out = play(game, role, close(rz), st, demon, fuel=20_000)
        assert (type(out), out.state) == (type(cex.outcome), cex.outcome.state), game
        assert demon.trail == ([["angel-test", "fail"]] if type(out) is AngelViolation else [])
        replayed += 1
    assert replayed >= 100


def test_table_replays_outcomes_and_errors_without_fuel(all_theorems):
    # a second visit of explored loop heads replays their outcomes and
    # trails and spends no fuel on them
    game, role, cl, st = _nim(all_theorems, "dNim", 29)
    memo, menu = E._Transpositions(), DemonMenu({}, 12)

    def lines():
        budget = E.Budget(10**6)
        outs = [(type(o), o.state, E._trail(path))
                for o, path in E._lines(game, role, cl, st, menu, budget, None, memo)]
        return outs, 10**6 - budget.left

    first, spent = lines()
    again, respent = lines()
    assert again == first and len(first) == 11 and spent > 500
    assert respent == 1  # the Repeat node itself; its loop head is replayed

    # an error inside a loop head's subtree ends the call after the
    # outcomes before it, and the unfinished head records nothing
    body = S.AssignAny("y")
    gen = R.Gen(R.Unit(), "v", R.NumLamR("n", R.Unit()), R.Unit(), body)
    memo = E._Transpositions()
    outs = E._lines(S.Repeat(body), DORMANT, close(gen), State(), DemonMenu({}, 2),
                    E.Budget(100), None, memo)
    out, path = next(outs)
    assert type(out) is Finished and E._trail(path) == ("demon-loop stop@0",)
    with pytest.raises(E.NoMenuValues):
        next(outs)
    assert memo.entries == {}


def test_untraced_play_formats_nothing(monkeypatch):
    def refuse(*_args):
        raise AssertionError("formatted an event without a tracer")

    monkeypatch.setattr(E, "print_formula", refuse)
    monkeypatch.setattr(E, "format_rational", refuse)
    game = S.Seq(S.Dual(S.AssignAny("x")), S.Seq(S.Assign("y", x), S.Test(S.Cmp(y, "=", x))))
    rz = R.NumLamR("n", R.Pair(R.Unit(), R.Unit()))
    out = play(game, ACTIVE, close(rz), State(), ScriptedDemon(["3/2"]))
    assert isinstance(out, Finished) and out.state.get("y") == Fraction(3, 2)


CUTS = [str(Fraction(k, 7)) for k in range(-3, 11)]  # 8 of the 14 cut the cake


def _dcake(all_theorems):
    phi, proof = all_theorems["dCake"]
    game, role, post = modal_core(phi)
    return game, role, close(extract(proof, phi, checked=True)), post


def test_verify_evaluates_each_demon_test_once(all_theorems, monkeypatch):
    game, role, cl, post = _dcake(all_theorems)
    calls = []

    def counted(phi, state):
        calls.append(phi)
        return holds(phi, state)

    holds = E._holds
    monkeypatch.setattr(E, "_holds", counted)
    assert verify_exhaustive(game, role, cl, [State()], post, DemonMenu({"x": CUTS})) is None
    assert len(calls) == len(CUTS)  # one test per cut

    # a scripted adversary's false assertion is still caught, and its
    # concession is taken without evaluating the test
    for move, outcome, evaluated in (("assert", "false-assert", 1), ("concede", "concede", 0)):
        calls.clear()
        tr = Tracer()
        out = play(game, role, cl, State(), ScriptedDemon(["2", move]), tracer=tr)
        assert isinstance(out, DemonViolation) and len(calls) == evaluated
        assert tr.events[-1] == f"demon-test (0 <= x & x <= 1) {outcome}"


def test_random_demon_tests_are_evaluated_once(all_theorems, monkeypatch):
    # the pipeline of `cgl play nim.cgl --theorem dNim --state c=4001
    # --demon random:3`: the seeded adversary leaves its tests to the
    # machine, which evaluates each one once (4 Demon tests, 4 calls)
    phi, proof = all_theorems["dNim"]
    st = State({"c": 4001})
    core, cl = strip_assumptions(phi, close(extract(proof, phi)), st)
    game, role, _ = modal_core(core)
    calls = []

    def counted(ins, state):  # ins: a test instruction, which carries its formula
        calls.append(ins[2])
        return holds(ins, state)

    holds = E._holds
    monkeypatch.setattr(E, "_holds", counted)
    tr = Tracer()
    play(game, role, cl, st, RandomDemon(3), tracer=tr)
    tests = [e for e in tr.raw if type(e) is tuple and e[0].endswith("-test")]
    demon = [e for e in tests if e[0] == "demon-test"]
    assert len(demon) == 4 and all(e[2] == "assert" for e in demon)
    test = tests[0][1]  # Nim's one `?c > 0`, played by both sides
    assert all(e[1] is test for e in tests)
    assert sum(f is test for f in calls) == len(tests)


def test_menu_values_are_parsed_once(monkeypatch):
    # Demon picks x in every round of a loop it may run 3 times; each
    # listed value is parsed at the first pick and reused after
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse_rational(text)

    monkeypatch.setattr(E, "parse_rational", counted)
    body = S.Seq(S.AssignAny("x"), S.Assign("y", S.Plus(y, x)))
    gen = R.Gen(R.Unit(), "v", R.NumLamR("n", R.Unit()), R.Unit(), body)
    menu = DemonMenu({"x": ["1", "-1/2", "3"]}, 3)
    cex = verify_exhaustive(S.Repeat(body), DORMANT, close(gen), [State({"y": 0})],
                            S.Cmp(y, "<", L(9)), menu)
    assert sorted(parsed) == sorted(menu.values["x"])
    assert menu == DemonMenu({"x": ["1", "-1/2", "3"]}, 3)
    assert menu._parsed == {}  # the verify parsed into its own copy
    assert _cex_record(cex) == (
        "State(y=0)", "Finished", "State(x=3, y=9)",
        ("demon-loop continue@0", "demon-value x 3", "demon-loop continue@1",
         "demon-value x 3", "demon-loop continue@2", "demon-value x 3", "demon-loop stop@3"),
    )


def test_menu_values_enter_canonical(monkeypatch):
    # an int or a Fraction is taken as it is; a string or a JSON float is
    # parsed from its text, with the same values and errors as ever
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse_rational(text)

    monkeypatch.setattr(E, "parse_rational", counted)
    opts = DemonMenu({"x": [3, Fraction(4, 2), "1/3", 0.5]}).value_options("x", State())
    assert [(type(v), v) for v in opts] == [
        (int, 3), (int, 2), (Fraction, Fraction(1, 3)), (Fraction, Fraction(1, 2))]
    assert parsed == ["1/3", "0.5"]
    for bad, error in (("abc", ValueError), ("1/0", ZeroDivisionError), (True, ValueError)):
        with pytest.raises(error):
            DemonMenu({"x": [bad]}).value_options("x", State())


def test_conditions_that_are_not_first_order_fail_where_they_are_evaluated():
    # a game test or a postcondition with a modality compiles to nothing
    # play can judge: the test is an ill-structured position, a random
    # adversary concedes it, and verify raises at the first finished line
    phi = S.Diamond(S.Assign("x", L(1)), S.TRUE)
    for role in (ACTIVE, DORMANT):
        with pytest.raises(E.IllStructuredRealizer, match="is not ground first-order"):
            play(S.Test(phi), role, close(R.Pair(R.Unit(), R.Unit())), State(),
                 ScriptedDemon(["assert"]))
    out = play(S.Test(phi), DORMANT, close(R.Unit()), State(), RandomDemon(1))
    assert type(out) is DemonViolation
    with pytest.raises(TypeError, match="not a play-time evaluable formula"):
        verify_exhaustive(S.Assign("x", L(1)), ACTIVE, close(R.Unit()), [State()], phi,
                          DemonMenu({}))


def _canonical(st):
    return all(type(v) is int or v.denominator > 1 for v in map(st.get, st.vars()))


def test_values_stay_canonical():
    # every way a value enters a state leaves an int when it is integral:
    # Demon's x := * from a menu, a script, a random pool and a reader;
    # y := x + (1/2 + 1/2), evaluated; Angel's z := * from a TermVal
    half = S.Plus(L("1/2"), L("1/2"))
    game = S.Seq(S.Dual(S.AssignAny("x")), S.Seq(S.Assign("y", S.Plus(x, half)),
                                                  S.AssignAny("z")))
    cl = close(R.NumLamR("n", R.Pair(R.TermVal(half), R.Unit())))
    cex = verify_exhaustive(game, ACTIVE, cl, [State()], S.FALSE, DemonMenu({"x": ["4/2"]}))
    outs = [cex.outcome]
    for demon in (ScriptedDemon(["6/3"]), RandomDemon(0, value_pool=[Fraction(6, 3)]),
                  E.InteractiveDemon(write=lambda _: None, read=lambda: "8/4")):
        outs.append(play(game, ACTIVE, cl, State(), demon))
    assert [repr(o.state) for o in outs] == ["State(x=2, y=3, z=1)"] * 4
    assert all(type(o) is Finished and _canonical(o.state) for o in outs)


@pytest.mark.parametrize("kind", ["branch", "value", "test", "repeat"])
def test_interactive_demon_ends_with_its_input(kind):
    # a reader at the end of its input is a script that ran out: one
    # prompt, then `ScriptMismatch`, not the same prompt for ever
    prompts = []

    def read():
        if prompts[1:]:
            pytest.fail("the demon asked again after its input ended")
        raise EOFError("EOF when reading a line")

    demon = E.InteractiveDemon(write=prompts.append, read=read)
    ask = {
        "branch": lambda: demon.choose_branch(S.Choice(S.Assign("x", x), S.Assign("x", y)), State()),
        "value": lambda: play(S.Dual(S.AssignAny("x")), ACTIVE, close(R.NumLamR("n", R.Unit())),
                              State(), demon),
        "test": lambda: demon.assert_test(S.Cmp(x, ">", L(0)), State()),
        "repeat": lambda: demon.continue_repeat(State(), 0),
    }[kind]
    with pytest.raises(E.ScriptMismatch, match=f"^demon input ended wanting {kind}$"):
        ask()
    assert len(prompts) == 1 and prompts[0].startswith(f"demon {kind} ")


def test_passing_verify_formats_nothing(all_theorems, monkeypatch):
    def refuse(*_args):
        raise AssertionError("formatted a move of a verify that passes")

    game, role, cl, post = _dcake(all_theorems)
    monkeypatch.setattr(E, "print_formula", refuse)
    monkeypatch.setattr(E, "format_rational", refuse)
    assert verify_exhaustive(game, role, cl, [State()], post, DemonMenu({"x": CUTS})) is None
    game, role, cl, st = _nim(all_theorems, "dNim", 29)
    assert verify_exhaustive(game, role, cl, [st], MOD4_IS_1, DemonMenu({}, 12)) is None


def test_winning_lines_leave_nothing_behind(all_theorems, monkeypatch):
    # a verify of dCake builds no Finished for the lines that win, and as
    # many Closures over 2,000 cuts as over the bundled menu's 13; a losing
    # line still comes out as the same counterexample
    game, role, cl, post = _dcake(all_theorems)
    with open(corpus_path("cake_menu.json"), encoding="utf-8") as fh:
        bundled = json.load(fh)["values"]["x"]
    built = {E.Finished: 0, E.Closure: 0}

    def counted(cls):
        init = cls.__init__

        def counting(self, *args):
            built[cls] += 1
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)

    counted(E.Finished)
    counted(E.Closure)
    closures = []
    for cuts in (bundled, [f"{k}/1999" for k in range(2000)]):
        built.update(dict.fromkeys(built, 0))
        assert verify_exhaustive(game, role, cl, [State()], post, DemonMenu({"x": cuts}, 4)) is None
        assert built[E.Finished] == 0
        closures.append(built[E.Closure])
    assert closures[0] == closures[1]

    post = S.Cmp(S.Var("d"), ">=", S.Plus(L("1/2"), L("1/100")))  # as in the bench's control
    cex = verify_exhaustive(game, role, cl, [State()], post, DemonMenu({"x": bundled}, 4))
    assert _cex_record(cex) == ("State()", "Finished", "State(a=1/2, d=1/2, x=1/2, y=1/2)",
                                ("demon-value x 1/2",))


def test_trace_formats_lines_when_read(monkeypatch):
    # a traced play and the length of its trace format nothing
    tr = Tracer()
    game = S.Seq(S.Dual(S.AssignAny("x")), S.Seq(S.Assign("y", x), S.Test(S.Cmp(y, "=", x))))
    rz = R.NumLamR("n", R.Pair(R.Unit(), R.Unit()))
    with monkeypatch.context() as m:
        m.setattr(E, "print_formula", None)
        m.setattr(E, "format_rational", None)
        play(game, ACTIVE, close(rz), State(), ScriptedDemon(["3/2"]), tracer=tr)
        assert len(tr.events) == 4
    lines = ["swap-roles", "demon-value x 3/2", "assign y 3/2", "angel-test (y = x) pass"]
    assert list(tr.events) == lines and tr.events[1:3] == lines[1:3] and tr.events[-1] == lines[-1]


def _collect():
    # a freed node's key in the intern table releases the node's children,
    # so a cycle among them is found only by a later collection
    while gc.collect():
        pass


def test_dropped_node_is_freed_with_its_evaluator_and_instruction():
    # what the engine derives from a node lives on the node, not in a table
    # that keeps it alive
    _collect()
    before = len(S._nodes)
    term = S.Plus(S.Var("lifetime"), L(7))
    game = S.Seq(S.Assign("lifetime", term), S.Test(S.Cmp(term, ">", L(0))))
    out = play(game, ACTIVE, close(R.Pair(R.Unit(), R.Unit())), State(), ScriptedDemon([]))
    assert out.state.get("lifetime") == 7 and E._at(State(), {}, term) == 7
    ins = E._instruction(game, ACTIVE)
    assert ins[2][3] is S.compile_term(term) and E._instruction(game, ACTIVE) is ins
    assert len(S._nodes) > before
    # a Gen whose invariant evidence is its own variable continues its own
    # stream, so its slot closes a cycle, which the collector frees
    body = S.Assign("lifetime", S.Plus(S.Var("lifetime"), L(1)))
    gen = R.Gen(R.RVar("v"), "v", R.Unit(), R.Unit(), body)
    loop = S.Repeat(body)
    cl = E.Closure(gen, {"v": close(R.Unit())})
    assert verify_exhaustive(loop, DORMANT, cl, [State()], S.TRUE, DemonMenu({}, 2)) is None
    assert gen._stream.cont is gen and gen._reads == ("v",)
    refs = [weakref.ref(v) for v in (term, game, ins[2][3], ins[3][3], gen, gen._stream, body)]
    del term, game, out, ins, gen, loop, body, cl
    _collect()
    assert [r() for r in refs] == [None] * 7
    assert len(S._nodes) == before


def _long_nim(name, phi, rz, n, moves=None):
    """The arguments of `play` for an n-round scripted play of dNim from
    c = 4n+1, or of aNim from c = 4n+4: Demon removes 1 each round, or
    moves[i] in round i, and Angel, playing rz, mirrors."""
    words = [_NIM_MOVES[m] for m in moves or [1] * n]
    if name == "dNim":
        st = State({"c": 4 * n + 1})
        script = [w for ws in words for w in ["continue", *ws, "assert"]] + ["stop"]
    else:
        st, script = State({"c": 4 * n + 4}), [w for ws in words for w in [*ws, "assert"]]
    core, cl = strip_assumptions(phi, close(rz), st)
    game, role, _ = modal_core(core)
    return game, role, cl, st, ScriptedDemon(script)


def _reachable_closures(cl) -> int:
    """The closures reachable from cl through environments, cl included."""
    seen, todo = set(), [cl]
    while todo:
        cl = todo.pop()
        if id(cl) not in seen:
            seen.add(id(cl))
            todo.extend(v for v in cl.env.values() if type(v) is E.Closure)
    return len(seen)


@pytest.mark.parametrize("fused", [True, False])
def test_finished_play_keeps_no_earlier_round(all_theorems, monkeypatch, fused):
    # a closure keeps only the environment entries its realizer can read,
    # so the residual of a finished play does not grow with its length,
    # fused or with every composition left to run time
    if not fused:
        monkeypatch.setattr(R, "compose", lambda first, var, cont, spine: R.Compose(
            first, var, cont, tuple(f.game for f in spine)))
    for name in ("dNim", "aNim"):
        phi, proof = all_theorems[name]
        # a copy, so that the shared proof keeps the fused realizer
        rz = elaborate(Context(), copy.copy(proof), phi, ArithOracle())
        counts = []
        for n in (100, 999):
            out = play(*_long_nim(name, phi, rz, n), fuel=10**6)
            assert type(out) is Finished, (name, n, out)
            counts.append(_reachable_closures(out.residual))
        assert counts[0] == counts[1] <= 8, (name, counts)


def test_long_play_memory_stays_flat(all_theorems):
    # a warmed 2,000-round play without a tracer allocates little at its
    # peak; kept rounds would cost about 1 KB each
    phi, proof = all_theorems["dNim"]
    rz = extract(proof, phi, checked=True)
    play(*_long_nim("dNim", phi, rz, 2000), fuel=10**6)
    args = _long_nim("dNim", phi, rz, 2000)
    tracemalloc.start()
    try:
        out = play(*args, fuel=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(out) is Finished and out.state == State({"c": 1})
    assert peak < 500_000, peak


def test_play_boxes_a_closure_only_where_one_is_stored(all_theorems, monkeypatch):
    # the machine holds the closure it runs in registers and builds a
    # `Closure` only where one is stored; boxing every forcing step's
    # result, as the engine once did, built 26.0 a round of dNim and 22.0
    # a round of aNim.  A Demon loop builds only the half of its stream
    # the demon picks: building both, dNim's mixed moves took 3.67 a round
    built, init = [0], E.Closure.__init__

    def counting(self, *args):
        built[0] += 1
        init(self, *args)

    for name, most in (("dNim", 3), ("aNim", 2)):
        phi, proof = all_theorems[name]
        args = _long_nim(name, phi, extract(proof, phi, checked=True), 999, _nim_moves(999))
        built[0] = 0
        with monkeypatch.context() as m:
            m.setattr(E.Closure, "__init__", counting)
            out = play(*args, fuel=10**6)
        assert type(out) is Finished, (name, out)
        assert built[0] <= most * 999, (name, built[0] / 999)


@pytest.mark.parametrize("word", ["L", "5", "assert"])
def test_scripted_demon_rejects_a_wrong_word_at_a_loop(word):
    game = S.Repeat(S.Assign("x", S.Plus(x, L(1))))
    with pytest.raises(E.IllStructuredRealizer, match="wanted continue/stop, got"):
        play(game, DORMANT, close(R.Unit()), State(), ScriptedDemon([word]))


# compositions the machine meets at run time: built directly, so that
# static fusion cannot place them, and behind an application, so that
# `peel_for` cannot see them; the machine views each as a pair or a number
T0, T1 = R.TermVal(L(0)), R.TermVal(L(1))
BUMP = S.Assign("x", S.Plus(x, L(1)))
SIDES = S.Choice(S.Assign("x", L(1)), S.Assign("x", L(2)))
POSITIVE = S.Cmp(x, ">", L(0))
RUNTIME_COMPOSED = {  # name: (game, role, the composed strategy, demon script, state)
    "box-choice-L": (SIDES, DORMANT, R.Pair(R.Unit(), R.Unit()), ["L"], {}),
    "box-choice-R": (SIDES, DORMANT, R.Pair(R.Unit(), R.Unit()), ["R"], {}),
    "box-loop-gen": (S.Repeat(BUMP), DORMANT, R.Gen(R.Unit(), "v", R.RVar("v"), R.Unit(), BUMP),
                     ["continue", "continue", "stop"], {}),
    "box-loop-pair": (S.Repeat(BUMP), DORMANT, R.Pair(R.Unit(), R.Pair(R.Unit(), R.Unit())),
                      ["continue", "stop"], {}),
    "diamond-loop-stop": (S.Repeat(BUMP), ACTIVE, R.Pair(T0, R.Unit()), [], {}),
    "diamond-loop-round": (S.Repeat(BUMP), ACTIVE, R.Pair(T1, R.Pair(T0, R.Unit())), [], {}),
    # selectors that are not literals
    "diamond-choice-if-true": (SIDES, ACTIVE, R.Pair(R.IfTerm(POSITIVE, T1, T0), R.Unit()), [],
                               {"x": 1}),
    "diamond-choice-if-false": (SIDES, ACTIVE, R.Pair(R.IfTerm(POSITIVE, T1, T0), R.Unit()), [],
                                {"x": -1}),
    "diamond-loop-if": (S.Repeat(BUMP), ACTIVE,
                        R.Pair(R.IfTerm(POSITIVE, T0, T1), R.Pair(T0, R.Unit())), [], {"x": 0}),
}


@pytest.mark.parametrize("case", sorted(RUNTIME_COMPOSED))
def test_runtime_composition_plays_like_what_it_composes(case):
    game, role, first, script, st = RUNTIME_COMPOSED[case]
    composed = R.Compose(first, "r", R.RVar("r"), (game,))
    plays = []
    for rz in (first, R.AppRz(R.ProofLam("h", S.TRUE, R.RVar("h")), composed)):
        tr = Tracer()
        out = play(game, role, close(rz), State(st), ScriptedDemon(script), tracer=tr)
        plays.append((type(out), out.state, list(tr.events)))
    assert plays[0] == plays[1] and plays[0][0] is Finished, plays


def test_mon_over_go_places_into_the_round():
    # static fusion places the weakening into the tagged pair of the go round
    phi, m = parse_script(
        r"theorem monGo : x = 0 -> <{x := x + 1}*> x >= 0 ="
        r" \h : x = 0. mon(go asgnd x (x0, k. stop FO[x = 1](h, k)); p. FO[x >= 0](p))"
    ).theorems["monGo"]
    rz = extract(m, phi)
    assert rz == R.ProofLam("h", S.Cmp(x, "=", L(0)), R.Pair(T1, R.Pair(T0, R.Unit())))
    st = State({"x": 0})
    core, cl = strip_assumptions(phi, close(rz), st)
    game, role, post = modal_core(core)
    tr = Tracer()
    out = play(game, role, cl, st, ScriptedDemon([]), tracer=tr)
    assert type(out) is Finished and S.eval_fo(post, out.state)
    assert list(tr.events) == ["angel-loop continue", "assign x 1", "angel-loop stop"]


# -- traces and counterexamples pinned on the two-interpreter engine -----------
#
# Recorded before play and verify shared one machine; each must stay equal.


def _events_digest(events):
    return hashlib.sha256("\n".join(events).encode()).hexdigest()[:16]


_NIM_MOVES = {1: ["L"], 2: ["R", "L"], 3: ["R", "R"]}  # c-1 ++ (c-2 ++ c-3)


def _nim_moves(n, last=None):
    ks = [(7 * i) % 3 + 1 for i in range(n)]
    if last is not None:
        ks[-1] = last
    return ks


PINNED_PLAYS = {
    # name: (start state, demon script, (outcome, end state, events, digest))
    "dNim": (State({"c": 201}),
             [d for k in _nim_moves(50) for d in ("continue", *_NIM_MOVES[k], "assert")]
             + ["stop"],
             ("Finished", "State(c=1)", 468, "f0f1bc7fe442d5ff")),
    "aNim": (State({"c": 200}),
             [d for k in _nim_moves(50, last=1) for d in (*_NIM_MOVES[k], "assert")],
             ("Finished", "State(c=4)", 458, "41d1588cc09ba593")),
    "dCake": (State(), ["1/3", "assert"], ("Finished", "State(a=1/3, d=2/3, x=1/3, y=2/3)", 8,
                                         "c5312625cbc4af19")),
    "aCake": (State(), ["R"], ("Finished", "State(a=1/2, d=1/2, x=1/2, y=1/2)", 8,
                                  "d1b9c13d17b8b1aa")),
    "signFlip": (State(), ["-7/2"], ("Finished", "State(x=7/2)", 4, "5348d60a81da886d")),
}


@pytest.mark.parametrize("name", sorted(PINNED_PLAYS))
def test_pinned_play_traces(all_theorems, name):
    st, script, want = PINNED_PLAYS[name]
    phi, proof = all_theorems[name]
    core, cl = strip_assumptions(phi, close(extract(proof, phi, checked=True)), st)
    game, role, _ = modal_core(core)
    tr = Tracer()
    out = play(game, role, cl, st, ScriptedDemon(script), tracer=tr)
    got = (type(out).__name__, repr(out.state), len(tr.events), _events_digest(tr.events))
    assert got == want, tr.events[:12]


def _cex_record(cex):
    if cex is None:
        return None
    return (repr(cex.state), type(cex.outcome).__name__, repr(cex.outcome.state), cex.trace)


def test_pinned_counterexample_records(all_theorems, rng):
    # the counterexamples the tests above only inspect in part, in full
    game = S.Seq(S.Dual(S.AssignAny("x")), S.Test(S.Cmp(x, ">", L(0))))
    rz = R.NumLamR("n", R.Pair(R.Unit(), R.Unit()))
    cex = verify_exhaustive(game, ACTIVE, close(rz), [State()], S.TRUE,
                            DemonMenu(values={"x": ["1", "-1"]}, repeat_depth=4))
    assert _cex_record(cex) == ("State()", "AngelViolation", "State(x=-1)",
                                ("demon-value x -1", "angel-test fail"))

    # every verdict of the random loop games the trail-replay test explores
    assert _random_verify_records(rng, 20_000) == (
        {"none": 179, "Finished": 163, "AngelViolation": 47, "DemonViolation": 11},
        "0ece1c0f1d3517c2")


def _random_verify_records(rng, fuel):
    """(verdict kinds, digest) of verifying 400 seeded random games."""
    menu = DemonMenu({v: ["1", "-1/2"] for v in ("x", "y", "z", "c")}, 3)
    h, kinds = hashlib.sha256(), {}
    for _ in range(400):
        game = S.Repeat(rand_game(rng, 2)) if rng.random() < 0.5 else rand_game(rng, 3)
        role = rng.choice([ACTIVE, DORMANT])
        rz = suitable(rng, game, role)
        st = rand_state(rng)
        post = S.Cmp(rng.choice((x, y, c)), rng.choice(S.REL_OPS), S.Lit(rand_rational(rng)))
        try:
            cex = verify_exhaustive(game, role, close(rz), [st], post, menu,
                                    fuel=fuel, require_finished=rng.random() < 0.3)
            rec = _cex_record(cex)
        except E.IllStructuredRealizer as e:
            rec = ("error", str(e))
        kind = "none" if rec is None else rec[0] if rec[0] == "error" else rec[1]
        kinds[kind] = kinds.get(kind, 0) + 1
        h.update(f"{rec!r}\n".encode())
    return kinds, h.hexdigest()[:16]


def test_pinned_counterexample_records_at_small_fuel(rng):
    # the random games of the records above at fuel 40, where some lines
    # run out inside a Demon value fan-out, so the digest pins how much
    # fuel each value of a fan-out is charged
    assert _random_verify_records(rng, 40) == (
        {"none": 149, "Finished": 162, "FuelOut": 32, "AngelViolation": 47,
         "DemonViolation": 10},
        "811fa07726196b0d")


def test_pinned_dcake_verify_at_every_fuel(all_theorems):
    # dCake over the bundled cake menu at every fuel from 1 to 399: the
    # counterexample (a fuel-out, with the trail it reached) or None
    game, role, cl, post = _dcake(all_theorems)
    with open(corpus_path("cake_menu.json")) as fh:
        menu = DemonMenu(**json.load(fh))
    h, records = hashlib.sha256(), {}
    for fuel in range(1, 400):
        records[fuel] = rec = _cex_record(
            verify_exhaustive(game, role, cl, [State()], post, menu, fuel=fuel))
        h.update(f"{fuel} {rec!r}\n".encode())
    assert min(f for f, rec in records.items() if rec is None) == 224
    assert records[60] == ("State()", "FuelOut", "State()", ("demon-value x 3/10",))
    assert records[223] == ("State()", "FuelOut", "State()", ("demon-value x 2/3",))
    assert h.hexdigest()[:16] == "7c5bd411e715d92a"


def test_ill_structured_value_continuation_fails_at_the_first_value():
    # Demon's x := * against a residual strategy that is no number lambda:
    # the play, and the verify, fail after the move of the menu's first value
    game = S.Seq(S.Dual(S.Choice(S.Assign("y", L(1)), S.Assign("y", L(2)))),
                 S.Dual(S.AssignAny("x")))
    cl, menu = close(R.Pair(R.Unit(), R.Unit())), DemonMenu({"x": ["5", "6"]})
    tr = Tracer()
    with pytest.raises(E.IllStructuredRealizer, match="number application to Unit"):
        play(game, ACTIVE, cl, State(), menu, tracer=tr)
    assert list(tr.events) == ["swap-roles", "demon-branch L", "assign y 1", "swap-roles",
                               "demon-value x 5"]
    with pytest.raises(E.IllStructuredRealizer, match="number application to Unit"):
        verify_exhaustive(game, ACTIVE, cl, [State()], S.TRUE, menu)


def test_verify_at_repeat_depth_1000(all_theorems):
    # about 3^1000 lines; loop depth must not reach Python's recursion limit
    game, role, cl, st = _nim(all_theorems, "dNim", 4001)
    cex = verify_exhaustive(game, role, cl, [st], MOD4_IS_1, DemonMenu({}, 1000))
    assert cex is None


@pytest.mark.parametrize("fuel,want", [
    (20_000, ({"Finished": 632, "AngelViolation": 80, "DemonViolation": 88},
              "69521ef48a6d4c80")),
    (12, ({"Finished": 495, "AngelViolation": 76, "DemonViolation": 83, "FuelOut": 146},
          "a3d1d18df48aa493")),
])
def test_pinned_random_plays(rng, fuel, want):
    # every outcome, end state and event of seeded random plays, each game
    # in both roles against a seeded adversary; at fuel 12 many plays run
    # out, so the digest also pins where fuel is spent
    assert _random_play_records(rng, fuel) == want


def _random_play_records(rng, fuel):
    """(outcome kinds, digest of every outcome and event) of 800 seeded
    random plays."""
    h, kinds = hashlib.sha256(), {}
    for i in range(400):
        game = S.Repeat(rand_game(rng, 2)) if rng.random() < 0.3 else rand_game(rng, 3)
        st = rand_state(rng)
        for role in (ACTIVE, DORMANT):
            rz = suitable(rng, game, role)
            tr = Tracer()
            try:
                out = play(game, role, close(rz), st, RandomDemon(i, stop_after=6),
                           fuel=fuel, tracer=tr)
                rec = (type(out).__name__, repr(out.state))
            except E.IllStructuredRealizer as e:
                rec = ("error", str(e))
            kinds[rec[0]] = kinds.get(rec[0], 0) + 1
            h.update(f"{rec!r} {list(tr.events)!r}\n".encode())
    return kinds, h.hexdigest()[:16]
