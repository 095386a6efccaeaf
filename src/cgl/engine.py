"""Gameplay interpreter: one concrete run of a game from a state.

Angel's moves come from a realizer closure; Demon's classical decisions
come from an oracle (scripted, seeded random, or interactive).  The
exhaustive driver replaces the oracle with full enumeration of Demon's
choices from finite menus, which is how strategy soundness is verified at
desk scale.

Realizers are paired with environments; `Compose` wrappers ride along on
continuations and are distributed lazily at every consuming position, so
a weakened strategy plays exactly like the strategy it weakens.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from . import realizer as R
from . import syntax as S
from .printer import print_formula, print_game
from .rational import Rational, format_rational, parse_rational
from .syntax import Formula, Game, State

ACTIVE = "active"
DORMANT = "dormant"


def flip(role: str) -> str:
    return DORMANT if role == ACTIVE else ACTIVE


class IllStructuredRealizer(Exception):
    """The realizer shape does not match the game position."""


class NoMenuValues(IllStructuredRealizer):
    """A demon menu lists no values for a nondeterministic assignment."""


class BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class Finished:
    state: State
    residual: "Closure"


@dataclass(frozen=True)
class AngelViolation:
    state: State


@dataclass(frozen=True)
class DemonViolation:
    state: State


@dataclass(frozen=True)
class FuelOut:
    state: State


class Closure:
    __slots__ = ("rz", "env")

    def __init__(self, rz: R.Realizer, env=None):
        self.rz = rz
        self.env = env or {}

    def bind(self, name, value) -> "Closure":
        return Closure(self.rz, {**self.env, name: value})

    def __repr__(self):
        return f"Closure({self.rz!r})"


def close(rz: R.Realizer) -> Closure:
    return Closure(rz, {})


class Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def tick(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise BudgetExhausted()


# ---------------------------------------------------------------------------
# Forcing


def _overlay(state: State, env) -> State:
    """Number bindings from the environment shadow the game state."""
    st = state
    for k, v in env.items():
        if type(v) is Fraction:
            st = st.set(k, v)
    return st


def eval_term_env(t: S.Term, state: State, env) -> Rational:
    if not env:
        return S.eval_term(t, state)
    return S.eval_term(t, _overlay(state, env))


def eval_fo_env(phi: Formula, state: State, env) -> bool:
    if not env:
        return S.eval_fo(phi, state)
    return S.eval_fo(phi, _overlay(state, env))


def force(cl: Closure, state: State, budget: Budget) -> Closure:
    """Weak head normal form: Unit, Pair, TermVal, NumLamR, ProofLam,
    Ind-unfolded values, Gen, or Compose."""
    budget.tick()
    rz = cl.rz
    match rz:
        case R.RVar(name=n):
            v = cl.env.get(n)
            if v is None:
                raise IllStructuredRealizer(f"unbound realizer variable {n}")
            if type(v) is Fraction:
                return Closure(R.TermVal(S.Lit(v)))
            return force(v, state, budget)
        case R.StateLam(body=b):
            return force(Closure(b, cl.env), state, budget)
        case R.AppState(fn=f):
            return force(Closure(f, cl.env), state, budget)
        case R.Fst(arg=a):
            f, _s = pair_view(force(Closure(a, cl.env), state, budget), state, budget)
            return force(f, state, budget)
        case R.Snd(arg=a):
            _f, s = pair_view(force(Closure(a, cl.env), state, budget), state, budget)
            return force(s, state, budget)
        case R.AppNum(fn=f, term=t):
            v = eval_term_env(t, state, cl.env)
            return force(app_num(Closure(f, cl.env), v, state, budget), state, budget)
        case R.AppRz(fn=f, arg=a):
            return force(
                app_rz(Closure(f, cl.env), Closure(a, cl.env), state, budget),
                state,
                budget,
            )
        case R.IfTerm(cond=c, then=th, els=el):
            try:
                b = eval_fo_env(c, state, cl.env)
            except (TypeError, ArithmeticError) as e:
                raise IllStructuredRealizer(f"unevaluable decision {c!r}: {e}")
            return force(Closure(th if b else el, cl.env), state, budget)
        case R.Ind(var=v, body=b):
            return force(Closure(b, {**cl.env, v: cl}), state, budget)
        case R.Decide(scrut=sc, lvar=lv, left=le, rvar=rv, right=ri):
            sel, payload = pair_view(
                force(Closure(sc, cl.env), state, budget), state, budget
            )
            which = num_of(sel, state, budget)
            if which == 0:
                return force(Closure(le, {**cl.env, lv: payload}), state, budget)
            return force(Closure(ri, {**cl.env, rv: payload}), state, budget)
    return cl


def app_num(cl: Closure, v: Rational, state: State, budget: Budget) -> Closure:
    f = force(cl, state, budget)
    if isinstance(f.rz, R.NumLamR):
        return Closure(f.rz.body, {**f.env, f.rz.var: v})
    if isinstance(f.rz, R.Compose) and not f.rz.games:
        inner = app_num(Closure(f.rz.first, f.env), v, state, budget)
        return _attach_one(f.rz.var, f.rz.cont, f.env, inner)
    raise IllStructuredRealizer(f"number application to {type(f.rz).__name__}")


def app_rz(cl: Closure, arg: Closure, state: State, budget: Budget) -> Closure:
    f = force(cl, state, budget)
    if isinstance(f.rz, R.ProofLam):
        return Closure(f.rz.body, {**f.env, f.rz.hyp: arg})
    if isinstance(f.rz, R.Compose) and not f.rz.games:
        inner = app_rz(Closure(f.rz.first, f.env), arg, state, budget)
        return _attach_one(f.rz.var, f.rz.cont, f.env, inner)
    raise IllStructuredRealizer(f"realizer application to {type(f.rz).__name__}")


def _attach_one(var, cont, env, inner: Closure) -> Closure:
    return Closure(R.Compose(R.RVar("*r*"), var, cont), {**env, "*r*": inner})


def resolve(cl: Closure) -> Closure:
    """Chase variable/state indirections without evaluating decisions."""
    while True:
        rz = cl.rz
        if type(rz) is R.RVar:
            v = cl.env.get(rz.name)
            if type(v) is Closure:
                cl = v
                continue
            if type(v) is Fraction:
                return Closure(R.TermVal(S.Lit(v)))
            raise IllStructuredRealizer(f"unbound realizer variable {rz.name}")
        tr = type(rz)
        if tr is not R.StateLam and tr is not R.AppState:
            return cl
        if tr is R.StateLam:
            cl = Closure(rz.body, cl.env)
            continue
        cl = Closure(rz.fn, cl.env)


def peel_for(cl: Closure, game):
    """Collect composition wrappers whose recorded prefix starts with the
    game about to be played.  Purely structural, so safe at any position;
    the continuations apply when this game's play returns.
    """
    ks = []
    cur = resolve(cl)
    while (
        isinstance(cur.rz, R.Compose)
        and cur.rz.games
        and cur.rz.games[0] == game
    ):
        ks.append((cur.rz.var, cur.rz.cont, cur.env, cur.rz.games[1:]))
        cur = resolve(Closure(cur.rz.first, cur.env))
    return ks, cur


def apply_ks(ks, cl: Closure) -> Closure:
    """The residual of a completed prefix feeds each pending continuation;
    continuations with games left to play keep riding the residual."""
    for var, cont, env, rest in reversed(ks):
        if rest:
            cl = Closure(R.Compose(R.RVar("*r*"), var, cont, rest), {**env, "*r*": cl})
        else:
            cl = Closure(cont, {**env, var: cl})
    return cl


def pair_view(f: Closure, state: State, budget: Budget):
    """View a forced closure as (first, second); formula-level composition
    distributes onto the continuation half, loop streams unroll on demand."""
    rz = f.rz
    if isinstance(rz, R.Pair):
        return Closure(rz.fst, f.env), Closure(rz.snd, f.env)
    if isinstance(rz, R.Gen):
        cur = Closure(rz.init, f.env)
        post = Closure(rz.post, {**f.env, rz.var: cur})
        step = Closure(rz.step, {**f.env, rz.var: cur})
        rebuilt = R.Gen(R.RVar(rz.var), rz.var, rz.step, rz.post, rz.game)
        games = (rz.game,) if rz.game is not None else ()
        stream_cont = Closure(
            R.Compose(R.RVar("*s*"), rz.var, rebuilt, games),
            {**f.env, "*s*": step},
        )
        return post, stream_cont
    if isinstance(rz, R.Compose) and not rz.games:
        inner = force(Closure(rz.first, f.env), state, budget)
        a, b = pair_view(inner, state, budget)
        return a, _attach_one(rz.var, rz.cont, f.env, b)
    raise IllStructuredRealizer(f"expected a pair, got {type(rz).__name__}")


def num_of(cl: Closure, state: State, budget: Budget) -> Rational:
    f = force(cl, state, budget)
    if isinstance(f.rz, R.TermVal):
        return eval_term_env(f.rz.term, state, f.env)
    raise IllStructuredRealizer(f"expected a number, got {type(f.rz).__name__}")


# ---------------------------------------------------------------------------
# Demon oracles


class DemonOracle:
    def choose_branch(self, game: Game, state: State) -> str:
        raise NotImplementedError

    def choose_value(self, var: str, state: State) -> Rational:
        raise NotImplementedError

    def assert_test(self, phi: Formula, state: State) -> str:
        """'assert' or 'concede'; the engine validates assertions."""
        raise NotImplementedError

    def continue_repeat(self, state: State, iteration: int) -> bool:
        raise NotImplementedError


class ScriptedDemon(DemonOracle):
    """Replays a list of primitive decisions:
    'L'/'R' (branch), rationals-as-strings (values), 'assert'/'concede',
    'continue'/'stop'."""

    def __init__(self, script):
        self.script = list(script)
        self.pos = 0

    def _next(self, kind):
        if self.pos >= len(self.script):
            raise IllStructuredRealizer(f"demon script exhausted wanting {kind}")
        v = self.script[self.pos]
        self.pos += 1
        return v

    def choose_branch(self, game, state):
        v = self._next("branch")
        if v not in ("L", "R"):
            raise IllStructuredRealizer(f"demon script wanted L/R, got {v!r}")
        return v

    def choose_value(self, var, state):
        return parse_rational(str(self._next("value")))

    def assert_test(self, phi, state):
        v = self._next("test")
        if v not in ("assert", "concede"):
            raise IllStructuredRealizer(f"demon script wanted assert/concede, got {v!r}")
        return v

    def continue_repeat(self, state, iteration):
        return self._next("repeat") == "continue"


class RandomDemon(DemonOracle):
    """Seeded random adversary; asserts tests honestly when they hold."""

    def __init__(self, seed: int, value_pool=None, stop_after: int = 32):
        self.rng = _random.Random(seed)
        self.value_pool = value_pool
        self.stop_after = stop_after

    def choose_branch(self, game, state):
        return self.rng.choice(("L", "R"))

    def choose_value(self, var, state):
        if self.value_pool:
            return self.rng.choice(self.value_pool)
        return Fraction(self.rng.randint(-10, 10), self.rng.randint(1, 4))

    def assert_test(self, phi, state):
        try:
            return "assert" if S.eval_fo(phi, state) else "concede"
        except TypeError:
            return "concede"

    def continue_repeat(self, state, iteration):
        if iteration >= self.stop_after:
            return False
        return self.rng.random() < 0.7


class InteractiveDemon(DemonOracle):
    """Prompt/response loop on the terminal.

    Prompts:  branch L|R,  value <var>,  test assert|concede,
              repeat continue|stop.
    """

    def __init__(self, write=None, read=None):
        self.write = write or (lambda s: print(s, end=""))
        self.read = read or input

    def _ask(self, prompt, parse):
        while True:
            self.write(prompt)
            try:
                return parse(self.read().strip())
            except Exception as e:  # malformed input: re-prompt
                self.write(f"  ? {e}\n")

    def choose_branch(self, game, state):
        return self._ask(
            f"demon branch at {print_game(game)} [L/R]: ",
            lambda s: {"L": "L", "R": "R", "l": "L", "r": "R"}[s],
        )

    def choose_value(self, var, state):
        return self._ask(f"demon value for {var} := * : ", parse_rational)

    def assert_test(self, phi, state):
        return self._ask(
            f"demon test ?{print_formula(phi)} [assert/concede]: ",
            lambda s: {"assert": "assert", "a": "assert", "concede": "concede", "c": "concede"}[s],
        )

    def continue_repeat(self, state, iteration):
        return self._ask(
            f"demon repeat (iteration {iteration}) [continue/stop]: ",
            lambda s: {"continue": True, "c": True, "stop": False, "s": False}[s],
        )


# ---------------------------------------------------------------------------
# Single play


class Tracer:
    __slots__ = ("events",)

    def __init__(self):
        self.events = []

    def emit(self, *parts):
        self.events.append(" ".join(str(p) for p in parts))


def play(
    game: Game,
    role: str,
    cl: Closure,
    state: State,
    demon: DemonOracle,
    fuel: int = 100_000,
    tracer: Optional[Tracer] = None,
):
    """Play one run; returns Finished/AngelViolation/DemonViolation/FuelOut.
    Events are formatted only when a tracer is given."""
    budget = Budget(fuel)
    try:
        return _play(game, role, cl, state, demon, budget, tracer)
    except BudgetExhausted:
        return FuelOut(state)


def _play(game, role, cl, state, demon, budget, tr):
    ks, core = peel_for(cl, game)
    out = _play_core(game, role, core, state, demon, budget, tr)
    if ks and isinstance(out, Finished):
        return Finished(out.state, apply_ks(ks, out.residual))
    return out


def _play_core(game, role, cl, state, demon, budget, tr):
    budget.tick()
    match game:
        case S.Test(cond=phi):
            if role == ACTIVE:
                try:
                    ok = S.eval_fo(phi, state)
                except TypeError:
                    raise IllStructuredRealizer(
                        f"test {print_formula(phi)} is not ground first-order"
                    )
                if not ok:
                    if tr is not None:
                        tr.emit("angel-test", f"({print_formula(phi)})", "fail")
                    return AngelViolation(state)
                if tr is not None:
                    tr.emit("angel-test", f"({print_formula(phi)})", "pass")
                _ev, cont = pair_view(force(cl, state, budget), state, budget)
                return Finished(state, cont)
            ans = demon.assert_test(phi, state)
            if ans == "concede":
                if tr is not None:
                    tr.emit("demon-test", f"({print_formula(phi)})", "concede")
                return DemonViolation(state)
            try:
                ok = S.eval_fo(phi, state)
            except TypeError:
                raise IllStructuredRealizer(
                    f"test {print_formula(phi)} is not ground first-order"
                )
            if not ok:
                if tr is not None:
                    tr.emit("demon-test", f"({print_formula(phi)})", "false-assert")
                return DemonViolation(state)
            if tr is not None:
                tr.emit("demon-test", f"({print_formula(phi)})", "assert")
            token = close(R.Unit())
            return Finished(state, app_rz(cl, token, state, budget))

        case S.Assign(var=x, term=t):
            v = S.eval_term(t, state)
            if tr is not None:
                tr.emit("assign", x, format_rational(v))
            return Finished(state.set(x, v), cl)

        case S.AssignAny(var=x):
            if role == ACTIVE:
                val_cl, cont = pair_view(force(cl, state, budget), state, budget)
                v = num_of(val_cl, state, budget)
                if tr is not None:
                    tr.emit("angel-value", x, format_rational(v))
                return Finished(state.set(x, v), cont)
            v = demon.choose_value(x, state)
            if tr is not None:
                tr.emit("demon-value", x, format_rational(v))
            return Finished(state.set(x, v), app_num(cl, v, state, budget))

        case S.Choice(left=a, right=b):
            if role == ACTIVE:
                sel_cl, cont = pair_view(force(cl, state, budget), state, budget)
                sel = num_of(sel_cl, state, budget)
                if sel == 0:
                    if tr is not None:
                        tr.emit("angel-branch", "L")
                    return _play(a, role, cont, state, demon, budget, tr)
                if sel == 1:
                    if tr is not None:
                        tr.emit("angel-branch", "R")
                    return _play(b, role, cont, state, demon, budget, tr)
                raise IllStructuredRealizer(f"branch selector {sel} not in {{0,1}}")
            fst, snd = pair_view(force(cl, state, budget), state, budget)
            which = demon.choose_branch(game, state)
            if tr is not None:
                tr.emit("demon-branch", which)
            return _play(
                a if which == "L" else b,
                role,
                fst if which == "L" else snd,
                state,
                demon,
                budget,
                tr,
            )

        case S.Seq(left=a, right=b):
            out = _play(a, role, cl, state, demon, budget, tr)
            if not isinstance(out, Finished):
                return out
            return _play(b, role, out.residual, out.state, demon, budget, tr)

        case S.Repeat(body=a):
            if role == ACTIVE:
                return _active_loop(a, cl, state, demon, budget, tr)
            return _dormant_loop(a, cl, state, demon, budget, tr)

        case S.Dual(body=a):
            if tr is not None:
                tr.emit("swap-roles")
            return _play(a, flip(role), cl, state, demon, budget, tr)

    raise TypeError(f"not a game: {game!r}")


def _active_loop(body, cl, state, demon, budget, tr):
    while True:
        budget.tick()
        sel_cl, cont = pair_view(force(cl, state, budget), state, budget)
        sel = num_of(sel_cl, state, budget)
        if sel == 0:
            if tr is not None:
                tr.emit("angel-loop", "stop")
            return Finished(state, cont)
        if sel != 1:
            raise IllStructuredRealizer(f"loop selector {sel} not in {{0,1}}")
        if tr is not None:
            tr.emit("angel-loop", "continue")
        out = _play(body, ACTIVE, cont, state, demon, budget, tr)
        if not isinstance(out, Finished):
            return out
        cl, state = out.residual, out.state


def _dormant_loop(body, cl, state, demon, budget, tr):
    iteration = 0
    while True:
        budget.tick()
        if not demon.continue_repeat(state, iteration):
            if tr is not None:
                tr.emit("demon-loop", "stop")
            post, _stream = pair_view(force(cl, state, budget), state, budget)
            return Finished(state, post)
        if tr is not None:
            tr.emit("demon-loop", "continue")
        _post, stream = pair_view(force(cl, state, budget), state, budget)
        out = _play(body, DORMANT, stream, state, demon, budget, tr)
        if not isinstance(out, Finished):
            return out
        cl, state = out.residual, out.state
        iteration += 1


# ---------------------------------------------------------------------------
# Exhaustive verification


def strip_assumptions(phi: Formula, cl: Closure, state: State):
    """Peel derived implications off a theorem, feeding unit evidence for
    each hypothesis that holds at the state; returns (core, closure) or
    None when a hypothesis fails (the theorem says nothing there)."""
    budget = Budget(10_000)
    while True:
        imp = S.split_implies(phi)
        if imp is None:
            return phi, cl
        pre, post = imp
        try:
            if not S.eval_fo(pre, state):
                return None
        except TypeError:
            return None
        cl = app_rz(cl, close(R.Unit()), state, budget)
        phi = post


def modal_core(phi: Formula):
    """The game modality a theorem ultimately asserts, after peeling
    derived implications: (game, role, post)."""
    while True:
        imp = S.split_implies(phi)
        if imp is not None:
            phi = imp[1]
            continue
        if isinstance(phi, S.Diamond) and not isinstance(phi.game, S.Test):
            return phi.game, ACTIVE, phi.post
        if isinstance(phi, S.Box) and not isinstance(phi.game, S.Test):
            return phi.game, DORMANT, phi.post
        raise ValueError(f"theorem has no game modality: {phi!r}")


@dataclass(frozen=True)
class DemonMenu:
    """Finite adversary menus: values per nondeterministic assignment and a
    cap on Demon-controlled repetition depth."""

    values: dict
    repeat_depth: int = 8

    def values_for(self, var: str):
        vals = self.values.get(var)
        if vals is None:
            raise NoMenuValues(f"no menu values for {var} := *")
        return [parse_rational(str(v)) for v in vals]


@dataclass(frozen=True)
class CounterExample:
    state: State
    outcome: object
    trace: tuple


def verify_exhaustive(
    game: Game,
    role: str,
    cl: Closure,
    init_states,
    post: Formula,
    menu: DemonMenu,
    fuel: int = 2_000_000,
    require_finished: bool = False,
):
    """AllWin check: every Demon line ends in DemonViolation or a Finished
    state satisfying post.  Returns None, or a CounterExample.

    Each distinct loop-head position is explored once per call and
    replayed from a transposition table after that; a replay spends no
    fuel, so fuel bounds the work of the unmemoized search from above."""
    memo = _Transpositions()
    for st in init_states:
        budget = Budget(fuel)
        trail = []
        try:
            for out in _explore(game, role, cl, st, menu, budget, trail, memo):
                bad = None
                if isinstance(out, Finished):
                    if not S.eval_fo(post, out.state):
                        bad = out
                elif isinstance(out, DemonViolation):
                    if require_finished:
                        bad = out
                else:
                    bad = out
                if bad is not None:
                    return CounterExample(st, bad, tuple(trail))
        except BudgetExhausted:
            return CounterExample(st, FuelOut(st), tuple(trail))
    return None


def _state_key(state: State):
    # exact bindings, explicit zeros included, so a replayed outcome's
    # state prints as the explored one would
    return frozenset(state._vals.items())


class _Transpositions:
    """The explorer's transposition table, alive for one verify call.

    What a loop head's subtree yields depends only on the loop body, the
    role, the state, the iteration, and what the closure can observe: its
    realizer and the environment entries named in it (realizer variables,
    and term variables that `_overlay` would shadow; closure values count
    by their own fingerprint).  The first visit of such a key explores the
    subtree; later visits replay its distinct outcomes, each with the
    trail suffix of its first line.  Outcomes are distinct when type,
    state and residual fingerprint differ; a repeat continues exactly
    like its first occurrence, so it can never be the first losing line.

    Realizers, syntax and closures are hash-consed to small integers
    (Filliâtre & Conchon, "Type-Safe Modular Hash-Consing", 2006), so a
    key hashes in constant time.  The id()-keyed table keeps every object
    it numbers alive, so no id is reused while the table lives.
    """

    __slots__ = ("entries", "_ids", "_canon")

    def __init__(self):
        self.entries = {}  # head key -> ([(outcome, trail suffix)], error)
        self._ids = {}  # id(x) -> (x, number, names x can read)
        self._canon = {}  # structural key -> number

    def node(self, x):
        """(number, names) of a realizer, term, formula or game."""
        hit = self._ids.get(id(x))
        if hit is not None:
            return hit[1], hit[2]
        if isinstance(x, R.Realizer):
            parts, names = [type(x)], set()
            for field in x.__slots__:
                v = getattr(x, field)
                if type(v) is str:  # a variable or a binder
                    names.add(v)
                elif type(v) is tuple:  # the games of a Compose
                    v = tuple(self.node(g)[0] for g in v)
                elif v is not None:
                    v, ns = self.node(v)
                    names.update(ns)
                parts.append(v)
            key, names = tuple(parts), tuple(sorted(names))
        else:
            # games are never evaluated under an environment
            key = x
            names = () if isinstance(x, Game) else tuple(sorted(S.free_vars(x)))
        num = self._canon.setdefault(key, len(self._canon))
        self._ids[id(x)] = (x, num, names)
        return num, names

    def closure(self, cl: Closure) -> int:
        hit = self._ids.get(id(cl))
        if hit is not None:
            return hit[1]
        num, names = self.node(cl.rz)
        seen = []
        for n in names:
            v = cl.env.get(n)
            if v is not None:
                seen.append((n, (self.closure(v),) if type(v) is Closure else v))
        fp = self._canon.setdefault((num, tuple(seen)), len(self._canon))
        self._ids[id(cl)] = (cl, fp, ())
        return fp

    def explore(self, key, trail, lines):
        """The distinct outcomes of one loop head's subtree.  The generator
        `lines` explores it on the first visit; later visits replay the
        record and leave `lines` unstarted.  An exception the subtree
        raised is re-raised after the outcomes that preceded it; a
        fuel-out or an abandoned visit records nothing."""
        base = len(trail)
        entry = self.entries.get(key)
        if entry is not None:
            outs, err = entry
            for out, suffix in outs:
                trail.extend(suffix)
                yield out
                del trail[base:]
            if err is not None:
                raise err
            return
        outs, seen = [], set()
        try:
            for out in lines:
                if type(out) is Finished:
                    k = (Finished, _state_key(out.state), self.closure(out.residual))
                else:
                    k = (type(out), _state_key(out.state))
                if k not in seen:
                    seen.add(k)
                    outs.append((out, tuple(trail[base:])))
                    yield out
        except BudgetExhausted:
            raise
        except Exception as err:
            self.entries.setdefault(key, (outs, err))
            raise
        self.entries.setdefault(key, (outs, None))


def _explore(game, role, cl, state, menu, budget, trail, memo) -> Iterator:
    ks, core = peel_for(cl, game)
    if not ks:
        yield from _explore_core(game, role, core, state, menu, budget, trail, memo)
        return
    for out in _explore_core(game, role, core, state, menu, budget, trail, memo):
        if isinstance(out, Finished):
            yield Finished(out.state, apply_ks(ks, out.residual))
        else:
            yield out


def _explore_core(game, role, cl, state, menu, budget, trail, memo) -> Iterator:
    match game:
        case S.Test(cond=phi):
            try:
                holds = S.eval_fo(phi, state)
            except TypeError:
                raise IllStructuredRealizer(
                    f"test condition is not ground first-order: {phi!r}"
                )
            if role == ACTIVE:
                if not holds:
                    trail.append("angel-test fail")
                    yield AngelViolation(state)
                    trail.pop()
                    return
                _ev, cont = pair_view(force(cl, state, budget), state, budget)
                yield Finished(state, cont)
                return
            # Demon asserts iff the test holds; a false assertion or a
            # concession are both early Angel wins
            if not holds:
                trail.append("demon-test concede")
                yield DemonViolation(state)
                trail.pop()
                return
            token = close(R.Unit())
            yield Finished(state, app_rz(cl, token, state, budget))
            return

        case S.Assign(var=x, term=t):
            yield Finished(state.set(x, S.eval_term(t, state)), cl)
            return

        case S.AssignAny(var=x):
            if role == ACTIVE:
                val_cl, cont = pair_view(force(cl, state, budget), state, budget)
                v = num_of(val_cl, state, budget)
                yield Finished(state.set(x, v), cont)
                return
            for v in menu.values_for(x):
                trail.append(f"demon-value {x} {format_rational(v)}")
                yield Finished(state.set(x, v), app_num(cl, v, state, budget))
                trail.pop()
            return

        case S.Choice(left=a, right=b):
            if role == ACTIVE:
                sel_cl, cont = pair_view(force(cl, state, budget), state, budget)
                sel = num_of(sel_cl, state, budget)
                if sel not in (0, 1):
                    raise IllStructuredRealizer(f"branch selector {sel}")
                sub = a if sel == 0 else b
                yield from _explore(sub, role, cont, state, menu, budget, trail, memo)
                return
            fst, snd = pair_view(force(cl, state, budget), state, budget)
            trail.append("demon-branch L")
            yield from _explore(a, role, fst, state, menu, budget, trail, memo)
            trail.pop()
            trail.append("demon-branch R")
            yield from _explore(b, role, snd, state, menu, budget, trail, memo)
            trail.pop()
            return

        case S.Seq(left=a, right=b):
            for out in _explore(a, role, cl, state, menu, budget, trail, memo):
                if isinstance(out, Finished):
                    yield from _explore(
                        b, role, out.residual, out.state, menu, budget, trail, memo
                    )
                else:
                    yield out
            return

        case S.Repeat(body=a):
            yield from _explore_loop(a, role, cl, state, menu, budget, trail, memo, 0)
            return

        case S.Dual(body=a):
            yield from _explore(a, flip(role), cl, state, menu, budget, trail, memo)
            return

    raise TypeError(f"not a game: {game!r}")


def _explore_loop(body, role, cl, state, menu, budget, trail, memo, iteration):
    """A loop head, looked up in the transposition table.  Only Demon's
    repetitions are capped, so only they count iterations; Angel's loop
    stays at iteration 0."""
    key = (memo.node(body)[0], role, iteration, _state_key(state), memo.closure(cl))
    if role == ACTIVE:
        lines = _explore_active_loop(body, cl, state, menu, budget, trail, memo)
    else:
        lines = _explore_dormant_loop(body, cl, state, menu, budget, trail, memo, iteration)
    return memo.explore(key, trail, lines)


def _explore_active_loop(body, cl, state, menu, budget, trail, memo):
    budget.tick()
    sel_cl, cont = pair_view(force(cl, state, budget), state, budget)
    sel = num_of(sel_cl, state, budget)
    if sel == 0:
        yield Finished(state, cont)
        return
    if sel != 1:
        raise IllStructuredRealizer(f"loop selector {sel}")
    for out in _explore(body, ACTIVE, cont, state, menu, budget, trail, memo):
        if isinstance(out, Finished):
            yield from _explore_loop(
                body, ACTIVE, out.residual, out.state, menu, budget, trail, memo, 0
            )
        else:
            yield out


def _explore_dormant_loop(body, cl, state, menu, budget, trail, memo, iteration):
    budget.tick()
    post, stream = pair_view(force(cl, state, budget), state, budget)
    trail.append(f"demon-loop stop@{iteration}")
    yield Finished(state, post)
    trail.pop()
    if iteration >= menu.repeat_depth:
        return
    trail.append(f"demon-loop continue@{iteration}")
    for out in _explore(body, DORMANT, stream, state, menu, budget, trail, memo):
        if isinstance(out, Finished):
            yield from _explore_loop(
                body, DORMANT, out.residual, out.state, menu, budget, trail, memo,
                iteration + 1,
            )
        else:
            yield out
    trail.pop()
