"""Gameplay: one game machine runs a strategy against an adversary.

Angel's moves come from a realizer closure; Demon's come from a demon
that offers its options at each decision.  An oracle (scripted, seeded
random, or interactive) offers one, so the machine plays one run; a
finite menu offers every option it does not dominate, so the machine
explores every line, which is how strategy soundness is verified at desk
scale.

Realizers are paired with environments.  A `Compose` wrapper is peeled
off when the first game of its prefix is played and rides along on the
continuation until the prefix is done, so a weakened strategy plays
exactly like the strategy it weakens.  An elimination acts on a
`Compose`'s `first`, and the residual keeps composing over the rest.

Closures are safe for space (Shao & Appel, "Space-Efficient Closure
Representations", LFP 1994): a realizer's capture set holds each name it
reads, as a realizer variable and as the key of a number bound to a term
variable, and every value enters an environment through `_bind`.  A body
that cannot read the name keeps its environment as it is, and a closure
stored as a value keeps only the entries of its own capture set.  Forcing
and the transposition table read nothing outside capture sets, so this
changes what a play keeps alive and nothing that it does: a finished
play's residual holds no earlier round.

The closure register is unboxed: forcing, application and the game
machine hold the closure they work on as two values, a realizer and its
environment, and build a `Closure` object only where a closure is stored.
That is where `_bind` binds one in an environment, already trimmed to its
capture set (a closure that reads nothing shares one empty environment),
and where one is handed out, as a finished play's residual or by
`app_rz`.  The transposition table numbers a closure by what it holds.
At a dormant loop's head the demon picks stop or one more round, and the
machine builds only that half of the loop's stream (`_gen_half`, through
which `pair_view` builds both).

A verify hands the machine its judge, so only losing lines leave it; a
winning one ends at the root unboxed.  Evidence for a Demon test applied
to a ProofLam reads no state, so a register keeps the last such
application for the same closure (`_assertion`); fuel is charged as before.
"""

from __future__ import annotations

import random as _random
from collections.abc import Sequence
from fractions import Fraction
from typing import Optional
from weakref import ref

from . import realizer as R
from . import syntax as S
from .checker import realizer_of_formula
from .printer import print_formula, print_game
from .rational import Rational, canon, format_rational, parse_rational
from .syntax import Formula, Game, State, frozen

ACTIVE = "active"
DORMANT = "dormant"


def flip(role: str) -> str:
    return DORMANT if role == ACTIVE else ACTIVE


class IllStructuredRealizer(Exception):
    """The realizer shape does not match the game position."""


class NoMenuValues(IllStructuredRealizer):
    """A demon menu lists no values for a nondeterministic assignment."""


class ScriptMismatch(IllStructuredRealizer):
    """A demon script runs out, or gives a word its position does not take."""


class BudgetExhausted(Exception):
    pass


@frozen
class Finished:
    state: State
    residual: "Closure"


@frozen
class AngelViolation:
    state: State


@frozen
class DemonViolation:
    state: State


@frozen
class FuelOut:
    state: State


class Closure:
    """A realizer and its environment, boxed.  The machine keeps the closure
    it runs in two registers, the realizer and the environment, and boxes
    one only where it is stored: bound in an environment (`_bind`) or
    handed out, as a finished play's residual or by `app_rz`."""

    __slots__ = ("rz", "env")

    def __init__(self, rz: R.Realizer, env: dict):
        self.rz = rz
        self.env = env

    def __repr__(self):
        return f"Closure({self.rz!r})"


def close(rz: R.Realizer) -> Closure:
    return Closure(rz, {})


class Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n


# ---------------------------------------------------------------------------
# Forcing.  A closure in hand is two registers, (rz, env): these functions
# take it as two arguments and return it as two values.


def _at(state: State, env, x):
    """x, a term or formula, evaluated at state under env: the numbers
    `AppNum` bound to variables x reads shadow the game state, in one copy
    of its bindings.  A number is bound under the 1-tuple of its variable,
    apart from the realizer variables, which are strings."""
    try:
        fn, keys = x._staged
    except AttributeError:
        fn, keys = S.kept(x, "_staged", _stage)
    vals = None
    for key in keys:
        v = env.get(key)
        if v is not None:
            if vals is None:
                vals = state._vals.copy()
            vals[key[0]] = v
    return fn(state if vals is None else State.of(vals))


_WHNF = frozenset((R.Unit, R.Pair, R.TermVal, R.NumLamR, R.ProofLam, R.Gen, R.Compose))


def _stage(x):  # (evaluator, env keys of its variables) of a term or formula
    fn = S.compile_fo(x) if isinstance(x, Formula) else S.compile_term(x)
    return fn, tuple((v,) for v in S.free_vars(x))


def force(rz: R.Realizer, env: dict, state: State, budget: Budget):
    """(rz, env) in weak head normal form: Unit, Pair, TermVal, NumLamR,
    ProofLam, Gen, or Compose.  Each step spends one unit of fuel."""
    while True:
        budget.left -= 1
        if budget.left < 0:
            raise BudgetExhausted()
        t = type(rz)
        if t in _WHNF:
            return rz, env
        if t is R.RVar:
            v = env.get(rz.name)
            if v is None:
                raise IllStructuredRealizer(f"unbound realizer variable {rz.name}")
            rz, env = v.rz, v.env
        elif t is R.IfTerm:
            try:
                b = _at(state, env, rz.cond)
            except (TypeError, ArithmeticError) as e:
                raise IllStructuredRealizer(f"unevaluable decision {rz.cond!r}: {e}")
            rz = rz.then if b else rz.els
        elif t is R.Decide:
            sel, prz, penv = _number_and_rest(rz.scrut, env, state, budget)
            if sel == 0:
                rz, env = rz.left, _bind(env, rz.left, rz.lvar, prz, penv)
            else:
                rz, env = rz.right, _bind(env, rz.right, rz.rvar, prz, penv)
        elif t is R.Fst or t is R.Snd:
            a, aenv, b, benv = pair_view(*force(rz.arg, env, state, budget), state, budget)
            rz, env = (a, aenv) if t is R.Fst else (b, benv)
        elif t is R.AppNum:
            v = _at(state, env, rz.term)
            rz, env = app_num(rz.fn, env, v, state, budget)
        elif t is R.AppRz:
            rz, env = _app_rz(rz.fn, env, rz.arg, env, state, budget)
        else:  # Ind
            rz, env = rz.body, _bind(env, rz.body, rz.var, rz, env)


_EMPTY = {}  # the environment of every bound closure that can read none of its own; never written


def _bind(env: dict, rz: R.Realizer, key, v, venv=None) -> dict:
    """env with key bound, for closures of rz: env itself when rz cannot
    read key.  The value is the number v or, given venv, the closure of v
    in venv, boxed here with only the entries its realizer can read."""
    try:
        keys = rz._capture
    except AttributeError:
        keys = S.kept(rz, "_capture", _capture)
    if key not in keys:
        return env
    if venv is not None:
        try:
            keys = v._capture
        except AttributeError:
            keys = S.kept(v, "_capture", _capture)
        if venv:
            if keys.isdisjoint(venv):
                venv = _EMPTY
            elif not venv.keys() <= keys:
                venv = {k: w for k, w in venv.items() if k in keys}
        v = Closure(v, venv)
    return {**env, key: v}


def _capture(rz: R.Realizer) -> frozenset:
    """The environment keys a closure of rz can read: each name it reads,
    as a realizer variable and as the number bound to a term variable."""
    names = S.kept(rz, "_reads", _reads)
    return frozenset(names).union([(n,) for n in names])


def app_num(rz: R.Realizer, env: dict, v: Optional[Rational], state: State, budget: Budget):
    """(rz, env), a number lambda, applied to v; to None at a demon's
    `x := *`, whose value the state already holds, so a number bound to x
    earlier is dropped rather than left to shadow it."""
    rz, env = force(rz, env, state, budget)
    if type(rz) is R.NumLamR:
        key = (rz.var,)
        if v is not None:
            return rz.body, _bind(env, rz.body, key, v)
        if key in env:
            return rz.body, {k: w for k, w in env.items() if k != key}
        return rz.body, env
    if type(rz) is R.Compose and type(rz.games[0]) is S.AssignAny:
        return _residual(rz, env, (), *app_num(rz.first, env, v, state, budget))
    raise IllStructuredRealizer(f"number application to {type(rz).__name__}")


def app_rz(cl: Closure, arg: Closure, state: State, budget: Budget) -> Closure:
    """cl, a proof lambda, applied to the evidence arg."""
    return Closure(*_app_rz(cl.rz, cl.env, arg.rz, arg.env, state, budget))


def _app_rz(rz: R.Realizer, env: dict, arg: R.Realizer, aenv: dict, state: State,
            budget: Budget):
    rz, env = force(rz, env, state, budget)
    if type(rz) is R.ProofLam:
        return rz.body, _bind(env, rz.body, rz.hyp, arg, aenv)
    if type(rz) is R.Compose and type(rz.games[0]) is S.Test:
        return _residual(rz, env, (), *_app_rz(rz.first, env, arg, aenv, state, budget))
    raise IllStructuredRealizer(f"realizer application to {type(rz).__name__}")


def peel_for(rz: R.Realizer, env: dict, game):
    """Collect composition wrappers whose recorded prefix starts with the
    game about to be played, and what is left of (rz, env).  Purely
    structural (realizer variables are chased, nothing is evaluated), so
    safe at any position; the continuations apply when this game's play
    returns."""
    ks = []
    while True:
        while type(rz) is R.RVar:
            v = env.get(rz.name)
            if type(v) is not Closure:
                raise IllStructuredRealizer(f"unbound realizer variable {rz.name}")
            rz, env = v.rz, v.env
        if type(rz) is not R.Compose or rz.games[0] != game:
            return ks, rz, env
        ks.append((rz.var, rz.cont, env, rz.games[1:]))
        rz = rz.first


def apply_ks(ks, rz: R.Realizer, env: dict):
    """The residual of a completed prefix feeds each pending continuation;
    continuations with games left to play keep riding the residual."""
    for var, cont, kenv, rest in reversed(ks):
        if rest:
            c = R.Compose(R.RVar("*r*"), var, cont, rest)
            rz, env = c, _bind(kenv, c, "*r*", rz, env)
        else:
            rz, env = cont, _bind(kenv, cont, var, rz, env)
    return rz, env


def _residual(f: R.Compose, fenv: dict, left: tuple, rz: R.Realizer, env: dict):
    """(f, fenv) after its first game: (rz, env) plays `left`, f's other
    games, then f's continuation."""
    return apply_ks([(f.var, f.cont, fenv, left + f.games[1:])], rz, env)


def pair_view(rz: R.Realizer, env: dict, state: State, budget: Budget):
    """View a forced closure as a pair: (first, its env, second, its env);
    loop streams unroll on demand."""
    t = type(rz)
    if t is R.Pair:
        return rz.fst, env, rz.snd, env
    if t is R.Gen:
        return (*_gen_half(rz, env, False), *_gen_half(rz, env, True))
    if t is R.Compose and type(g := rz.games[0]) in (S.Test, S.AssignAny, S.Choice, S.Repeat):
        a, aenv, b, benv = pair_view(*force(rz.first, env, state, budget), state, budget)
        if type(g) is S.Choice:  # [a ++ b]: a strategy for each side
            return (*_residual(rz, env, (g.left,), a, aenv),
                    *_residual(rz, env, (g.right,), b, benv))
        if type(g) is S.Repeat:  # [a*]: stop, or play the body and loop
            return (*_residual(rz, env, (), a, aenv),
                    *_residual(rz, env, (g.body, g), b, benv))
        # <?Q>, <x := *>: evidence, then the residual
        return (a, aenv, *_residual(rz, env, (), b, benv))
    raise IllStructuredRealizer(f"expected a pair, got {t.__name__}")


def _gen_half(rz: R.Gen, env: dict, go: bool):
    """One half of the Gen (rz, env) as a pair: (post, its env) for stop or,
    when go, (stream, its env) for one more round.  A half binds the
    invariant evidence only when it can read it; building one spends no
    fuel."""
    if not go:
        return rz.post, _bind(env, rz.post, rz.var, rz.init, env)
    stream = S.kept(rz, "_stream", _stream)
    return stream, _bind(env, stream, "*s*", rz.step, _bind(env, rz.step, rz.var, rz.init, env))


def _stream(gen: R.Gen) -> R.Compose:
    """What a Gen unrolls to: its step played through the loop body, whose
    residual is the next invariant evidence of the same loop.  One stream
    per loop: it continues with the Gen whose invariant evidence is its own
    variable, which every Gen of the loop shares.  That Gen's slot holds
    the stream and the stream holds that Gen, so the stream is built
    outside the intern table, whose key would keep the pair alive for good."""
    if gen.init is not R.RVar(gen.var):
        again = R.Gen(R.RVar(gen.var), gen.var, gen.step, gen.post, gen.game)
        return S.kept(again, "_stream", _stream)
    R.Compose._init(stream := object.__new__(R.Compose), R.RVar("*s*"), gen.var, gen,
                    (gen.game,))
    return stream


def _number_and_rest(rz: R.Realizer, env: dict, state: State, budget: Budget):
    """(rz, env) forced to a pair: the number its first half evaluates to,
    and its second half, (rest, its env) (for a composition, the residual
    of the side or round the number picks).  A literal pair's number spends
    the one forcing step its TermVal would."""
    rz, env = force(rz, env, state, budget)
    if type(rz) is R.Pair and type(rz.fst) is R.TermVal:
        budget.left -= 1
        if budget.left < 0:
            raise BudgetExhausted()
        n = rz.fst.term
        return n.value if type(n) is S.Lit else _at(state, env, n), rz.snd, env
    if type(rz) is R.Compose and type(g := rz.games[0]) in (S.Choice, S.Repeat):
        n, rest, renv = _number_and_rest(rz.first, env, state, budget)
        if type(g) is S.Choice:  # <a ++ b>: the number picks the side
            return (n, *_residual(rz, env, (g.right if n else g.left,), rest, renv))
        return (n, *_residual(rz, env, (g.body, g) if n else (), rest, renv))  # <a*>: go or stop
    a, aenv, rest, renv = pair_view(rz, env, state, budget)
    a, aenv = force(a, aenv, state, budget)
    if type(a) is R.TermVal:
        return _at(state, aenv, a.term), rest, renv
    raise IllStructuredRealizer(f"expected a number, got {type(a).__name__}")


# ---------------------------------------------------------------------------
# Demon oracles


class DemonOracle:
    """One adversary decision at a time.  The game machine asks for a
    decision's options; an oracle offers one, the decision it makes."""

    def branch_options(self, game: Game, state: State):
        return (self.choose_branch(game, state),)

    def value_options(self, var: str, state: State):
        return (canon(self.choose_value(var, state)),)  # the machine stores it as is

    def test_options(self, phi: Formula, state: State):
        return (self.assert_test(phi, state),)

    def repeat_options(self, state: State, iteration: int):
        return (self.continue_repeat(state, iteration),)

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

    WORDS = ("L", "R", "assert", "concede", "continue", "stop")  # the rest are numbers

    def __init__(self, script):
        self.script = list(script)
        self.pos = 0

    def _next(self, kind, words=None):
        if self.pos >= len(self.script):
            raise ScriptMismatch(f"demon script exhausted wanting {kind}")
        v = self.script[self.pos]
        self.pos += 1
        if words is not None and v not in words:
            raise ScriptMismatch(f"demon script wanted {'/'.join(words)}, got {v!r}")
        return v

    def choose_branch(self, game, state):
        return self._next("branch", ("L", "R"))

    def choose_value(self, var, state):
        v = self._next("value")
        try:
            return parse_rational(str(v))
        except (ValueError, ZeroDivisionError):
            raise ScriptMismatch(f"demon script wanted a number, got {v!r}") from None

    def assert_test(self, phi, state):
        return self._next("test", ("assert", "concede"))

    def continue_repeat(self, state, iteration):
        return self._next("repeat", ("continue", "stop")) == "continue"


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

    def test_options(self, phi, state):
        return (_CANDID,)  # the machine evaluates the test, once

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
            except EOFError:  # "demon <kind> ..." with nothing left to read
                raise ScriptMismatch(f"demon input ended wanting {prompt.split()[1]}") from None
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
# The game machine, derived from the two recursive interpreters (play and
# explore) it replaced, after Ager, Biernacki, Danvy & Midtgaard, "A
# Functional Correspondence between Evaluators and Abstract Machines"
# (PPDP 2003).  Registers: instruction, closure, state.  Each game node is
# compiled once per role into an instruction, (opcode, game, operands),
# whose subgames' instructions and assignment evaluator are resolved in
# advance (Feeley & Lapalme, "Using closures for code generation", 1987).
# The instruction is kept on its node and holds the node by a weak
# reference, so the two form no cycle and a dropped game is freed at once;
# a dual game's body is compiled in the other role, so no register holds
# the role.  The continuation `k` is a linked list of frames (tag, a, b,
# next) that lines share, so loop depth never reaches Python's stack.  A
# Demon decision pushes the options the demon offers onto `todo`, last
# first; the machine takes them depth first.  A decision with one option,
# which is every decision of an oracle, is taken directly.

_SEQ, _KS, _LOOP, _MEMO = range(4)  # frames; _MEMO ones add a path
_EVAL, _RET, _HEAD, _BACK = range(4)  # what the machine does next
_TEST, _VALUE, _BRANCH, _REPEAT, _REPLAY, _DONE = range(6)  # kinds of option
# opcodes; `_lines` tests two ranges: from _I_ASSIGN to _I_ANGEL_VALUE the
# leaves that end with no decision, from _I_ANGEL_LOOP the loops
(_I_SEQ, _I_ASSIGN, _I_ANGEL_TEST, _I_ANGEL_VALUE, _I_ANGEL_BRANCH, _I_DUAL, _I_DEMON_TEST,
 _I_DEMON_VALUE, _I_DEMON_BRANCH, _I_ANGEL_LOOP, _I_DEMON_LOOP) = range(11)

_UNIT = R.Unit()  # evidence for an asserted test
_HONEST = "honest"  # a test option: assert exactly when the test holds
_CANDID = "candid"  # the same, but concede a test that is not ground first-order


def _compile(g: Game, role: str) -> tuple:
    t, angel, w = type(g), role == ACTIVE, ref(g)
    if t is S.Seq:
        return _I_SEQ, w, _instruction(g.left, role), _instruction(g.right, role)
    if t is S.Assign:
        return _I_ASSIGN, w, g.var, S.compile_term(g.term)
    if t is S.Dual:
        return _I_DUAL, w, _instruction(g.body, flip(role))
    if t is S.Test:
        return _I_ANGEL_TEST if angel else _I_DEMON_TEST, w, g.cond, _condition(g.cond)
    if t is S.AssignAny:
        return _I_ANGEL_VALUE if angel else _I_DEMON_VALUE, w, g.var
    if t is S.Choice:
        return (_I_ANGEL_BRANCH if angel else _I_DEMON_BRANCH, w,
                _instruction(g.left, role), _instruction(g.right, role))
    if t is S.Repeat:
        return _I_ANGEL_LOOP if angel else _I_DEMON_LOOP, w, _instruction(g.body, role)
    raise TypeError(f"not a game: {g!r}")


def _condition(phi: Formula):
    """phi compiled; one not first-order raises TypeError when evaluated."""
    try:
        return S.compile_fo(phi)
    except TypeError:
        return lambda state: S.eval_fo(phi, state)


def _instruction(game: Game, role: str) -> tuple:
    return S.kept(game, "_" + role, lambda g: _compile(g, role))  # _active, _dormant


class Tracer(Sequence):
    """A play's events, one line each, read through `events` (the tracer
    itself).  The machine records each event unformatted, in `raw`; a line
    is formatted, to the text `docs/traces.md` lists, only when it is read,
    so `len` and an unread trace format nothing."""

    __slots__ = ("raw", "_texts")
    events = property(lambda self: self)

    def __init__(self):
        self.raw, self._texts = [], {}  # _texts: test -> its printed form

    def __len__(self):
        return len(self.raw)

    def __getitem__(self, i):
        if type(i) is slice:
            return [_line(e, self._texts) for e in self.raw[i]]
        return _line(self.raw[i], self._texts)

    def __iter__(self):
        return (_line(e, self._texts) for e in self.raw)


def _line(e, texts) -> str:
    """The text of an event or trail move as the machine records it: a
    string, (word, variable, value) or (word, test, verdict)."""
    if type(e) is str:
        return e
    word, x, v = e
    if type(x) is str:
        return f"{word} {x} {format_rational(v)}"
    text = texts.get(x)
    if text is None:
        text = texts[x] = print_formula(x)
    return f"{word} ({text}) {v}"


def _holds(ins: tuple, state: State) -> bool:  # ins: a test instruction
    try:
        return ins[3](state)
    except TypeError:
        raise IllStructuredRealizer(f"test {print_formula(ins[2])} is not ground first-order")


def _lines(game, role, cl, state, demon, budget, tracer=None, memo=None, judge=None):
    """(outcome, path) for every line the demon's options allow, depth
    first.  `tracer` receives play events.  `memo`, a `_Transpositions`,
    wraps every loop head; with it, `path` holds the line's Demon moves
    (read them with `_trail`), and a fuel-out carries the path it reached.
    With `judge`, verify's (post evaluator, require_finished), only losing
    lines are yielded."""
    ev = tracer.raw.append if tracer is not None else None
    holds, strict = judge or (None, False)
    todo = []  # options not yet taken: (kind, option, context, k, path)
    crz, cenv = cl.rz, cl.env  # the closure register
    areg = [None, None, None]  # the assertion register (`_assertion`)
    k, ins, st, bad, it, path, mode = None, _instruction(game, role), state, None, 0, None, _EVAL
    out = okey = None  # the outcome in hand and its table key, once made
    try:
        while True:
            if mode == _EVAL:  # play instruction ins; each game node spends fuel
                budget.left -= 1
                if budget.left < 0:
                    raise BudgetExhausted()
                t = type(crz)
                if t is R.RVar or t is R.Compose:
                    ks, crz, cenv = peel_for(crz, cenv, ins[1]())
                    if ks:
                        k = (_KS, ks, None, k)
                op = ins[0]
                if op == _I_SEQ:
                    k, ins = (_SEQ, ins[3], None, k), ins[2]
                    continue
                if op <= _I_ANGEL_VALUE:  # a leaf of Angel's or of the state's
                    if op == _I_ASSIGN:
                        v, vals = ins[3](st), st._vals.copy()
                        vals[ins[2]] = v
                        st = State.of(vals)
                        if ev is not None:
                            ev(("assign", ins[2], v))
                    elif op == _I_ANGEL_TEST:
                        ok = _holds(ins, st)
                        if ev is not None:
                            ev(("angel-test", ins[2], "pass" if ok else "fail"))
                        if not ok:
                            if memo is not None:
                                path = (path, "angel-test fail")
                            bad, mode = AngelViolation(st), _RET
                            continue
                        crz, cenv = pair_view(*force(crz, cenv, st, budget), st, budget)[2:]
                    else:
                        v, crz, cenv = _number_and_rest(crz, cenv, st, budget)
                        if ev is not None:
                            ev(("angel-value", ins[2], v))
                        vals = st._vals.copy()
                        vals[ins[2]] = v
                        st = State.of(vals)
                    if k is not None and k[0] == _SEQ:  # straight on to the next game
                        ins, k = k[1], k[3]
                    else:
                        mode = _RET
                    continue
                if op == _I_ANGEL_BRANCH:
                    sel, crz, cenv = _select(crz, cenv, st, budget, "branch")
                    if ev is not None:
                        ev("angel-branch L" if sel == 0 else "angel-branch R")
                    ins = ins[2] if sel == 0 else ins[3]
                    continue
                if op == _I_DUAL:
                    if ev is not None:
                        ev("swap-roles")
                    ins = ins[2]
                    continue
                if op >= _I_ANGEL_LOOP:
                    it, mode = 0, _HEAD
                    continue
                if op == _I_DEMON_TEST:
                    kind, opts, ctx = _TEST, demon.test_options(ins[2], st), (ins, crz, cenv, st)
                elif op == _I_DEMON_VALUE:  # ctx[4]: the fuel forcing the closure took, once known
                    kind, opts = _VALUE, demon.value_options(ins[2], st)
                    ctx = [ins[2], crz, cenv, st, 0]
                else:
                    halves = pair_view(*force(crz, cenv, st, budget), st, budget)
                    kind, opts = _BRANCH, demon.branch_options(ins[1](), st)
                    ctx = ins, halves, st
            elif mode == _HEAD:  # the head of loop ins at iteration it
                outs = None
                if memo is not None:
                    key = (ins[1](), ins[0], it, _state_key(st), memo.closure(crz, cenv))
                    outs = memo.entries.get(key)
                    if outs is None:
                        rec = []
                        todo.append((_DONE, key, rec, None, None))
                        k = (_MEMO, rec, set(), k, path)
                if outs is not None:  # replay what the first visit recorded
                    if k is not None and k[0] == _MEMO:  # less what k has seen
                        outs = [r for r in outs if r[1] not in k[2]]
                    kind, opts, ctx = _REPLAY, outs, None
                else:
                    budget.left -= 1
                    if budget.left < 0:
                        raise BudgetExhausted()
                    if ins[0] == _I_DEMON_LOOP:
                        kind, opts = _REPEAT, demon.repeat_options(st, it)
                        ctx = ins, crz, cenv, st, it
                    else:
                        sel, crz, cenv = _select(crz, cenv, st, budget, "loop")
                        if ev is not None:
                            ev("angel-loop stop" if sel == 0 else "angel-loop continue")
                        if sel == 1:
                            k, ins, mode = (_LOOP, ins, 0, k), ins[2], _EVAL
                        else:
                            mode = _RET
                        continue
            elif mode == _RET:  # hand the outcome, (st, closure) or bad, to k
                while k is not None:
                    tag = k[0]
                    if tag == _MEMO:
                        if okey is None:
                            out = Finished(st, Closure(crz, cenv)) if bad is None else bad
                            fp = memo.closure(crz, cenv) if bad is None else None
                            okey = (type(out), _state_key(out.state), fp)
                        if okey in k[2]:  # continues exactly like its first occurrence
                            break
                        k[2].add(okey)
                        k[1].append((out, okey, (path, k[4])))
                    elif bad is None:
                        if tag == _SEQ:
                            ins, k, mode = k[1], k[3], _EVAL
                            break
                        if tag == _KS:
                            (crz, cenv), out, okey = apply_ks(k[1], crz, cenv), None, None
                        else:
                            ins, it, k, mode = k[1], k[2], k[3], _HEAD
                            break
                    k = k[3]
                else:  # the root: the line ends here
                    if holds is None or (not holds(st) if bad is None
                                         else strict or type(bad) is not DemonViolation):
                        yield (out or bad or Finished(st, Closure(crz, cenv))), path
                out = okey = None
                if mode != _RET:
                    continue
                mode = _BACK
            if mode != _BACK and len(opts) == 1:  # a decision with one option
                opt = opts[0]
            else:
                if mode != _BACK:  # a Demon decision: push its options, last first
                    for opt in reversed(opts):
                        todo.append((kind, opt, ctx, k, path))
                # take the latest option not yet taken
                if not todo:
                    return
                kind, opt, ctx, k, path = todo.pop()
            bad = None
            if kind == _DONE:  # a loop head's subtree is exhausted
                memo.entries.setdefault(opt, ctx)
                mode = _BACK
            elif kind == _REPLAY:
                out, okey, segment = opt
                if segment[0] is not segment[1]:
                    path = (path, segment)
                if type(out) is Finished:
                    st, crz, cenv = out.state, out.residual.rz, out.residual.env
                else:
                    bad = out
                mode = _RET
            elif kind == _BRANCH:
                if ev is not None:
                    ev(f"demon-branch {opt}")
                if memo is not None:
                    path = (path, f"demon-branch {opt}")
                ins, halves, st = ctx
                ins, crz, cenv = (ins[2], *halves[:2]) if opt == "L" else (ins[3], *halves[2:])
                mode = _EVAL
            elif kind == _VALUE:
                x, crz, cenv, st0, spent = ctx
                move = ("demon-value", x, opt)
                if ev is not None:
                    ev(move)
                if memo is not None:
                    path = (path, move)
                if not spent:  # the first value forces what all values continue with
                    left = budget.left
                    ctx[1:3] = crz, cenv = app_num(crz, cenv, None, st0, budget)
                    ctx[4] = left - budget.left
                else:  # a later one is charged the fuel that forcing spent
                    budget.left -= spent
                    if budget.left < 0:
                        raise BudgetExhausted()
                vals = st0._vals.copy()
                vals[x] = opt
                st, mode = State.of(vals), _RET
            elif kind == _TEST:
                ins, crz, cenv, st = ctx
                if opt is _HONEST or opt is _CANDID:
                    try:
                        opt = "assert" if _holds(ins, st) else "concede"
                    except IllStructuredRealizer:
                        if opt is _HONEST:
                            raise
                        opt = "concede"
                elif opt != "concede" and not _holds(ins, st):
                    opt = "false-assert"
                if ev is not None:
                    ev(("demon-test", ins[2], opt))
                if opt == "assert":
                    crz, cenv = _assertion(areg, crz, cenv, st, budget)
                else:
                    if memo is not None:
                        path = (path, f"demon-test {opt}")
                    bad = DemonViolation(st)
                mode = _RET
            else:  # _REPEAT
                ins, crz, cenv, st, it = ctx
                if ev is not None:
                    ev("demon-loop continue" if opt else "demon-loop stop")
                if memo is not None:
                    path = (path, f"demon-loop {'continue' if opt else 'stop'}@{it}")
                crz, cenv = force(crz, cenv, st, budget)
                if type(crz) is R.Gen:  # only the half the demon picks
                    crz, cenv = _gen_half(crz, cenv, opt)
                else:
                    halves = pair_view(crz, cenv, st, budget)
                    crz, cenv = halves[2:] if opt else halves[:2]
                if opt:
                    k, ins, mode = (_LOOP, ins, it + 1, k), ins[2], _EVAL
                else:
                    mode = _RET
    except BudgetExhausted as e:
        e.path = path
        raise


def _select(rz: R.Realizer, env: dict, state: State, budget: Budget, what: str):
    """Angel's 0/1 selector and the continuation paired with it."""
    sel, rz, env = _number_and_rest(rz, env, state, budget)
    if sel != 0 and sel != 1:
        raise IllStructuredRealizer(f"{what} selector {sel} not in {{0,1}}")
    return sel, rz, env


def _assertion(reg: list, rz: R.Realizer, env: dict, state: State, budget: Budget):
    """(rz, env) at a Demon test applied to the asserted test's evidence.
    For a ProofLam that reads no state, so reg, [rz, env, result] of the
    last such application, serves the same realizer and environment again,
    charged the one forcing step it took; any other closure is forced."""
    if rz is reg[0] and env is reg[1]:
        budget.left -= 1
        if budget.left < 0:
            raise BudgetExhausted()
        return reg[2]
    out = _app_rz(rz, env, _UNIT, _EMPTY, state, budget)
    if type(rz) is R.ProofLam:
        reg[:] = rz, env, out
    return out


def _trail(path) -> tuple:
    """The Demon moves on a path, oldest first, formatted.  A path is a
    linked list of (earlier path, move); a replayed segment, (end, start),
    stands for the moves from path start to path end."""
    out, todo = [], [(path, None)]
    while todo:
        cur, stop = todo.pop()
        while cur is not stop:
            cur, move = cur
            if type(move) is str or len(move) == 3:
                out.append(_line(move, None))
            else:
                todo.append((cur, stop))
                cur, stop = move
    return tuple(reversed(out))


def play(game: Game, role: str, cl: Closure, state: State, demon: DemonOracle,
         fuel: int = 100_000, tracer: Optional[Tracer] = None):
    """Play one run; returns Finished/AngelViolation/DemonViolation/FuelOut.
    Events are recorded only when a tracer is given."""
    budget = Budget(fuel)
    try:
        return next(_lines(game, role, cl, state, demon, budget, tracer))[0]
    except BudgetExhausted:
        return FuelOut(state)


# ---------------------------------------------------------------------------
# Exhaustive verification


def strip_assumptions(phi: Formula, cl: Closure, state: State):
    """Peel derived implications off a theorem, feeding oracle-leaf evidence
    for each hypothesis that holds at the state; returns (core, closure) or
    None when a hypothesis fails (the theorem says nothing there)."""
    budget = Budget(10_000)
    while (imp := S.split_implies(phi)) is not None:
        pre, phi = imp
        try:
            if not S.eval_fo(pre, state):
                return None
        except TypeError:
            return None
        # a hypothesis eval_fo can judge has no quantifier, so no oracle
        cl = app_rz(cl, close(realizer_of_formula(pre, None)), state, budget)
    return phi, cl


def modal_core(phi: Formula):
    """The game modality a theorem ultimately asserts, after peeling
    derived implications: (game, role, post)."""
    while (imp := S.split_implies(phi)) is not None:
        phi = imp[1]
    if isinstance(phi, S.Diamond) and not isinstance(phi.game, S.Test):
        return phi.game, ACTIVE, phi.post
    if isinstance(phi, S.Box):  # not a test: that would be an implication
        return phi.game, DORMANT, phi.post
    raise ValueError(f"theorem has no game modality: {phi!r}")


class DemonMenu:
    """Finite adversary menus: values per nondeterministic assignment and a
    cap on Demon-controlled repetition depth.  As a demon it offers every
    option not dominated: at a test only the honest answer, since a false
    assertion and a conceded true test both lose for Demon on the spot; the
    machine finds it when it evaluates the test, once."""

    def __init__(self, values: dict, repeat_depth: int = 8):
        self.values, self.repeat_depth = values, repeat_depth
        # var -> its canonical values, read at the first decision on var (an
        # int or Fraction as it is, the rest from its text); a verify fills
        # the cache of its own copy, which it drops when it returns
        self._parsed = {}

    def __eq__(self, other):  # the cache is not compared
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.values, self.repeat_depth) == (other.values, other.repeat_depth)

    def value_options(self, var: str, state: State):
        opts = self._parsed.get(var)
        if opts is None:
            vals = self.values.get(var)
            if not vals:
                raise NoMenuValues(f"no menu values for {var} := *")
            opts = self._parsed[var] = [canon(v) if type(v) in (int, Fraction) else
                                        canon(parse_rational(str(v))) for v in vals]
        return opts

    def branch_options(self, game: Game, state: State):
        return ("L", "R")

    def test_options(self, phi: Formula, state: State):
        return (_HONEST,)

    def repeat_options(self, state: State, iteration: int):
        return (False, True) if iteration < self.repeat_depth else (False,)


@frozen
class CounterExample:
    state: State
    outcome: object
    trace: tuple


def verify_exhaustive(game: Game, role: str, cl: Closure, init_states, post: Formula,
                      menu: DemonMenu, fuel: int = 2_000_000, require_finished: bool = False):
    """AllWin check: every Demon line ends in DemonViolation or a Finished
    state satisfying post.  Returns None, or a CounterExample.  The machine
    judges each line where it ends and hands out only a losing one.

    Each distinct loop-head position is explored once per call and
    replayed from a transposition table after that; a replay spends no
    fuel, so fuel bounds the work of the unmemoized search from above.
    The menu's values are parsed once per call too, into a copy of the
    menu, so the caller's menu holds no parsed values after the call."""
    memo, judge = _Transpositions(), (_condition(post), require_finished)
    menu = DemonMenu(menu.values, menu.repeat_depth)
    for st in init_states:
        try:
            for out, path in _lines(game, role, cl, st, menu, Budget(fuel), None, memo, judge):
                return CounterExample(st, out, _trail(path))
        except BudgetExhausted as e:
            return CounterExample(st, FuelOut(st), _trail(e.path))
    return None


def _state_key(state: State):
    # exact bindings, explicit zeros included, so a replayed outcome's
    # state prints as the explored one would
    return frozenset(state._vals.items())


class _Transpositions:
    """The machine's transposition table, alive for one verify call.

    What a loop head's subtree yields depends only on the loop body, the
    role, the state, the iteration, and what the closure can observe: its
    realizer and the environment entries named in it (realizer variables,
    and term variables that `_at` would shadow; closure values count
    by their own fingerprint).  The first visit of such a key records the
    subtree's distinct outcomes, each with the path of its first line;
    later visits replay them and spend no fuel.  Outcomes are distinct when
    type, state and residual fingerprint differ; a repeat continues exactly
    like its first occurrence, so it can never be the first losing line.

    Closures are numbered, and realizers and syntax are interned, so a key
    hashes in constant time.  A boxed closure, an environment's value, is
    numbered once and then looked up by id(); that table keeps every boxed
    closure it numbers alive, so no id is reused while the table lives.
    """

    __slots__ = ("entries", "_ids", "_canon")

    def __init__(self):
        self.entries = {}  # head key -> [(outcome, outcome key, (path, head path))]
        self._ids = {}  # id(closure) -> (closure, number)
        self._canon = {}  # (realizer, what the closure reads) -> number

    def closure(self, rz: R.Realizer, env: dict) -> int:
        seen = []
        for n in S.kept(rz, "_reads", _reads):
            v = env.get(n)
            if v is not None:
                hit = self._ids.get(id(v))
                if hit is None:
                    hit = self._ids[id(v)] = (v, self.closure(v.rz, v.env))
                seen.append((n, (hit[1],)))
            v = env.get((n,))
            if v is not None:
                seen.append((n, v))
        return self._canon.setdefault((rz, tuple(seen)), len(self._canon))


def _reads(x: R.Realizer) -> tuple:
    """The names a closure of x can read: its variables and binders, and
    the variables of its terms and formulas (games are never evaluated)."""
    names = set()
    for field in x.__match_args__:
        v = getattr(x, field)
        if type(v) is str:
            names.add(v)
        elif isinstance(v, R.Realizer):
            names.update(S.kept(v, "_reads", _reads))
        elif isinstance(v, (S.Term, Formula)):
            names.update(S.free_vars(v))
    return tuple(sorted(names))
