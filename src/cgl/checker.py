"""Syntax-directed proof checking for game formulas, elaborating each
checked proof into its strategy realizer.

`check` decides the judgment  ctx |- M : phi  by recursion over the proof
term, with one rule per proof form (`_rule`) in two modes: checking
against a given formula, or synthesizing one.  Elimination forms
synthesize and then meet the goal, introduction forms need the goal, and
a form that works both ways states each side condition once, so the two
modes never drift apart.  Monotonicity needs the postcondition of its
scrutinee under the goal's first game.  `_infer_post` guesses it by
following the scrutinee along the known games, and the scrutinee is then
checked against the guess, so a wrong guess rejects a proof and never
accepts one.

The same pass builds the realizer, one per calculus rule as in the
paper's soundness proof (bidirectional elaboration): each rule returns
the formula and the realizer of its proof.  A `mon`, like a `for` step
or `fp`'s recursion, is composition: `realizer.compose` plays the
scrutinee's strategy and then the body's on its residual.
Hypothesis evidence consumed only by oracle payloads is erased to units;
oracle leaves become unit evidence or decision trees over comparisons.

First-order leaves (FO / Dec / split) are discharged by the arithmetic
oracle; every failure names the offending subterm by path.  All mutable
state (ghost and fresh-name counters) lives in one `_Elaboration` per
call, so a `Checker` holds only its oracle.

Every checking pass, `check_result` included, builds the full realizer,
witnesses of existential leaves too.  A proof the pass accepts and
realizes in full keeps its goal, context and realizer in a slot on the
term; `accepted` hands that realizer back against an equal goal and
context, which is how `extraction.extract(..., checked=True)` after a
check walks no proof.
"""

from __future__ import annotations

import itertools
from typing import Optional

from . import proofterms as P
from . import realizer as R
from . import syntax as S
from .oracle import REFUTED, VALID, ArithOracle, exists_witness
from .proofterms import Context, ProofTerm
from .syntax import Formula, Game

RULE_MISMATCH = "RuleMismatch"
UNBOUND = "UnboundProofVar"
FRESHNESS = "FreshnessViolation"
INADMISSIBLE = "InadmissibleSubstitution"
ORACLE_INCOMPLETE = "OracleIncomplete"
ORACLE_REFUTED = "OracleRefuted"
METRIC_ILL_FORMED = "MetricIllFormed"


class CheckError(Exception):
    def __init__(self, kind: str, path, message: str, reason: str = ""):
        self.kind = kind
        self.path = tuple(path)
        self.message = message
        self.reason = reason  # why the oracle could not certify, if it is the cause
        super().__init__(str(self))

    def __str__(self):
        loc = ".".join(self.path) or "root"
        return f"{loc}: {self.kind}: {self.message}"

    def to_json(self):
        out = {"kind": self.kind, "path": list(self.path), "message": self.message}
        if self.reason:
            out["reason"] = self.reason
        return out


class UncheckedInput(Exception):
    """No realizer: the checker rejects the proof, or an oracle leaf it
    accepts has no closed witness."""


def _fmt(x) -> str:
    from .printer import print_formula, print_game

    if isinstance(x, Formula):
        return print_formula(x)
    if isinstance(x, Game):
        return print_game(x)
    return repr(x)


def conj(a: Formula, b: Formula) -> Formula:
    return S.And(a, b)


def succ_formula(bigger: S.Term, smaller: S.Term) -> Formula:
    """bigger strictly dominates smaller in the well-founded metric order:
    bigger >= smaller + 1 and smaller >= 0."""
    ge1 = S.Cmp(bigger, ">=", S.Plus(smaller, S.lit(1)))
    ge0 = S.Cmp(smaller, ">=", S.lit(0))
    return conj(ge1, ge0)


def realizer_of_formula(phi: Formula, oracle: ArithOracle) -> R.Realizer:
    """Evidence for an oracle-certified first-order fact: units for
    comparisons, pairs for conjunctions, decision trees for disjunctions."""
    if isinstance(phi, S.Cmp):
        return R.Unit()
    disj = S.split_or(phi)
    if disj is not None:
        l, r = disj
        return R.IfTerm(
            l,
            _tagged(0, R.Pair(realizer_of_formula(l, oracle), R.Unit())),
            _tagged(1, R.Pair(realizer_of_formula(r, oracle), R.Unit())),
        )
    both = S.split_and(phi)
    if both is not None:
        l, r = both
        return R.Pair(realizer_of_formula(l, oracle), realizer_of_formula(r, oracle))
    imp = S.split_implies(phi)
    if imp is not None:
        pre, post = imp
        return R.ProofLam("_", pre, realizer_of_formula(post, oracle))
    if isinstance(phi, S.Box) and isinstance(phi.game, S.AssignAny):
        return R.NumLamR(phi.game.var, realizer_of_formula(phi.post, oracle))
    if isinstance(phi, S.Diamond) and isinstance(phi.game, S.AssignAny):
        cand = exists_witness(oracle, phi)
        if cand is None:
            raise UncheckedInput(f"no closed witness for oracle-certified {phi!r}")
        inst = S.subst_term(phi.post, phi.game.var, cand)
        return R.Pair(R.TermVal(cand), realizer_of_formula(inst, oracle))
    raise UncheckedInput(f"cannot realize non-first-order {phi!r}")


def _tagged(i: int, rz: R.Realizer) -> R.Realizer:
    """A choice of branch i (0 left / stop, 1 right / go) with its evidence."""
    return R.Pair(R.TermVal(S.lit(i)), rz)


def _split_rz(f: S.Term, g: S.Term) -> R.Realizer:
    ev = R.Pair(R.Unit(), R.Unit())
    return R.IfTerm(S.Cmp(f, "<=", g), _tagged(0, ev), _tagged(1, ev))


class Checker:
    """Checks proofs with one oracle; each call elaborates afresh, so a
    Checker may be shared (its oracle's memo is the only state)."""

    def __init__(self, oracle: Optional[ArithOracle] = None):
        self.oracle = oracle or ArithOracle()

    def check(self, ctx: Context, m: ProofTerm, phi: Formula) -> R.Realizer:
        """The realizer of m; raises CheckError unless ctx |- m : phi, and
        UncheckedInput if an accepted oracle leaf has no closed witness."""
        return elaborate(ctx, m, phi, self.oracle)

    def check_result(self, ctx: Context, m: ProofTerm, phi: Formula):
        """The CheckError, or None when ctx |- m : phi (also when an
        accepted oracle leaf has no closed witness, so no realizer)."""
        try:
            elaborate(ctx, m, phi, self.oracle)
        except CheckError as e:
            return e
        except UncheckedInput:
            pass
        return None

    def synth(self, ctx: Context, m: ProofTerm) -> Formula:
        return _Elaboration(self.oracle)._synth(ctx, m, ())[0]


def accepted(ctx: Context, m: ProofTerm, phi: Formula) -> Optional[R.Realizer]:
    """The realizer an elaboration built when it accepted this very term
    object and realized every leaf, if it proved an equal phi in an equal
    context; else None."""
    rec = getattr(m, "_accepted", None)
    if rec is not None and rec[0] == phi and rec[1] == tuple(ctx.items()):
        return rec[2]
    return None


def elaborate(ctx: Context, m: ProofTerm, phi: Formula, oracle: ArithOracle) -> R.Realizer:
    """Check m against phi and return its realizer.  A proof accepted with
    every leaf realized keeps its goal, context and realizer on the term
    (`_accepted`), for `accepted`; the record is immutable and holds no
    reference back to the term."""
    el = _Elaboration(oracle)
    rz = el._check(ctx, m, phi, ())
    if el.unrealized is not None:
        raise UncheckedInput(el.unrealized)
    object.__setattr__(m, "_accepted", (phi, tuple(ctx.items()), rz))
    return rz


class _Elaboration:
    """One checking pass: the oracle and the counters for ghost and fresh
    realizer names."""

    def __init__(self, oracle: ArithOracle):
        self.oracle = oracle
        self.ghosts = 0
        self.guessing = False  # inside `_infer_post`: formulas only
        self._guessed = {}  # (id(scrutinee), games, ghosts) -> (context, guess)
        self._names = itertools.count(1)
        self.unrealized: Optional[str] = None  # why some accepted leaf has no realizer

    # -- helpers -------------------------------------------------------------

    def _fresh_ghost(self, base: str) -> str:
        self.ghosts += 1
        return f"{base}~{self.ghosts}"

    def _fresh(self, base: str) -> str:
        return f"{base}#{next(self._names)}"

    def _expect(self, cond, kind, path, msg):
        if not cond:
            raise CheckError(kind, path, msg)

    def _same(self, got: Formula, want: Optional[Formula], path, what="formula"):
        if want is not None and got != want:
            raise CheckError(
                RULE_MISMATCH, path, f"expected {what} {_fmt(want)}, got {_fmt(got)}"
            )

    def _rename_ctx(self, ctx: Context, game: Game) -> Context:
        """Materialize the context with every variable bound by `game`
        transposed to a fresh internal ghost."""
        out = ctx
        for v in sorted(S.bound_vars(game)):
            if v in out.free_vars():
                out = out.rename_vars(v, self._fresh_ghost(v))
        return out

    def _oracle_gate(self, rho: Optional[Formula], goal: Formula, path, who: str):
        res = self.oracle.decide(rho, goal)
        if res.status == VALID:
            return
        if res.status == REFUTED:
            raise CheckError(
                ORACLE_REFUTED,
                path,
                f"{who}: {_fmt(goal)} refuted at {res.witness!r}"
                + (f" under {_fmt(rho)}" if rho is not None else ""),
            )
        raise CheckError(
            ORACLE_INCOMPLETE,
            path,
            f"{who}: cannot certify {_fmt(goal)}"
            + (f" under {_fmt(rho)}" if rho is not None else "")
            + f" ({res.reason})",
            reason=res.reason,
        )

    def _leaf(self, ctx: Context, goal: Formula, payload, path, who: str) -> R.Realizer:
        """Discharge an oracle leaf and realize its goal."""
        if self.guessing:
            return R.Unit()
        rho = self._payload_formula(ctx, payload, path)
        self._oracle_gate(rho, goal, path, who)
        try:
            return realizer_of_formula(goal, self.oracle)
        except UncheckedInput as e:
            self.unrealized = self.unrealized or str(e)
            return R.Unit()

    # -- the rules -------------------------------------------------------------

    def _check(self, ctx: Context, m: ProofTerm, phi: Formula, path) -> R.Realizer:
        return self._rule(ctx, m, phi, path)[1]

    def _synth(self, ctx: Context, m: ProofTerm, path):
        return self._rule(ctx, m, None, path)

    def _rule(self, ctx: Context, m: ProofTerm, phi: Optional[Formula], path):
        """(the formula m proves, its realizer): checked against phi, or
        synthesized when phi is None.  A form that needs the goal matches
        only when phi is given; an elimination form synthesizes and then
        meets the goal after the match.

        Premises recurse into `_rule` itself, not through `_check` or
        `_synth`: one frame per proof node.  With a wrapper frame per node
        the oracle queries at the leaves ran a fifth slower on CPython 3.11
        (the same queries, measured on the certify benchmark)."""
        match m:
            case P.PVar(name=p):
                got = ctx.lookup(p)
                if got is None:
                    raise CheckError(UNBOUND, path, f"unbound hypothesis {p}")
                self._same(got, phi, path, f"hypothesis {p}")
                return got, R.RVar(p)

            case P.Lam(hyp=p, ann=ann, body=body):
                post = None
                if phi is not None:
                    imp = S.split_implies(phi)
                    if imp is None:
                        raise CheckError(
                            RULE_MISMATCH, path, f"lambda needs a test-box goal, got {_fmt(phi)}"
                        )
                    pre, post = imp
                    self._same(ann, pre, path, "lambda annotation")
                post, rz = self._rule(ctx.extend(p, ann), body, post, path + ("body",))
                return S.Implies(ann, post), R.ProofLam(p, ann, rz)

            case P.NumLam(var=x, ghost=y, body=body):
                post = None
                if phi is not None:
                    if not (isinstance(phi, S.Box) and isinstance(phi.game, S.AssignAny)):
                        raise CheckError(
                            RULE_MISMATCH, path, f"number-lambda needs [x:=*], got {_fmt(phi)}"
                        )
                    self._expect(
                        phi.game.var == x, RULE_MISMATCH, path,
                        f"binds {x} but goal binds {phi.game.var}",
                    )
                    post = phi.post
                self._ghost_ok(y, ctx, (post,), (), path)
                post, rz = self._rule(ctx.rename_vars(x, y), body, post, path + ("body",))
                self._expect(
                    y not in S.free_vars(post), FRESHNESS, path,
                    f"ghost {y} escapes into {_fmt(post)}",
                )
                return S.Box(S.AssignAny(x), post), R.NumLamR(x, rz)

            case P.DPair(fst=a, snd=b):
                l = r = None
                if phi is not None:
                    both = S.split_and(phi)
                    if both is None:
                        raise CheckError(
                            RULE_MISMATCH, path, f"pair needs a diamond-test goal, got {_fmt(phi)}"
                        )
                    l, r = both
                l, a_rz = self._rule(ctx, a, l, path + ("fst",))
                r, b_rz = self._rule(ctx, b, r, path + ("snd",))
                return conj(l, r), R.Pair(a_rz, b_rz)

            case P.BPair(fst=a, snd=b) if phi is not None:
                if not (isinstance(phi, S.Box) and isinstance(phi.game, S.Choice)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"box-pair needs [a++b], got {_fmt(phi)}"
                    )
                g = phi.game
                return phi, R.Pair(
                    self._rule(ctx, a, S.Box(g.left, phi.post), path + ("fst",))[1],
                    self._rule(ctx, b, S.Box(g.right, phi.post), path + ("snd",))[1],
                )

            case P.InjL(arg=a) | P.InjR(arg=a) if phi is not None:
                right = isinstance(m, P.InjR)
                if not (isinstance(phi, S.Diamond) and isinstance(phi.game, S.Choice)):
                    raise CheckError(
                        RULE_MISMATCH, path,
                        f"{'inr' if right else 'inl'} needs <a++b>, got {_fmt(phi)}",
                    )
                side = phi.game.right if right else phi.game.left
                arg = self._rule(ctx, a, S.Diamond(side, phi.post), path + ("arg",))[1]
                return phi, _tagged(int(right), arg)

            case P.Case(scrut=a, left=l, bleft=bl, right=r, bright=br):
                sphi, a_rz = self._rule(ctx, a, None, path + ("scrut",))
                if not (isinstance(sphi, S.Diamond) and isinstance(sphi.game, S.Choice)):
                    raise CheckError(
                        RULE_MISMATCH, path + ("scrut",),
                        f"case scrutinee must prove <a++b>, got {_fmt(sphi)}",
                    )
                lphi, l_rz = self._rule(
                    ctx.extend(l, S.Diamond(sphi.game.left, sphi.post)), bl, phi,
                    path + ("left",),
                )
                rphi, r_rz = self._rule(
                    ctx.extend(r, S.Diamond(sphi.game.right, sphi.post)), br, phi,
                    path + ("right",),
                )
                if phi is None:
                    self._same(rphi, lphi, path, "case join")
                return lphi, R.Decide(a_rz, l, l_rz, r, r_rz)

            case P.RCase(scrut=a, svar=s, sbody=bs, gvar=g, gbody=bg) if phi is not None:
                sphi, a_rz = self._rule(ctx, a, None, path + ("scrut",))
                if not (isinstance(sphi, S.Diamond) and isinstance(sphi.game, S.Repeat)):
                    raise CheckError(
                        RULE_MISMATCH, path + ("scrut",),
                        f"rcase scrutinee must prove <a*>, got {_fmt(sphi)}",
                    )
                body = sphi.game.body
                s_rz = self._rule(ctx.extend(s, sphi.post), bs, phi, path + ("stop",))[1]
                gphi = S.Diamond(body, sphi)
                g_rz = self._rule(ctx.extend(g, gphi), bg, phi, path + ("go",))[1]
                return phi, R.Decide(a_rz, s, s_rz, g, g_rz)

            case P.TCons(var=x, ghost=y, hyp=p, witness=f, body=body) if phi is not None:
                if not (isinstance(phi, S.Diamond) and isinstance(phi.game, S.AssignAny)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"witness intro needs <x:=*>, got {_fmt(phi)}"
                    )
                self._expect(
                    phi.game.var == x, RULE_MISMATCH, path,
                    f"witnesses {x} but goal binds {phi.game.var}",
                )
                self._ghost_ok(y, ctx, (phi.post,), (f,), path)
                hyp = S.Cmp(S.Var(x), "=", S.rename(f, x, y))
                inner = self._rule(
                    ctx.rename_vars(x, y).extend(p, hyp), body, phi.post, path + ("body",)
                )[1]
                return phi, R.Pair(R.TermVal(f), R.subst_rvar(inner, p, R.Unit()))

            case P.Unpack(var=x, ghost=y, hyp=p, scrut=a, body=body):
                sphi, a_rz = self._rule(ctx, a, None, path + ("scrut",))
                if not (
                    isinstance(sphi, S.Diamond) and isinstance(sphi.game, S.AssignAny)
                ):
                    raise CheckError(
                        RULE_MISMATCH, path + ("scrut",),
                        f"unpack scrutinee must prove <x:=*>, got {_fmt(sphi)}",
                    )
                self._expect(
                    sphi.game.var == x, RULE_MISMATCH, path,
                    f"unpacks {x} but scrutinee binds {sphi.game.var}",
                )
                self._expect(
                    phi is None or x not in S.free_vars(phi), FRESHNESS, path,
                    f"{x} must not be free in the conclusion {_fmt(phi)}",
                )
                self._ghost_ok(y, ctx, (phi,), (), path)
                post, inner = self._rule(
                    ctx.rename_vars(x, y).extend(p, sphi.post), body, phi, path + ("body",)
                )
                self._expect(
                    x not in S.free_vars(post) and y not in S.free_vars(post),
                    FRESHNESS, path, f"unpacked variable escapes into {_fmt(post)}",
                )
                return post, R.subst_rvar(inner, p, R.Snd(a_rz))

            case P.Asgn(var=x, ghost=y, hyp=p, body=body, flavor=fl) if phi is not None:
                game, post = self._modality(phi, fl, path, "assignment")
                if not isinstance(game, S.Assign) or game.var != x:
                    raise CheckError(
                        RULE_MISMATCH, path,
                        f"assignment proof for {x} against game {_fmt(game)}",
                    )
                self._ghost_ok(y, ctx, (post, phi), (game.term,), path)
                hyp = S.Cmp(S.Var(x), "=", S.rename(game.term, x, y))
                inner = self._rule(
                    ctx.rename_vars(x, y).extend(p, hyp), body, post, path + ("body",)
                )[1]
                return phi, R.subst_rvar(inner, p, R.Unit())

            case P.SeqI(body=body, flavor=fl) if phi is not None:
                game, post = self._modality(phi, fl, path, "sequencing")
                if not isinstance(game, S.Seq):
                    raise CheckError(
                        RULE_MISMATCH, path, f"sequencing proof against {_fmt(game)}"
                    )
                inner = _MOD[fl](game.right, post)
                outer = _MOD[fl](game.left, inner)
                return phi, self._rule(ctx, body, outer, path + ("body",))[1]

            case P.Swap(body=body, flavor=fl) if phi is not None:
                game, post = self._modality(phi, fl, path, "dualizing")
                if not isinstance(game, S.Dual):
                    raise CheckError(
                        RULE_MISMATCH, path, f"dual proof against {_fmt(game)}"
                    )
                inner = (S.Box if fl == P.DIA else S.Diamond)(game.body, post)
                return phi, self._rule(ctx, body, inner, path + ("body",))[1]

            case P.Stop(body=body) | P.Go(body=body) if phi is not None:
                go = isinstance(m, P.Go)
                if not (isinstance(phi, S.Diamond) and isinstance(phi.game, S.Repeat)):
                    raise CheckError(
                        RULE_MISMATCH, path,
                        f"{'go' if go else 'stop'} needs <a*>, got {_fmt(phi)}",
                    )
                goal = S.Diamond(phi.game.body, phi) if go else phi.post
                return phi, _tagged(int(go), self._rule(ctx, body, goal, path + ("body",))[1])

            case P.For() if phi is not None:
                return phi, self._check_for(ctx, m, phi, path)

            case P.FP(scrut=a, svar=s, sbody=bs, gvar=g, gbody=bg) if phi is not None:
                sphi, a_rz = self._rule(ctx, a, None, path + ("scrut",))
                if not (isinstance(sphi, S.Diamond) and isinstance(sphi.game, S.Repeat)):
                    raise CheckError(
                        RULE_MISMATCH, path + ("scrut",),
                        f"fp scrutinee must prove <a*>, got {_fmt(sphi)}",
                    )
                body_game = sphi.game.body
                s_rz = self._rule(Context({s: sphi.post}), bs, phi, path + ("stop",))[1]
                gphi = S.Diamond(body_game, phi)
                g_rz = self._rule(Context({g: gphi}), bg, phi, path + ("go",))[1]
                # the go branch's evidence for <a>phi runs a step, then recurses
                w, z = self._fresh("fp"), self._fresh("z")
                again = R.compose(R.RVar(g), z, R.AppRz(R.RVar(w), R.RVar(z)), (gphi,))
                loop = R.Ind(w, R.ProofLam(
                    "*fp-arg*", S.TRUE,
                    R.Decide(R.RVar("*fp-arg*"), s, s_rz, g, R.subst_rvar(g_rz, g, again)),
                ))
                return phi, R.AppRz(loop, a_rz)

            case P.Rep(hyp=p, init=init, body=body, done=done, inv=inv) if phi is not None:
                if not (isinstance(phi, S.Box) and isinstance(phi.game, S.Repeat)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"rep needs [a*], got {_fmt(phi)}"
                    )
                init_rz = self._rule(ctx, init, inv, path + ("init",))[1]
                step_goal = S.Box(phi.game.body, inv)
                step_rz = self._rule(Context({p: inv}), body, step_goal, path + ("step",))[1]
                post_rz = self._rule(Context({p: inv}), done, phi.post, path + ("post",))[1]
                return phi, R.Gen(init_rz, p, step_rz, post_rz, phi.game.body)

            case P.Roll(body=body) if phi is not None:
                if not (isinstance(phi, S.Box) and isinstance(phi.game, S.Repeat)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"roll needs [a*], got {_fmt(phi)}"
                    )
                unrolled = conj(phi.post, S.Box(phi.game.body, phi))
                return phi, self._rule(ctx, body, unrolled, path + ("body",))[1]

            case P.Mon(scrut=a, hyp=p, body=body):
                if phi is None:
                    sphi, a_rz = self._rule(ctx, a, None, path + ("scrut",))
                    if not isinstance(sphi, (S.Diamond, S.Box)):
                        raise CheckError(
                            RULE_MISMATCH, path + ("scrut",),
                            f"mon scrutinee must be modal, got {_fmt(sphi)}",
                        )
                    post = None
                else:
                    if not isinstance(phi, (S.Diamond, S.Box)):
                        raise CheckError(
                            RULE_MISMATCH, path, f"mon needs a modal goal, got {_fmt(phi)}"
                        )
                    # guess the scrutinee's postcondition (the goal's own if the
                    # guess fails), check the scrutinee against it, then the body;
                    # the check numbers its ghosts as if no guess had been made
                    fl = P.DIA if isinstance(phi, S.Diamond) else P.BOX
                    ghosts, self.guessing = self.ghosts, True
                    mid = self._guess(
                        ctx, a, ((fl, phi.game),), _modal_spine(phi.post), path + ("scrut",)
                    )
                    self.ghosts, self.guessing = ghosts, False
                    sphi = type(phi)(phi.game, phi.post if mid is None else mid)
                    a_rz = self._rule(ctx, a, sphi, path + ("scrut",))[1]
                    post = phi.post
                renamed = self._rename_ctx(ctx, sphi.game)
                post, n_rz = self._rule(
                    renamed.extend(p, sphi.post), body, post, path + ("body",)
                )
                return type(sphi)(sphi.game, post), R.compose(a_rz, p, n_rz, (sphi,))

            case P.QE(goal=goal, payload=payload):
                self._same(goal, phi, path, "FO conclusion")
                return goal, self._leaf(ctx, goal, payload, path, "FO")

            case P.Dec(goal=goal, payload=payload):
                want = goal if phi is None else phi
                if S.split_or(want) is None:
                    raise CheckError(
                        RULE_MISMATCH, path, f"Dec needs a disjunction, got {_fmt(want)}"
                    )
                self._same(goal, phi, path, "Dec conclusion")
                return goal, self._leaf(ctx, goal, payload, path, "Dec")

            case P.Split(left=f, right=g):
                got = S.Or(S.Cmp(f, "<=", g), S.Cmp(f, ">", g))
                if phi is not None:
                    self._same(phi, got, path, "split conclusion")
                return got, _split_rz(f, g)

            case P.Ghost(var=x, term=f, hyp=p, body=body):
                self._ghost_ok(
                    x, ctx, (phi,), (f,), path, "must be fresh for the context, goal, and term"
                )
                post, inner = self._rule(
                    ctx.extend(p, S.Cmp(S.Var(x), "=", f)), body, phi, path + ("body",)
                )
                self._expect(
                    x not in S.free_vars(post), FRESHNESS, path,
                    f"ghost {x} escapes into {_fmt(post)}",
                )
                return post, R.AppNum(R.NumLamR(x, R.subst_rvar(inner, p, R.Unit())), f)

            case P.Unroll(body=body):
                # accept the unfolding shape top-down so the loop's game is
                # known even when the body cannot synthesize
                both = None if phi is None else S.split_and(phi)
                if both is not None:
                    now, later = both
                    if (
                        isinstance(later, S.Box)
                        and isinstance(later.post, S.Box)
                        and isinstance(later.post.game, S.Repeat)
                        and later.post.game.body == later.game
                        and later.post.post == now
                    ):
                        return phi, self._rule(ctx, body, later.post, path + ("body",))[1]
                sphi, rz = self._rule(ctx, body, None, path + ("body",))
                if not (isinstance(sphi, S.Box) and isinstance(sphi.game, S.Repeat)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"unroll from non-loop {_fmt(sphi)}"
                    )
                got = conj(sphi.post, S.Box(sphi.game.body, sphi))

            case P.App(fn=fn, arg=arg):
                fphi, f_rz = self._rule(ctx, fn, None, path + ("fn",))
                imp = S.split_implies(fphi)
                if imp is None:
                    raise CheckError(
                        RULE_MISMATCH, path + ("fn",),
                        f"application head must prove a test-box, got {_fmt(fphi)}",
                    )
                pre, got = imp
                rz = f_rz if self.guessing else R.AppRz(
                    f_rz, self._rule(ctx, arg, pre, path + ("arg",))[1]
                )

            case P.NumApp(fn=fn, term=f):
                fphi, f_rz = self._rule(ctx, fn, None, path + ("fn",))
                if not (isinstance(fphi, S.Box) and isinstance(fphi.game, S.AssignAny)):
                    raise CheckError(
                        RULE_MISMATCH, path + ("fn",),
                        f"instantiation head must prove [x:=*], got {_fmt(fphi)}",
                    )
                try:
                    got = S.subst_term(fphi.post, fphi.game.var, f)
                except S.InadmissibleSubstitution as e:
                    raise CheckError(INADMISSIBLE, path, str(e)) from None
                rz = R.AppNum(f_rz, f)

            case P.Proj1(arg=a) | P.Proj2(arg=a):
                i = int(isinstance(m, P.Proj2))
                sphi, a_rz = self._rule(ctx, a, None, path + ("arg",))
                rz = (R.Fst, R.Snd)[i](a_rz)
                both = S.split_and(sphi)
                if both is not None:
                    got = both[i]
                elif isinstance(sphi, S.Box) and isinstance(sphi.game, S.Choice):
                    got = S.Box((sphi.game.left, sphi.game.right)[i], sphi.post)
                else:
                    raise CheckError(
                        RULE_MISMATCH, path, f"projection from non-pair {_fmt(sphi)}"
                    )

            case _:
                raise CheckError(
                    RULE_MISMATCH, path, f"cannot infer a formula for {type(m).__name__}"
                )
        # an elimination form synthesizes its formula, then meets the goal
        self._same(got, phi, path)
        return got, rz

    def _check_for(self, ctx: Context, m: P.For, phi: Formula, path) -> R.Realizer:
        if not (isinstance(phi, S.Diamond) and isinstance(phi.game, S.Repeat)):
            raise CheckError(RULE_MISMATCH, path, f"for needs <a*>, got {_fmt(phi)}")
        game = phi.game.body
        metric, inv, m0 = m.metric, m.inv, m.m0
        touched = (
            S.free_vars(metric)
            | S.free_vars(inv)
            | S.free_vars(phi.post)
            | S.free_vars(game)
            | S.bound_vars(game)
        )
        self._expect(
            m0 not in touched, FRESHNESS, path,
            f"metric snapshot {m0} collides with the loop data",
        )
        # well-foundedness discipline: the invariant pins the metric to
        # non-negative integer-gapped values, so descent terminates
        zero_or_ge1 = S.Or(
            S.Cmp(metric, "=", S.lit(0)), S.Cmp(metric, ">=", S.lit(1))
        )
        res = self.oracle.decide(inv, zero_or_ge1)
        if res.status != VALID:
            raise CheckError(
                METRIC_ILL_FORMED,
                path,
                f"invariant does not pin the metric to {{0}} or >=1: {_fmt(S.Implies(inv, zero_or_ge1))}",
                reason=res.reason,
            )
        init_rz = self._check(ctx, m.init, inv, path + ("init",))
        m0v = S.Var(m0)
        step_hyp = conj(S.Cmp(m0v, "=", metric), S.Cmp(metric, ">=", S.lit(1)))
        step_post = conj(inv, succ_formula(m0v, metric))
        # the step plays one round of the loop body, then its residual
        # evidence for the invariant feeds the next round
        w, t = self._fresh("loop"), self._fresh("t")
        step = S.Diamond(game, step_post)
        step_rz = self._check(
            Context({m.hyp: inv, m.mhyp: step_hyp}), m.body, step, path + ("step",)
        )
        body_rz = R.compose(step_rz, t, R.AppRz(R.RVar(w), R.Fst(R.RVar(t))), (step,))
        done_hyp = S.Cmp(metric, "=", S.lit(0))
        done_rz = self._check(
            Context({m.hyp: inv, m.mhyp: done_hyp}), m.done, phi.post, path + ("post",)
        )
        loop = R.Ind(w, R.ProofLam(m.hyp, inv, R.IfTerm(
            S.Cmp(metric, "=", S.lit(0)),
            _tagged(0, R.subst_rvar(done_rz, m.mhyp, R.Unit())),
            R.AppNum(R.NumLamR(m0, _tagged(1, R.subst_rvar(
                body_rz, m.mhyp, R.Pair(R.Unit(), R.Unit())
            ))), metric),
        )))
        return R.AppRz(loop, init_rz)

    def _payload_formula(self, ctx: Context, payload, path) -> Optional[Formula]:
        if payload is None:
            return None
        return self._synth(ctx, payload, path + ("payload",))[0]

    # -- guessing a `mon` scrutinee's postcondition ----------------------------

    def _guess(self, ctx: Context, m: ProofTerm, stack, hints, path):
        """`_infer_post`, remembered: a scrutinee nested in another `mon`
        scrutinee is guessed once, not again at every enclosing level."""
        key = (id(m), stack, hints, self.ghosts)
        hit = self._guessed.get(key)
        if hit is None or hit[0] is not ctx:
            hit = self._guessed[key] = ctx, self._infer_post(ctx, m, stack, hints, path)
        return hit[1]

    def _infer_post(self, ctx: Context, m: ProofTerm, stack, hints, path):
        """A guess at psi with  ctx |- m : M0(g0, M1(g1, ... psi))  for a
        stack [(f0, g0), (f1, g1), ...] of (flavor, game) pairs, or None
        where m does not fit its games.  Nothing here is trusted: `_rule`
        then checks m against the guess and names any fault.

        The guess follows m along the games, reads an oracle leaf's goal,
        and synthesizes the rest; while guessing, synthesis asks no oracle
        and checks no application argument.  When the stack runs dry on a
        rule whose game cannot be read off the term (conversion reducts land
        here), `hints` -- the modal spine of the enclosing goal -- supplies
        it.
        """
        if not stack:
            if hints and isinstance(m, _NEEDS_GAME):
                post = self._infer_post(ctx, m, hints[:1], hints[1:], path)
                return None if post is None else _wrap(hints[:1], post)
            if isinstance(m, (P.QE, P.Dec)):
                return m.goal
            return self._synth(ctx, m, path)[0]
        (fl, game), rest = stack[0], stack[1:]
        dia = fl == P.DIA
        match m:
            case P.SeqI(body=body, flavor=f) if f == fl and isinstance(game, S.Seq):
                stack = ((fl, game.left), (fl, game.right)) + rest
                return self._infer_post(ctx, body, stack, hints, path + ("body",))
            case P.Swap(body=body, flavor=f) if f == fl and isinstance(game, S.Dual):
                stack = ((P.BOX if dia else P.DIA, game.body),) + rest
                return self._infer_post(ctx, body, stack, hints, path + ("body",))
            case P.DPair(snd=b) if dia and isinstance(game, S.Test):
                return self._infer_post(ctx, b, rest, hints, path + ("snd",))
            case P.Lam(hyp=p, ann=ann, body=body) if not dia and isinstance(game, S.Test):
                inner = ctx.extend(p, ann)
                return self._infer_post(inner, body, rest, hints, path + ("body",))
            case P.BPair(fst=a) if not dia and isinstance(game, S.Choice):
                stack = ((fl, game.left),) + rest
                return self._infer_post(ctx, a, stack, hints, path + ("fst",))
            case P.InjL(arg=a) | P.InjR(arg=a) if dia and isinstance(game, S.Choice):
                side = game.left if isinstance(m, P.InjL) else game.right
                return self._infer_post(ctx, a, ((fl, side),) + rest, hints, path + ("arg",))
            case P.Asgn(var=x, ghost=y, hyp=p, body=body, flavor=f) if (
                f == fl and isinstance(game, S.Assign) and game.var == x
            ):
                hyp = S.Cmp(S.Var(x), "=", S.rename(game.term, x, y))
                inner = ctx.rename_vars(x, y).extend(p, hyp)
                return self._infer_post(inner, body, rest, hints, path + ("body",))
            case P.TCons(var=x, ghost=y, hyp=p, witness=f, body=body) if (
                dia and isinstance(game, S.AssignAny) and game.var == x
            ):
                hyp = S.Cmp(S.Var(x), "=", S.rename(f, x, y))
                inner = ctx.rename_vars(x, y).extend(p, hyp)
                return self._infer_post(inner, body, rest, hints, path + ("body",))
            case P.NumLam(var=x, ghost=y, body=body) if (
                not dia and isinstance(game, S.AssignAny) and game.var == x
            ):
                return self._infer_post(
                    ctx.rename_vars(x, y), body, rest, hints, path + ("body",)
                )
            case P.Stop(body=body) | P.Go(body=body) if dia and isinstance(game, S.Repeat):
                more = ((fl, game.body), (fl, game)) if isinstance(m, P.Go) else ()
                return self._infer_post(ctx, body, more + rest, hints, path + ("body",))
            case P.Case(scrut=a, left=l, bleft=bl):
                sphi = self._synth(ctx, a, path + ("scrut",))[0]
                if not (isinstance(sphi, S.Diamond) and isinstance(sphi.game, S.Choice)):
                    return None
                inner = ctx.extend(l, S.Diamond(sphi.game.left, sphi.post))
                return self._infer_post(inner, bl, stack, hints, path + ("left",))
            case P.Mon(scrut=a, hyp=p, body=body):
                mid = self._guess(ctx, a, stack[:1], rest + hints, path + ("scrut",))
                if mid is None:
                    return None
                inner = self._rename_ctx(ctx, game).extend(p, mid)
                return self._infer_post(inner, body, rest, hints, path + ("body",))
            case P.QE() | P.Dec():
                return _peel(m.goal, stack)
            case _ if isinstance(m, _INTROS):
                return None  # an introduction form against the wrong game
        return _peel(self._synth(ctx, m, path)[0], stack)

    # -- small shared checks ---------------------------------------------------

    def _modality(self, phi: Formula, fl: str, path, who: str):
        want = _MOD[fl]
        if not isinstance(phi, want):
            raise CheckError(
                RULE_MISMATCH, path,
                f"{who} proof has {'diamond' if fl == P.DIA else 'box'} flavor, goal is {_fmt(phi)}",
            )
        return phi.game, phi.post

    def _ghost_ok(self, y: str, ctx: Context, formulas, terms, path, why="is not fresh here"):
        """y is free in no hypothesis, formula or term; a formula of None
        is a goal that synthesis does not know yet."""
        used = set(ctx.free_vars())
        for f in formulas:
            if f is not None:
                used |= S.free_vars(f)
        for t in terms:
            used |= S.free_vars(t)
        if y in used:
            raise CheckError(FRESHNESS, path, f"ghost {y} {why}")


# introduction forms and conversions: each fits one shape of game
_INTROS = (
    P.Lam, P.NumLam, P.DPair, P.BPair, P.InjL, P.InjR, P.TCons, P.Asgn, P.SeqI,
    P.Swap, P.Stop, P.Go,
)

_NEEDS_GAME = (
    P.SeqI, P.Swap, P.Asgn, P.TCons, P.InjL, P.InjR, P.Stop, P.Go, P.BPair,
    P.Rep, P.For, P.Roll, P.NumLam,
)


_MOD = {P.DIA: S.Diamond, P.BOX: S.Box}


def _wrap(stack, post: Formula) -> Formula:
    """M0(g0, M1(g1, ... post)) for a stack of (flavor, game) pairs."""
    for fl, g in reversed(stack):
        post = _MOD[fl](g, post)
    return post


def _peel(phi: Formula, stack) -> Optional[Formula]:
    """psi with phi = M0(g0, ... psi) for the stack, or None."""
    for fl, g in stack:
        if not (isinstance(phi, _MOD[fl]) and phi.game == g):
            return None
        phi = phi.post
    return phi


def _modal_spine(phi: Formula):
    """The (flavor, game) chain of leading modalities in a formula."""
    out = []
    while isinstance(phi, (S.Diamond, S.Box)):
        out.append((P.DIA if isinstance(phi, S.Diamond) else P.BOX, phi.game))
        phi = phi.post
    return tuple(out)


def check(ctx: Context, m: ProofTerm, phi: Formula, oracle=None) -> R.Realizer:
    return Checker(oracle).check(ctx, m, phi)


def check_result(ctx: Context, m: ProofTerm, phi: Formula, oracle=None):
    return Checker(oracle).check_result(ctx, m, phi)
