"""Syntax-directed proof checking for game formulas.

`check` decides the judgment  ctx |- M : phi  by recursion over the proof
term; elimination forms synthesize their principal formula, introduction
forms consume the expected one.  Monotonicity needs the postcondition of
its scrutinee under a known game prefix, which `_synth_post` infers by
peeling a stack of games.

First-order leaves (FO / Dec / split) are discharged by the arithmetic
oracle; every failure names the offending subterm by path.
"""

from __future__ import annotations

from typing import Optional

from . import proofterms as P
from . import syntax as S
from .oracle import REFUTED, VALID, ArithOracle
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


class Checker:
    def __init__(self, oracle: Optional[ArithOracle] = None):
        self.oracle = oracle or ArithOracle()
        self._ghost_counter = 0

    # -- public entry points ------------------------------------------------

    def check(self, ctx: Context, m: ProofTerm, phi: Formula) -> None:
        """Raises CheckError unless ctx |- m : phi."""
        self._ghost_counter = 0
        self._check(ctx, m, phi, ())

    def check_result(self, ctx: Context, m: ProofTerm, phi: Formula):
        try:
            self.check(ctx, m, phi)
            return None
        except CheckError as e:
            return e

    def synth(self, ctx: Context, m: ProofTerm) -> Formula:
        self._ghost_counter = 0
        return self._synth(ctx, m, ())

    # -- helpers -------------------------------------------------------------

    def _fresh_ghost(self, base: str) -> str:
        self._ghost_counter += 1
        return f"{base}~{self._ghost_counter}"

    def _expect(self, cond, kind, path, msg):
        if not cond:
            raise CheckError(kind, path, msg)

    def _same(self, got: Formula, want: Formula, path, what="formula"):
        if got != want:
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

    # -- checking ------------------------------------------------------------

    def _check(self, ctx: Context, m: ProofTerm, phi: Formula, path) -> None:
        match m:
            case P.PVar(name=p):
                got = ctx.lookup(p)
                if got is None:
                    raise CheckError(UNBOUND, path, f"unbound hypothesis {p}")
                self._same(got, phi, path, f"hypothesis {p}")
                return

            case P.Lam(hyp=p, ann=ann, body=body):
                imp = S.split_implies(phi)
                if imp is None:
                    raise CheckError(
                        RULE_MISMATCH, path, f"lambda needs a test-box goal, got {_fmt(phi)}"
                    )
                pre, post = imp
                self._same(ann, pre, path, "lambda annotation")
                self._check(ctx.extend(p, pre), body, post, path + ("body",))
                return

            case P.NumLam(var=x, ghost=y, body=body):
                if not (isinstance(phi, S.Box) and isinstance(phi.game, S.AssignAny)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"number-lambda needs [x:=*], got {_fmt(phi)}"
                    )
                self._expect(
                    phi.game.var == x, RULE_MISMATCH, path,
                    f"binds {x} but goal binds {phi.game.var}",
                )
                self._ghost_ok(y, ctx, (phi.post,), (), path)
                self._check(ctx.rename_vars(x, y), body, phi.post, path + ("body",))
                return

            case P.DPair(fst=a, snd=b):
                both = S.split_and(phi)
                if both is None:
                    raise CheckError(
                        RULE_MISMATCH, path, f"pair needs a diamond-test goal, got {_fmt(phi)}"
                    )
                l, r = both
                self._check(ctx, a, l, path + ("fst",))
                self._check(ctx, b, r, path + ("snd",))
                return

            case P.BPair(fst=a, snd=b):
                if not (isinstance(phi, S.Box) and isinstance(phi.game, S.Choice)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"box-pair needs [a++b], got {_fmt(phi)}"
                    )
                g = phi.game
                self._check(ctx, a, S.Box(g.left, phi.post), path + ("fst",))
                self._check(ctx, b, S.Box(g.right, phi.post), path + ("snd",))
                return

            case P.InjL(arg=a):
                if not (isinstance(phi, S.Diamond) and isinstance(phi.game, S.Choice)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"inl needs <a++b>, got {_fmt(phi)}"
                    )
                self._check(ctx, a, S.Diamond(phi.game.left, phi.post), path + ("arg",))
                return

            case P.InjR(arg=a):
                if not (isinstance(phi, S.Diamond) and isinstance(phi.game, S.Choice)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"inr needs <a++b>, got {_fmt(phi)}"
                    )
                self._check(ctx, a, S.Diamond(phi.game.right, phi.post), path + ("arg",))
                return

            case P.Case(scrut=a, left=l, bleft=bl, right=r, bright=br):
                sphi = self._synth(ctx, a, path + ("scrut",))
                if not (isinstance(sphi, S.Diamond) and isinstance(sphi.game, S.Choice)):
                    raise CheckError(
                        RULE_MISMATCH, path + ("scrut",),
                        f"case scrutinee must prove <a++b>, got {_fmt(sphi)}",
                    )
                lphi = S.Diamond(sphi.game.left, sphi.post)
                rphi = S.Diamond(sphi.game.right, sphi.post)
                self._check(ctx.extend(l, lphi), bl, phi, path + ("left",))
                self._check(ctx.extend(r, rphi), br, phi, path + ("right",))
                return

            case P.RCase(scrut=a, svar=s, sbody=bs, gvar=g, gbody=bg):
                sphi = self._synth(ctx, a, path + ("scrut",))
                if not (isinstance(sphi, S.Diamond) and isinstance(sphi.game, S.Repeat)):
                    raise CheckError(
                        RULE_MISMATCH, path + ("scrut",),
                        f"rcase scrutinee must prove <a*>, got {_fmt(sphi)}",
                    )
                body = sphi.game.body
                self._check(ctx.extend(s, sphi.post), bs, phi, path + ("stop",))
                gphi = S.Diamond(body, sphi)
                self._check(ctx.extend(g, gphi), bg, phi, path + ("go",))
                return

            case P.TCons(var=x, ghost=y, hyp=p, witness=f, body=body):
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
                self._check(
                    ctx.rename_vars(x, y).extend(p, hyp), body, phi.post, path + ("body",)
                )
                return

            case P.Unpack(var=x, ghost=y, hyp=p, scrut=a, body=body):
                sphi = self._synth(ctx, a, path + ("scrut",))
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
                    x not in S.free_vars(phi), FRESHNESS, path,
                    f"{x} must not be free in the conclusion {_fmt(phi)}",
                )
                self._ghost_ok(y, ctx, (phi,), (), path)
                self._check(
                    ctx.rename_vars(x, y).extend(p, sphi.post), body, phi, path + ("body",)
                )
                return

            case P.Asgn(var=x, ghost=y, hyp=p, body=body, flavor=fl):
                game, post = self._modality(phi, fl, path, "assignment")
                if not isinstance(game, S.Assign) or game.var != x:
                    raise CheckError(
                        RULE_MISMATCH, path,
                        f"assignment proof for {x} against game {_fmt(game)}",
                    )
                self._ghost_ok(y, ctx, (post, phi), (game.term,), path)
                hyp = S.Cmp(S.Var(x), "=", S.rename(game.term, x, y))
                self._check(
                    ctx.rename_vars(x, y).extend(p, hyp), body, post, path + ("body",)
                )
                return

            case P.SeqI(body=body, flavor=fl):
                game, post = self._modality(phi, fl, path, "sequencing")
                if not isinstance(game, S.Seq):
                    raise CheckError(
                        RULE_MISMATCH, path, f"sequencing proof against {_fmt(game)}"
                    )
                inner = (S.Diamond if fl == P.DIA else S.Box)(game.right, post)
                outer = (S.Diamond if fl == P.DIA else S.Box)(game.left, inner)
                self._check(ctx, body, outer, path + ("body",))
                return

            case P.Swap(body=body, flavor=fl):
                game, post = self._modality(phi, fl, path, "dualizing")
                if not isinstance(game, S.Dual):
                    raise CheckError(
                        RULE_MISMATCH, path, f"dual proof against {_fmt(game)}"
                    )
                inner = (S.Box if fl == P.DIA else S.Diamond)(game.body, post)
                self._check(ctx, body, inner, path + ("body",))
                return

            case P.Stop(body=body):
                if not (isinstance(phi, S.Diamond) and isinstance(phi.game, S.Repeat)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"stop needs <a*>, got {_fmt(phi)}"
                    )
                self._check(ctx, body, phi.post, path + ("body",))
                return

            case P.Go(body=body):
                if not (isinstance(phi, S.Diamond) and isinstance(phi.game, S.Repeat)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"go needs <a*>, got {_fmt(phi)}"
                    )
                self._check(
                    ctx, body, S.Diamond(phi.game.body, phi), path + ("body",)
                )
                return

            case P.For():
                self._check_for(ctx, m, phi, path)
                return

            case P.FP(scrut=a, svar=s, sbody=bs, gvar=g, gbody=bg):
                sphi = self._synth(ctx, a, path + ("scrut",))
                if not (isinstance(sphi, S.Diamond) and isinstance(sphi.game, S.Repeat)):
                    raise CheckError(
                        RULE_MISMATCH, path + ("scrut",),
                        f"fp scrutinee must prove <a*>, got {_fmt(sphi)}",
                    )
                self._check(Context({s: sphi.post}), bs, phi, path + ("stop",))
                gphi = S.Diamond(sphi.game.body, phi)
                self._check(Context({g: gphi}), bg, phi, path + ("go",))
                return

            case P.Rep(hyp=p, init=init, body=body, done=done, inv=inv):
                if not (isinstance(phi, S.Box) and isinstance(phi.game, S.Repeat)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"rep needs [a*], got {_fmt(phi)}"
                    )
                self._check(ctx, init, inv, path + ("init",))
                step_goal = S.Box(phi.game.body, inv)
                self._check(Context({p: inv}), body, step_goal, path + ("step",))
                self._check(Context({p: inv}), done, phi.post, path + ("post",))
                return

            case P.Roll(body=body):
                if not (isinstance(phi, S.Box) and isinstance(phi.game, S.Repeat)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"roll needs [a*], got {_fmt(phi)}"
                    )
                unrolled = conj(phi.post, S.Box(phi.game.body, phi))
                self._check(ctx, body, unrolled, path + ("body",))
                return

            case P.Mon(scrut=a, hyp=p, body=body):
                if not isinstance(phi, (S.Diamond, S.Box)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"mon needs a modal goal, got {_fmt(phi)}"
                    )
                fl = P.DIA if isinstance(phi, S.Diamond) else P.BOX
                mid = self._synth_post(
                    ctx, a, [phi.game], fl, path + ("scrut",),
                    _modal_spine(phi.post),
                )
                renamed = self._rename_ctx(ctx, phi.game)
                self._check(
                    renamed.extend(p, mid), body, phi.post, path + ("body",)
                )
                return

            case P.QE(goal=goal, payload=payload):
                self._same(goal, phi, path, "FO conclusion")
                rho = self._payload_formula(ctx, payload, path)
                self._oracle_gate(rho, goal, path, "FO")
                return

            case P.Dec(goal=goal, payload=payload):
                if S.split_or(phi) is None:
                    raise CheckError(
                        RULE_MISMATCH, path, f"Dec needs a disjunction, got {_fmt(phi)}"
                    )
                self._same(goal, phi, path, "Dec conclusion")
                rho = self._payload_formula(ctx, payload, path)
                self._oracle_gate(rho, goal, path, "Dec")
                return

            case P.Split(left=f, right=g):
                want = S.Or(S.Cmp(f, "<=", g), S.Cmp(f, ">", g))
                self._same(phi, want, path, "split conclusion")
                return

            case P.Ghost(var=x, term=f, hyp=p, body=body):
                bad = {x} & (set(ctx.free_vars()) | set(S.free_vars(phi)) | set(S.free_vars(f)))
                self._expect(
                    not bad, FRESHNESS, path,
                    f"ghost {x} must be fresh for the context, goal, and term",
                )
                self._check(
                    ctx.extend(p, S.Cmp(S.Var(x), "=", f)), body, phi, path + ("body",)
                )
                return

            case P.Unroll(body=body):
                # accept the unfolding shape top-down so the loop's game is
                # known even when the body cannot synthesize
                both = S.split_and(phi)
                if both is not None:
                    now, later = both
                    if (
                        isinstance(later, S.Box)
                        and isinstance(later.post, S.Box)
                        and isinstance(later.post.game, S.Repeat)
                        and later.post.game.body == later.game
                        and later.post.post == now
                    ):
                        self._check(ctx, body, later.post, path + ("body",))
                        return
                got = self._synth(ctx, m, path)
                self._same(got, phi, path)
                return

            case P.App() | P.NumApp() | P.Proj1() | P.Proj2():
                got = self._synth(ctx, m, path)
                self._same(got, phi, path)
                return

        raise CheckError(RULE_MISMATCH, path, f"cannot check {type(m).__name__}")

    def _check_for(self, ctx: Context, m: P.For, phi: Formula, path) -> None:
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
        self._check(ctx, m.init, inv, path + ("init",))
        m0v = S.Var(m0)
        step_hyp = conj(S.Cmp(m0v, "=", metric), S.Cmp(metric, ">=", S.lit(1)))
        step_goal = S.Diamond(game, conj(inv, succ_formula(m0v, metric)))
        self._check(
            Context({m.hyp: inv, m.mhyp: step_hyp}), m.body, step_goal, path + ("step",)
        )
        done_hyp = S.Cmp(metric, "=", S.lit(0))
        self._check(
            Context({m.hyp: inv, m.mhyp: done_hyp}), m.done, phi.post, path + ("post",)
        )

    # -- synthesis -----------------------------------------------------------

    def _synth(self, ctx: Context, m: ProofTerm, path) -> Formula:
        match m:
            case P.PVar(name=p):
                got = ctx.lookup(p)
                if got is None:
                    raise CheckError(UNBOUND, path, f"unbound hypothesis {p}")
                return got

            case P.App(fn=fn, arg=arg):
                fphi = self._synth(ctx, fn, path + ("fn",))
                imp = S.split_implies(fphi)
                if imp is None:
                    raise CheckError(
                        RULE_MISMATCH, path + ("fn",),
                        f"application head must prove a test-box, got {_fmt(fphi)}",
                    )
                pre, post = imp
                self._check(ctx, arg, pre, path + ("arg",))
                return post

            case P.NumApp(fn=fn, term=f):
                fphi = self._synth(ctx, fn, path + ("fn",))
                if not (isinstance(fphi, S.Box) and isinstance(fphi.game, S.AssignAny)):
                    raise CheckError(
                        RULE_MISMATCH, path + ("fn",),
                        f"instantiation head must prove [x:=*], got {_fmt(fphi)}",
                    )
                x = fphi.game.var
                try:
                    return S.subst_term(fphi.post, x, f)
                except S.InadmissibleSubstitution as e:
                    raise CheckError(INADMISSIBLE, path, str(e)) from None

            case P.Proj1(arg=a):
                sphi = self._synth(ctx, a, path + ("arg",))
                both = S.split_and(sphi)
                if both is not None:
                    return both[0]
                if isinstance(sphi, S.Box) and isinstance(sphi.game, S.Choice):
                    return S.Box(sphi.game.left, sphi.post)
                raise CheckError(
                    RULE_MISMATCH, path, f"projection from non-pair {_fmt(sphi)}"
                )

            case P.Proj2(arg=a):
                sphi = self._synth(ctx, a, path + ("arg",))
                both = S.split_and(sphi)
                if both is not None:
                    return both[1]
                if isinstance(sphi, S.Box) and isinstance(sphi.game, S.Choice):
                    return S.Box(sphi.game.right, sphi.post)
                raise CheckError(
                    RULE_MISMATCH, path, f"projection from non-pair {_fmt(sphi)}"
                )

            case P.Unroll(body=body):
                sphi = self._synth(ctx, body, path + ("body",))
                if not (isinstance(sphi, S.Box) and isinstance(sphi.game, S.Repeat)):
                    raise CheckError(
                        RULE_MISMATCH, path, f"unroll from non-loop {_fmt(sphi)}"
                    )
                return conj(sphi.post, S.Box(sphi.game.body, sphi))

            case P.Lam(hyp=p, ann=ann, body=body):
                post = self._synth(ctx.extend(p, ann), body, path + ("body",))
                return S.Implies(ann, post)

            case P.NumLam(var=x, ghost=y, body=body):
                self._ghost_ok(y, ctx, (), (), path)
                post = self._synth(
                    ctx.rename_vars(x, y), body, path + ("body",)
                )
                self._expect(
                    y not in S.free_vars(post), FRESHNESS, path,
                    f"ghost {y} escapes into {_fmt(post)}",
                )
                return S.Box(S.AssignAny(x), post)

            case P.DPair(fst=a, snd=b):
                return conj(
                    self._synth(ctx, a, path + ("fst",)),
                    self._synth(ctx, b, path + ("snd",)),
                )

            case P.QE(goal=goal, payload=payload):
                rho = self._payload_formula(ctx, payload, path)
                self._oracle_gate(rho, goal, path, "FO")
                return goal

            case P.Dec(goal=goal, payload=payload):
                rho = self._payload_formula(ctx, payload, path)
                self._oracle_gate(rho, goal, path, "Dec")
                return goal

            case P.Split(left=f, right=g):
                return S.Or(S.Cmp(f, "<=", g), S.Cmp(f, ">", g))

            case P.Ghost(var=x, term=f, hyp=p, body=body):
                bad = {x} & (set(ctx.free_vars()) | set(S.free_vars(f)))
                self._expect(
                    not bad, FRESHNESS, path, f"ghost {x} must be fresh"
                )
                post = self._synth(
                    ctx.extend(p, S.Cmp(S.Var(x), "=", f)), body, path + ("body",)
                )
                self._expect(
                    x not in S.free_vars(post), FRESHNESS, path,
                    f"ghost {x} escapes into {_fmt(post)}",
                )
                return post

            case P.Mon(scrut=a, hyp=p, body=body):
                sphi = self._synth(ctx, a, path + ("scrut",))
                if not isinstance(sphi, (S.Diamond, S.Box)):
                    raise CheckError(
                        RULE_MISMATCH, path + ("scrut",),
                        f"mon scrutinee must be modal, got {_fmt(sphi)}",
                    )
                renamed = self._rename_ctx(ctx, sphi.game)
                post = self._synth(
                    renamed.extend(p, sphi.post), body, path + ("body",)
                )
                return type(sphi)(sphi.game, post)

            case P.Case(scrut=a, left=l, bleft=bl, right=r, bright=br):
                sphi = self._synth(ctx, a, path + ("scrut",))
                if not (isinstance(sphi, S.Diamond) and isinstance(sphi.game, S.Choice)):
                    raise CheckError(
                        RULE_MISMATCH, path + ("scrut",),
                        f"case scrutinee must prove <a++b>, got {_fmt(sphi)}",
                    )
                lphi = self._synth(
                    ctx.extend(l, S.Diamond(sphi.game.left, sphi.post)), bl,
                    path + ("left",),
                )
                rphi = self._synth(
                    ctx.extend(r, S.Diamond(sphi.game.right, sphi.post)), br,
                    path + ("right",),
                )
                self._same(rphi, lphi, path, "case join")
                return lphi

            case P.Unpack(var=x, ghost=y, hyp=p, scrut=a, body=body):
                sphi = self._synth(ctx, a, path + ("scrut",))
                if not (
                    isinstance(sphi, S.Diamond) and isinstance(sphi.game, S.AssignAny)
                ):
                    raise CheckError(
                        RULE_MISMATCH, path + ("scrut",),
                        f"unpack scrutinee must prove <x:=*>, got {_fmt(sphi)}",
                    )
                post = self._synth(
                    ctx.rename_vars(x, y).extend(p, sphi.post), body, path + ("body",)
                )
                self._expect(
                    x not in S.free_vars(post) and y not in S.free_vars(post),
                    FRESHNESS, path, f"unpacked variable escapes into {_fmt(post)}",
                )
                return post

        raise CheckError(
            RULE_MISMATCH, path, f"cannot infer a formula for {type(m).__name__}"
        )

    def _payload_formula(self, ctx: Context, payload, path) -> Optional[Formula]:
        if payload is None:
            return None
        return self._synth(ctx, payload, path + ("payload",))

    # -- game-directed postcondition synthesis --------------------------------

    def _synth_post(self, ctx: Context, m: ProofTerm, stack, fl, path, hints=()) -> Formula:
        """Infer psi with  ctx |- m : Mod(stack[0], Mod(stack[1], ... psi)).

        When the stack runs dry on a constructor whose game cannot be read
        off the term (conversion reducts land here), `hints` -- the modal
        spine of the enclosing goal -- supplies the remaining games.
        """
        if not stack:
            if hints and type(m) in _NEEDS_GAME:
                (hfl, hgame), hrest = hints[0], hints[1:]
                inner = self._synth_post(ctx, m, [hgame], hfl, path, hrest)
                return (S.Diamond if hfl == P.DIA else S.Box)(hgame, inner)
            return self._synth(ctx, m, path)
        game = stack[0]
        rest = stack[1:]
        mod = S.Diamond if fl == P.DIA else S.Box

        match m:
            case P.SeqI(body=body, flavor=flv):
                if flv != fl or not isinstance(game, S.Seq):
                    raise CheckError(
                        RULE_MISMATCH, path, f"sequencing proof against {_fmt(game)}"
                    )
                return self._synth_post(
                    ctx, body, [game.left, game.right] + rest, fl,
                    path + ("body",), hints,
                )

            case P.Swap(body=body, flavor=flv):
                if flv != fl or not isinstance(game, S.Dual):
                    raise CheckError(
                        RULE_MISMATCH, path, f"dual proof against {_fmt(game)}"
                    )
                other = P.BOX if fl == P.DIA else P.DIA
                return self._synth_post(
                    ctx, body, [game.body] + rest, other, path + ("body",), hints
                )

            case P.DPair(fst=a, snd=b) if fl == P.DIA and isinstance(game, S.Test):
                self._check(ctx, a, game.cond, path + ("fst",))
                return self._synth_post(ctx, b, rest, fl, path + ("snd",), hints)

            case P.Lam(hyp=p, ann=ann, body=body) if fl == P.BOX and isinstance(game, S.Test):
                self._same(ann, game.cond, path, "lambda annotation")
                return self._synth_post(
                    ctx.extend(p, ann), body, rest, fl, path + ("body",), hints
                )

            case P.BPair(fst=a, snd=b) if fl == P.BOX and isinstance(game, S.Choice):
                l = self._synth_post(
                    ctx, a, [game.left] + rest, fl, path + ("fst",), hints
                )
                r = self._synth_post(
                    ctx, b, [game.right] + rest, fl, path + ("snd",), hints
                )
                self._same(r, l, path, "box-pair join")
                return l

            case P.InjL(arg=a) if fl == P.DIA and isinstance(game, S.Choice):
                return self._synth_post(
                    ctx, a, [game.left] + rest, fl, path + ("arg",), hints
                )

            case P.InjR(arg=a) if fl == P.DIA and isinstance(game, S.Choice):
                return self._synth_post(
                    ctx, a, [game.right] + rest, fl, path + ("arg",), hints
                )

            case P.Asgn(var=x, ghost=y, hyp=p, body=body, flavor=flv):
                if flv != fl or not isinstance(game, S.Assign) or game.var != x:
                    raise CheckError(
                        RULE_MISMATCH, path, f"assignment proof against {_fmt(game)}"
                    )
                self._ghost_ok(y, ctx, (), (game.term,), path)
                hyp = S.Cmp(S.Var(x), "=", S.rename(game.term, x, y))
                return self._synth_post(
                    ctx.rename_vars(x, y).extend(p, hyp), body, rest, fl,
                    path + ("body",), hints,
                )

            case P.TCons(var=x, ghost=y, hyp=p, witness=f, body=body) if (
                fl == P.DIA and isinstance(game, S.AssignAny)
            ):
                self._expect(game.var == x, RULE_MISMATCH, path, "witness variable mismatch")
                self._ghost_ok(y, ctx, (), (f,), path)
                hyp = S.Cmp(S.Var(x), "=", S.rename(f, x, y))
                return self._synth_post(
                    ctx.rename_vars(x, y).extend(p, hyp), body, rest, fl,
                    path + ("body",), hints,
                )

            case P.NumLam(var=x, ghost=y, body=body) if (
                fl == P.BOX and isinstance(game, S.AssignAny)
            ):
                self._expect(game.var == x, RULE_MISMATCH, path, "bound variable mismatch")
                self._ghost_ok(y, ctx, (), (), path)
                return self._synth_post(
                    ctx.rename_vars(x, y), body, rest, fl, path + ("body",), hints
                )

            case P.Stop(body=body) if fl == P.DIA and isinstance(game, S.Repeat):
                return self._synth_post(ctx, body, rest, fl, path + ("body",), hints)

            case P.Go(body=body) if fl == P.DIA and isinstance(game, S.Repeat):
                return self._synth_post(
                    ctx, body, [game.body, game] + rest, fl, path + ("body",), hints
                )

            case P.Case(scrut=a, left=l, bleft=bl, right=r, bright=br):
                sphi = self._synth(ctx, a, path + ("scrut",))
                if not (isinstance(sphi, S.Diamond) and isinstance(sphi.game, S.Choice)):
                    raise CheckError(
                        RULE_MISMATCH, path + ("scrut",),
                        f"case scrutinee must prove <a++b>, got {_fmt(sphi)}",
                    )
                lphi = self._synth_post(
                    ctx.extend(l, S.Diamond(sphi.game.left, sphi.post)), bl,
                    [game] + rest, fl, path + ("left",), hints,
                )
                rphi = self._synth_post(
                    ctx.extend(r, S.Diamond(sphi.game.right, sphi.post)), br,
                    [game] + rest, fl, path + ("right",), hints,
                )
                self._same(rphi, lphi, path, "case join")
                return lphi

            case P.Mon(scrut=a, hyp=p, body=body):
                inner_hints = tuple((fl, g) for g in rest) + tuple(hints)
                mid = self._synth_post(
                    ctx, a, [game], fl, path + ("scrut",), inner_hints
                )
                renamed = self._rename_ctx(ctx, game)
                return self._synth_post(
                    renamed.extend(p, mid), body, rest, fl, path + ("body",), hints
                )

        # fall back to full synthesis and peel the expected modalities
        got = self._synth(ctx, m, path)
        for g in stack:
            if not (
                isinstance(got, S.Diamond if fl == P.DIA else S.Box) and got.game == g
            ):
                raise CheckError(
                    RULE_MISMATCH, path,
                    f"expected a proof of {_fmt(mod(g, S.TRUE))}-shaped formula, got {_fmt(got)}",
                )
            got = got.post
        return got

    # -- small shared checks ---------------------------------------------------

    def _modality(self, phi: Formula, fl: str, path, who: str):
        want = S.Diamond if fl == P.DIA else S.Box
        if not isinstance(phi, want):
            raise CheckError(
                RULE_MISMATCH, path,
                f"{who} proof has {'diamond' if fl == P.DIA else 'box'} flavor, goal is {_fmt(phi)}",
            )
        return phi.game, phi.post

    def _ghost_ok(self, y: str, ctx: Context, formulas, terms, path):
        used = set(ctx.free_vars())
        for f in formulas:
            used |= S.free_vars(f)
        for t in terms:
            used |= S.free_vars(t)
        if y in used:
            raise CheckError(
                FRESHNESS, path, f"ghost {y} is not fresh here"
            )


_NEEDS_GAME = (
    P.SeqI, P.Swap, P.Asgn, P.TCons, P.InjL, P.InjR, P.Stop, P.Go, P.BPair,
    P.Rep, P.For, P.Roll, P.NumLam,
)


def _modal_spine(phi: Formula):
    """The (flavor, game) chain of leading modalities in a formula."""
    out = []
    while isinstance(phi, (S.Diamond, S.Box)):
        out.append((P.DIA if isinstance(phi, S.Diamond) else P.BOX, phi.game))
        phi = phi.post
    return tuple(out)


def check(ctx: Context, m: ProofTerm, phi: Formula, oracle=None) -> None:
    Checker(oracle).check(ctx, m, phi)


def check_result(ctx: Context, m: ProofTerm, phi: Formula, oracle=None):
    return Checker(oracle).check_result(ctx, m, phi)
