"""Strategy extraction: compile a checked proof term into a realizer.

The compilation is formula-directed (it mirrors the checker's traversal)
so that postcondition weakenings can be pushed through the strategy
statically, the way the conversion rules push them through proofs: the
weakening continuation is composed into the residual positions of the
scrutinee's realizer.  Only loop streams and fixed-point recursion keep a
run-time composition node, tagged with the game it plays.

Hypothesis evidence consumed only by oracle payloads is erased to units;
oracle leaves become unit evidence or decision trees over comparisons.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from . import proofterms as P
from . import realizer as R
from . import syntax as S
from .checker import Checker, _modal_spine
from .engine import Budget, close, force, num_of, pair_view
from .oracle import ArithOracle
from .proofterms import Context, ProofTerm
from .syntax import Formula, State


class UncheckedInput(Exception):
    """extract() requires a proof the checker accepts."""


_witness_oracle = ArithOracle()

_WITNESS_POOL = [S.lit(0), S.lit(1), S.lit(-1), S.lit(2), S.lit(-2),
                 S.lit("1/2"), S.lit("-1/2"), S.lit(3), S.lit(4)]


def realizer_of_formula(phi: Formula) -> R.Realizer:
    """Evidence for an oracle-certified first-order fact: units for
    comparisons, pairs for conjunctions, decision trees for disjunctions."""
    if isinstance(phi, S.Cmp):
        return R.Unit()
    disj = S.split_or(phi)
    if disj is not None:
        l, r = disj
        return R.IfTerm(
            l,
            R.Pair(R.TermVal(S.lit(0)), R.Pair(realizer_of_formula(l), R.Unit())),
            R.Pair(R.TermVal(S.lit(1)), R.Pair(realizer_of_formula(r), R.Unit())),
        )
    conj = S.split_and(phi)
    if conj is not None:
        l, r = conj
        return R.Pair(realizer_of_formula(l), realizer_of_formula(r))
    imp = S.split_implies(phi)
    if imp is not None:
        pre, post = imp
        return R.ProofLam("_", pre, realizer_of_formula(post))
    if isinstance(phi, S.Box) and isinstance(phi.game, S.AssignAny):
        return R.NumLamR(phi.game.var, realizer_of_formula(phi.post))
    if isinstance(phi, S.Diamond) and isinstance(phi.game, S.AssignAny):
        x = phi.game.var
        for cand in _WITNESS_POOL:
            try:
                inst = S.subst_term(phi.post, x, cand)
            except S.InadmissibleSubstitution:
                break
            if _witness_oracle.holds_valid(None, inst):
                return R.Pair(R.TermVal(cand), realizer_of_formula(inst))
        raise UncheckedInput(f"no closed witness for oracle-certified {phi!r}")
    raise UncheckedInput(f"cannot realize non-first-order {phi!r}")


class Extractor:
    """Formula-directed compiler from proofs to realizers.

    The context threads exactly as in the checker so scrutinee formulas
    synthesize identically; side conditions are assumed already checked.
    """

    def __init__(self, oracle: Optional[ArithOracle] = None):
        self.ck = Checker(oracle)
        self._fresh = 0

    def fresh(self, base: str) -> str:
        self._fresh += 1
        return f"{base}#{self._fresh}"

    # -- main compilation ----------------------------------------------------

    def ex(self, ctx: Context, m: ProofTerm, phi: Formula) -> R.Realizer:
        match m:
            case P.PVar(name=p):
                return R.RVar(p)
            case P.Lam(hyp=p, ann=ann, body=b):
                _, post = S.split_implies(phi)
                return R.ProofLam(p, ann, self.ex(ctx.extend(p, ann), b, post))
            case P.App(fn=f, arg=a):
                fphi = self.ck._synth(ctx, f, ())
                pre, _post = S.split_implies(fphi)
                return R.AppRz(self.ex(ctx, f, fphi), self.ex(ctx, a, pre))
            case P.NumLam(var=x, ghost=y, body=b):
                return R.NumLamR(x, self.ex(ctx.rename_vars(x, y), b, phi.post))
            case P.NumApp(fn=f, term=t):
                fphi = self.ck._synth(ctx, f, ())
                return R.AppNum(self.ex(ctx, f, fphi), t)
            case P.DPair(fst=a, snd=b):
                l, r = S.split_and(phi)
                return R.Pair(self.ex(ctx, a, l), self.ex(ctx, b, r))
            case P.BPair(fst=a, snd=b):
                g = phi.game
                return R.Pair(
                    self.ex(ctx, a, S.Box(g.left, phi.post)),
                    self.ex(ctx, b, S.Box(g.right, phi.post)),
                )
            case P.Proj1(arg=a):
                return R.Fst(self.ex(ctx, a, self.ck._synth(ctx, a, ())))
            case P.Proj2(arg=a):
                return R.Snd(self.ex(ctx, a, self.ck._synth(ctx, a, ())))
            case P.InjL(arg=a):
                return R.Pair(
                    R.TermVal(S.lit(0)),
                    self.ex(ctx, a, S.Diamond(phi.game.left, phi.post)),
                )
            case P.InjR(arg=a):
                return R.Pair(
                    R.TermVal(S.lit(1)),
                    self.ex(ctx, a, S.Diamond(phi.game.right, phi.post)),
                )
            case P.Case(scrut=a, left=l, bleft=bl, right=r, bright=br):
                sphi = self.ck._synth(ctx, a, ())
                lphi = S.Diamond(sphi.game.left, sphi.post)
                rphi = S.Diamond(sphi.game.right, sphi.post)
                return R.Decide(
                    self.ex(ctx, a, sphi),
                    l,
                    self.ex(ctx.extend(l, lphi), bl, phi),
                    r,
                    self.ex(ctx.extend(r, rphi), br, phi),
                )
            case P.RCase(scrut=a, svar=s, sbody=bs, gvar=g, gbody=bg):
                sphi = self.ck._synth(ctx, a, ())
                gphi = S.Diamond(sphi.game.body, sphi)
                return R.Decide(
                    self.ex(ctx, a, sphi),
                    s,
                    self.ex(ctx.extend(s, sphi.post), bs, phi),
                    g,
                    self.ex(ctx.extend(g, gphi), bg, phi),
                )
            case P.TCons(var=x, ghost=y, hyp=p, witness=f, body=b):
                hyp = S.Cmp(S.Var(x), "=", S.rename(f, x, y))
                inner = self.ex(
                    ctx.rename_vars(x, y).extend(p, hyp), b, phi.post
                )
                return R.Pair(R.TermVal(f), R.subst_rvar(inner, p, R.Unit()))
            case P.Unpack(var=x, ghost=y, hyp=p, scrut=a, body=b):
                sphi = self.ck._synth(ctx, a, ())
                inner = self.ex(
                    ctx.rename_vars(x, y).extend(p, sphi.post), b, phi
                )
                return R.subst_rvar(inner, p, R.Snd(self.ex(ctx, a, sphi)))
            case P.Asgn(var=x, ghost=y, hyp=p, body=b):
                game, post = phi.game, phi.post
                hyp = S.Cmp(S.Var(x), "=", S.rename(game.term, x, y))
                inner = self.ex(ctx.rename_vars(x, y).extend(p, hyp), b, post)
                return R.subst_rvar(inner, p, R.Unit())
            case P.SeqI(body=b, flavor=fl):
                mod = S.Diamond if fl == P.DIA else S.Box
                g = phi.game
                return self.ex(ctx, b, mod(g.left, mod(g.right, phi.post)))
            case P.Swap(body=b, flavor=fl):
                mod = S.Box if fl == P.DIA else S.Diamond
                return self.ex(ctx, b, mod(phi.game.body, phi.post))
            case P.Stop(body=b):
                return R.Pair(R.TermVal(S.lit(0)), self.ex(ctx, b, phi.post))
            case P.Go(body=b):
                return R.Pair(
                    R.TermVal(S.lit(1)),
                    self.ex(ctx, b, S.Diamond(phi.game.body, phi)),
                )
            case P.Rep(hyp=p, init=a, body=n, done=o, inv=inv):
                body_game = phi.game.body
                step_rz = self.ex(Context({p: inv}), n, S.Box(body_game, inv))
                post_rz = self.ex(Context({p: inv}), o, phi.post)
                return R.Gen(
                    self.ex(ctx, a, inv), p, step_rz, post_rz, body_game
                )
            case P.Roll(body=b):
                unrolled = S.And(phi.post, S.Box(phi.game.body, phi))
                return self.ex(ctx, b, unrolled)
            case P.Unroll(body=b):
                both = S.split_and(phi)
                if (
                    both is not None
                    and isinstance(both[1], S.Box)
                    and isinstance(both[1].post, S.Box)
                    and isinstance(both[1].post.game, S.Repeat)
                ):
                    return self.ex(ctx, b, both[1].post)
                return self.ex(ctx, b, self.ck._synth(ctx, b, ()))
            case P.For():
                return self._ex_for(ctx, m, phi)
            case P.FP():
                return self._ex_fp(ctx, m, phi)
            case P.Mon(scrut=a, hyp=p, body=n):
                fl = P.DIA if isinstance(phi, S.Diamond) else P.BOX
                mid = self.ck._synth_post(
                    ctx, a, [phi.game], fl, (), _modal_spine(phi.post)
                )
                renamed = self.ck._rename_ctx(ctx, phi.game)
                n_rz = self.ex(renamed.extend(p, mid), n, phi.post)
                return self.ex_mon(ctx, a, [phi.game], fl, p, n_rz)
            case P.QE(goal=goal) | P.Dec(goal=goal):
                return realizer_of_formula(goal)
            case P.Split(left=f, right=g):
                ev = R.Pair(R.Unit(), R.Unit())
                return R.IfTerm(
                    S.Cmp(f, "<=", g),
                    R.Pair(R.TermVal(S.lit(0)), ev),
                    R.Pair(R.TermVal(S.lit(1)), ev),
                )
            case P.Ghost(var=x, term=f, hyp=p, body=b):
                inner = self.ex(
                    ctx.extend(p, S.Cmp(S.Var(x), "=", f)), b, phi
                )
                return R.AppNum(R.NumLamR(x, R.subst_rvar(inner, p, R.Unit())), f)
        raise UncheckedInput(f"cannot extract from {type(m).__name__}")

    # -- weakening pushed through a strategy -----------------------------------

    def ex_mon(self, ctx, m, stack, fl, var, k_rz) -> R.Realizer:
        """Realize `m` playing the games on `stack`, then feed the residual
        evidence to k_rz through `var`.  Mirrors `Checker._synth_post`."""
        if not stack:
            inner = self.ex(ctx, m, self.ck._synth(ctx, m, ()))
            return R.subst_rvar(k_rz, var, inner)
        game = stack[0]
        rest = stack[1:]
        mod = S.Diamond if fl == P.DIA else S.Box

        match m:
            case P.SeqI(body=b):
                return self.ex_mon(
                    ctx, b, [game.left, game.right] + rest, fl, var, k_rz
                )
            case P.Swap(body=b):
                other = P.BOX if fl == P.DIA else P.DIA
                return self.ex_mon(ctx, b, [game.body] + rest, other, var, k_rz)
            case P.DPair(fst=a, snd=b) if fl == P.DIA and isinstance(game, S.Test):
                ev = self.ex(ctx, a, game.cond)
                return R.Pair(ev, self.ex_mon(ctx, b, rest, fl, var, k_rz))
            case P.Lam(hyp=p, ann=ann, body=b) if fl == P.BOX and isinstance(game, S.Test):
                return R.ProofLam(
                    p, ann, self.ex_mon(ctx.extend(p, ann), b, rest, fl, var, k_rz)
                )
            case P.BPair(fst=a, snd=b) if fl == P.BOX and isinstance(game, S.Choice):
                return R.Pair(
                    self.ex_mon(ctx, a, [game.left] + rest, fl, var, k_rz),
                    self.ex_mon(ctx, b, [game.right] + rest, fl, var, k_rz),
                )
            case P.InjL(arg=a) if fl == P.DIA and isinstance(game, S.Choice):
                return R.Pair(
                    R.TermVal(S.lit(0)),
                    self.ex_mon(ctx, a, [game.left] + rest, fl, var, k_rz),
                )
            case P.InjR(arg=a) if fl == P.DIA and isinstance(game, S.Choice):
                return R.Pair(
                    R.TermVal(S.lit(1)),
                    self.ex_mon(ctx, a, [game.right] + rest, fl, var, k_rz),
                )
            case P.Asgn(var=x, ghost=y, hyp=p, body=b) if isinstance(game, S.Assign):
                hyp = S.Cmp(S.Var(x), "=", S.rename(game.term, x, y))
                inner = self.ex_mon(
                    ctx.rename_vars(x, y).extend(p, hyp), b, rest, fl, var, k_rz
                )
                return R.subst_rvar(inner, p, R.Unit())
            case P.TCons(var=x, ghost=y, hyp=p, witness=f, body=b) if (
                fl == P.DIA and isinstance(game, S.AssignAny)
            ):
                hyp = S.Cmp(S.Var(x), "=", S.rename(f, x, y))
                inner = self.ex_mon(
                    ctx.rename_vars(x, y).extend(p, hyp), b, rest, fl, var, k_rz
                )
                return R.Pair(R.TermVal(f), R.subst_rvar(inner, p, R.Unit()))
            case P.NumLam(var=x, ghost=y, body=b) if (
                fl == P.BOX and isinstance(game, S.AssignAny)
            ):
                return R.NumLamR(
                    x, self.ex_mon(ctx.rename_vars(x, y), b, rest, fl, var, k_rz)
                )
            case P.Stop(body=b) if fl == P.DIA and isinstance(game, S.Repeat):
                return R.Pair(
                    R.TermVal(S.lit(0)), self.ex_mon(ctx, b, rest, fl, var, k_rz)
                )
            case P.Go(body=b) if fl == P.DIA and isinstance(game, S.Repeat):
                return R.Pair(
                    R.TermVal(S.lit(1)),
                    self.ex_mon(ctx, b, [game.body, game] + rest, fl, var, k_rz),
                )
            case P.Case(scrut=a, left=l, bleft=bl, right=r, bright=br):
                sphi = self.ck._synth(ctx, a, ())
                lphi = S.Diamond(sphi.game.left, sphi.post)
                rphi = S.Diamond(sphi.game.right, sphi.post)
                return R.Decide(
                    self.ex(ctx, a, sphi),
                    l,
                    self.ex_mon(ctx.extend(l, lphi), bl, stack, fl, var, k_rz),
                    r,
                    self.ex_mon(ctx.extend(r, rphi), br, stack, fl, var, k_rz),
                )
            case P.Mon(scrut=a, hyp=p, body=n):
                inner_hints = tuple((fl, g) for g in rest)
                mid = self.ck._synth_post(ctx, a, [game], fl, (), inner_hints)
                renamed = self.ck._rename_ctx(ctx, game)
                pushed = self.ex_mon(
                    renamed.extend(p, mid), n, rest, fl, var, k_rz
                )
                return self.ex_mon(ctx, a, [game], fl, p, pushed)

        # residual composition at run time (variable-headed scrutinee)
        got = self.ck._synth(ctx, m, ())
        return R.Compose(self.ex(ctx, m, got), var, k_rz, tuple(stack))

    # -- loops -----------------------------------------------------------------

    def _ex_for(self, ctx, m: P.For, phi) -> R.Realizer:
        body_game = phi.game.body
        mt, inv = m.metric, m.inv
        m0v = S.Var(m.m0)
        from .checker import succ_formula, conj

        step_hyp = conj(S.Cmp(m0v, "=", mt), S.Cmp(mt, ">=", S.lit(1)))
        step_ctx = Context({m.hyp: inv, m.mhyp: step_hyp})
        step_goal_post = conj(inv, succ_formula(m0v, mt))
        done_ctx = Context({m.hyp: inv, m.mhyp: S.Cmp(mt, "=", S.lit(0))})

        w = self.fresh("loop")
        t = self.fresh("t")
        recurse = R.AppRz(R.RVar(w), R.Fst(R.RVar(t)))
        body_rz = self.ex_mon(
            step_ctx, m.body, [body_game], P.DIA, t, recurse
        )
        body_rz = R.subst_rvar(body_rz, m.mhyp, R.Pair(R.Unit(), R.Unit()))
        done_rz = R.subst_rvar(
            self.ex(done_ctx, m.done, phi.post), m.mhyp, R.Unit()
        )
        loop = R.Ind(
            w,
            R.ProofLam(
                m.hyp,
                inv,
                R.IfTerm(
                    S.Cmp(mt, "=", S.lit(0)),
                    R.Pair(R.TermVal(S.lit(0)), done_rz),
                    R.AppNum(
                        R.NumLamR(m.m0, R.Pair(R.TermVal(S.lit(1)), body_rz)), mt
                    ),
                ),
            ),
        )
        return R.AppRz(loop, self.ex(ctx, m.init, inv))

    def _ex_fp(self, ctx, m: P.FP, phi) -> R.Realizer:
        sphi = self.ck._synth(ctx, m.scrut, ())
        body_game = sphi.game.body
        w = self.fresh("fp")
        z = self.fresh("z")
        gphi = S.Diamond(body_game, phi)
        bg_rz = self.ex(ctx.extend(m.gvar, gphi), m.gbody, phi)
        bg_rz = R.subst_rvar(
            bg_rz,
            m.gvar,
            R.Compose(R.RVar(m.gvar), z, R.AppRz(R.RVar(w), R.RVar(z)), (body_game,)),
        )
        bs_rz = self.ex(ctx.extend(m.svar, sphi.post), m.sbody, phi)
        loop = R.Ind(
            w,
            R.ProofLam(
                "*fp-arg*",
                S.TRUE,
                R.Decide(R.RVar("*fp-arg*"), m.svar, bs_rz, m.gvar, bg_rz),
            ),
        )
        return R.AppRz(loop, self.ex(ctx, m.scrut, sphi))


def extract(
    m: ProofTerm,
    phi: Formula,
    ctx: Optional[Context] = None,
    oracle: Optional[ArithOracle] = None,
    checked: bool = False,
) -> R.Realizer:
    """Compile a proof of phi into a strategy realizer.

    The proof is checked first unless the caller vouches for it; a
    rejected proof raises UncheckedInput with the checker's diagnosis.
    Check and extraction share one oracle, so extraction's queries hit
    the answers the check already paid for.
    """
    ctx = ctx or Context()
    oracle = oracle or ArithOracle()
    if not checked:
        err = Checker(oracle).check_result(ctx, m, phi)
        if err is not None:
            raise UncheckedInput(str(err))
    return Extractor(oracle).ex(ctx, m, phi)


def extract_existential(m: ProofTerm, phi: Formula, oracle=None):
    """From a proof of  exists x phi0:  a witness term and the residual
    evidence.  The witness is a state function (a term), so it is read
    off the strategy syntactically."""
    if not (isinstance(phi, S.Diamond) and isinstance(phi.game, S.AssignAny)):
        raise UncheckedInput(f"not an existential: {phi!r}")
    rz = extract(m, phi, oracle=oracle)
    return _static_witness(rz)


def _static_witness(rz: R.Realizer):
    match rz:
        case R.Pair(fst=R.TermVal(term=t), snd=rest):
            return t, rest
        case R.Compose(first=f, var=v, cont=k, games=gs):
            t, rest = _static_witness(f)
            return t, R.Compose(rest, v, k, gs)
    raise UncheckedInput(f"no syntactic witness in {type(rz).__name__}")


def validate_existential(phi: Formula, witness: S.Term, samples: int = 1000, seed=7):
    """Spot-check  phi0[x := witness]  over random rational states;
    returns a falsifying state or None."""
    x = phi.game.var
    inst = S.subst_term(phi.post, x, witness)
    rng = random.Random(seed)
    fv = sorted(S.free_vars(inst))
    for _ in range(samples):
        st = State({v: Fraction(rng.randint(-50, 50), rng.randint(1, 6)) for v in fv})
        if not S.eval_fo(inst, st):
            return st
    return None


def extract_disjunct(m: ProofTerm, phi: Formula, state: State, oracle=None):
    """From a proof of a disjunction and a state: which disjunct holds
    there, plus the sub-evidence (the side is state-dependent)."""
    disj = S.split_or(phi)
    if disj is None:
        raise UncheckedInput(f"not a disjunction: {phi!r}")
    rz = extract(m, phi, oracle=oracle)
    budget = Budget(100_000)
    sel_cl, payload = pair_view(force(close(rz), state, budget), state, budget)
    which = num_of(sel_cl, state, budget)
    side = "L" if which == 0 else "R"
    chosen = disj[0] if side == "L" else disj[1]
    try:
        ok = S.eval_fo(chosen, state)
    except TypeError:
        ok = True  # non-ground disjuncts are not play-time checkable
    if not ok:
        raise UncheckedInput(f"extracted side {side} fails at {state!r}")
    return side, payload
