"""Small-step operational semantics on proof terms.

`step` is a total, deterministic function implementing eager
leftmost-innermost reduction with binder shielding: beta rules fire on
introduction/elimination pairs, structural (S) rules reduce the leftmost
eligible subterm not under a binder, commuting-conversion (C) rules lift
irreducible case expressions, and monotonicity-conversion rules push a
weakening through introduction forms.  `normalize` iterates under fuel.

Both run one resumable reduction machine, after Danvy and Nielsen,
"Refocusing in Reduction Semantics" (2004).  `_SEARCH` lists, per
proof-term type, the children searched for a redex, in order, each with
the S-rule that names a step inside it and the C-rule that fires when it
is a stuck case; `_HEAD` holds the rule that may fire at a node once its
searched children are stuck; the machine reads both inline at every
node it visits.  How an oracle leaf decomposes depends on its goal alone,
so it is judged once per goal and kept on the goal (`_goal_fact`): a
stuck leaf that the search passes again costs one read, and a stuck
existential one witness search in all.  A substitution reads each proof
term's free proof variables, kept on the term (`proofterms.free_pvars`).
The machine keeps the ancestors of its focus as a linked list of frames,
a zipper after Huet, "The Zipper" (1997), so no search recurses.  When a
rule fires at the focus, the reduct replaces the focus and no ancestor
is touched: an ancestor is rebuilt with its new child only when the
search returns to it, so a step costs the same under any number of
ancestors.  The next search starts at the reduct: every child left of
the path is unchanged, stuck and not a case.  A step's root term, which
`step` returns and `normalize`'s trace holds, is the reduct plugged into
the frames above it, built when asked for.

Rule names follow the calculus; `APPENDIX_RULES` is the registry the
coverage report checks off.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import attrgetter
from typing import Optional

from . import proofterms as P
from . import syntax as S
from .oracle import ArithOracle, exists_witness
from .proofterms import ProofTerm, free_pvars, subst_pt, subst_term_pt

# beta rules
LAM_PHI_BETA = "lam-phi-beta"
LAM_Q_BETA = "lam-Q-beta"
PROJ1_BETA = "proj1-beta"
PROJ2_BETA = "proj2-beta"
CASE_BETA_L = "case-beta-L"
CASE_BETA_R = "case-beta-R"
UNROLL_BETA = "unroll-beta"
UNPACK_BETA = "unpack-beta"
FP_BETA = "fp-beta"
REP_BETA = "rep-beta"
FOR_BETA = "for-beta"
FO_ALL_BETA = "FO-forall-beta"
FO_AND_BETA = "FO-and-beta"
FO_EX_BETA = "FO-exists-beta"
FO_OR_BETA = "FO-or-beta"

# monotonicity conversions
LAM_MON = "lam-phi-mon"
RLAM_MON = "lam-Q-mon"
BCONS_MON = "bpair-mon"
DCONS_MON = "dpair-mon"
INJL_MON = "inl-mon"
INJR_MON = "inr-mon"
BSWAP_MON = "yieldb-mon"
DSWAP_MON = "yieldd-mon"
BSEQ_MON = "seqb-mon"
DSEQ_MON = "seqd-mon"
TCONS_MON = "wit-mon"
DASGN_MON = "asgnd-mon"
BASGN_MON = "asgnb-mon"
BROLL_MON = "roll-mon"
STOP_MON = "stop-mon"
GO_MON = "go-mon"

# commuting conversions
PROJ1_C = "proj1-C"
PROJ2_C = "proj2-C"
BCONS_CL = "bpair-C1"
BCONS_CR = "bpair-C2"
DCONS_CL = "dpair-C1"
DCONS_CR = "dpair-C2"
STOP_C = "stop-C"
GO_C = "go-C"
INJL_C = "inl-C"
INJR_C = "inr-C"
RCASE_C = "rcase-C"
CASE_C = "case-C"
UNROLL_C = "unroll-C"
REP_C = "rep-C"
FOR_C = "for-C"
FP_C = "fp-C"
DSEQ_C = "seqd-C"
BSEQ_C = "seqb-C"
DSWAP_C = "yieldd-C"
BSWAP_C = "yieldb-C"
APP_CL = "app-C1"
APP_CR = "app-C2"
NUMAPP_C = "numapp-C"
# the calculus states the case/monotonicity commutation twice (as a
# monotonicity conversion and as a commuting conversion); one rule here
MON_C = "mon-C"
TCONS_C = "wit-C"
UNPACK_C = "unpack-C"

# structural rules
PROJ1_S = "proj1-S"
PROJ2_S = "proj2-S"
REP_S = "rep-S"
UNROLL_S = "unroll-S"
NUMAPP_S = "numapp-S"
APP_SL = "app-S1"
APP_SR = "app-S2"
BSEQ_S = "seqb-S"
DSEQ_S = "seqd-S"
MON_S = "mon-S"
INJL_S = "inl-S"
INJR_S = "inr-S"
BCONS_SL = "bpair-S1"
BCONS_SR = "bpair-S2"
DCONS_SL = "dpair-S1"
DCONS_SR = "dpair-S2"
BSWAP_S = "yieldb-S"
DSWAP_S = "yieldd-S"
FOR_S = "for-S"
FP_S = "fp-S"
CASE_S = "case-S"
UNPACK_S = "unpack-S"

# supplementary rules (not named by the calculus figures, needed for
# totality on derived constructs)
STOP_S = "stop-S"
GO_S = "go-S"
GHOST_MON = "ghost-mon"

APPENDIX_RULES = frozenset(
    {
        LAM_PHI_BETA, LAM_Q_BETA, PROJ1_BETA, PROJ2_BETA, CASE_BETA_L,
        CASE_BETA_R, UNROLL_BETA, UNPACK_BETA, FP_BETA, REP_BETA, FOR_BETA,
        FO_ALL_BETA, FO_AND_BETA, FO_EX_BETA, FO_OR_BETA,
        LAM_MON, RLAM_MON, BCONS_MON, DCONS_MON, INJL_MON, INJR_MON,
        BSWAP_MON, DSWAP_MON, BSEQ_MON, DSEQ_MON, TCONS_MON, DASGN_MON,
        BASGN_MON, BROLL_MON, STOP_MON, GO_MON,
        PROJ1_C, PROJ2_C, BCONS_CL, BCONS_CR, DCONS_CL, DCONS_CR, STOP_C,
        GO_C, INJL_C, INJR_C, RCASE_C, CASE_C, UNROLL_C, REP_C, FOR_C, FP_C,
        DSEQ_C, BSEQ_C, DSWAP_C, BSWAP_C, APP_CL, APP_CR, NUMAPP_C, MON_C,
        TCONS_C, UNPACK_C,
        PROJ1_S, PROJ2_S, REP_S, UNROLL_S, NUMAPP_S, APP_SL, APP_SR, BSEQ_S,
        DSEQ_S, MON_S, INJL_S, INJR_S, BCONS_SL, BCONS_SR, DCONS_SL,
        DCONS_SR, BSWAP_S, DSWAP_S, FOR_S, FP_S, CASE_S, UNPACK_S,
    }
)

SIMPLE = "simple"
TOP_LEVEL_CASE = "top-level-case"


class FuelExhausted(Exception):
    def __init__(self, last: ProofTerm, steps: int):
        self.last = last
        self.steps = steps
        super().__init__(f"fuel exhausted after {steps} steps")


def _plugger(cls, field: str):
    """child -> a copy of node with `field` set to child, by position."""
    names = cls.__match_args__
    if len(names) == 1:
        return lambda node, child: cls(child)
    pos, get = names.index(field), attrgetter(*names)

    def plug(node, child):
        vals = list(get(node))
        vals[pos] = child
        return cls(*vals)

    return plug


def _search(cls, *children) -> tuple:
    """(plug, field, S-rule, C-rule) of each child of cls searched."""
    return tuple((_plugger(cls, f), f, s, c) for f, s, c in children)


# the children searched for a redex, in order; every other child is
# shielded (a binder's scope or an oracle payload)
_SEARCH = {
    P.App: _search(P.App, ("fn", APP_SL, APP_CL), ("arg", APP_SR, APP_CR)),
    P.NumApp: _search(P.NumApp, ("fn", NUMAPP_S, NUMAPP_C)),
    P.DPair: _search(P.DPair, ("fst", DCONS_SL, DCONS_CL), ("snd", DCONS_SR, DCONS_CR)),
    P.BPair: _search(P.BPair, ("fst", BCONS_SL, BCONS_CL), ("snd", BCONS_SR, BCONS_CR)),
    P.Proj1: _search(P.Proj1, ("arg", PROJ1_S, PROJ1_C)),
    P.Proj2: _search(P.Proj2, ("arg", PROJ2_S, PROJ2_C)),
    P.InjL: _search(P.InjL, ("arg", INJL_S, INJL_C)),
    P.InjR: _search(P.InjR, ("arg", INJR_S, INJR_C)),
    P.Stop: _search(P.Stop, ("body", STOP_S, STOP_C)),
    P.Go: _search(P.Go, ("body", GO_S, GO_C)),
    P.Unroll: _search(P.Unroll, ("body", UNROLL_S, UNROLL_C)),
    P.Case: _search(P.Case, ("scrut", CASE_S, CASE_C)),
    P.RCase: _search(P.RCase, ("scrut", CASE_S, RCASE_C)),
    P.Unpack: _search(P.Unpack, ("scrut", UNPACK_S, UNPACK_C)),
    P.Rep: _search(P.Rep, ("init", REP_S, REP_C)),
    P.For: _search(P.For, ("init", FOR_S, FOR_C)),
    P.FP: _search(P.FP, ("scrut", FP_S, FP_C)),
    P.Mon: _search(P.Mon, ("scrut", MON_S, MON_C)),
    # named for the diamond flavor; `_named` renames for the box flavor
    P.SeqI: _search(P.SeqI, ("body", DSEQ_S, DSEQ_C)),
    P.Swap: _search(P.Swap, ("body", DSWAP_S, DSWAP_C)),
}
_BOX_RULES = {DSEQ_S: BSEQ_S, DSEQ_C: BSEQ_C, DSWAP_S: BSWAP_S, DSWAP_C: BSWAP_C}


def _named(node, rule: str) -> str:
    """The S- or C-rule of a child of node, as node's flavor names it."""
    return _BOX_RULES.get(rule, rule) if getattr(node, "flavor", None) == P.BOX else rule


_ELIMS = (P.App, P.NumApp, P.Proj1, P.Proj2, P.Case, P.RCase, P.Unpack, P.Unroll, P.FP, P.Mon)


def is_simple(m: ProofTerm) -> bool:
    """Eliminators (and decomposable oracle leaves) occur only under binders."""
    stack = [m]
    while stack:
        n = stack.pop()
        if isinstance(n, _ELIMS):
            return False
        if isinstance(n, P.QE) and S.kept(n.goal, "_qe", _goal_fact) is not None:
            return False
        stack.extend(getattr(n, f) for _, f, _, _ in _SEARCH.get(type(n), ()))
    return True


def _state_inspecting(m: ProofTerm) -> bool:
    return isinstance(m, (P.Split, P.Dec))


def is_normal(m: ProofTerm) -> bool:
    if is_simple(m):
        return True
    if isinstance(m, (P.Case, P.RCase)):
        return _state_inspecting(m.scrut)
    return False


def normal_kind(m: ProofTerm) -> str:
    return SIMPLE if is_simple(m) else TOP_LEVEL_CASE


def _fresh_pvar(base, *terms):
    avoid = set()
    for t in terms:
        avoid |= free_pvars(t)
    return P.fresh_pvar(base, avoid)


def _fresh_ghost(x: str, m: ProofTerm) -> str:
    used = P.prog_vars(m)
    ghost, i = f"{x}0", 0
    while ghost in used:
        i += 1
        ghost = f"{x}{i}"
    return ghost


def _lift_case(node: ProofTerm, plug, case: P.Case) -> P.Case:
    """node with its case child, the one `plug` replaces, lifted above it."""
    return P.Case(
        case.scrut, case.left, plug(node, case.bleft), case.right, plug(node, case.bright)
    )


# ---------------------------------------------------------------------------
# Head rules: m -> (reduct, rule) or None


def _goal_fact(g: S.Formula):
    """How an oracle leaf with goal g decomposes, kept on g: None when it
    does not, else (rule, a, b): the bound variable and the body of a
    universal, the halves of a conjunction, a pool witness of an
    existential and the body it instantiates, or nothing for a disjunction."""
    if isinstance(g, S.Box) and isinstance(g.game, S.AssignAny):
        return FO_ALL_BETA, g.game.var, g.post
    if S.split_or(g) is not None:
        return FO_OR_BETA, None, None
    halves = S.split_and(g)
    if halves is not None:
        return FO_AND_BETA, *halves
    if isinstance(g, S.Diamond) and isinstance(g.game, S.AssignAny):
        f = exists_witness(ArithOracle(), g)
        if f is not None:
            return FO_EX_BETA, f, S.subst_term(g.post, g.game.var, f)
    return None


def _fo_beta(m: P.QE):
    """Decompose an oracle leaf by the shape of its goal, judged once per goal."""
    fact = S.kept(m.goal, "_qe", _goal_fact)
    if fact is None:
        return None
    rule, a, b = fact
    if rule == FO_ALL_BETA:
        return P.NumLam(a, _fresh_ghost(a, m), P.QE(b, m.payload)), rule
    if rule == FO_OR_BETA:
        return P.Dec(m.goal, m.payload), rule
    if rule == FO_AND_BETA:
        return P.DPair(P.QE(a, m.payload), P.QE(b, m.payload)), rule
    x = m.goal.game.var
    hyp = _fresh_pvar(x, m.payload or P.PVar("_"))
    return P.TCons(x, _fresh_ghost(x, m), hyp, a, P.QE(b, m.payload)), rule


def _app_beta(m: P.App):
    if isinstance(m.fn, P.Lam):
        return subst_pt(m.fn.body, m.fn.hyp, m.arg), LAM_PHI_BETA
    return None


def _numapp_beta(m: P.NumApp):
    f = m.fn
    if isinstance(f, P.NumLam):
        try:
            return subst_term_pt(f.body, f.var, m.term), LAM_Q_BETA
        except S.InadmissibleSubstitution:
            return None
    return None


def _case_beta(m: P.Case):
    a = m.scrut
    if isinstance(a, P.InjL):
        return subst_pt(m.bleft, m.left, a.arg), CASE_BETA_L
    if isinstance(a, P.InjR):
        return subst_pt(m.bright, m.right, a.arg), CASE_BETA_R
    return None


def _rcase_beta(m: P.RCase):
    a = m.scrut
    if isinstance(a, P.Stop):
        return subst_pt(m.sbody, m.svar, a.body), CASE_BETA_L
    if isinstance(a, P.Go):
        return subst_pt(m.gbody, m.gvar, a.body), CASE_BETA_R
    return None


def _unpack_beta(m: P.Unpack):
    a = m.scrut
    if isinstance(a, P.TCons):
        yt = a.ghost
        n1 = P.rename_pt(m.body, m.ghost, yt) if m.ghost != yt else m.body
        body = P.rename_pt(subst_pt(n1, m.hyp, a.body), m.var, yt)
        return P.Ghost(yt, a.witness, a.hyp, body), UNPACK_BETA
    return None


_TCONS_BODY = _plugger(P.TCons, "body")


def _tcons_lift(m: P.TCons):
    """wit-C: the body is shielded, so it lifts a case only when the case
    scrutinee mentions neither the binder's hypothesis nor its ghost."""
    a = m.body
    if (isinstance(a, P.Case) and m.hyp not in free_pvars(a.scrut)
            and m.ghost not in P.prog_vars(a.scrut)):
        return _lift_case(m, _TCONS_BODY, a), TCONS_C
    return None


def _rep_beta(m: P.Rep):
    p, a, n, o = m.hyp, m.init, m.body, m.done
    q = _fresh_pvar("q", n, o)
    reduct = P.Roll(
        P.DPair(
            subst_pt(o, p, a),
            P.Mon(subst_pt(n, p, a), q, P.Rep(p, P.PVar(q), n, o, m.inv)),
        )
    )
    return reduct, REP_BETA


def _for_beta(m: P.For):
    mt, inv = m.metric, m.inv
    zero = S.lit(0)
    decision = S.Or(S.Cmp(mt, "=", zero), S.Cmp(mt, ">=", S.lit(1)))
    scrut = P.Dec(decision, m.init)
    l = _fresh_pvar("l", m.body, m.done, m.init)
    r = _fresh_pvar("r", m.body, m.done, m.init, P.PVar(l))
    rr = _fresh_pvar("rr", m.body, m.done, m.init, P.PVar(l), P.PVar(r))
    t = _fresh_pvar("t", m.body, m.done, m.init)

    stop_branch = P.Stop(
        subst_pt(subst_pt(m.done, m.hyp, m.init), m.mhyp, P.Proj1(P.PVar(l)))
    )
    step_inst = subst_pt(
        subst_pt(m.body, m.hyp, m.init),
        m.mhyp,
        P.DPair(P.PVar(rr), P.Proj1(P.PVar(r))),
    )
    go_branch = P.Ghost(
        m.m0,
        mt,
        rr,
        P.Go(
            P.Mon(
                step_inst,
                t,
                P.For(m.hyp, m.mhyp, m.m0, P.Proj1(P.PVar(t)), m.body, m.done, mt, inv),
            )
        ),
    )
    return P.Case(scrut, l, stop_branch, r, go_branch), FOR_BETA


def _fp_beta(m: P.FP):
    a, s_, b, g, c = m.scrut, m.svar, m.sbody, m.gvar, m.gbody
    # every use of the hypothesis g becomes a recursive application;
    # the Mon scrutinee stays free so the rcase binder recaptures it
    w = _fresh_pvar("w", b, c)
    unrolled = subst_pt(c, g, P.Mon(P.PVar(g), w, P.FP(P.PVar(w), s_, b, g, c)))
    return P.RCase(a, s_, b, g, unrolled), FP_BETA


def _mon_conv(m: P.Mon):
    a, p, n = m.scrut, m.hyp, m.body
    match a:
        case P.Lam(hyp=h, ann=ann, body=b):
            return P.Lam(h, ann, subst_pt(n, p, b)), LAM_MON
        case P.NumLam(var=x, ghost=y, body=b):
            return P.NumLam(x, y, subst_pt(n, p, b)), RLAM_MON
        case P.BPair(fst=f, snd=s):
            return P.BPair(P.Mon(f, p, n), P.Mon(s, p, n)), BCONS_MON
        case P.DPair(fst=f, snd=s):
            return P.DPair(f, subst_pt(n, p, s)), DCONS_MON
        case P.InjL(arg=b):
            return P.InjL(P.Mon(b, p, n)), INJL_MON
        case P.InjR(arg=b):
            return P.InjR(P.Mon(b, p, n)), INJR_MON
        case P.Swap(body=b, flavor=fl):
            rule = DSWAP_MON if fl == P.DIA else BSWAP_MON
            return P.Swap(P.Mon(b, p, n), fl), rule
        case P.SeqI(body=b, flavor=fl):
            q = _fresh_pvar("q", n)
            rule = DSEQ_MON if fl == P.DIA else BSEQ_MON
            return P.SeqI(P.Mon(b, q, P.Mon(P.PVar(q), p, n)), fl), rule
        case P.Asgn(var=x, ghost=y, hyp=h, body=b, flavor=fl):
            rule = DASGN_MON if fl == P.DIA else BASGN_MON
            return P.Asgn(x, y, h, subst_pt(n, p, b), fl), rule
        case P.TCons(var=x, ghost=y, hyp=h, witness=f, body=b):
            return P.TCons(x, y, h, f, subst_pt(n, p, b)), TCONS_MON
        case P.Stop(body=b):
            return P.Stop(subst_pt(n, p, b)), STOP_MON
        case P.Go(body=b):
            q = _fresh_pvar("q", n)
            return P.Go(P.Mon(b, q, P.Mon(P.PVar(q), p, n))), GO_MON
        case P.Roll(body=b):
            t = _fresh_pvar("t", n)
            return (
                P.Roll(
                    P.DPair(
                        P.Mon(P.Proj1(b), p, n),
                        P.Mon(P.Proj2(b), t, P.Mon(P.PVar(t), p, n)),
                    )
                ),
                BROLL_MON,
            )
        case P.Ghost(var=x, term=f, hyp=h, body=b):
            return P.Ghost(x, f, h, P.Mon(b, p, n)), GHOST_MON
    return None


_PAIRS = (P.DPair, P.BPair)

_HEAD = {
    P.QE: _fo_beta,
    P.App: _app_beta,
    P.NumApp: _numapp_beta,
    P.Proj1: lambda m: (m.arg.fst, PROJ1_BETA) if isinstance(m.arg, _PAIRS) else None,
    P.Proj2: lambda m: (m.arg.snd, PROJ2_BETA) if isinstance(m.arg, _PAIRS) else None,
    P.Unroll: lambda m: (m.body.body, UNROLL_BETA) if isinstance(m.body, P.Roll) else None,
    P.Case: _case_beta,
    P.RCase: _rcase_beta,
    P.Unpack: _unpack_beta,
    P.TCons: _tcons_lift,
    P.Rep: _rep_beta,
    P.For: _for_beta,
    P.FP: _fp_beta,
    P.Mon: _mon_conv,
}


# ---------------------------------------------------------------------------
# The machine


def _root(m: ProofTerm, frame) -> ProofTerm:
    """m plugged into `frame` and every frame above it: the root term."""
    while frame is not None:
        node, kids, k, frame = frame
        m = kids[k][0](node, m)
    return m


class _Machine:
    """Leftmost-innermost search with the focus's ancestors as a linked list
    of frames (node, children, k, up), innermost first: the focus is the
    child `children[k]` of `node`, and `up` is node's own frame, None at
    the root.  A frame's node may hold an older copy of its child at k;
    it is rebuilt with the new one when the search returns to it.  `top`
    is the S-rule of the root frame's child k, which names every step
    under the root.
    """

    def __init__(self, m: ProofTerm):
        self.focus = m
        self.path = None
        self.top = None

    def root(self) -> ProofTerm:
        return _root(self.focus, self.path)

    def step(self) -> Optional[str]:
        """Fire the next rule and return its root-level name, or None once
        the term is normal; the search resumes at the reduct."""
        path, search, head = self.path, _SEARCH, _HEAD
        m = self.focus
        while True:
            kids = search.get(type(m))
            if kids is not None:  # search the first child
                if path is None:
                    self.top = _named(m, kids[0][2])
                path = (m, kids, 0, path)
                m = getattr(m, kids[0][1])
                continue
            rule = head.get(type(m))
            if rule is not None and (fired := rule(m)) is not None:
                return self._fire(path, *fired)
            while True:  # m is stuck: go on at its parent
                if path is None:
                    self.focus = m
                    return None
                node, kids, k, up = path
                plug, field, _, case_rule = kids[k]
                if type(m) is P.Case:
                    return self._fire(up, _lift_case(node, plug, m), _named(node, case_rule))
                if getattr(node, field) is not m:
                    node = plug(node, m)
                k += 1
                if k < len(kids):  # search the next child
                    if up is None:
                        self.top = _named(node, kids[k][2])
                    path = (node, kids, k, up)
                    m = getattr(node, kids[k][1])
                    break
                path = up
                rule = head.get(type(node))
                if rule is not None and (fired := rule(node)) is not None:
                    return self._fire(path, *fired)
                m = node

    def _fire(self, path, reduct: ProofTerm, rule: str) -> str:
        """The reduct of the node under `path` becomes the focus."""
        self.focus, self.path = reduct, path
        return rule if path is None else self.top


def step(m: ProofTerm) -> Optional[tuple]:
    """One reduction step: (reduct, rule-name) or None when no rule applies.

    Total on arbitrary terms; on checker-accepted terms `None` coincides
    with `is_normal`.
    """
    machine = _Machine(m)
    rule = machine.step()
    return None if rule is None else (machine.root(), rule)


def redex_path(old: ProofTerm, new: ProofTerm) -> str:
    """Dot-path to the outermost changed position between a term and its
    reduct; stable across runs, used by the step trace."""
    parts = []
    while type(old) is type(new):
        changed = [f for f in type(old).__match_args__ if getattr(old, f) != getattr(new, f)]
        if len(changed) != 1:
            break
        a, b = getattr(old, changed[0]), getattr(new, changed[0])
        if not (isinstance(a, ProofTerm) and isinstance(b, ProofTerm)):
            break
        parts.append(changed[0])
        old, new = a, b
    return ".".join(parts) or "root"


class Trace(Sequence):
    """The steps of one normalization as (rule, root reduct) pairs.  Each
    step keeps its reduct and the frames above it; its root term is built
    when the step is read, by index, by iteration or by `==`."""

    def __init__(self, steps: list):
        self._steps = steps  # (rule, reduct, frame) per step

    def __len__(self) -> int:
        return len(self._steps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trace(self._steps[i])
        rule, reduct, frame = self._steps[i]
        return rule, _root(reduct, frame)

    def __eq__(self, other):
        if not isinstance(other, (Trace, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Trace({list(self)!r})"


def normalize(m: ProofTerm, fuel: int = 10**6):
    """Run the machine until normal; returns (normal_form, steps, trace).

    The trace is a `Trace`: one (rule, root reduct) pair per step, each
    root built only when read.  Raises FuelExhausted (carrying the last
    term) when fuel runs out.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    machine = _Machine(m)
    steps = []
    for i in range(fuel):
        rule = machine.step()
        if rule is None:
            return machine.focus, i, Trace(steps)
        steps.append((rule, machine.focus, machine.path))
    raise FuelExhausted(machine.root(), fuel)
