"""Proof terms: the functional language whose types are game formulas.

Every binder records its binding occurrence explicitly, including the ghost
program variables introduced by assignment-style rules, so that checking,
substitution, and normalization agree on names without a global supply.
Walks read a plan per class, staged on first use (`_plan`): binder groups,
proof-term children with the binders and ghosts scoping them, a getter
of the field values, and field names.  Substitution rebuilds a node by
position only when a child changed, replaces a proof-variable child in
place, and reads the argument's free proof variables at each binder it
meets; a closed argument skips every capture check.  A proof term keeps
its free proof variables in a slot (`_free`), as syntax and realizers do.

Node inventory (constructor -- introducing rule):
  PVar            hypothesis
  Lam / App       test-box introduction / elimination (implication)
  NumLam / NumApp universal assignment introduction / elimination
  DPair           diamond-test introduction (conjunction)
  BPair           box-choice introduction
  Proj1 / Proj2   pair eliminations (both pair flavors)
  InjL / InjR     diamond-choice introductions (disjunction)
  Case            diamond-choice elimination
  TCons / Unpack  diamond-assignment introduction / elimination (existential)
  Asgn            deterministic assignment (diamond and box flavor)
  SeqI            sequential-game introduction (both flavors)
  Swap            dual-game introduction (both flavors)
  Stop / Go / RCase / For / FP   diamond repetition
  Rep / Roll / Unroll            box repetition
  Mon             postcondition weakening
  QE / Dec / Split               first-order oracle leaves
  Ghost           remember a term's value in a fresh variable
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter
from typing import Optional

from . import syntax as S
from .syntax import FIELDS, Formula, Term, frozen, rename


class ProofTerm:
    # the checker's (goal, context items, realizer) once it accepts the
    # term, and its free proof variables; not fields, so equality,
    # `replace`, copies and pickles skip them
    __slots__ = ("_accepted", "_free")


DIA = "d"
BOX = "b"


@frozen
class PVar(ProofTerm):
    name: str


@frozen
class Lam(ProofTerm):
    hyp: str
    ann: Formula
    body: ProofTerm


@frozen
class App(ProofTerm):
    fn: ProofTerm
    arg: ProofTerm


@frozen
class NumLam(ProofTerm):
    var: str
    ghost: str
    body: ProofTerm


@frozen
class NumApp(ProofTerm):
    fn: ProofTerm
    term: Term


@frozen
class DPair(ProofTerm):
    fst: ProofTerm
    snd: ProofTerm


@frozen
class BPair(ProofTerm):
    fst: ProofTerm
    snd: ProofTerm


@frozen
class Proj1(ProofTerm):
    arg: ProofTerm


@frozen
class Proj2(ProofTerm):
    arg: ProofTerm


@frozen
class InjL(ProofTerm):
    arg: ProofTerm


@frozen
class InjR(ProofTerm):
    arg: ProofTerm


@frozen
class Case(ProofTerm):
    scrut: ProofTerm
    left: str
    bleft: ProofTerm
    right: str
    bright: ProofTerm


@frozen
class TCons(ProofTerm):
    var: str
    ghost: str
    hyp: str
    witness: Term
    body: ProofTerm


@frozen
class Unpack(ProofTerm):
    var: str
    ghost: str
    hyp: str
    scrut: ProofTerm
    body: ProofTerm


@frozen
class Asgn(ProofTerm):
    var: str
    ghost: str
    hyp: str
    body: ProofTerm
    flavor: str  # DIA or BOX


@frozen
class SeqI(ProofTerm):
    body: ProofTerm
    flavor: str


@frozen
class Swap(ProofTerm):
    body: ProofTerm
    flavor: str  # flavor of the conclusion modality


@frozen
class Stop(ProofTerm):
    body: ProofTerm


@frozen
class Go(ProofTerm):
    body: ProofTerm


@frozen
class RCase(ProofTerm):
    scrut: ProofTerm
    svar: str
    sbody: ProofTerm
    gvar: str
    gbody: ProofTerm


@frozen
class For(ProofTerm):
    hyp: str  # invariant hypothesis in body/done
    mhyp: str  # metric hypothesis in body/done
    m0: str  # snapshot variable for the metric
    init: ProofTerm
    body: ProofTerm
    done: ProofTerm
    metric: Term
    inv: Formula


@frozen
class FP(ProofTerm):
    scrut: ProofTerm
    svar: str
    sbody: ProofTerm
    gvar: str
    gbody: ProofTerm


@frozen
class Rep(ProofTerm):
    hyp: str
    init: ProofTerm
    body: ProofTerm
    done: ProofTerm
    inv: Formula


@frozen
class Roll(ProofTerm):
    body: ProofTerm


@frozen
class Unroll(ProofTerm):
    body: ProofTerm


@frozen
class Mon(ProofTerm):
    scrut: ProofTerm
    hyp: str
    body: ProofTerm


@frozen
class QE(ProofTerm):
    goal: Formula
    payload: Optional[ProofTerm]


@frozen
class Dec(ProofTerm):
    goal: Formula
    payload: Optional[ProofTerm]


@frozen
class Split(ProofTerm):
    left: Term
    right: Term


@frozen
class Ghost(ProofTerm):
    var: str
    term: Term
    hyp: str
    body: ProofTerm


# ---------------------------------------------------------------------------
# Context


class Context:
    """Ordered hypothesis list with unique names; exchange-insensitive."""

    __slots__ = ("_items",)

    def __init__(self, items=()):
        self._items = dict(items)

    def lookup(self, name: str) -> Optional[Formula]:
        return self._items.get(name)

    def extend(self, name: str, phi: Formula) -> "Context":
        new = dict(self._items)
        new[name] = phi
        return Context(new)

    def rename_vars(self, x: str, y: str) -> "Context":
        return Context({p: rename(phi, x, y) for p, phi in self._items.items()})

    def names(self):
        return set(self._items)

    def items(self):
        return self._items.items()

    def free_vars(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for phi in self._items.values():
            out |= S.free_vars(phi)
        return out

    def __contains__(self, name):
        return name in self._items

    def __len__(self):
        return len(self._items)

    def __repr__(self):
        inner = ", ".join(f"{p}:{phi!r}" for p, phi in self._items.items())
        return f"Context({inner})"


# ---------------------------------------------------------------------------
# Generic traversal helpers

_KINDS = {"ProofTerm": "pt", "Optional[ProofTerm]": "pt?", "Term": "term", "Formula": "formula"}


@cache
def _child_spec(cls) -> tuple:
    """(field, kind) for each child of a proof-term class, in field order."""
    return tuple((f, _KINDS[ann]) for f, ann in FIELDS[cls] if ann in _KINDS)


# each binder of program variables: (its fields, the proof-term children it
# scopes); an unpack's scrutinee and a loop's initial evidence are checked
# outside it
_GHOSTS = {
    NumLam: (("var", "ghost"), ("body",)),
    TCons: (("var", "ghost"), ("body",)),
    Unpack: (("var", "ghost"), ("body",)),
    Asgn: (("var", "ghost"), ("body",)),
    Ghost: (("var",), ("body",)),
    For: (("m0",), ("body", "done")),
}
_NO_GHOSTS = ((), ())

_PVAR_BINDERS = {
    Lam: (("hyp", ("body",)),),
    NumLam: (),
    TCons: (("hyp", ("body",)),),
    Unpack: (("hyp", ("body",)),),
    Asgn: (("hyp", ("body",)),),
    Case: (("left", ("bleft",)), ("right", ("bright",))),
    RCase: (("svar", ("sbody",)), ("gvar", ("gbody",))),
    FP: (("svar", ("sbody",)), ("gvar", ("gbody",))),
    For: (("hyp", ("body", "done")), ("mhyp", ("body", "done"))),
    Rep: (("hyp", ("body", "done")),),
    Mon: (("hyp", ("body",)),),
    Ghost: (("hyp", ("body",)),),
}


_PLANS = {}  # class -> its plan, built by `_plan` on first use


def _plan(cls) -> tuple:
    """The walks' static view of a proof-term class, staged once: its
    proof-variable binder groups as (position, field, scoped fields); its
    proof-term children as (position, field, binder fields scoping it,
    whether its ghosts scope it); whether it binds a program variable; a
    getter of its field values, None for a class of one field; its field
    names; and every child and ghost as (position, kind)."""
    names = cls.__match_args__
    groups = _PVAR_BINDERS.get(cls, ())
    ghosts, ghosted = _GHOSTS.get(cls, _NO_GHOSTS)
    kinds = dict(_child_spec(cls), **dict.fromkeys(ghosts, "ghost"))
    _PLANS[cls] = plan = (
        tuple((names.index(h), h, targets) for h, targets in groups),
        tuple(
            (names.index(f), f, tuple(h for h, targets in groups if f in targets), f in ghosted)
            for f, kind in kinds.items()
            if kind in ("pt", "pt?")
        ),
        cls in (Asgn, TCons, Unpack, NumLam),
        attrgetter(*names) if len(names) > 1 else None,
        names,
        tuple((names.index(f), kind) for f, kind in kinds.items()),
    )
    return plan


def map_children(m: ProofTerm, on_pt, on_term, on_formula, on_ghost=None) -> ProofTerm:
    """m rebuilt with each child mapped by its kind, and each ghost program
    variable by `on_ghost` when given."""
    cls = type(m)
    *_, names, spec = _PLANS.get(cls) or _plan(cls)
    vals = [getattr(m, f) for f in names]
    for pos, kind in spec:
        v = vals[pos]
        if kind == "pt":
            vals[pos] = on_pt(v)
        elif kind == "pt?":
            vals[pos] = on_pt(v) if v is not None else None
        elif kind == "term":
            vals[pos] = on_term(v)
        elif kind == "formula":
            vals[pos] = on_formula(v)
        elif on_ghost is not None:
            vals[pos] = on_ghost(v)
    return cls(*vals)


def rename_pt(m: ProofTerm, x: str, y: str) -> ProofTerm:
    """Transpose program variables x and y everywhere, binders included.

    Transposition is a bijection on variable names, so it is self-inverse
    and capture-free without any alpha-variation.
    """
    if x == y:
        return m

    def rn(v: str) -> str:
        return y if v == x else x if v == y else v

    return map_children(
        m,
        lambda n: rename_pt(n, x, y),
        lambda t: rename(t, x, y),
        lambda f: rename(f, x, y),
        rn,
    )


def free_pvars(m: ProofTerm) -> frozenset[str]:
    """Free proof variables of m, kept on m; a proof variable's is its name."""
    if type(m) is PVar:
        return frozenset((m.name,))
    out = getattr(m, "_free", None)
    if out is None:
        out = frozenset()
        for _, name, scope, _ in (_PLANS.get(type(m)) or _plan(type(m)))[1]:
            v = getattr(m, name)
            if v is not None:
                inner = free_pvars(v)
                out |= inner - {getattr(m, h) for h in scope} if scope else inner
        object.__setattr__(m, "_free", out)
    return out


def prog_vars(m: ProofTerm) -> frozenset[str]:
    """Every program variable textually occurring in m (terms, formulas,
    ghosts); conservative superset used for freshness checks."""
    out = set()
    for name, kind in _child_spec(type(m)):
        v = getattr(m, name)
        if v is not None:
            out |= prog_vars(v) if kind in ("pt", "pt?") else S.names(v)
    for g in _GHOSTS.get(type(m), _NO_GHOSTS)[0]:
        out.add(getattr(m, g))
    return frozenset(out)


def fresh_pvar(base: str, avoid) -> str:
    if base not in avoid:
        return base
    i = 0
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def all_pvar_names(m: ProofTerm) -> frozenset[str]:
    """Every proof-variable name occurring in m, bound or free."""
    out = set()
    stack = [m]
    while stack:
        n = stack.pop()
        if isinstance(n, PVar):
            out.add(n.name)
            continue
        groups, kids, *_ = _PLANS.get(type(n)) or _plan(type(n))
        out.update(getattr(n, h) for _, h, _ in groups)
        stack.extend(v for _, f, *_ in kids if (v := getattr(n, f)) is not None)
    return frozenset(out)


def subst_pt(m: ProofTerm, p: str, n: ProofTerm) -> ProofTerm:
    """Capture-avoiding substitution of proof term n for proof variable p.

    Crossing a binder that re-binds a program variable x with recorded ghost
    y renames x and y inside the substituted copy, so hypotheses formed
    before the binding keep referring to the old value.  The copy is
    renamed only where p occurs, once per chain of binders crossed.  The
    walk reads `free_pvars(n)` at each proof-variable binder it meets, and a
    closed n skips every capture check.  Subterms the substitution leaves
    unchanged are shared with m, not copied, and a proof variable is
    replaced where its parent is walked, with no call of its own.
    """
    if type(m) is PVar:
        return n if m.name == p else m
    return _subst_pt(m, p, n, None)


def _renamed(n: ProofTerm, moved) -> ProofTerm:
    """n renamed through the binders `moved`, a linked list [x, ghost,
    outer binders, the copy]: the copy is made once per chain."""
    if moved is None:
        return n
    if moved[3] is None:
        moved[3] = rename_pt(_renamed(n, moved[2]), moved[0], moved[1])
    return moved[3]


def _subst_pt(m: ProofTerm, p: str, n: ProofTerm, moved) -> ProofTerm:
    """subst_pt below the root; m is not a proof variable."""
    cls = type(m)
    groups, kids, binds, fields, *_ = _PLANS.get(cls) or _plan(cls)

    renames = {}
    fv_n = free_pvars(n) if groups else None
    # alpha-vary binders that would capture free proof variables of n
    for pos, h, targets in groups if fv_n else ():
        b = getattr(m, h)
        if b in fv_n and b != p and any(p in free_pvars(getattr(m, t)) for t in targets):
            avoid = set(fv_n) | {b}
            for t in targets:
                avoid |= all_pvar_names(getattr(m, t))
            renames[h] = (pos, b, fresh_pvar(b, avoid))

    # crossing a program-variable binder adjusts the substituted copy
    inner = [m.var, m.ghost, moved, None] if binds else moved
    vals = None
    for pos, name, scope, ghosted in kids:
        old = v = getattr(m, name)
        if v is None:
            continue
        shadowed = False
        for h in scope:
            if h in renames:
                _, b, new = renames[h]
                v = subst_pt(v, b, PVar(new))
            elif getattr(m, h) == p:
                shadowed = True
        if not shadowed:
            if type(v) is not PVar:
                v = _subst_pt(v, p, n, inner if ghosted else moved)
            elif v.name == p:  # replaced here, with no call of its own
                v = _renamed(n, inner if ghosted else moved)
        if v is not old or renames:
            if vals is None:
                vals = list(fields(m)) if fields else [v]
            vals[pos] = v
    if renames:
        for pos, _, new in renames.values():
            vals[pos] = new
    return m if vals is None else cls(*vals)


def subst_term_pt(m: ProofTerm, x: str, f: Term) -> ProofTerm:
    """Replace program variable x by term f in all embedded syntax.

    Admissibility (the expression may bind neither x nor free variables of
    f) is enforced by the underlying formula/term substitution; binders in
    the proof term itself also must not capture.
    """
    blocked = {x} | set(S.free_vars(f))

    def go(m: ProofTerm) -> ProofTerm:
        ghosts = {getattr(m, g) for g in _GHOSTS.get(type(m), _NO_GHOSTS)[0]}
        hit = ghosts & blocked
        if hit:
            raise S.InadmissibleSubstitution(
                f"proof-term binder {sorted(hit)} blocks [{x} -> {f!r}]"
            )
        return map_children(
            m,
            go,
            lambda t: S.subst_term(t, x, f),
            lambda phi: S.subst_term(phi, x, f),
        )

    return go(m)


# ---------------------------------------------------------------------------
# Alpha-equivalence (proof variables and ghost program variables)


def alpha_eq(a: ProofTerm, b: ProofTerm) -> bool:
    return _alpha(a, b, {}, {})


def _same(m: dict, x: str, y: str) -> bool:
    """x in a and y in b name twin binders, or are both free: m holds x: y
    and (y,): x, so a name one side binds matches no free name of the other."""
    return m.get(x, x) == y and m.get((y,), y) == x


def _bind(m: dict, pairs: list) -> dict:
    return {**m, **{x: y for x, y in pairs}, **{(y,): x for x, y in pairs}} if pairs else m


def _expr_eq(e1, e2, vmap: dict) -> bool:
    if not vmap:  # syntax is interned
        return e1 is e2
    t = type(e1)
    if t is not type(e2):
        return False
    if t is S.Var:
        return _same(vmap, e1.name, e2.name)
    if t in (S.Assign, S.AssignAny):
        if not _same(vmap, e1.var, e2.var):
            return False
        return t is S.AssignAny or _expr_eq(e1.term, e2.term, vmap)
    return all(
        _expr_eq(getattr(e1, f), getattr(e2, f), vmap) if sub
        else getattr(e1, f) == getattr(e2, f)
        for f, sub in S.field_table(t)
    )


def _alpha(a: ProofTerm, b: ProofTerm, pmap: dict, vmap: dict) -> bool:
    """a and b alike up to bound names: each proof-term child under the
    binders and ghosts that scope it, each term and formula outside."""
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is PVar:
        return _same(pmap, a.name, b.name)
    _, kids, binds, _, names, spec = _PLANS.get(cls) or _plan(cls)
    ghosts = []
    for pos, kind in spec:
        va, vb = getattr(a, names[pos]), getattr(b, names[pos])
        if kind == "ghost":
            if binds and names[pos] == "var":
                if va != vb:  # the bound program variable itself is rigid
                    return False
            else:
                ghosts.append((va, vb))
        elif kind in ("term", "formula") and not _expr_eq(va, vb, vmap):
            return False
    if "flavor" in names and a.flavor != b.flavor:
        return False
    inner = _bind(vmap, ghosts)
    for _, name, scope, ghosted in kids:
        va, vb = getattr(a, name), getattr(b, name)
        if va is None or vb is None:
            if va is not vb:
                return False
        elif not _alpha(va, vb, _bind(pmap, [(getattr(a, h), getattr(b, h)) for h in scope]),
                        inner if ghosted else vmap):
            return False
    return True
