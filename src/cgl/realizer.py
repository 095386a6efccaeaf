"""Executable strategy values (realizers).

A realizer makes Angel's decisions move-by-move: pairs feed branch
selectors and continuations, number/proof lambdas receive Demon's data,
`Ind` unfolds an active loop strategy, `Gen` generates a dormant loop
stream from an invariant value.  `Compose` pipes the residual of one play
into a continuation at run time, and `Decide` branches on a forced
selector.  `compose` builds every composition: statically where the
strategy's shape shows the residual, with a `Compose` elsewhere.

Realizer syntax is immutable and interned like terms, formulas and games
(`syntax._Node`): equal realizers are one object, so equality and hashing
are identity.  The engine pairs realizers with environments, so values can
be exported/imported losslessly as tagged JSON trees (`cgl.interchange`).
"""

from __future__ import annotations

from itertools import count

from . import syntax as S
from .syntax import FIELDS, Formula, Game, Term, _Node, _union, frozen


class Realizer(_Node):
    # the engine's: the names a closure can read; its capture set, those
    # names as environment keys, all that a bound closure keeps; a Gen's
    # stream; its free realizer variables
    __slots__ = ("_reads", "_capture", "_stream", "_free")


@frozen
class Unit(Realizer):
    pass


@frozen
class Pair(Realizer):
    fst: Realizer
    snd: Realizer


@frozen
class Fst(Realizer):
    arg: Realizer


@frozen
class Snd(Realizer):
    arg: Realizer


@frozen
class NumLamR(Realizer):
    var: str
    body: Realizer


@frozen
class AppNum(Realizer):
    fn: Realizer
    term: Term


@frozen
class ProofLam(Realizer):
    hyp: str
    ann: Formula
    body: Realizer


@frozen
class AppRz(Realizer):
    fn: Realizer
    arg: Realizer


@frozen
class TermVal(Realizer):
    term: Term


@frozen
class IfTerm(Realizer):
    cond: Formula
    then: Realizer
    els: Realizer


@frozen
class Ind(Realizer):
    var: str
    body: Realizer


@frozen
class Gen(Realizer):
    """Dormant-loop stream: current invariant evidence `init`, an `step`
    realizer playing one body round, and `post` evidence on stop; `game`
    records the loop body so unrolled streams replay correctly."""

    init: Realizer
    var: str
    step: Realizer
    post: Realizer
    game: Game


@frozen
class RVar(Realizer):
    name: str


@frozen
class Compose(Realizer):
    """Play `first` through the recorded game prefix (at least one game),
    then continue with `cont` applied to the residual."""

    first: Realizer
    var: str
    cont: Realizer
    games: tuple[Game, ...]


@frozen
class Decide(Realizer):
    scrut: Realizer
    lvar: str
    left: Realizer
    rvar: str
    right: Realizer


# each binder of realizer variables: (binder field, the fields it scopes)
BINDERS = {
    ProofLam: (("hyp", ("body",)),),
    Ind: (("var", ("body",)),),
    Compose: (("var", ("cont",)),),
    Gen: (("var", ("step", "post")),),
    Decide: (("lvar", ("left",)), ("rvar", ("right",))),
}

# each constructor's realizer fields
KIDS = {
    cls: tuple(f for f, ann in FIELDS[cls] if ann == "Realizer")
    for cls in FIELDS if issubclass(cls, Realizer)
}


def free_rvars(r: Realizer) -> frozenset:
    """The realizer variables free in r, kept on r."""
    out = getattr(r, "_free", None)
    if out is None:
        if type(r) is RVar:
            out = frozenset((r.name,))
        else:
            scope = {f: b for b, fs in BINDERS.get(type(r), ()) for f in fs}
            out = frozenset()
            for f in KIDS[type(r)]:
                inner = free_rvars(getattr(r, f))
                out = _union(out, inner - {getattr(r, scope[f])} if f in scope else inner)
        object.__setattr__(r, "_free", out)
    return out


def subst_rvar(r: Realizer, name: str, value: Realizer) -> Realizer:
    """r with value for each free `name`.  A binder with a free `name` in
    its scope and the name of a variable free in value is renamed apart
    first, so value's variables are never captured."""
    return _subst(r, name, value, free_rvars(value))


def _subst(r: Realizer, name: str, value: Realizer, free: frozenset) -> Realizer:
    if name not in free_rvars(r):
        return r
    t = type(r)
    if t is RVar:
        return value
    kids = {}
    for b, scope in BINDERS.get(t, ()):
        old = getattr(r, b)
        if old == name:  # shadowed: the scope is left as it is
            kids.update((f, getattr(r, f)) for f in scope)
        elif old in free and any(name in free_rvars(getattr(r, f)) for f in scope):
            kids.update(_apart(r, b, scope, free))
            for f in scope:
                kids[f] = _subst(kids[f], name, value, free)
    for f in KIDS[t]:
        if f not in kids:
            kids[f] = _subst(getattr(r, f), name, value, free)
    return rebuilt(r, kids)


def _apart(r: Realizer, b: str, scope: tuple, free: frozenset) -> dict:
    """The fields of r with binder b renamed apart from free and its scope."""
    old = getattr(r, b)
    taken = free.union(*(free_rvars(getattr(r, f)) for f in scope))
    new = next(n for i in count(1) if (n := f"{old}'{i}") not in taken)
    kids = {f: _subst(getattr(r, f), old, RVar(new), frozenset((new,))) for f in scope}
    kids[b] = new
    return kids


def rebuilt(r: Realizer, kids: dict) -> Realizer:
    """r with the fields in kids replaced, built by position; r itself
    when none changed."""
    if all(v is getattr(r, f) for f, v in kids.items()):
        return r
    return type(r)(*[kids.get(f, getattr(r, f)) for f in r.__match_args__])


_TAGS = (TermVal(S.lit(0)), TermVal(S.lit(1)))  # the side a choice's evidence takes
_FLIP = {S.Box: S.Diamond, S.Diamond: S.Box}


def compose(first: Realizer, var: str, cont: Realizer, spine: tuple) -> Realizer:
    """Play `first` through the leading games of `spine` (modal formulas;
    posts are not read), then `cont` on the residual evidence, bound to
    `var`: at each residual position that first's shape shows, else in a
    run-time `Compose` of the games left.  Nothing is captured."""
    return _place(first, var, cont, spine, free_rvars(cont) - {var})


def _place(rz: Realizer, var: str, cont: Realizer, spine: tuple, free: frozenset) -> Realizer:
    """rz with cont on its residual evidence after spine's games; a binder
    of rz that cont goes under is renamed apart from cont's variables, free."""
    while spine and type(g := spine[0].game) in (S.Seq, S.Dual, S.Assign):
        mod, post, spine = type(spine[0]), spine[0].post, spine[1:]
        if type(g) is S.Seq:
            spine = (mod(g.left, post), mod(g.right, post)) + spine
        elif type(g) is S.Dual:
            spine = (_FLIP[mod](g.body, post),) + spine
    if not spine:
        return subst_rvar(cont, var, rz)
    phi, rest, k, t = spine[0], spine[1:], type(rz), type(g)
    games, box = tuple(f.game for f in spine), type(phi) is S.Box
    # the fields that hold the residual, each with the games it has left
    if k is Compose and games[: len(rz.games)] == rz.games:
        plan = {"cont": spine[len(rz.games):]}
    elif k is Decide:
        plan = {"left": spine, "right": spine}
    elif box and (k, t) in ((ProofLam, S.Test), (NumLamR, S.AssignAny)):
        plan = {"body": rest}
    elif k is Pair and box and t is S.Choice:
        plan = {"fst": (S.Box(g.left, phi.post),) + rest,
                "snd": (S.Box(g.right, phi.post),) + rest}
    elif k is Pair and not box and (t is S.Test or t is S.AssignAny):
        plan = {"snd": rest}  # the evidence, then the residual
    elif k is Pair and not box and rz.fst in _TAGS and t is S.Choice:
        plan = {"snd": (S.Diamond((g.left, g.right)[rz.fst is _TAGS[1]], phi.post),) + rest}
    elif k is Pair and not box and rz.fst in _TAGS and t is S.Repeat:
        plan = {"snd": ((S.Diamond(g.body, phi), phi) if rz.fst is _TAGS[1] else ()) + rest}
    else:
        return Compose(rz, var, cont, games)
    kids = {}
    for b, scope in BINDERS.get(k, ()):
        if getattr(rz, b) in free:
            kids.update(_apart(rz, b, scope, free))
    rz = rebuilt(rz, kids)
    return rebuilt(rz, {f: _place(getattr(rz, f), var, cont, sp, free) for f, sp in plan.items()})
