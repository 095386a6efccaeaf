"""Executable strategy values (realizers).

A realizer makes Angel's decisions move-by-move: pairs feed branch
selectors and continuations, number/proof lambdas receive Demon's data,
`Ind` unfolds an active loop strategy, `Gen` generates a dormant loop
stream from an invariant value.  `Compose` pipes the residual of one play
into a continuation (the run-time face of postcondition weakening) and
`Decide` branches on a forced selector.

Realizer syntax is immutable and interned like terms, formulas and games
(`syntax._Node`): equal realizers are one object, so equality and hashing
are identity.  The engine pairs realizers with environments, so values can
be exported/imported losslessly as tagged JSON trees (`cgl.interchange`).
"""

from __future__ import annotations

from dataclasses import fields
from itertools import count

from .syntax import Formula, Game, Term, _node, _Node


class Realizer(_Node):
    __slots__ = ("_reads", "_stream")  # the engine's: names a closure can read; a Gen's stream


@_node
class Unit(Realizer):
    pass


@_node
class Pair(Realizer):
    fst: Realizer
    snd: Realizer


@_node
class Fst(Realizer):
    arg: Realizer


@_node
class Snd(Realizer):
    arg: Realizer


@_node
class NumLamR(Realizer):
    var: str
    body: Realizer


@_node
class AppNum(Realizer):
    fn: Realizer
    term: Term


@_node
class ProofLam(Realizer):
    hyp: str
    ann: Formula
    body: Realizer


@_node
class AppRz(Realizer):
    fn: Realizer
    arg: Realizer


@_node
class TermVal(Realizer):
    term: Term


@_node
class IfTerm(Realizer):
    cond: Formula
    then: Realizer
    els: Realizer


@_node
class Ind(Realizer):
    var: str
    body: Realizer


@_node
class Gen(Realizer):
    """Dormant-loop stream: current invariant evidence `init`, an `step`
    realizer playing one body round, and `post` evidence on stop; `game`
    records the loop body so unrolled streams replay correctly."""

    init: Realizer
    var: str
    step: Realizer
    post: Realizer
    game: Game


@_node
class RVar(Realizer):
    name: str


@_node
class Compose(Realizer):
    """Play `first` through the recorded game prefix (at least one game),
    then continue with `cont` applied to the residual."""

    first: Realizer
    var: str
    cont: Realizer
    games: tuple[Game, ...]


@_node
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
    cls: tuple(f.name for f in fields(cls) if f.type == "Realizer")
    for cls in list(globals().values())
    if isinstance(cls, type) and issubclass(cls, Realizer) and cls is not Realizer
}


def free_rvars(r: Realizer) -> frozenset:
    """The realizer variables free in r."""
    if type(r) is RVar:
        return frozenset((r.name,))
    scope = {f: b for b, fs in BINDERS.get(type(r), ()) for f in fs}
    out = frozenset()
    for f in KIDS[type(r)]:
        inner = free_rvars(getattr(r, f))
        out |= inner - {getattr(r, scope[f])} if f in scope else inner
    return out


def subst_rvar(r: Realizer, name: str, value: Realizer) -> Realizer:
    """r with value for each free `name`.  A binder with a free `name` in
    its scope and the name of a variable free in value is renamed apart
    first, so value's variables are never captured."""
    return _subst(r, name, value, free_rvars(value))


def _subst(r: Realizer, name: str, value: Realizer, free: frozenset) -> Realizer:
    t = type(r)
    if t is RVar:
        return value if r.name == name else r
    kids = {}
    for b, scope in BINDERS.get(t, ()):
        old = getattr(r, b)
        if old == name:  # shadowed: the scope is left as it is
            kids.update((f, getattr(r, f)) for f in scope)
        elif old in free and any(name in free_rvars(getattr(r, f)) for f in scope):
            taken = free.union({name}, *(free_rvars(getattr(r, f)) for f in scope))
            kids[b] = new = next(n for i in count(1) if (n := f"{old}'{i}") not in taken)
            for f in scope:
                moved = _subst(getattr(r, f), old, RVar(new), frozenset((new,)))
                kids[f] = _subst(moved, name, value, free)
    for f in KIDS[t]:
        if f not in kids:
            kids[f] = _subst(getattr(r, f), name, value, free)
    return rebuilt(r, kids)


def rebuilt(r: Realizer, kids: dict) -> Realizer:
    """r with the fields in kids replaced, built by position; r itself
    when none changed."""
    if all(v is getattr(r, f) for f, v in kids.items()):
        return r
    return type(r)(*[kids.get(f, getattr(r, f)) for f in r.__match_args__])
