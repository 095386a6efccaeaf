"""Executable strategy values (realizers).

A realizer makes Angel's decisions move-by-move: pairs feed branch
selectors and continuations, number/proof lambdas receive Demon's data,
`Ind` unfolds an active loop strategy, `Gen` generates a dormant loop
stream from an invariant value.  `Compose` pipes the residual of one play
into a continuation (the run-time face of postcondition weakening) and
`Decide` branches on a forced selector.

Realizer syntax is immutable; the engine pairs it with environments, so
values can be exported/imported losslessly as tagged JSON trees
(`cgl.interchange`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import count

from .syntax import Formula, Game, Term


class Realizer:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Unit(Realizer):
    pass


@dataclass(frozen=True, slots=True)
class Pair(Realizer):
    fst: Realizer
    snd: Realizer


@dataclass(frozen=True, slots=True)
class Fst(Realizer):
    arg: Realizer


@dataclass(frozen=True, slots=True)
class Snd(Realizer):
    arg: Realizer


@dataclass(frozen=True, slots=True)
class NumLamR(Realizer):
    var: str
    body: Realizer


@dataclass(frozen=True, slots=True)
class AppNum(Realizer):
    fn: Realizer
    term: Term


@dataclass(frozen=True, slots=True)
class ProofLam(Realizer):
    hyp: str
    ann: Formula
    body: Realizer


@dataclass(frozen=True, slots=True)
class AppRz(Realizer):
    fn: Realizer
    arg: Realizer


@dataclass(frozen=True, slots=True)
class TermVal(Realizer):
    term: Term


@dataclass(frozen=True, slots=True)
class IfTerm(Realizer):
    cond: Formula
    then: Realizer
    els: Realizer


@dataclass(frozen=True, slots=True)
class Ind(Realizer):
    var: str
    body: Realizer


@dataclass(frozen=True, slots=True)
class Gen(Realizer):
    """Dormant-loop stream: current invariant evidence `init`, an `step`
    realizer playing one body round, and `post` evidence on stop; `game`
    records the loop body so unrolled streams replay correctly."""

    init: Realizer
    var: str
    step: Realizer
    post: Realizer
    game: Game


@dataclass(frozen=True, slots=True)
class RVar(Realizer):
    name: str


@dataclass(frozen=True, slots=True)
class Compose(Realizer):
    """Play `first` through the recorded game prefix (at least one game),
    then continue with `cont` applied to the residual."""

    first: Realizer
    var: str
    cont: Realizer
    games: tuple[Game, ...]


@dataclass(frozen=True, slots=True)
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
_KIDS = {
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
    for f in _KIDS[type(r)]:
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
    for f in _KIDS[t]:
        if f not in kids:
            kids[f] = _subst(getattr(r, f), name, value, free)
    if all(v is getattr(r, f) for f, v in kids.items()):
        return r
    return replace(r, **kids)
