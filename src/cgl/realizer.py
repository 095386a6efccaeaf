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

from dataclasses import dataclass, fields

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


def subst_rvar(r: Realizer, name: str, value: Realizer) -> Realizer:
    """Capture-avoiding substitution for realizer variables (binder names
    are assumed distinct from `name` except where they shadow it)."""
    match r:
        case RVar(name=n):
            return value if n == name else r
        case ProofLam(hyp=h) if h == name:
            return r
        case Ind(var=v) if v == name:
            return r
        case Compose(first=f, var=v, cont=k, games=gs):
            nf = subst_rvar(f, name, value)
            return Compose(nf, v, k if v == name else subst_rvar(k, name, value), gs)
        case Gen(init=i, var=v, step=s, post=p, game=g):
            ni = subst_rvar(i, name, value)
            if v == name:
                return Gen(ni, v, s, p, g)
            return Gen(
                ni, v, subst_rvar(s, name, value), subst_rvar(p, name, value), g
            )
        case Decide(scrut=sc, lvar=lv, left=le, rvar=rv, right=ri):
            nsc = subst_rvar(sc, name, value)
            nle = le if lv == name else subst_rvar(le, name, value)
            nri = ri if rv == name else subst_rvar(ri, name, value)
            return Decide(nsc, lv, nle, rv, nri)
    updates = {}
    for f in fields(type(r)):
        v = getattr(r, f.name)
        if isinstance(v, Realizer):
            updates[f.name] = subst_rvar(v, name, value)
    if not updates:
        return r
    vals = {f.name: getattr(r, f.name) for f in fields(type(r))}
    vals.update(updates)
    return type(r)(**vals)
