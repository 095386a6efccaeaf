"""Strategy extraction: the realizer of a checked proof, and the witness
and disjunct extractors built on it.

The checker elaborates each proof into its realizer in the same pass that
checks it (see `checker`), so `extract` is that pass, with the oracle
deciding every leaf.  A proof the checker has accepted is not walked
again: its check left the realizer on the term, and `extract` returns
that one when the caller asks for it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from . import realizer as R
from . import syntax as S
from .checker import CheckError, UncheckedInput, accepted, elaborate
from .engine import Budget, Closure, _number_and_rest
from .oracle import ArithOracle
from .proofterms import Context, ProofTerm
from .syntax import Formula, State


def extract(
    m: ProofTerm,
    phi: Formula,
    ctx: Optional[Context] = None,
    oracle: Optional[ArithOracle] = None,
    checked: bool = False,
) -> R.Realizer:
    """Compile a proof of phi into a strategy realizer.

    The proof is checked and compiled in one pass; a rejected proof raises
    UncheckedInput with the checker's diagnosis.  Leaves proving an
    existential fact query `oracle` for a closed witness.  With
    checked=True, when the checker has accepted this very term object
    against an equal phi and context and realized every leaf, the
    realizer that check built is returned and no pass runs at all.
    """
    ctx = ctx or Context()
    if checked and (rz := accepted(ctx, m, phi)) is not None:
        return rz
    try:
        return elaborate(ctx, m, phi, oracle or ArithOracle())
    except CheckError as e:
        raise UncheckedInput(str(e)) from None


def extract_existential(m: ProofTerm, phi: Formula, oracle=None):
    """From a proof of  exists x phi0:  a witness term and the residual
    evidence.  The witness is a state function (a term), so it is read
    off the strategy syntactically."""
    if not (isinstance(phi, S.Diamond) and isinstance(phi.game, S.AssignAny)):
        raise UncheckedInput(f"not an existential: {phi!r}")
    rz = extract(m, phi, oracle=oracle)
    return _static_witness(rz)


def _static_witness(rz: R.Realizer):
    if type(rz) is R.Pair and type(rz.fst) is R.TermVal:
        return rz.fst.term, rz.snd
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
    which, prz, penv = _number_and_rest(rz, {}, state, budget)
    side = "L" if which == 0 else "R"
    chosen = disj[0] if side == "L" else disj[1]
    try:
        ok = S.eval_fo(chosen, state)
    except TypeError:
        ok = True  # non-ground disjuncts are not play-time checkable
    if not ok:
        raise UncheckedInput(f"extracted side {side} fails at {state!r}")
    return side, Closure(prz, penv)
