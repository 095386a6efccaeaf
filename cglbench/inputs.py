"""Seeded input generators.

Every generator takes a `random.Random` from `rng_for` and returns plain
data or cgl syntax built through cgl's public constructors.
Each operation of a workload gets inputs of the same make-up: the same
counts, sizes and kinds, shuffled or drawn anew from its own stream.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from cgl import proofterms as P
from cgl import syntax as S
from cgl.cli import corpus_path
from cgl.parser import KEYWORDS

CORPUS_FILES = ("nim.cgl", "cake.cgl", "exists.cgl", "basics.cgl")


def rng_for(seed: int, *parts) -> random.Random:
    """An independent stream per (seed, purpose, index); string seeds hash
    the same in every process."""
    return random.Random("/".join(map(str, (seed,) + parts)))


def corpus_file(name: str) -> str:
    with open(corpus_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


def corpus_text() -> str:
    """The whole bundled corpus as one script (22 theorems)."""
    return "\n".join(corpus_file(n) for n in CORPUS_FILES)


# Theorems the checker must reject: a refutable arithmetic claim, an
# integer-quotient claim that is off by one residue, and the chooser's
# proof pushed to a 6/10 guarantee it cannot give.
FALSE_THEOREMS = r"""
theorem falseStep : x > 0 -> x > 1 = \h : x > 0. FO[x > 1](h)

theorem falseResidue : c mod 4 = 1 -> (c - 2) mod 4 = 0 =
  \h : c mod 4 = 1. FO[(c - 2) mod 4 = 0](h)

theorem falseShare : [CC] d >= 6/10 =
  seqb seqb (\x : Q as xg. seqb (\r : 0 <= x & x <= 1. mon(
      asgnb y (yg, y. FO[x + y = 1](y))
  ; m.
    yieldb (case split(x, 1/2) of
      l. inl yieldd seqb asgnb a (a2, a. asgnb d (d2, d. FO[d >= 6/10](l, m, d)))
    | r. inr yieldd seqb asgnb a (a3, a. asgnb d (d3, d. FO[d >= 6/10](r, d)))))))
"""

# an identifier token; "^d" (dual) is punctuation, not the identifier d
_IDENT = re.compile(r"(?<![\^A-Za-z0-9_])[A-Za-z_][A-Za-z0-9_]*")
_DEFINED = re.compile(r"^\s*(?:game|formula|theorem)\s+([A-Za-z_][A-Za-z0-9_]*)", re.M)


def rename_apart(text: str, prefix: str) -> str:
    """Prefix every variable of a script (state variables, ghosts and proof
    variables alike; keywords and defined names stay).

    One common prefix keeps the names' sort order, so the oracle eliminates
    variables in the same order and does the same work, while no query of
    one renamed copy equals a query of another.
    """
    keep = set(KEYWORDS) | set(_DEFINED.findall(text))
    return _IDENT.sub(
        lambda m: m.group(0) if m.group(0) in keep else prefix + m.group(0), text
    )


# ---------------------------------------------------------------------------
# Linear sequents with known answers


def _lin_term(coeffs, names) -> S.Term:
    parts = [S.Times(S.lit(a), S.Var(v)) for a, v in zip(coeffs, names) if a]
    out = parts[0]
    for p in parts[1:]:
        out = S.Plus(out, p)
    return out


def _formula(constraint, names) -> S.Formula:
    coeffs, bound = constraint
    return S.Cmp(_lin_term(coeffs, names), "<=", S.lit(bound))


def _coeffs(rng, nvars):
    while True:
        c = [rng.randint(-5, 5) for _ in range(nvars)]
        if any(c):
            return c


def sequent_batch(rng, names, n: int, n_hyps: int, valid: bool):
    """n sequents  rho -> goal  over the given variables, each a dict with
    the cgl formulas `rho` and `goal`, the same constraints as integer data,
    and the known answer `valid`.

    A valid goal is a nonnegative (Farkas) combination of the hypotheses
    loosened by a nonnegative constant.  A false goal is violated at a
    planted integer point that satisfies every hypothesis.
    """
    out = []
    nvars = len(names)
    for _ in range(n):
        if valid:
            rho = [(_coeffs(rng, nvars), rng.randint(-10, 10)) for _ in range(n_hyps)]
            while True:
                lam = [rng.randint(0, 3) for _ in range(n_hyps)]
                coeffs = [sum(l * c[j] for l, (c, _) in zip(lam, rho)) for j in range(nvars)]
                if sum(1 for l in lam if l) >= 2 and any(coeffs):
                    break
            bound = sum(l * b for l, (_, b) in zip(lam, rho)) + rng.randint(0, 2)
            goal = (coeffs, bound)
            point = None
        else:
            point = [rng.randint(-4, 4) for _ in range(nvars)]
            rho = []
            for _ in range(n_hyps):
                c = _coeffs(rng, nvars)
                rho.append((c, sum(a * v for a, v in zip(c, point)) + rng.randint(0, 3)))
            d = _coeffs(rng, nvars)
            goal = (d, sum(a * v for a, v in zip(d, point)) - rng.randint(1, 3))
        hyp = _formula(rho[0], names)
        for c in rho[1:]:
            hyp = S.And(hyp, _formula(c, names))
        out.append({
            "rho": hyp, "goal": _formula(goal, names), "valid": valid,
            "names": names, "rho_data": rho, "goal_data": goal, "point": point,
        })
    return out


# ---------------------------------------------------------------------------
# Identity-redex wrappers for the normalizer

REDEX_KINDS = ("beta", "proj", "case", "unroll", "mon")

# Redexes each wrapper plants, counting the beta redex that binds the
# wrapped proof.
PLANTED = {"beta": 1, "proj": 2, "case": 4, "unroll": 4, "mon": 3}


def _tt():
    return P.QE(S.TRUE, None)


def wrap(kind: str, phi: S.Formula, m: P.ProofTerm, tag: str) -> P.ProofTerm:
    """A proof of phi that reduces back to m.  The wrapped proof is bound by
    a beta redex  (\\q : phi. K) m , where K uses q only through forms the
    checker can synthesize, so every kind wraps every theorem."""
    q = P.PVar(f"q{tag}")
    if kind == "beta":
        body = q
    elif kind == "proj":
        body = P.Proj1(P.DPair(q, _tt()))
    elif kind == "case":
        # case (inl <tt, q> : <?tt ++ ?ff> phi) of l. pi2 l | r. pi2 r
        ann = S.Diamond(S.Choice(S.Test(S.TRUE), S.Test(S.FALSE)), phi)
        s, l, r = f"s{tag}", f"l{tag}", f"r{tag}"
        scrut = P.App(P.Lam(s, ann, P.PVar(s)), P.InjL(P.DPair(_tt(), q)))
        body = P.Case(scrut, l, P.Proj2(P.PVar(l)), r, P.Proj2(P.PVar(r)))
    elif kind == "unroll":
        # pi1 unroll (roll <q, \f : ff. rep(q; p. \g : ff. p; p)> : [(?ff)*] phi)
        loop = S.Box(S.Repeat(S.Test(S.FALSE)), phi)
        s, f, g, p = f"s{tag}", f"f{tag}", f"g{tag}", f"p{tag}"
        rep = P.Rep(p, q, P.Lam(g, S.FALSE, P.PVar(p)), P.PVar(p), phi)
        rolled = P.Roll(P.DPair(q, P.Lam(f, S.FALSE, rep)))
        body = P.Proj1(P.Unroll(P.App(P.Lam(s, loop, P.PVar(s)), rolled)))
    elif kind == "mon":
        # pi1 mon(<q, tt>; p. p)
        p = f"p{tag}"
        body = P.Proj1(P.Mon(P.DPair(q, _tt()), p, P.PVar(p)))
    else:
        raise ValueError(kind)
    return P.App(P.Lam(q.name, phi, body), m)


def wrap_stack(rng, phi, m, per_kind: int):
    """m inside `per_kind` wrappers of every kind, in a seeded order.
    Returns (term, planted redex count)."""
    kinds = list(REDEX_KINDS) * per_kind
    rng.shuffle(kinds)
    for i, k in enumerate(kinds):
        m = wrap(k, phi, m, f"_{i}")
    return m, sum(PLANTED[k] for k in kinds)


# ---------------------------------------------------------------------------
# Adversary menus and scripts


def cake_menu(rng, n: int, den: int = 10007):
    """n distinct cuts k/den, about a tenth of them outside [0, 1]."""
    lo, hi = -den // 20, den + den // 20
    return [Fraction(k, den) for k in rng.sample(range(lo, hi + 1), n)]


def balanced_moves(rng, rounds: int, last=None):
    """`rounds` adversary moves, each of 1, 2, 3 equally often, shuffled;
    `last` pins the final move so that plays of every seed have the same
    length and the same number of events."""
    ks = list((1, 2, 3) * (rounds // 3))
    rng.shuffle(ks)
    if last is not None:
        i = ks.index(last)
        ks[i], ks[-1] = ks[-1], ks[i]
    return ks


_BRANCHES = {1: ["L"], 2: ["R", "L"], 3: ["R", "R"]}  # c-1 ++ (c-2 ++ c-3)


def dnim_script(ks):
    """Adversary decisions for dNim: continue, move k, assert c > 0; stop."""
    out = []
    for k in ks:
        out += ["continue", *_BRANCHES[k], "assert"]
    return out + ["stop"]


def anim_script(ks):
    """Adversary decisions for aNim: move k, assert c > 0, every round."""
    out = []
    for k in ks:
        out += [*_BRANCHES[k], "assert"]
    return out


def cuts(rng, n: int, den: int = 97):
    """n cuts inside [0, 1]."""
    return [Fraction(rng.randint(0, den), den) for _ in range(n)]


def signs(rng, n: int):
    """n nonzero rationals of either sign."""
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 7)) for _ in range(n)]
