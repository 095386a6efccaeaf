"""Canonical ASCII pretty-printer; `parser` inverts it exactly.

Precedence is written once, in two tables that the parser reads too:
`OPERATORS` for the binary operators of terms, formulas and games, and
`PROOF_FORMS` for the proof forms.  The forms that a keyword or sign opens
print at the levels above the operators' (see `OPERATORS`).
"""

from __future__ import annotations

import re

from . import proofterms as P
from . import syntax as S
from .rational import format_rational


# ---------------------------------------------------------------------------
# Binary operators


def _operands(cls):
    """The view of a `cls` node: its two operands, or None for another node."""
    return lambda x: (x.left, x.right) if type(x) is cls else None


def _iff(a: S.Formula, b: S.Formula) -> S.Formula:
    return S.And(S.Implies(a, b), S.Implies(b, a))


def _cap_view(g: S.Game):
    if (
        isinstance(g, S.Dual)
        and isinstance(g.body, S.Choice)
        and isinstance(g.body.left, S.Dual)
        and isinstance(g.body.right, S.Dual)
    ):
        return g.body.left.body, g.body.right.body
    return None


# The one source of operator precedence: the binary operators of terms,
# formulas and games, each as (token, constructor, view, precedence,
# associativity, left level, right level).  The parser reads them by
# precedence climbing: an operator of precedence p where a level of at most
# p is wanted, its right operand at p when it associates to the right and at
# p + 1 when to the left.  The printer writes a node by the first row whose
# view takes it apart, its operands at the row's levels, in parentheses
# (braces for games) where a level above p is wanted.  `<->` has no view:
# the printer writes its conjunction of implications.  The forms that a
# keyword or sign opens are written by hand in both modules, at levels above
# the table's: unary minus 3 and atoms 4 in terms; `!`, quantifiers,
# modalities and `succ` 5 and comparisons 6 in formulas; tests, assignments
# and postfix `*` and `^d` 3 and braces 4 in games.
OPERATORS = {
    "term": (
        ("+", S.Plus, _operands(S.Plus), 1, "left", 1, 2),
        ("-", S.Minus, _operands(S.Minus), 1, "left", 1, 2),
        ("*", S.Times, _operands(S.Times), 2, "left", 2, 3),
        ("div", S.Div, _operands(S.Div), 2, "left", 2, 3),
        ("mod", S.Mod, _operands(S.Mod), 2, "left", 2, 3),
    ),
    "formula": (
        ("<->", _iff, None, 1, "right", 2, 1),
        ("->", S.Implies, S.split_implies, 2, "right", 3, 2),
        ("|", S.Or, S.split_or, 3, "right", 4, 3),
        ("&", S.And, S.split_and, 4, "right", 5, 4),
    ),
    "game": (
        ("++", S.Choice, _operands(S.Choice), 1, "right", 2, 1),
        # a choice on the right is braced: `a cap {b ++ c}`
        ("cap", S.DormantChoice, _cap_view, 1, "right", 2, 2),
        (";", S.Seq, _operands(S.Seq), 2, "right", 3, 2),
    ),
}


def _binary(x, sort: str, write):
    """`x` as (text, precedence) by the first operator row of its sort whose
    view takes it apart, each operand written by `write` at the row's
    level; None when no row does."""
    for token, _, view, prec, _, left, right in OPERATORS[sort]:
        parts = view and view(x)
        if parts:
            return f"{write(parts[0], left)} {token} {write(parts[1], right)}", prec
    return None


# ---------------------------------------------------------------------------
# Terms


def print_term(t: S.Term, level: int = 0) -> str:
    def par(s, mine):
        return f"({s})" if mine < level else s

    match t:
        case S.Lit(value=v):
            s = format_rational(v)
            return par(s, 3 if v < 0 else 4)
        case S.Var(name=x):
            return x
        case S.Neg(arg=a):
            if isinstance(a, S.Lit) and a.value >= 0:
                return par(f"-({print_term(a)})", 3)
            return par(f"-{print_term(a, 3)}", 3)
        case S.Abs(arg=a):
            return f"abs({print_term(a)})"
        case S.Min(left=a, right=b):
            return f"min({print_term(a)}, {print_term(b)})"
        case S.Max(left=a, right=b):
            return f"max({print_term(a)}, {print_term(b)})"
    op = _binary(t, "term", print_term)
    if op is None:
        raise TypeError(f"not a term: {t!r}")
    return par(*op)


# ---------------------------------------------------------------------------
# Formulas


def _succ_view(phi: S.Formula):
    """Recognize the well-founded descent sugar  a succ b."""
    both = S.split_and(phi)
    if not both:
        return None
    l, r = both
    if (
        isinstance(l, S.Cmp)
        and l.rel == ">="
        and isinstance(l.right, S.Plus)
        and l.right.right == S.lit(1)
        and isinstance(r, S.Cmp)
        and r.rel == ">="
        and r.right == S.lit(0)
        and l.right.left == r.left
    ):
        return l.left, r.left
    return None


def print_formula(phi: S.Formula, level: int = 0) -> str:
    def par(s, mine):
        return f"({s})" if mine < level else s

    if phi == S.TRUE:
        return "tt"
    if phi == S.FALSE:
        return "ff"
    sv = _succ_view(phi)
    if sv is not None:
        a, b = sv
        return par(f"{print_term(a, 1)} succ {print_term(b, 1)}", 5)
    imp = S.split_implies(phi)
    if imp is not None and imp[1] == S.FALSE:
        return par(f"!{print_formula(imp[0], 6)}", 5)
    op = _binary(phi, "formula", print_formula)
    if op is not None:
        return par(*op)
    match phi:
        case S.Cmp(left=a, rel=r, right=b):
            return par(f"{print_term(a, 1)} {r} {print_term(b, 1)}", 6)
        case S.Box(game=g, post=p):
            if isinstance(g, S.AssignAny):
                return par(f"forall {g.var} {print_formula(p, 5)}", 5)
            return par(f"[{print_game(g)}]{print_formula(p, 5)}", 5)
        case S.Diamond(game=g, post=p):
            if isinstance(g, S.AssignAny):
                return par(f"exists {g.var} {print_formula(p, 5)}", 5)
            return par(f"<{print_game(g)}>{print_formula(p, 5)}", 5)
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Games


def print_game(g: S.Game, level: int = 0) -> str:
    def par(s, mine):
        return f"{{{s}}}" if mine < level else s

    op = _binary(g, "game", print_game)  # before `Dual`: a cap is a dual
    if op is not None:
        return par(*op)
    match g:
        case S.Test(cond=c):
            return par(f"?{print_formula(c)}", 3)
        case S.Assign(var=x, term=t):
            return par(f"{x} := {print_term(t)}", 3)
        case S.AssignAny(var=x):
            return par(f"{x} := *", 3)
        case S.Repeat(body=a):
            return par(f"{print_game(a, 4)}*", 3)
        case S.Dual(body=a):
            return par(f"{print_game(a, 4)}^d", 3)
    raise TypeError(f"not a game: {g!r}")


# ---------------------------------------------------------------------------
# Proof terms

# Proof levels, loosest first.  A form prints in parentheses where a tighter
# level is wanted; a `case` in a left branch is parenthesized, a lambda is not.
CASE, LAMBDA, PREFIX, APP, ATOM = range(5)

# The one source of the proof syntax: every form that a keyword or bracket
# opens, as (constructor, flavor, template, precedence).  `print_proof`
# fills the template and the parser reads it, each {field} by its
# annotation in the constructor: a name, a term, a formula, a proof (at the
# level after the colon, 0 when there is none) or the FO/Dec payload (proofs
# separated by commas, read as nested diamond-test pairs).  `{ghost,}` is a
# ghost name and its comma; where it is left out the parser picks a fresh
# ghost for the form's `var`.  Lambdas, application, `@`, parentheses and
# variables are written by hand in both modules.
PROOF_FORMS = (
    (P.Case, None, "case {scrut:2} of {left}. {bleft:1} | {right}. {bright}", CASE),
    (P.RCase, None, "rcase {scrut:2} of {svar}. {sbody:1} | {gvar}. {gbody}", CASE),
    (P.FP, None, "fp {scrut:2} of {svar}. {sbody:1} | {gvar}. {gbody}", CASE),
    (P.Proj1, None, "pi1 {arg:2}", PREFIX),
    (P.Proj2, None, "pi2 {arg:2}", PREFIX),
    (P.InjL, None, "inl {arg:2}", PREFIX),
    (P.InjR, None, "inr {arg:2}", PREFIX),
    (P.Stop, None, "stop {body:2}", PREFIX),
    (P.Go, None, "go {body:2}", PREFIX),
    (P.Roll, None, "roll {body:2}", PREFIX),
    (P.Unroll, None, "unroll {body:2}", PREFIX),
    (P.SeqI, P.DIA, "seqd {body:2}", PREFIX),
    (P.SeqI, P.BOX, "seqb {body:2}", PREFIX),
    (P.Swap, P.DIA, "yieldd {body:2}", PREFIX),
    (P.Swap, P.BOX, "yieldb {body:2}", PREFIX),
    (P.DPair, None, "<{fst}, {snd}>", ATOM),
    (P.BPair, None, "[{fst}, {snd}]", ATOM),
    (P.QE, None, "FO[{goal}]({payload})", ATOM),
    (P.Dec, None, "Dec[{goal}]({payload})", ATOM),
    (P.Split, None, "split({left}, {right})", ATOM),
    (P.TCons, None, "wit {var} := {witness} ({ghost,} {hyp}. {body})", ATOM),
    (P.Asgn, P.DIA, "asgnd {var} ({ghost,} {hyp}. {body})", ATOM),
    (P.Asgn, P.BOX, "asgnb {var} ({ghost,} {hyp}. {body})", ATOM),
    (P.Mon, None, "mon({scrut}; {hyp}. {body})", ATOM),
    (P.Ghost, None, "ghost({var} := {term}; {hyp}. {body})", ATOM),
    (P.Unpack, None, "unpack({scrut}; {var}, {ghost}, {hyp}. {body})", ATOM),
    (P.Rep, None, "rep({init}; {hyp} : {inv}. {body}; {done})", ATOM),
    (P.For, None, "for({init}; {hyp} : {inv}; {mhyp}; {m0} := {metric}; {body}; {done})", ATOM),
)


def _template_pieces(cls, template: str) -> tuple:
    """The template as literal texts and (field, annotation, level,
    optional) slots, in order."""
    kinds = dict(S.FIELDS[cls])
    out = []
    for i, part in enumerate(re.split(r"\{([^}]*)\}", template)):
        if i % 2:
            name, _, level = part.partition(":")
            bare = name.rstrip(",")
            out.append((bare, kinds[bare], int(level or 0), bare != name))
        elif part:
            out.append(part)
    return tuple(out)


# (constructor, flavor) -> (template pieces, precedence)
FORM_OF = {
    (cls, flavor): (_template_pieces(cls, template), prec)
    for cls, flavor, template, prec in PROOF_FORMS
}


# the atoms that the parser reads as an application's argument unparenthesized
_BARE_ARGS = (P.PVar, P.QE, P.Dec, P.Split)


def print_proof(m: P.ProofTerm, level: int = 0) -> str:
    def par(s, mine):
        return f"({s})" if mine < level else s

    match m:
        case P.PVar(name=p):
            return p
        case P.Lam(hyp=p, ann=ann, body=b):
            return par(f"\\{p} : {print_formula(ann)}. {print_proof(b)}", LAMBDA)
        case P.NumLam(var=x, ghost=y, body=b):
            return par(f"\\{x} : Q as {y}. {print_proof(b)}", LAMBDA)
        case P.App(fn=f, arg=a):
            arg = print_proof(a)
            if type(a) not in _BARE_ARGS:
                arg = f"({arg})"
            return par(f"{print_proof(f, APP)} {arg}", APP)
        case P.NumApp(fn=f, term=t):
            return par(f"{print_proof(f, APP)} @ {print_term(t, 4)}", APP)
    form = FORM_OF.get((type(m), getattr(m, "flavor", None)))
    if form is None:
        raise TypeError(f"not a proof term: {m!r}")
    out = []
    for piece in form[0]:
        if type(piece) is str:
            out.append(piece)
            continue
        name, kind, sub, optional = piece
        v = getattr(m, name)
        if kind == "ProofTerm":
            v = print_proof(v, sub)
        elif kind == "Term":
            v = print_term(v)
        elif kind == "Formula":
            v = print_formula(v)
        elif kind != "str":  # the FO/Dec payload
            v = _payload(v)
        out.append(v + "," if optional else v)
    return par("".join(out), form[1])


def _payload(pl) -> str:
    if isinstance(pl, P.DPair):
        return f"{print_proof(pl.fst)}, {_payload(pl.snd)}"
    return "" if pl is None else print_proof(pl)


# ---------------------------------------------------------------------------
# Scripts


def print_script(script) -> str:
    out = []
    for kind, name, value in script.items_in_order():
        if kind == "game":
            out.append(f"game {name} = {print_game(value)}")
        elif kind == "formula":
            out.append(f"formula {name} = {print_formula(value)}")
        else:
            phi, proof = value
            out.append(
                f"theorem {name} : {print_formula(phi)} =\n  {print_proof(proof)}"
            )
    return "\n\n".join(out) + "\n"
