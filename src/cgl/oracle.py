"""Sound, incomplete validity oracle for first-order rational arithmetic.

Decides sequents  rho -> phi  over exact rational states in three tiers:
ground evaluation, linear arithmetic by variable elimination, and
reject-with-incompleteness for everything else (nonlinear products,
non-literal divisors).

The negated sequent becomes its disjunctive normal form in one recursion
over the formula (`_dnf`): existentials get fresh names, and universals
are weakened to `true`, which is sound for refutation.

Quotient/remainder terms with literal divisors are compiled away with
auxiliary integer quotient variables.  Each literal of a query is
linearized once, into sums that are plain `({var: coeff}, const)` pairs,
and kept as integer rows `sum + k op 0`, scaled to integers and divided
by their gcd.  Elimination follows Pugh's Omega test: each round first
tightens, flooring all-integer rows (which certifies the modular-arithmetic
facts the proof corpus needs) and keeping the tightest row of each
coefficient vector; it then substitutes every rational variable that an
equality defines, and a round with none eliminates one variable by
integer-row Fourier-Motzkin.  Elimination gives up after 200 rounds.
Each DNF literal of a query gets one bit, and every row carries the mask
of the literals it was derived from; a contradiction's mask is an unsat
core, a set of literals that no point satisfies together (Dutertre & de
Moura's conflict explanation, CAV 2006).  A later branch that holds all
the literals of a core is unsatisfiable and is skipped, not eliminated,
even where its other literals are nonlinear or too large to expand.
When a system survives elimination, back-substitution through the
eliminations gives its model, integer-valued on the quotient variables;
a model under which rho holds and phi fails, by evaluation, is the
`Refuted` answer's witness.  A small grid and random search for a witness
runs only where no such model exists: nonlinear terms, the round cap, or
integer points that the rational elimination loses.
DNF branches, linear systems per branch and the rows of one elimination
round are each capped at `_BRANCH_CAP`; past a cap the answer is
`Unknown` ("formula too large").  `exists_witness` picks closed witnesses
for existential facts from a small fixed pool.
`Valid` answers are never produced for falsifiable formulas; `Refuted`
answers always carry a witness state; `Unknown` answers name a reason.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Optional

from . import syntax as S
from .syntax import Formula, State, Term

VALID = "valid"
REFUTED = "refuted"
UNKNOWN = "unknown"

_BRANCH_CAP = 4096
_MEMO_CAP = 4096  # answers an oracle keeps; the memo is cleared when full
_WITNESS_TRIES, _WITNESS_SEED = 3000, 2024  # random points a witness search tries


class OracleResult:
    __slots__ = ("status", "witness", "reason")

    def __init__(self, status, witness=None, reason=""):
        self.status = status
        self.witness = witness
        self.reason = reason

    def __repr__(self):
        w = f", witness={self.witness!r}" if self.witness is not None else ""
        return f"OracleResult({self.status}{w})"


# ---------------------------------------------------------------------------
# Formulas to disjunctive normal form


def _first_order(phi: Formula) -> bool:
    """Whether phi is built from comparisons by the derived connectives and
    quantifiers alone, with no genuinely modal part."""
    if isinstance(phi, S.Cmp):
        return True
    parts = S.split_or(phi) or S.split_and(phi) or S.split_implies(phi)
    if parts is not None:
        return _first_order(parts[0]) and _first_order(parts[1])
    if isinstance(phi, (S.Box, S.Diamond)) and isinstance(phi.game, S.AssignAny):
        return _first_order(phi.post)
    return False


_NEG_REL = {"<=": ">", "<": ">=", "=": "!=", "!=": "=", ">": "<=", ">=": "<"}


def _dnf(phi: Formula, neg: bool, names: dict, fresh, quantified: list):
    """The branches of the DNF of the first-order phi, or of its negation
    when `neg` is set: lists of literals `(rel, a, b)`, with `!=` split
    into its two strict sides.  An existential under the polarity binds a
    fresh name `fresh(x)`, which `names` maps x to for its body; a universal
    is weakened to `true`, which is sound for refutation.  Every quantifier
    met is appended to `quantified`."""
    if isinstance(phi, S.Cmp):
        rel, a, b = _NEG_REL[phi.rel] if neg else phi.rel, phi.left, phi.right
        for x, x2 in names.items():
            a, b = S.rename(a, x, x2), S.rename(b, x, x2)
        return [[("<", a, b)], [("<", b, a)]] if rel == "!=" else [[(rel, a, b)]]
    if (parts := S.split_or(phi)) is not None:
        lneg, product = neg, neg
    elif (parts := S.split_and(phi)) is not None:
        lneg, product = neg, not neg
    elif (parts := S.split_implies(phi)) is not None:
        lneg, product = not neg, neg
    else:
        quantified.append(phi)
        if isinstance(phi, S.Diamond) == neg:  # a universal under the polarity
            return [[]]
        x = phi.game.var
        inner = {v: v2 for v, v2 in names.items() if v != x}  # x is rebound last
        inner[x] = fresh(x)
        return _dnf(phi.post, neg, inner, fresh, quantified)
    left = _dnf(parts[0], lneg, names, fresh, quantified)
    right = _dnf(parts[1], neg, names, fresh, quantified)
    return _product(left, right) if product else left + right


def _product(left: list, right: list) -> list:
    """Each branch of left joined with each of right, left's order first."""
    out = []
    for l in left:
        for r in right:
            out.append(l + r)
            if len(out) > _BRANCH_CAP:
                raise _TooBig()
    return out


class _TooBig(Exception):
    pass


# ---------------------------------------------------------------------------
# Linear sums and constraint systems
#
# A sum is a pair ({var: rational}, rational) with no zero coefficient; no
# sum is changed once built, so sums and rows share their dicts freely.


class _NonLinear(Exception):
    pass


def _add(a, b, c=1):
    """The sum a + c * b; a's variables keep their order, b's new ones follow."""
    co = dict(a[0])
    for v, w in b[0].items():
        w = co.get(v, 0) + c * w
        if w:
            co[v] = w
        else:
            del co[v]
    return co, a[1] + c * b[1]


def _scale(a, c):
    """The sum c * a."""
    return ({v: w * c for v, w in a[0].items()} if c else {}), a[1] * c


def _row(op: str, s, sign=1):
    """The constraint `sign * s op 0` of the sum s as (op, {var: int}, int):
    scaled by the lcm of its denominators and divided by the gcd of its
    integers."""
    co, k = s
    for c in (k, *co.values()):
        if type(c) is not int:
            den = math.lcm(k.denominator, *(c.denominator for c in co.values())) * sign
            co = {v: c.numerator * (den // c.denominator) for v, c in co.items()}
            k = k.numerator * (den // k.denominator)
            break
    else:
        if sign < 0:
            co, k = {v: -c for v, c in co.items()}, -k
    g = math.gcd(k, *co.values())
    if g > 1:
        co = {v: c // g for v, c in co.items()}
        k //= g
    return op, co, k


class _Linearizer:
    """Compiles terms into linear sums over state variables plus auxiliary
    quotient/remainder variables; abs/min/max fork case branches."""

    def __init__(self):
        self.defs = {}  # (sum, divisor) -> (qvar, rvar, definition rows)
        self.counter = 0

    def term(self, t: Term):
        """[(side rows, sum)] over all case branches; the side rows are a
        tuple of integer rows (op, {var: int}, int)."""
        match t:
            case S.Lit(value=v):
                return [((), ({}, v))]
            case S.Var(name=x):
                return [((), ({("v", x): 1}, 0))]
            case S.Plus(left=a, right=b):
                return [(c, _add(la, lb)) for c, la, lb in self.pairs(a, b)]
            case S.Minus(left=a, right=b):
                return [(c, _add(la, lb, -1)) for c, la, lb in self.pairs(a, b)]
            case S.Neg(arg=a):
                return [(c, _scale(s, -1)) for c, s in self.term(a)]
            case S.Times(left=a, right=b):
                out = []
                for c, la, lb in self.pairs(a, b):
                    if not la[0]:
                        out.append((c, _scale(lb, la[1])))
                    elif not lb[0]:
                        out.append((c, _scale(la, lb[1])))
                    else:
                        raise _NonLinear()
                return out
            case S.Div(left=a, right=b):
                return self._divmod(a, b, want_quot=True)
            case S.Mod(left=a, right=b):
                return self._divmod(a, b, want_quot=False)
            case S.Abs(arg=a):
                out = []
                for c, s in self.term(a):
                    out.append((c + (_row("<=", s, -1),), s))
                    out.append((c + (_row("<", s),), _scale(s, -1)))
                return out
            case S.Min(left=a, right=b):
                return self._minmax(a, b, 1)
            case S.Max(left=a, right=b):
                return self._minmax(a, b, -1)
        raise _NonLinear()

    def pairs(self, a, b):
        """(side rows, sum of a, sum of b) for each pair of case branches."""
        ta, tb = self.term(a), self.term(b)
        return [(ca + cb, la, lb) for ca, la in ta for cb, lb in tb]

    def _minmax(self, a, b, sign):
        # min (sign 1) is a where a - b <= 0, max (sign -1) where b - a <= 0
        out = []
        for c, la, lb in self.pairs(a, b):
            diff = _add(la, lb, -1)
            out.append((c + (_row("<=", diff, sign),), la))
            out.append((c + (_row("<", diff, -sign),), lb))
        return out

    def _divmod(self, a, b, want_quot):
        out = []  # each branch of a under each branch of the divisor, whose rows it keeps
        for cb, (co, d) in self.term(b):
            if co or d == 0:
                raise _NonLinear()
            for c, (cs, k) in self.term(a):
                key = (frozenset(cs.items()), k, d)
                if key not in self.defs:
                    n = self.counter
                    self.counter += 1
                    q, r = ("q", n), ("r", n)
                    self.defs[key] = q, r, (  # a = d * q + r, 0 <= r < |d|
                        _row("=", ({**cs, q: -d, r: -1}, k)),
                        ("<=", {r: -1}, 0),
                        _row("<", ({r: 1}, -abs(d))),
                    )
                q, r, rows = self.defs[key]
                out.append((cb + c + rows, ({q if want_quot else r: 1}, 0)))
        return out


def _comb(a, ka, ca, b, kb, cb, v):
    """ca * a + cb * b without v, gcd-normalised; keys keep a's order, then
    b's new ones."""
    out = {u: w * ca for u, w in a.items() if u != v}
    for u, w in b.items():
        if u != v:
            out[u] = out.get(u, 0) + w * cb
    out = {u: w for u, w in out.items() if w}
    k = ka * ca + kb * cb
    g = math.gcd(k, *out.values())
    if g > 1:
        out = {u: w // g for u, w in out.items()}
        k //= g
    return out, k


def _is_int(v) -> bool:
    return v[0] == "q"  # quotient variables; state and remainder ones are rational


def _false(op, k) -> bool:  # of the constant row  k op 0
    return k > 0 if op == "<=" else k >= 0 if op == "<" else k != 0


def _tighten(rows):
    """The rows less true constant ones, all-integer rows rounded, and the
    tightest row of each coefficient vector; or a core, if a row is false."""
    nxt = {}
    for op, co, k, m in rows:
        if not co:
            if _false(op, k):
                return m
            continue
        for v in co:
            if v[0] != "q":  # not all quotient variables: no rounding
                break
        else:
            # divide by the coefficients' gcd g: sum <= -k/g rounds down
            g = math.gcd(*co.values())
            if op == "=":
                if k % g:
                    return m
                k //= g
            else:
                k = -(-k // g) if op == "<=" else k // g + 1
                op = "<="
            if g > 1:
                co = {v: c // g for v, c in co.items()}
        key = (op == "=", frozenset(co.items()))
        old = nxt.get(key)
        if old is None or op != "=" and (k > old[2] or k == old[2] and op == "<"):
            nxt[key] = (op, co, k, m)
        elif op == "=" and k != old[2]:
            return m | old[3]
    return list(nxt.values())


def _unsat(rows):
    """The core of the integer rows `(op, {var: int}, k, mask)`, each
    reading `sum + k op 0`, when they are certified unsatisfiable over the
    rationals with the quotient variables integer-valued: the OR of the
    masks of the rows the contradiction was derived from, an int > 0.
    Otherwise a model {var: rational} of the rows, back-substituted
    through the eliminations, or None when none is found in 200 rounds.
    As in Pugh's Omega test, each round tightens, then substitutes every
    rational variable an equality defines, in row order; only a round with
    no such equality eliminates a variable by Fourier-Motzkin."""
    work, eliminated = rows, []  # per elimination: the variable and its rows
    for _round in range(200):
        work = _tighten(work)
        if type(work) is int:
            return work
        if not work:
            return _back_substitute(eliminated)

        # substitute each rational variable an equality defines (no row
        # before the scan defines one); a row made false is a core at once
        i, before = 0, len(eliminated)
        while i < len(work):
            op, co, k, m = work[i]
            v = next((u for u in co if not _is_int(u)), None) if op == "=" else None
            if v is None:
                i += 1
                continue
            c = co[v]
            eliminated.append((v, [work.pop(i)]))
            for j, (op2, co2, k2, m2) in enumerate(work):
                cv = co2.get(v)
                if cv is not None:  # |c| * row2 - sign(c) * cv * row
                    co2, k2 = _comb(co2, k2, abs(c), co, k, -cv if c > 0 else cv, v)
                    if not co2 and _false(op2, k2):
                        return m2 | m
                    work[j] = (op2, co2, k2, m2 | m)
        if len(eliminated) > before:
            continue

        # eliminate one variable by Fourier-Motzkin (rationals first)
        v = min({u for _, co, _, _ in work for u in co}, key=lambda u: (_is_int(u), str(u)))
        uppers, lowers, new_work, eqs = [], [], [], []
        for row in work:
            c = row[1].get(v)
            if c is None:
                new_work.append(row)
            elif row[0] == "=":
                eqs.append(row)
            else:
                (uppers if c > 0 else lowers).append(row)
        eliminated.append((v, eqs + uppers + lowers))
        for _, co, k, m in eqs:  # split equalities over v into two inequalities
            pos, neg = ("<=", co, k, m), ("<=", {u: -w for u, w in co.items()}, -k, m)
            uppers.append(pos if co[v] > 0 else neg)
            lowers.append(neg if co[v] > 0 else pos)
        if len(new_work) + len(uppers) * len(lowers) > _BRANCH_CAP:
            raise _TooBig()
        for opu, cou, ku, mu in uppers:
            cu = cou[v]
            for opl, col, kl, ml in lowers:
                cl = -col[v]
                g = math.gcd(cu, cl)
                co, k = _comb(col, kl, cu // g, cou, ku, cl // g, v)
                new_work.append(("<" if "<" in (opu, opl) else "<=", co, k, mu | ml))
        work = new_work
    return None


def _back_substitute(eliminated):
    """A model of the rows of every round, last round first: each round's
    rows bound its variable once the later rounds' variables have values
    (Schrijver, Theory of Linear and Integer Programming, 12.2).  A
    variable that no later round keeps is unconstrained there and gets 0.
    None when an integer variable has no integer between its bounds."""
    model = {}
    for v, rows in reversed(eliminated):
        lo = hi = None
        for op, co, k, _ in rows:
            rest = k
            for u, w in co.items():
                if u != v:
                    rest += w * model.setdefault(u, 0)
            b = Fraction(-rest, co[v])  # the row reads  v op b  or  b op v
            if op == "=" or co[v] > 0:
                bound = (b, op != "<")
                hi = bound if hi is None else min(hi, bound)
            if op == "=" or co[v] < 0:
                bound = (b, op == "<")
                lo = bound if lo is None else max(lo, bound)
        x = _pick(lo, hi, _is_int(v))
        if x is None:
            return None
        model[v] = x
    return model


def _pick(lo, hi, integral):
    """A value within the bounds: 0 if they allow it, else the integer
    nearest the bound that 0 violates, else (for a rational variable)
    their midpoint; None if none fits.  The upper bound `hi` is
    (b, inclusive) and the lower `lo` is (b, exclusive), so that `min` and
    `max` keep the tighter of two bounds."""

    def fits(x):
        return (lo is None or x > lo[0] or x == lo[0] and not lo[1]) and (
            hi is None or x < hi[0] or x == hi[0] and hi[1])

    if fits(0):
        return 0
    if hi is not None and hi[0] <= 0:
        n = math.floor(hi[0])
        if n == hi[0] and not hi[1]:
            n -= 1
    else:
        n = math.ceil(lo[0])
        if n == lo[0] and lo[1]:
            n += 1
    if fits(n):
        return n
    if integral or lo is None or hi is None:
        return None
    mid = (lo[0] + hi[0]) / 2
    return mid if fits(mid) else None


_FLIP = {">": "<", ">=": "<="}


def _expand(lin: _Linearizer, lit, bit):
    """The integer-row systems of the literal `a rel b`, one per case
    branch, each row carrying the literal's bit as its mask."""
    rel, a, b = lit
    out = []
    for conds, la, lb in lin.pairs(a, b):
        diff = _add(la, lb, -1)
        cons = _row(_FLIP[rel], diff, -1) if rel in _FLIP else _row(rel, diff)
        out.append([(op, co, k, bit) for op, co, k in (*conds, cons)])
    return out


def _branch_unsat(literals, lin: _Linearizer, bits: dict, expanded: dict):
    """The core of one DNF branch when every system of it is unsatisfiable:
    the OR of its systems' cores, a mask over the literals' `bits`;
    otherwise what `_unsat` gives for the first system that is not.  The
    case systems of a literal cover all of its cases, so no point
    satisfies all the literals of the core.  `bits` and `expanded` hold
    each literal's bit and systems, by identity: the branches of one DNF
    share their literal tuples."""
    systems = [[]]
    for lit in literals:
        sys_lit = expanded.get(id(lit))
        if sys_lit is None:
            sys_lit = expanded[id(lit)] = _expand(lin, lit, bits[id(lit)])
        systems = [s + e for s in systems for e in sys_lit]
        if len(systems) > _BRANCH_CAP:
            raise _TooBig()
    core = 0
    for s in systems:
        res = _unsat(s)
        if type(res) is not int:
            return res
        core |= res
    return core


# ---------------------------------------------------------------------------
# Public interface


class ArithOracle:
    """Validity oracle with ground, linear, and incomplete tiers."""

    def __init__(self):
        self._memo = {}

    def decide(self, rho: Optional[Formula], phi: Formula) -> OracleResult:
        key = (rho, phi)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._decide(rho, phi)
            if len(self._memo) >= _MEMO_CAP:
                self._memo.clear()
            self._memo[key] = hit
        return hit

    def holds_valid(self, rho: Optional[Formula], phi: Formula) -> bool:
        return self.decide(rho, phi).status == VALID

    def _decide(self, rho, phi) -> OracleResult:
        if not _first_order(phi):
            return OracleResult(UNKNOWN, reason="goal is not first-order")
        if rho is not None and not _first_order(rho):
            return OracleResult(UNKNOWN, reason="hypothesis is not first-order")
        counter, quantified = itertools.count(), []
        try:  # the negated sequent, rho & !phi: satisfiable iff the sequent fails
            args = ({}, lambda x: f"{x}?{next(counter)}", quantified)
            branches = (_dnf(phi, True, *args) if rho is None
                        else _product(_dnf(rho, False, *args), _dnf(phi, True, *args)))
        except _TooBig:
            return OracleResult(UNKNOWN, reason="formula too large")
        refutable = not quantified

        # a core is a set of literals that no point satisfies together; a
        # branch holding all of one is unsatisfiable and is not eliminated
        lin, bits, expanded, cores, model = _Linearizer(), {}, {}, [], None
        if refutable:
            reason = "no certificate and no witness found"
        else:
            reason = "quantified sequent: no certificate; witness search skipped"
        for branch in branches:
            mask = 0
            for lit in branch:
                mask |= bits.setdefault(id(lit), 1 << len(bits))
            if any(core & mask == core for core in cores):
                continue
            try:
                res = _branch_unsat(branch, lin, bits, expanded)
            except _NonLinear:
                reason = "nonlinear term"
                break
            except _TooBig:
                reason = "formula too large"
                break
            if type(res) is not int:
                model = res
                break
            cores.append(res)
        else:
            return OracleResult(VALID)

        if refutable:
            w = self._search_witness(rho, phi, model)
            if w is not None:
                return OracleResult(REFUTED, witness=w)
        return OracleResult(UNKNOWN, reason=reason)

    def _search_witness(self, rho, phi, model) -> Optional[State]:
        """A state where rho holds and phi fails: the elimination's model
        when evaluation confirms it, else a point of a small grid or a
        random one."""
        fv = set()
        if rho is not None:
            fv |= S.free_vars(rho)
        fv |= S.free_vars(phi)
        fv = sorted(fv)
        hyp = S.compile_fo(rho) if rho is not None else None
        goal = S.compile_fo(phi)
        probe = State()

        def falsifies(vals):
            # candidate values are rationals already: no State built per point
            probe._vals = vals
            try:
                return (hyp is None or hyp(probe)) and not goal(probe)
            except (TypeError, ArithmeticError):
                return False

        if model is not None:
            vals = {x: model.get(("v", x), 0) for x in fv}
            if falsifies(vals):
                return State(vals)
        if not fv:
            return State() if falsifies({}) else None

        if len(fv) <= 3:
            grid = range(-8, 9)
            for combo in itertools.product(grid, repeat=len(fv)):
                vals = dict(zip(fv, combo))
                if falsifies(vals):
                    return State(vals)
        rng = random.Random(_WITNESS_SEED)
        for _ in range(_WITNESS_TRIES):
            vals = {x: Fraction(rng.randint(-16, 16), rng.randint(1, 4)) for x in fv}
            if falsifies(vals):
                return State(vals)
        return None


# ---------------------------------------------------------------------------
# Closed witnesses for existential facts

_WITNESS_POOL = [S.lit(0), S.lit(1), S.lit(-1), S.lit(2), S.lit(-2), S.lit(3),
                 S.lit("1/2"), S.lit("-1/2"), S.lit(4), S.lit(5)]


def exists_witness(oracle: ArithOracle, g: Formula) -> Optional[Term]:
    """A closed term t from a small fixed pool with `phi[x := t]` valid,
    for g = <x := *> phi; None when no candidate is certified."""
    x = g.game.var
    for cand in _WITNESS_POOL:
        try:
            inst = S.subst_term(g.post, x, cand)
        except S.InadmissibleSubstitution:
            return None
        if oracle.holds_valid(None, inst):
            return cand
    return None
