"""Sound, incomplete validity oracle for first-order rational arithmetic.

Decides sequents  rho -> phi  over exact rational states in three tiers:
ground evaluation, linear arithmetic by variable elimination, and
reject-with-incompleteness for everything else (nonlinear products,
non-literal divisors).

Quotient/remainder terms with literal divisors are compiled away with
auxiliary integer quotient variables.  Each literal of a query is
linearized once and kept as integer rows `sum + k op 0`, scaled to
integers and divided by their gcd (as in Pugh's Omega test); elimination
is integer-row Fourier-Motzkin, with floor tightening on all-integer rows,
which certifies the modular-arithmetic facts the proof corpus needs; each
round keeps only the tightest row of each coefficient vector.
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
from .rational import Rational, canon
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
# First-order view of formulas


def fo_view(phi: Formula):
    """Structured first-order view, or None when phi is genuinely modal."""
    if isinstance(phi, S.Cmp):
        return ("cmp", phi.rel, phi.left, phi.right)
    disj = S.split_or(phi)
    if disj is not None:
        a, b = disj
        va, vb = fo_view(a), fo_view(b)
        return ("or", va, vb) if va and vb else None
    conj = S.split_and(phi)
    if conj is not None:
        a, b = conj
        va, vb = fo_view(a), fo_view(b)
        return ("and", va, vb) if va and vb else None
    imp = S.split_implies(phi)
    if imp is not None:
        a, b = imp
        va, vb = fo_view(a), fo_view(b)
        return ("imp", va, vb) if va and vb else None
    if isinstance(phi, S.Box) and isinstance(phi.game, S.AssignAny):
        body = fo_view(phi.post)
        return ("forall", phi.game.var, body) if body else None
    if isinstance(phi, S.Diamond) and isinstance(phi.game, S.AssignAny):
        body = fo_view(phi.post)
        return ("exists", phi.game.var, body) if body else None
    return None


def has_quantifier(view) -> bool:
    tag = view[0]
    if tag == "cmp":
        return False
    if tag in ("forall", "exists"):
        return True
    return any(has_quantifier(v) for v in view[1:])


_NEG_REL = {"<=": ">", "<": ">=", "=": "!=", "!=": "=", ">": "<=", ">=": "<"}


def _nnf(view, neg: bool, fresh, incomplete: list):
    """Negation normal form of the satisfiability problem; universal
    subproblems are weakened to `true`, which is sound for refutation."""
    tag = view[0]
    if tag == "cmp":
        _, rel, a, b = view
        return ("cmp", _NEG_REL[rel] if neg else rel, a, b)
    if tag == "and":
        l, r = _nnf(view[1], neg, fresh, incomplete), _nnf(view[2], neg, fresh, incomplete)
        return ("or" if neg else "and", l, r)
    if tag == "or":
        l, r = _nnf(view[1], neg, fresh, incomplete), _nnf(view[2], neg, fresh, incomplete)
        return ("and" if neg else "or", l, r)
    if tag == "imp":
        l = _nnf(view[1], not neg, fresh, incomplete)
        r = _nnf(view[2], neg, fresh, incomplete)
        return ("and" if neg else "or", l, r)
    if tag in ("forall", "exists"):
        return _quant(view, neg, fresh, incomplete)
    raise ValueError(view)


def _quant(view, neg, fresh, incomplete):
    tag, x, body = view
    if neg:
        tag = "exists" if tag == "forall" else "forall"
    if tag == "exists":
        x2 = fresh(x)
        return _nnf(_rename_view(body, x, x2), neg, fresh, incomplete)
    incomplete.append(view)
    return ("true",)


def _rename_view(view, x, y):
    tag = view[0]
    if tag == "cmp":
        return ("cmp", view[1], S.rename(view[2], x, y), S.rename(view[3], x, y))
    if tag in ("and", "or", "imp"):
        return (tag, _rename_view(view[1], x, y), _rename_view(view[2], x, y))
    if tag in ("forall", "exists"):
        if view[1] in (x, y):
            return view
        return (tag, view[1], _rename_view(view[2], x, y))
    return view


def _dnf(view):
    tag = view[0]
    if tag == "true":
        return [[]]
    if tag == "cmp":
        _, rel, a, b = view
        if rel == "!=":
            return [[("<", a, b)], [("<", b, a)]]
        return [[(rel, a, b)]]
    if tag == "and":
        left, right = _dnf(view[1]), _dnf(view[2])
        out = []
        for l in left:
            for r in right:
                out.append(l + r)
                if len(out) > _BRANCH_CAP:
                    raise _TooBig()
        return out
    if tag == "or":
        return _dnf(view[1]) + _dnf(view[2])
    raise ValueError(view)


class _TooBig(Exception):
    pass


# ---------------------------------------------------------------------------
# Linear sums and constraint systems


class LinSum:
    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const=0):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v != 0}
        self.const = const

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return LinSum(out, self.const + other.const)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c: Rational):
        return LinSum({k: v * c for k, v in self.coeffs.items()}, self.const * c)

    def is_const(self):
        return not self.coeffs

    def key(self):
        return (tuple(sorted(self.coeffs.items())), self.const)

    def __repr__(self):
        parts = [f"{v}*{k}" for k, v in sorted(self.coeffs.items())]
        parts.append(str(self.const))
        return " + ".join(parts)


class _NonLinear(Exception):
    pass


class _Linearizer:
    """Compiles terms into linear sums over state variables plus auxiliary
    quotient/remainder variables; abs/min/max fork case branches."""

    def __init__(self):
        self.defs = {}  # canonical key -> (qvar, rvar, def-constraints)
        self.counter = 0

    def term(self, t: Term):
        """Returns [(side_constraints, LinSum)] over all case branches."""
        match t:
            case S.Lit(value=v):
                return [([], LinSum({}, canon(v)))]
            case S.Var(name=x):
                return [([], LinSum({("v", x): 1}))]
            case S.Plus(left=a, right=b):
                return self._bin(a, b, lambda x, y: x + y)
            case S.Minus(left=a, right=b):
                return self._bin(a, b, lambda x, y: x - y)
            case S.Neg(arg=a):
                return [(c, ls.scale(-1)) for c, ls in self.term(a)]
            case S.Times(left=a, right=b):
                out = []
                for ca, la in self.term(a):
                    for cb, lb in self.term(b):
                        if la.is_const():
                            out.append((ca + cb, lb.scale(la.const)))
                        elif lb.is_const():
                            out.append((ca + cb, la.scale(lb.const)))
                        else:
                            raise _NonLinear()
                return out
            case S.Div(left=a, right=b):
                return self._divmod(a, b, want_quot=True)
            case S.Mod(left=a, right=b):
                return self._divmod(a, b, want_quot=False)
            case S.Abs(arg=a):
                out = []
                for c, ls in self.term(a):
                    out.append((c + [("<=", ls.scale(-1))], ls))
                    out.append((c + [("<", ls)], ls.scale(-1)))
                return out
            case S.Min(left=a, right=b):
                return self._minmax(a, b, take_left_when="<=")
            case S.Max(left=a, right=b):
                return self._minmax(a, b, take_left_when=">=")
        raise _NonLinear()

    def _bin(self, a, b, op):
        return [
            (ca + cb, op(la, lb))
            for ca, la in self.term(a)
            for cb, lb in self.term(b)
        ]

    def _minmax(self, a, b, take_left_when):
        out = []
        for ca, la in self.term(a):
            for cb, lb in self.term(b):
                diff = la - lb
                if take_left_when == "<=":
                    out.append((ca + cb + [("<=", diff)], la))
                    out.append((ca + cb + [("<", diff.scale(-1))], lb))
                else:
                    out.append((ca + cb + [("<=", diff.scale(-1))], la))
                    out.append((ca + cb + [("<", diff)], lb))
        return out

    def _divmod(self, a, b, want_quot):
        out = []
        for cb, lb in self.term(b):
            if not lb.is_const():
                raise _NonLinear()
            d = lb.const
            if d == 0:
                raise _NonLinear()
            for ca, la in self.term(a):
                key = (la.key(), d)
                if key not in self.defs:
                    n = self.counter
                    self.counter += 1
                    q, r = ("q", n), ("r", n)
                    qs, rs = LinSum({q: 1}), LinSum({r: 1})
                    defs = [
                        ("=", la - qs.scale(d) - rs),
                        ("<=", rs.scale(-1)),
                        ("<", rs - LinSum({}, abs(d))),
                    ]
                    self.defs[key] = (q, r, defs)
                q, r, defs = self.defs[key]
                want = LinSum({(q if want_quot else r): 1})
                out.append((ca + list(defs), want))
        return out


def _row(op: str, ls: LinSum):
    """The constraint `ls op 0` as (op, {var: int}, int): scaled by the lcm
    of its denominators and divided by the gcd of its integers."""
    den = math.lcm(ls.const.denominator, *(c.denominator for c in ls.coeffs.values()))
    coeffs = {v: c.numerator * (den // c.denominator) for v, c in ls.coeffs.items()}
    k = ls.const.numerator * (den // ls.const.denominator)
    g = math.gcd(k, *coeffs.values())
    if g > 1:
        coeffs = {v: c // g for v, c in coeffs.items()}
        k //= g
    return op, coeffs, k


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


def _unsat(rows):
    """The core of the integer rows `(op, {var: int}, k, mask)`, each
    reading `sum + k op 0`, when they are certified unsatisfiable over the
    rationals with the quotient variables integer-valued: the OR of the
    masks of the rows the contradiction was derived from, an int > 0.
    Otherwise a model {var: rational} of the rows, back-substituted
    through the eliminations, or None when none is found."""
    work, eliminated = rows, []  # per round: the variable and its rows
    for _round in range(200):
        # constant and tightening pass, which keeps the tightest row of each
        # coefficient vector: the larger constant, strict on a tie
        nxt = {}
        for op, co, k, m in work:
            if not co:
                if k > 0 if op == "<=" else k >= 0 if op == "<" else k != 0:
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
        work = list(nxt.values())
        if not work:
            return _back_substitute(eliminated)

        # substitute a rational variable defined by an equality
        for i, (op, co, k, m) in enumerate(work):
            v = next((u for u in co if not _is_int(u)), None) if op == "=" else None
            if v is None:
                continue
            c = co[v]
            eliminated.append((v, [work[i]]))
            new_work = []
            for j, (op2, co2, k2, m2) in enumerate(work):
                if j == i:
                    continue
                cv = co2.get(v)
                if cv is not None:  # |c| * row2 - sign(c) * cv * row
                    co2, k2 = _comb(co2, k2, abs(c), co, k, -cv if c > 0 else cv, v)
                    m2 |= m
                new_work.append((op2, co2, k2, m2))
            work = new_work
            break
        else:
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
    for conds_a, la in lin.term(a):
        for conds_b, lb in lin.term(b):
            diff = la - lb
            cons = (_FLIP[rel], diff.scale(-1)) if rel in _FLIP else (rel, diff)
            out.append([(*_row(op, ls), bit) for op, ls in conds_a + conds_b + [cons]])
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
        goal_view = fo_view(phi)
        if goal_view is None:
            return OracleResult(UNKNOWN, reason="goal is not first-order")
        if rho is not None:
            hyp_view = fo_view(rho)
            if hyp_view is None:
                return OracleResult(UNKNOWN, reason="hypothesis is not first-order")
            sequent = ("imp", hyp_view, goal_view)
        else:
            sequent = goal_view

        incomplete: list = []
        counter = itertools.count()

        def fresh(x):
            return f"{x}?{next(counter)}"

        refutable = not (has_quantifier(goal_view) or (rho is not None and has_quantifier(hyp_view)))
        try:
            nnf = _nnf(sequent, True, fresh, incomplete)  # satisfiable iff the sequent fails
            branches = _dnf(nnf)
        except (_TooBig, ValueError):
            return OracleResult(UNKNOWN, reason="formula too large")

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
