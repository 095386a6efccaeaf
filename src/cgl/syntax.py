"""Core syntax: terms, games, formulas, and their static semantics.

Terms are rational-valued expressions over a global game state.  Games and
formulas are mutually recursive; the derived propositional connectives
(and/or/implies/quantifiers/dormant choice) live in the parser layer and
elaborate into this core.

All nodes are immutable and hash-consed (Filliâtre & Conchon, 2006): a
constructor returns the one live node of its structure, so equality and
hashing are identity, and what is derived from a node is kept on it.
The intern table `_nodes` maps a node's key, (class, *field values), to
an `_Entry`, a weak reference to the node: a hit is one dict read and one
dereference, a miss stores under a reentrant lock, and neither raises.  A
node's death drops its entry only while that entry is still the one under
its key.  Kept in slots: a term's evaluator (`_fn`) and free variables
(`_free`); a formula's evaluator (`_fo`), free variables, the names it
mentions (`_names`) and how the normalizer decomposes an oracle leaf with
it as goal (`_qe`); a game's free variables and names; the engine's
staged evaluators (`_staged`) and instructions (`_active`, `_dormant`);
and a realizer's free realizer variables (`_free`), readable names
(`_reads`), capture set (`_capture`) and a Gen's stream (`_stream`).

One class builder, `frozen`, makes the syntax nodes, the realizers, the
proof terms and the engine's records.  Its one `dataclass` pass reads the
annotations (into `FIELDS`) and makes the class slotted, so that
`dataclasses.fields` works, which `cglbench.layers.count_nodes` reads.
Every method comes from closures shared by all classes, none from
generated source: an `__init__` with a positional parameter per field, a
repr, a frozen `__setattr__`, and on a class that is not interned,
equality, hashing and pickling by its field tuple.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass, fields
from functools import cache
from operator import attrgetter
from threading import RLock
from typing import Union
from weakref import ref

from .rational import (
    CONVERSE, INT_RELATIONS, RELATIONS, DivisionByZero, Rational, add, canon, format_rational,
    mul, rat_quot, rat_rem, sub,
)

# ---------------------------------------------------------------------------
# The class builder, and interning

FIELDS = {}  # class -> ((field name, annotation), ...) in constructor order
_NO = object()  # an argument the caller left out


def frozen(cls):
    """cls as a frozen slotted class with a field per annotation (see the
    module docstring)."""
    if not cls.__doc__:  # so that `dataclass` reads no signature for one
        anns = cls.__dict__.get("__annotations__", {})
        cls.__doc__ = f"{cls.__name__}({', '.join(f'{f}: {a}' for f, a in anns.items())})"
    cls = dataclass(cls, init=False, repr=False, eq=False, slots=True)
    FIELDS[cls] = tuple((f.name, f.type) for f in fields(cls))
    names, init = cls.__match_args__, _init_of(cls)
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    if issubclass(cls, _Node):
        cls._init = init
        return cls
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)
    cls.__init__ = init
    cls.__eq__ = lambda self, other: (key(self) == key(other) if other.__class__ is self.__class__
                                      else NotImplemented)
    cls.__hash__ = lambda self: hash(key(self))
    cls.__reduce__ = lambda self: (type(self), key(self))
    return cls


def _init_of(cls):
    """An `__init__` with a positional parameter per field, each stored
    through its slot, then `__post_init__` where the class has one.
    Keywords, and a field left out, are put in order by `_positional`."""
    sets = [getattr(cls, f).__set__ for f in cls.__match_args__]
    if post := getattr(cls, "__post_init__", None):  # it runs after the last field
        last = sets[-1]
        sets[-1] = lambda self, v: last(self, v) or post(self)
    n = len(sets)
    s1, s2, s3, s4, s5, s6, s7, s8 = sets + [None] * (8 - n)
    # one closure per field count, each storing its fields on one line
    if n == 0:
        def init(self):
            pass
    elif n == 1:
        def init(self, a=_NO, **kw):
            if kw or a is _NO:
                return init(self, *_positional(cls, (a,), kw))
            s1(self, a)
    elif n == 2:
        def init(self, a=_NO, b=_NO, **kw):
            if kw or b is _NO:
                return init(self, *_positional(cls, (a, b), kw))
            s1(self, a); s2(self, b)
    elif n == 3:
        def init(self, a=_NO, b=_NO, c=_NO, **kw):
            if kw or c is _NO:
                return init(self, *_positional(cls, (a, b, c), kw))
            s1(self, a); s2(self, b); s3(self, c)
    elif n == 4:
        def init(self, a=_NO, b=_NO, c=_NO, d=_NO, **kw):
            if kw or d is _NO:
                return init(self, *_positional(cls, (a, b, c, d), kw))
            s1(self, a); s2(self, b); s3(self, c); s4(self, d)
    elif n == 5:
        def init(self, a=_NO, b=_NO, c=_NO, d=_NO, e=_NO, **kw):
            if kw or e is _NO:
                return init(self, *_positional(cls, (a, b, c, d, e), kw))
            s1(self, a); s2(self, b); s3(self, c); s4(self, d); s5(self, e)
    else:  # eight, `proofterms.For`
        def init(self, a=_NO, b=_NO, c=_NO, d=_NO, e=_NO, f=_NO, g=_NO, h=_NO, **kw):
            if kw or h is _NO:
                return init(self, *_positional(cls, (a, b, c, d, e, f, g, h), kw))
            s1(self, a); s2(self, b); s3(self, c); s4(self, d)
            s5(self, e); s6(self, f); s7(self, g); s8(self, h)
    return init


def _positional(cls, args, kw: dict) -> list:
    """The arguments given, then the keywords kw, in field order;
    TypeError unless they give every field once."""
    names = cls.__match_args__
    args = [a for a in args if a is not _NO]
    args += [kw.pop(f) for f in names[len(args):] if f in kw]
    if kw or len(args) != len(names):
        raise TypeError(f"{cls.__name__} takes each of its fields {names} once")
    return args


def _repr(self):
    inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
    return f"{type(self).__qualname__}({inner})"


def _frozen(self, name, value=None):  # __setattr__ and __delattr__
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


_nodes = {}  # (class, *field values) -> the `_Entry` of the live node
# a miss stores under it, so two threads never store two nodes of one key;
# reentrant, as a collection inside the locked region runs `_drop`
_storing = RLock()


class _Entry(ref):
    __slots__ = ("key",)  # the node's key in `_nodes`


def _drop(entry, nodes=_nodes, storing=_storing):  # defaults: it also runs at exit
    """A node died: its entry goes, unless a new node's entry replaced it."""
    with storing:
        if nodes.get(entry.key) is entry:
            del nodes[entry.key]


class _Node:
    # interned in __new__: a metaclass would put every isinstance test and
    # class pattern against a syntax class on CPython's slow path
    __slots__ = ("__weakref__",)

    def __new__(cls, *args, **kwargs):
        if kwargs:
            args = _positional(cls, args, kwargs)
        key = (cls, canon(*args)) if cls is Lit else (cls, *args)
        entry = _nodes.get(key)
        if entry is not None and (node := entry()) is not None:
            return node
        cls._init(node := object.__new__(cls), *key[1:])
        with _storing:  # a node another thread stored meanwhile wins
            entry = _nodes.get(key)
            if entry is not None and (old := entry()) is not None:
                return old
            (entry := _Entry(node, _drop)).key = key
            _nodes[key] = entry
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __deepcopy__(self, memo):  # `copy.copy` goes through __reduce__
        return self


# ---------------------------------------------------------------------------
# Terms


class Term(_Node):
    __slots__ = ("_fn", "_staged", "_free")  # evaluator; the engine's (evaluator, env keys)


@frozen
class Lit(Term):
    value: Rational

    def __repr__(self):
        return f"Lit({format_rational(self.value)})"


@frozen
class Var(Term):
    name: str

    def __repr__(self):
        return f"Var({self.name})"


@frozen
class Plus(Term):
    left: Term
    right: Term


@frozen
class Times(Term):
    left: Term
    right: Term


@frozen
class Minus(Term):
    left: Term
    right: Term


@frozen
class Neg(Term):
    arg: Term


@frozen
class Div(Term):
    """Integer quotient; the divisor is assumed nonzero."""

    left: Term
    right: Term


@frozen
class Mod(Term):
    """Rational remainder paired with Div; divisor assumed nonzero."""

    left: Term
    right: Term


@frozen
class Abs(Term):
    arg: Term


@frozen
class Min(Term):
    left: Term
    right: Term


@frozen
class Max(Term):
    left: Term
    right: Term


lit = Lit  # any value `Fraction` accepts, canonicalized


# ---------------------------------------------------------------------------
# Games and formulas


class Game(_Node):
    __slots__ = ("_active", "_dormant", "_free", "_names")  # the engine's instruction in each role


class Formula(_Node):
    __slots__ = ("_fo", "_staged", "_free", "_names", "_qe")  # see the module docstring


@frozen
class Test(Game):
    cond: Formula


@frozen
class Assign(Game):
    var: str
    term: Term


@frozen
class AssignAny(Game):
    var: str


@frozen
class Choice(Game):
    left: Game
    right: Game


@frozen
class Seq(Game):
    left: Game
    right: Game


@frozen
class Repeat(Game):
    body: Game


@frozen
class Dual(Game):
    body: Game


REL_OPS = ("<=", "<", "=", "!=", ">", ">=")


@frozen
class Cmp(Formula):
    left: Term
    rel: str
    right: Term

    def __post_init__(self):
        if self.rel not in REL_OPS:
            raise ValueError(f"bad relation {self.rel!r}")


@frozen
class Diamond(Formula):
    game: Game
    post: Formula


@frozen
class Box(Formula):
    game: Game
    post: Formula


Expr = Union[Term, Game, Formula]

# Derived connectives, exactly as the core defines them.

TRUE = Cmp(lit(1), ">", lit(0))
FALSE = Cmp(lit(0), ">", lit(1))


def And(a: Formula, b: Formula) -> Formula:
    return Diamond(Test(a), b)


def Or(a: Formula, b: Formula) -> Formula:
    return Diamond(Choice(Test(a), Test(b)), TRUE)


def Implies(a: Formula, b: Formula) -> Formula:
    return Box(Test(a), b)


def Not(a: Formula) -> Formula:
    return Implies(a, FALSE)


def Forall(x: str, a: Formula) -> Formula:
    return Box(AssignAny(x), a)


def Exists(x: str, a: Formula) -> Formula:
    return Diamond(AssignAny(x), a)


def DormantChoice(a: Game, b: Game) -> Game:
    return Dual(Choice(Dual(a), Dual(b)))


def split_and(phi: Formula):
    """Inverse of And(); None when phi is not a derived conjunction."""
    if isinstance(phi, Diamond) and isinstance(phi.game, Test):
        return phi.game.cond, phi.post
    return None


def split_or(phi: Formula):
    """Inverse of Or(); None when phi is not a derived disjunction."""
    if (
        isinstance(phi, Diamond)
        and phi.post == TRUE
        and isinstance(phi.game, Choice)
        and isinstance(phi.game.left, Test)
        and isinstance(phi.game.right, Test)
    ):
        return phi.game.left.cond, phi.game.right.cond
    return None


def split_implies(phi: Formula):
    if isinstance(phi, Box) and isinstance(phi.game, Test):
        return phi.game.cond, phi.post
    return None


# ---------------------------------------------------------------------------
# State and term evaluation


class State:
    """Total valuation of program variables, default 0, functional update.
    Values are held in canonical form (`rational.canon`)."""

    __slots__ = ("_vals",)

    def __init__(self, vals=None):
        self._vals = {k: canon(v) for k, v in dict(vals).items()} if vals else {}

    @staticmethod
    def of(vals: dict) -> "State":
        """The state over `vals`, taken as is and not changed afterwards:
        each value an int or a Fraction, canonical or not (`State.set`
        and evaluation keep it canonical; only speed depends on that)."""
        st = object.__new__(State)
        st._vals = vals
        return st

    def get(self, x: str) -> Rational:
        return self._vals.get(x, 0)

    def set(self, x: str, v) -> "State":
        new = self._vals.copy()
        new[x] = v if type(v) is int else canon(v)
        return State.of(new)

    def swap(self, x: str, y: str) -> "State":
        new = self._vals.copy()
        new[x], new[y] = self.get(y), self.get(x)
        return State.of(new)

    def vars(self):
        return set(self._vals)

    def agrees_with(self, other: "State", on) -> bool:
        return all(self.get(x) == other.get(x) for x in on)

    def __eq__(self, other):
        if not isinstance(other, State):
            return NotImplemented
        keys = self.vars() | other.vars()
        return all(self.get(k) == other.get(k) for k in keys)

    def __hash__(self):
        return hash(frozenset((k, v) for k, v in self._vals.items() if v != 0))

    def __repr__(self):
        inner = ", ".join(
            f"{k}={format_rational(v)}" for k, v in sorted(self._vals.items())
        )
        return f"State({inner})"


def eval_term(t: Term, state: State) -> Rational:
    """Exact rational value of t at state, in canonical form (compiled and
    cached per node).  Evaluation keeps canonical values canonical; the
    repair here is for a state `State.of` took with non-canonical values,
    which a variable reads back, and a negation, `abs`, `min` or `max`
    passes on, as they are."""
    v = compile_term(t)(state)
    return v if type(v) is int else canon(v)


# ---------------------------------------------------------------------------
# Static semantics: free, bound, and must-bound variables


def free_vars(e: Expr) -> frozenset[str]:
    """The variables free in e, kept on e.  Like `names` and
    `realizer.free_rvars` it reads and writes its slot itself, not through
    `kept`, so that a first walk takes one frame per tree level."""
    out = getattr(e, "_free", None)
    if out is not None:
        return out
    match e:
        case Lit() | AssignAny():
            out = frozenset()
        case Var(name=x):
            out = frozenset((x,))
        case Plus(left=a, right=b) | Times(left=a, right=b) | Minus(left=a, right=b) \
                | Div(left=a, right=b) | Mod(left=a, right=b) | Min(left=a, right=b) \
                | Max(left=a, right=b) | Cmp(left=a, right=b) | Choice(left=a, right=b):
            out = _union(free_vars(a), free_vars(b))
        case Neg(arg=a) | Abs(arg=a) | Test(cond=a) | Assign(term=a) | Repeat(body=a) | Dual(body=a):
            out = free_vars(a)
        case Diamond(game=a, post=b) | Box(game=a, post=b) | Seq(left=a, right=b):
            out = _union(free_vars(a), free_vars(b) - must_bound_vars(a))
        case _:
            raise TypeError(f"no free variables for {e!r}")
    object.__setattr__(e, "_free", out)
    return out


def names(e: Expr) -> frozenset[str]:
    """Every variable e mentions, free or bound, kept on e."""
    if isinstance(e, Term):
        return free_vars(e)
    out = getattr(e, "_names", None)
    if out is None:
        t = type(e)
        out = frozenset((e.var,)) if t is Assign or t is AssignAny else frozenset()
        for f, sub in field_table(t):
            if sub:
                out = _union(out, names(getattr(e, f)))
        object.__setattr__(e, "_names", out)
    return out


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, and a side itself where it holds the other, so sets are shared."""
    return a if b <= a else b if a <= b else a | b


def bound_vars(g: Game) -> frozenset[str]:
    match g:
        case Test():
            return frozenset()
        case Assign(var=x) | AssignAny(var=x):
            return frozenset((x,))
        case Choice(left=a, right=b) | Seq(left=a, right=b):
            return bound_vars(a) | bound_vars(b)
        case Repeat(body=a) | Dual(body=a):
            return bound_vars(a)
    raise TypeError(f"not a game: {g!r}")


def must_bound_vars(g: Game) -> frozenset[str]:
    match g:
        case Test():
            return frozenset()
        case Assign(var=x) | AssignAny(var=x):
            return frozenset((x,))
        case Seq(left=a, right=b):
            return must_bound_vars(a) | must_bound_vars(b)
        case Choice(left=a, right=b):
            return must_bound_vars(a) & must_bound_vars(b)
        case Repeat():
            return frozenset()
        case Dual(body=a):
            return must_bound_vars(a)
    raise TypeError(f"not a game: {g!r}")


def assigned_vars(e: Expr) -> frozenset[str]:
    """Every variable an assignment binds anywhere in e, tests included."""
    out = set()
    stack = [e]
    while stack:
        n = stack.pop()
        t = type(n)
        if t is Assign or t is AssignAny:
            out.add(n.var)
        elif not isinstance(n, Term):  # terms bind nothing
            for f, sub in field_table(t):
                if sub:
                    stack.append(getattr(n, f))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Generic traversal: one field table per class


@cache
def field_table(cls) -> tuple:
    """(name, holds a Term/Game/Formula) for each field of a syntax class,
    in constructor order, read from `FIELDS`."""
    return tuple((f, ann in ("Term", "Game", "Formula")) for f, ann in FIELDS[cls])


def _map_children(e: Expr, fn) -> Expr:
    """e with fn applied to each Term/Game/Formula child; e itself when
    fn changes none of them."""
    args, changed = [], False
    for name, sub in field_table(type(e)):
        v = getattr(e, name)
        if sub:
            w = fn(v)
            changed = changed or w is not v
            v = w
        args.append(v)
    return type(e)(*args) if changed else e


# ---------------------------------------------------------------------------
# Uniform renaming (transposition of two variables, including binders)


def rename(e: Expr, x: str, y: str) -> Expr:
    if x == y:
        return e

    def rn(v: str) -> str:
        return y if v == x else x if v == y else v

    def go(n: Expr) -> Expr:
        ns = names(n)
        if x not in ns and y not in ns:
            return n
        t = type(n)
        if t is Var:
            return Var(rn(n.name))
        if t is Assign:
            return Assign(rn(n.var), go(n.term))
        if t is AssignAny:
            return AssignAny(rn(n.var))
        return _map_children(n, go)

    return go(e)


def rename_state(s: State, x: str, y: str) -> State:
    return s.swap(x, y)


# ---------------------------------------------------------------------------
# Admissible term-for-variable substitution


class InadmissibleSubstitution(Exception):
    """The expression binds the substituted variable or a free variable of
    the replacement, so capture-free replacement is impossible."""


def check_admissible(e: Expr, x: str, f: Term) -> None:
    hit = assigned_vars(e) & ({x} | free_vars(f))
    if hit:
        raise InadmissibleSubstitution(
            f"substitution [{x} -> {f!r}] crosses binder of {sorted(hit)}"
        )


def subst_term(e: Expr, x: str, f: Term) -> Expr:
    """Replace free occurrences of x by f; raises when inadmissible."""
    check_admissible(e, x, f)

    def go(n: Expr) -> Expr:
        if type(n) is Var:
            return f if n.name == x else n
        return _map_children(n, go)

    return go(e)


def eval_fo(phi: Formula, state: State) -> bool:
    """Evaluate a first-order (modality-free after elaboration) formula.

    Handles comparisons plus the derived connectives; raises TypeError on
    genuine game modalities, which have no play-time truth value.
    """
    return compile_fo(phi)(state)


# ---------------------------------------------------------------------------
# Compiled evaluators (plays re-evaluate the same small terms constantly)

def kept(node: _Node, slot: str, make):
    """make(node), kept on the node in `slot` from the first call on."""
    try:
        return getattr(node, slot)
    except AttributeError:
        object.__setattr__(node, slot, v := make(node))
        return v


def compile_term(t: Term):
    return kept(t, "_fn", _compile_term)


_le, _ge = RELATIONS["<="], RELATIONS[">="]
# term class -> (operator on two ints, the kernel's on any two rationals)
_ARITH = {Plus: (operator.add, add), Times: (operator.mul, mul), Minus: (operator.sub, sub)}


def _int_lit(t: Term) -> bool:
    return type(t) is Lit and type(t.value) is int


def _compile_term(t: Term):
    match t:
        case Lit(value=v):
            return lambda s: v
        case Var(name=x):
            return lambda s: s._vals.get(x, 0)
        # an int pair stays on the int operator; any other pair goes to the
        # kernel.  A variable beside an int literal is read inline.
        case Plus(left=a, right=b) | Times(left=a, right=b) | Minus(left=a, right=b):
            iop, kop = _ARITH[type(t)]
            if type(a) is Var and _int_lit(b):  # x op k
                x, k = a.name, b.value

                def var_lit(s):
                    u = s._vals.get(x, 0)
                    return iop(u, k) if type(u) is int else kop(u, k)

                return var_lit
            if _int_lit(a) and type(b) is Var:  # k op x
                k, x = a.value, b.name

                def lit_var(s):
                    v = s._vals.get(x, 0)
                    return iop(k, v) if type(v) is int else kop(k, v)

                return lit_var
            fa, fb = compile_term(a), compile_term(b)

            def arith(s):
                u, v = fa(s), fb(s)
                return iop(u, v) if type(u) is int and type(v) is int else kop(u, v)

            return arith
        case Neg(arg=a):
            fa = compile_term(a)
            return lambda s: -fa(s)
        case Div(left=a, right=b) | Mod(left=a, right=b):
            iop, kop = (operator.floordiv, rat_quot) if type(t) is Div else (operator.mod, rat_rem)
            fa, x = compile_term(a), a.name if type(a) is Var else None
            if _int_lit(b) and b.value:
                # an int by a nonzero int literal, Euclidean on the int
                # operators: -(u // |g|) is u's quotient by a negative g
                g = b.value
                m, sg = abs(g), -1 if g < 0 and type(t) is Div else 1

                def by_int(s):
                    u = fa(s) if x is None else s._vals.get(x, 0)
                    return sg * iop(u, m) if type(u) is int else kop(u, g)

                return by_int
            fb = compile_term(b)

            def euclid(s):
                g = fb(s)
                if g == 0:
                    raise DivisionByZero(f"divisor {b!r} evaluates to 0")
                return kop(fa(s), g)

            return euclid
        case Abs(arg=a):
            fa = compile_term(a)
            return lambda s: abs(fa(s))
        case Min(left=a, right=b):  # the first of equal values, as `min`
            fa, fb = compile_term(a), compile_term(b)

            def least(s):
                u, v = fa(s), fb(s)
                return u if _le(u, v) else v

            return least
        case Max(left=a, right=b):  # the first of equal values, as `max`
            fa, fb = compile_term(a), compile_term(b)

            def greatest(s):
                u, v = fa(s), fb(s)
                return u if _ge(u, v) else v

            return greatest
    raise TypeError(f"not a term: {t!r}")


def compile_fo(phi: Formula):
    return kept(phi, "_fo", _compile_fo)


def _compile_fo(phi: Formula):
    if isinstance(phi, Cmp):
        # int pairs compare as they are, others by cross-multiplication; a
        # literal goes to the right, split into numerator and denominator,
        # and a variable against it is read inline
        a, rel, b = phi.left, phi.rel, phi.right
        if type(a) is Lit and type(b) is not Lit:
            a, rel, b = b, CONVERSE[rel], a
        fa, op = compile_term(a), INT_RELATIONS[rel]
        if type(b) is Lit:
            n, d = b.value.numerator, b.value.denominator
            x = a.name if type(a) is Var else None

            def against_literal(s):
                v = fa(s) if x is None else s._vals.get(x, 0)
                if type(v) is int:
                    return op(v * d, n)
                return op(v.numerator * d, n * v.denominator)

            return against_literal
        fb, rel = compile_term(b), RELATIONS[rel]
        return lambda s: rel(fa(s), fb(s))
    disj = split_or(phi)
    if disj is not None:
        fa, fb = compile_fo(disj[0]), compile_fo(disj[1])
        return lambda s: fa(s) or fb(s)
    both = split_and(phi)
    if both is not None:
        fa, fb = compile_fo(both[0]), compile_fo(both[1])
        return lambda s: fa(s) and fb(s)
    imp = split_implies(phi)
    if imp is not None:
        fa, fb = compile_fo(imp[0]), compile_fo(imp[1])
        return lambda s: (not fa(s)) or fb(s)
    raise TypeError(f"not a play-time evaluable formula: {phi!r}")
