"""Facts kept on interned nodes (free variables, the names a node mentions,
free realizer variables) against fresh computations, and the renaming and
substitution that skip what those facts show they cannot change."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgl import extract
from cgl import normalizer as N
from cgl import proofterms as P
from cgl import realizer as R
from cgl import syntax as S
from cgl.oracle import _WITNESS_POOL, ArithOracle
from conftest import VARS, rand_formula, rand_game, rand_term

NAMES = VARS + ["w"]  # "w" occurs in no random node


# -- fresh computations, which keep nothing ----------------------------------


def fresh_free(e):
    match e:
        case S.Lit() | S.AssignAny():
            return frozenset()
        case S.Var(name=x):
            return frozenset((x,))
        case S.Neg(arg=a) | S.Abs(arg=a) | S.Test(cond=a) | S.Assign(term=a) \
                | S.Repeat(body=a) | S.Dual(body=a):
            return fresh_free(a)
        case S.Diamond(game=a, post=b) | S.Box(game=a, post=b) | S.Seq(left=a, right=b):
            return fresh_free(a) | (fresh_free(b) - S.must_bound_vars(a))
    return fresh_free(e.left) | fresh_free(e.right)


def fresh_names(e):
    out = {e.name} if type(e) is S.Var else {e.var} if type(e) in (S.Assign, S.AssignAny) else set()
    for n in children(e):
        out |= fresh_names(n)
    return frozenset(out)


def fresh_rename(e, x, y):
    swap = {x: y, y: x}
    t = type(e)
    if t is S.Var:
        return S.Var(swap.get(e.name, e.name))
    args = [fresh_rename(v, x, y) if sub else v
            for v, (_, sub) in zip((getattr(e, f) for f in e.__match_args__), S.field_table(t))]
    if t in (S.Assign, S.AssignAny):
        args[0] = swap.get(args[0], args[0])
    return t(*args)


def _scope(r):
    return {f: getattr(r, b) for b, fs in R.BINDERS.get(type(r), ()) for f in fs}


def fresh_free_rvars(r):
    if type(r) is R.RVar:
        return frozenset((r.name,))
    scope = _scope(r)
    return frozenset().union(*(fresh_free_rvars(getattr(r, f)) - {scope.get(f)}
                               for f in R.KIDS[type(r)]))


def fresh_subst(r, name, value):
    """r with the closed value for each free `name`: nothing to rename apart."""
    if type(r) is R.RVar:
        return value if r.name == name else r
    scope = _scope(r)
    kids = {f: getattr(r, f) if scope.get(f) == name else fresh_subst(getattr(r, f), name, value)
            for f in R.KIDS[type(r)]}
    return type(r)(*[kids.get(f, getattr(r, f)) for f in r.__match_args__])


def fresh_goal_fact(g):
    """How an oracle leaf with goal g decomposes: the FO rule that fires on
    it and its parts, the first pool value that a fresh oracle finds to
    witness an existential, or None when no rule fires."""
    if type(g) is S.Box and type(g.game) is S.AssignAny:
        return N.FO_ALL_BETA, g.game.var, g.post
    if S.split_or(g) is not None:
        return N.FO_OR_BETA, None, None
    if S.split_and(g) is not None:
        return (N.FO_AND_BETA, *S.split_and(g))
    if type(g) is S.Diamond and type(g.game) is S.AssignAny:
        oracle = ArithOracle()
        for f in _WITNESS_POOL:
            try:
                inst = S.subst_term(g.post, g.game.var, f)
            except S.InadmissibleSubstitution:
                return None
            if oracle.holds_valid(None, inst):
                return N.FO_EX_BETA, f, inst
    return None


def children(e):
    """The Term, Game and Formula children of a syntax node."""
    return [getattr(e, f) for f, sub in S.field_table(type(e)) if sub]


def subnodes(e):
    out, todo = [], [e]
    while todo:
        n = todo.pop()
        out.append(n)
        todo.extend(children(n))
    return out


# -- terms, formulas and games ------------------------------------------------


def _rand_node(rnd):
    kind = rnd.randrange(3)
    e = (rand_term, rand_formula, rand_game)[kind](rnd)
    # two parents of e: facts are asked of the first, then read through the second
    parents = ((S.Plus(e, S.Var("w")), S.Neg(e)),
               (S.And(e, S.TRUE), S.Box(S.AssignAny("x"), e)),
               (S.Seq(S.AssignAny("x"), e), S.Dual(e)))[kind]
    return e, parents


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_kept_facts_equal_fresh_computations(rnd):
    e, (first, second) = _rand_node(rnd)
    S.free_vars(first), S.names(first)
    for n in subnodes(second) + subnodes(first):
        assert S.free_vars(n) == fresh_free(n) and S.names(n) == fresh_names(n)
        if not isinstance(n, S.Term):  # a term's names are its free variables
            assert n._free is S.free_vars(n) and n._names is S.names(n)
    assert e._free == fresh_free(e)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_rename_skips_nodes_without_either_name(rnd):
    e, _ = _rand_node(rnd)
    x, y = rnd.sample(NAMES, 2)
    out = S.rename(e, x, y)
    assert out is fresh_rename(e, x, y) and S.rename(out, x, y) is e
    for n in subnodes(e):
        if x not in fresh_names(n) and y not in fresh_names(n):
            assert S.rename(n, x, y) is n


def test_fixed_examples_rename_and_keep_facts():
    g = S.Seq(S.Assign("x", S.Plus(S.Var("y"), S.Lit(1))), S.Test(S.Cmp(S.Var("z"), "<", S.Var("x"))))
    assert S.free_vars(g) == {"y", "z"} and S.names(g) == {"x", "y", "z"}
    assert S.rename(g, "c", "w") is g and S.rename(g.right, "x", "y").cond.right is S.Var("y")
    assert S.rename(g, "y", "w").left.term.left is S.Var("w")


# -- the normalizer's fact on an oracle leaf's goal ---------------------------


def _judged_goal_fact(g):
    """The fact kept on g once `is_simple` and `step` have read it; both
    agree with it on whether a leaf with goal g is stuck."""
    leaf = P.QE(g, None)
    stuck, fired = N.is_simple(leaf), N.step(leaf)
    assert stuck == (fired is None) == (g._qe is None)
    assert fired is None or fired[1] == g._qe[0]
    return g._qe


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_goal_facts_equal_fresh_computations(rnd):
    phi, x = rand_formula(rnd), rnd.choice(VARS)
    value = S.Cmp(S.Var(x), "=", rand_term(rnd, 1))  # a pool value witnesses some
    for g in (phi, S.Exists(x, phi), S.Forall(x, phi), S.Exists(x, value)):
        assert _judged_goal_fact(g) == fresh_goal_fact(g)


def test_fixed_existential_goals_keep_their_witness():
    x = S.Var("x")
    with_witness = S.Exists("x", S.Cmp(S.Times(x, S.lit(2)), "=", S.lit(1)))
    without = S.Exists("x", S.Cmp(S.Times(x, x), "=", S.lit(2)))
    half = S.lit("1/2")
    instance = S.Cmp(S.Times(half, S.lit(2)), "=", S.lit(1))
    assert _judged_goal_fact(with_witness) == fresh_goal_fact(with_witness) == (
        N.FO_EX_BETA, half, instance)
    assert _judged_goal_fact(without) is None is fresh_goal_fact(without)


# -- every corpus realizer ------------------------------------------------------


def _rsubnodes(r):
    out, todo = [], [r]
    while todo:
        n = todo.pop()
        out.append(n)
        todo.extend(getattr(n, f) for f in R.KIDS[type(n)])
    return out


@pytest.fixture(scope="module")
def corpus_realizers(all_theorems):
    """Every node of every corpus realizer, once."""
    rzs = [extract(m, phi) for phi, m in all_theorems.values()]
    nodes = list({id(r): r for rz in rzs for r in _rsubnodes(rz)}.values())
    assert len(nodes) > 100
    return nodes


def test_corpus_realizers_keep_their_free_variables(corpus_realizers):
    for r in corpus_realizers:
        assert R.free_rvars(r) == fresh_free_rvars(r) and r._free is R.free_rvars(r)
        for f, ann in S.FIELDS[type(r)]:
            if ann in ("Term", "Formula", "Game"):
                for n in subnodes(getattr(r, f)):
                    assert S.free_vars(n) == fresh_free(n)


def test_subst_rvar_skips_realizers_without_the_name(corpus_realizers):
    value = R.Pair(R.Unit(), R.TermVal(S.Lit(3)))
    substituted = 0
    for r in corpus_realizers:
        free, binders = fresh_free_rvars(r), set(_scope(r).values())
        for name in free | binders | {"unused"}:
            out = R.subst_rvar(r, name, value)
            assert out is fresh_subst(r, name, value)
            assert (out is not r) == (name in free)
            substituted += name in free
            # a value with a free variable that a binder of r may capture
            for b in binders:
                out = R.subst_rvar(r, name, R.RVar(b))
                if name in free:
                    assert R.free_rvars(out) == fresh_free_rvars(out) == (free - {name}) | {b}
                else:
                    assert out is r
    assert substituted > 40


def test_realizer_facts_hold_for_random_shares():
    # one realizer reached first through two different parents
    rng = random.Random(5)
    for _ in range(200):
        leaf = R.RVar(rng.choice("abc"))
        inner = R.ProofLam(rng.choice("abc"), S.TRUE, R.Pair(leaf, R.RVar(rng.choice("abc"))))
        outer = R.Ind(rng.choice("abc"), R.AppRz(inner, leaf))
        R.free_rvars(outer)
        other = R.Decide(inner, "a", leaf, "b", inner)
        for r in _rsubnodes(other) + _rsubnodes(outer):
            assert R.free_rvars(r) == fresh_free_rvars(r)
