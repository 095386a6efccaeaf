"""Facts kept on nodes (free variables, the names a node mentions, free
realizer variables, free proof variables) against fresh computations, and
the renaming and substitution that skip what those facts show they cannot
change."""

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
from cgl.parser import parse_script
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


def fresh_subst_term(e, x, f):
    if type(e) is S.Var:
        return f if e.name == x else e
    t = type(e)
    return t(*[fresh_subst_term(v, x, f) if sub else v
               for v, (_, sub) in zip((getattr(e, n) for n in e.__match_args__), S.field_table(t))])


# references: the walker that `S.check_admissible` inlines, the game
# `match` that `S.bound_vars` is, and the walker that `S.names` replaced


def assigned_vars(e):
    """Every variable an assignment binds anywhere in e, tests included."""
    out, stack = set(), [e]
    while stack:
        n = stack.pop()
        if type(n) in (S.Assign, S.AssignAny):
            out.add(n.var)
        elif not isinstance(n, S.Term):
            stack.extend(children(n))
    return frozenset(out)


def game_bound_vars(g):
    """The variables a play of g may change: a test changes none."""
    match g:
        case S.Test():
            return frozenset()
        case S.Assign(var=x) | S.AssignAny(var=x):
            return frozenset((x,))
        case S.Choice(left=a, right=b) | S.Seq(left=a, right=b):
            return game_bound_vars(a) | game_bound_vars(b)
        case S.Repeat(body=a) | S.Dual(body=a):
            return game_bound_vars(a)
    raise TypeError(g)


def all_vars_expr(e):
    """Every variable e mentions: each `Var` and each assigned variable."""
    out, stack = set(), [e]
    while stack:
        n = stack.pop()
        if type(n) is S.Var:
            out.add(n.name)
        elif type(n) in (S.Assign, S.AssignAny):
            out.add(n.var)
        stack.extend(children(n))
    return out


def fresh_prog_vars(m):
    out = set()
    for f, ann in S.FIELDS[type(m)]:
        v = getattr(m, f)
        if ann in ("ProofTerm", "Optional[ProofTerm]"):
            out |= fresh_prog_vars(v) if v is not None else set()
        elif ann in ("Term", "Formula"):
            out |= all_vars_expr(v)
        elif f in ("var", "ghost", "m0"):  # the program-variable binders
            out.add(v)
    return frozenset(out)


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


# -- one definition per variable fact ----------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_variable_facts_equal_their_reference_walkers(rnd):
    _, (first, _) = _rand_node(rnd)
    for n in subnodes(first):
        assert S.names(n) == all_vars_expr(n)
        if isinstance(n, S.Game):
            assert S.bound_vars(n) == game_bound_vars(n)


def test_a_tests_assignment_blocks_substitution_not_the_play():
    test = S.Test(S.Diamond(S.Assign("x", S.lit(1)), S.TRUE))
    g = S.Seq(S.AssignAny("y"), test)
    assert S.bound_vars(g) == {"y"} and assigned_vars(g) == {"x", "y"}
    with pytest.raises(S.InadmissibleSubstitution):
        S.subst_term(S.Box(test, S.Cmp(S.Var("x"), ">", S.lit(0))), "x", S.lit(2))


def _inadmissible(e, x, f):
    return assigned_vars(e) & ({x} | fresh_free(f))


def _subst_case(rnd):
    """e, x and f, with f a literal where a random term is not admissible."""
    e, _ = _rand_node(rnd)
    x = rnd.choice(NAMES)
    f = rand_term(rnd, 1)
    return e, x, S.lit(rnd.randint(-3, 3)) if _inadmissible(e, x, f) else f


def _unchanged_subtrees_shared(n, out, x):
    if x not in fresh_free(n):
        return out is n
    return all(_unchanged_subtrees_shared(a, b, x) for a, b in zip(children(n), children(out)))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_subst_term_returns_subtrees_without_free_x_as_they_are(rnd):
    e, x, f = _subst_case(rnd)
    if _inadmissible(e, x, f):
        with pytest.raises(S.InadmissibleSubstitution):
            S.subst_term(e, x, f)
        return
    out = S.subst_term(e, x, f)
    assert out is fresh_subst_term(e, x, f)
    assert _unchanged_subtrees_shared(e, out, x)
    for n in subnodes(e):
        if x not in fresh_free(n):
            assert S.subst_term(n, x, f) is n


def test_subst_term_visits_only_subtrees_with_free_x(monkeypatch):
    # it reads the kept free-variable fact and rebuilds only where x is free
    visited, map_children = [], S._map_children
    monkeypatch.setattr(S, "_map_children", lambda n, fn: visited.append(n) or map_children(n, fn))
    rnd, rebuilt = random.Random(11), 0
    for _ in range(300):
        e, x, f = _subst_case(rnd)
        if not _inadmissible(e, x, f):
            visited.clear()
            S.subst_term(e, x, f)
            assert all(x in fresh_free(n) for n in visited)
            rebuilt += len(visited)
    assert rebuilt > 100
    # a node first built here keeps the free-variable fact, not the names fact
    e = S.Box(S.Assign("y", S.Var("unseen")), S.Cmp(S.Var("y"), ">", S.Var("x")))
    assert S.subst_term(e, "x", S.lit(1)) is S.Box(e.game, S.Cmp(S.Var("y"), ">", S.lit(1)))
    assert getattr(e, "_names", None) is None and e._free == {"unseen", "x"}


def test_prog_vars_equal_the_walker_they_replace(all_theorems):
    from test_fuzz import _subterms

    m = P.Asgn("x", "x0", "h", P.Ghost("g", S.Var("y"), "k", P.DPair(
        P.QE(S.Box(S.AssignAny("z"), S.TRUE), P.PVar("k")), P.Split(S.Var("c"), S.lit(0)))), P.DIA)
    assert P.prog_vars(m) == fresh_prog_vars(m) == {"x", "x0", "g", "y", "z", "c"}
    for _, proof in all_theorems.values():
        for _, n in _subterms(proof):
            assert P.prog_vars(n) == fresh_prog_vars(n)


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


# -- the free proof variables kept on a proof term ------------------------------


def fresh_free_pvars(m):
    """The walker that `P.free_pvars` was before it kept its sets: each
    proof-term child's free proof variables less the binders scoping it."""
    if isinstance(m, P.PVar):
        return frozenset((m.name,))
    out = frozenset()
    for _, name, scope, _ in (P._PLANS.get(type(m)) or P._plan(type(m)))[1]:
        v = getattr(m, name)
        if v is not None:
            inner = fresh_free_pvars(v)
            if scope:
                inner = inner - {getattr(m, h) for h in scope}
            out |= inner
    return out


def _assert_free_pvars_kept(m):
    from test_fuzz import _subterms

    P.free_pvars(m)  # keeps a set on m and on every subterm that is not a PVar
    for _, n in _subterms(m):
        ref = fresh_free_pvars(n)
        assert P.free_pvars(n) == ref, n
        if type(n) is P.PVar:  # a proof variable's set is its name, kept nowhere
            assert getattr(n, "_free", None) is None
        else:
            assert n._free == ref and P.free_pvars(n) is n._free


# loop eliminations whose branches use what they bind, which no corpus proof's do
REPLAYS = r"""
theorem rcaseReplay : <{c := c + 1}*> c > 3 -> <{c := c + 1}*> c > 3 =
  \h : <{c := c + 1}*> c > 3. rcase h of s. stop s | g. go g
theorem fpReplay : <{c := c + 1}*> c > 3 -> <{c := c + 1}*> c > 3 =
  \h : <{c := c + 1}*> c > 3. fp h of s. stop s | g. go g
"""


def test_corpus_proofs_keep_their_free_proof_variables(all_theorems):
    replays = parse_script(REPLAYS).theorems
    for _, m in list(all_theorems.values()) + list(replays.values()):
        _assert_free_pvars_kept(m)


def test_reducts_keep_their_free_proof_variables(all_theorems):
    # each corpus proof, and inside the identity redexes of every kind
    # that the normalizer's golden traces wrap it in
    from test_normalizer import wrapped

    reducts = 0
    for name, (phi, m) in all_theorems.items():
        for start in (m, wrapped(name, phi, m)):
            for _, reduct in N.normalize(start)[2]:
                _assert_free_pvars_kept(reduct)
                reducts += 1
    assert reducts > 600


def test_random_proofs_keep_their_free_proof_variables():
    from test_proofterms import _open_arg, _rand_proof, _wrap_unpack

    rng = random.Random(2024)
    for _ in range(300):
        _assert_free_pvars_kept(_wrap_unpack(rng, _rand_proof(rng, rng.randint(2, 5))))
        _assert_free_pvars_kept(_open_arg(rng))
