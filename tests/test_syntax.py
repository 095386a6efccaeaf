"""Terms, state, static semantics, renaming, and substitution."""

import copy
import gc
import pickle
import random
import subprocess
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgl import syntax as S
from cgl.rational import DivisionByZero, rat_quot, rat_rem
from conftest import rand_formula, rand_game, rand_state, rand_term

L = S.lit
x, y, z, c = S.Var("x"), S.Var("y"), S.Var("z"), S.Var("c")


def test_literal_arithmetic():
    st_ = S.State()
    assert S.eval_term(S.Plus(L(2), L(3)), st_) == 5


def test_product_of_vars():
    st_ = S.State({"x": 2, "y": 3})
    assert S.eval_term(S.Times(x, y), st_) == 6


def test_quotient_and_remainder_example():
    st_ = S.State()
    assert S.eval_term(S.Div(L("7/2"), L(1)), st_) == 3
    assert S.eval_term(S.Mod(L("7/2"), L(1)), st_) == Fraction(1, 2)


def test_division_identity_grid():
    # brute-force oracle: f = g*(f div g) + (f mod g), 0 <= f mod g < |g|
    for num in range(-20, 21):
        for den in range(1, 7):
            f = Fraction(num, den)
            for gnum in (-7, -3, -1, 1, 2, 5, 9):
                for gden in (1, 2, 3):
                    g = Fraction(gnum, gden)
                    q, r = rat_quot(f, g), rat_rem(f, g)
                    assert q.denominator == 1
                    assert f == g * q + r
                    assert 0 <= r < abs(g)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        S.eval_term(S.Div(x, S.Minus(y, y)), S.State())


def test_state_default_zero_and_update():
    st_ = S.State()
    assert st_.get("fresh") == 0
    st2 = st_.set("fresh", Fraction(1, 3))
    assert st_.get("fresh") == 0 and st2.get("fresh") == Fraction(1, 3)


# -- canonical rationals: an int when integral, else a Fraction -------------


def test_state_holds_integral_values_as_ints():
    assert type(S.State({"c": Fraction(6, 2)}).get("c")) is int
    st_ = S.State().set("x", Fraction(1, 2) + Fraction(1, 2)).set("y", Fraction(1, 3))
    assert type(st_.get("x")) is int and st_.get("x") == 1
    assert type(st_.get("y")) is Fraction and st_.get("y") == Fraction(1, 3)
    assert type(S.State().get("unset")) is int


def test_quotient_is_an_int():
    assert type(rat_quot(Fraction(7, 2), Fraction(1, 3))) is int
    assert type(rat_quot(7, -2)) is int and rat_quot(7, -2) == -3
    assert type(S.eval_term(S.Div(L("7/2"), L(1)), S.State())) is int


def _eval_or_div0(t, state):
    try:
        return S.eval_term(t, state)
    except DivisionByZero:
        return "division by zero"


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_evaluation_ignores_the_form_of_integral_values(rnd):
    t = rand_term(rnd, 4)
    canonical = rand_state(rnd)
    as_fractions = S.State.of({v: Fraction(canonical.get(v)) for v in canonical.vars()})
    a, b = _eval_or_div0(t, canonical), _eval_or_div0(t, as_fractions)
    assert a == b
    if a != "division by zero":
        assert type(a) is type(b) is (int if a.denominator == 1 else Fraction)


_PYTHON_RELATIONS = {"<=": lambda a, b: a <= b, "<": lambda a, b: a < b,
                     "=": lambda a, b: a == b, "!=": lambda a, b: a != b,
                     ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_compiled_evaluators_agree_with_python(rnd):
    u, v, w = (rnd.choice([rnd.randint(-3, 3), Fraction(rnd.randint(-9, 9), rnd.randint(1, 4))])
               for _ in range(3))
    st_ = S.State.of({"x": u, "y": v})
    for term, python in ((S.Plus(x, y), u + v), (S.Minus(x, y), u - v), (S.Times(x, y), u * v),
                         (S.Min(x, y), min(u, v)), (S.Max(x, y), max(u, v))):
        assert S.eval_term(term, st_) == python
    # a comparison with a literal on the left, the right, both sides or neither
    for rel, holds in _PYTHON_RELATIONS.items():
        assert S.eval_fo(S.Cmp(x, rel, S.Lit(w)), st_) is holds(u, w)
        assert S.eval_fo(S.Cmp(S.Lit(w), rel, x), st_) is holds(w, u)
        assert S.eval_fo(S.Cmp(S.Lit(v), rel, S.Lit(w)), st_) is holds(v, w)
        assert S.eval_fo(S.Cmp(x, rel, y), st_) is holds(u, v)


def _canonical(q: Fraction):
    return q.numerator if q.denominator == 1 else q


_DIVISORS = st.one_of(st.integers(1, 9), st.integers(-9, -1), st.just(0),
                      st.fractions(max_denominator=6).filter(lambda q: q.denominator > 1))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-40, 40), st.fractions(max_denominator=6)), st.integers(-9, 9),
       _DIVISORS, st.booleans())
def test_specialized_evaluators_agree_with_the_kernel(u, v, k, as_fractions):
    # the shapes an evaluator reads a variable or a literal operand of
    # inline, and quotients and remainders by a literal, of a variable and
    # of a compound term: the value and canonical type that Fraction
    # arithmetic, `rat_quot` and `rat_rem` give, on a state of canonical
    # values or of Fractions; a 0 literal divisor raises when evaluated
    U, V, K = Fraction(u), Fraction(v), Fraction(k)
    state = S.State.of({"x": U, "y": V} if as_fractions else {"x": _canonical(U), "y": v})
    lit = S.Lit(k)
    cases = [(S.Minus(x, lit), U - K), (S.Minus(lit, x), K - U), (S.Plus(x, lit), U + K),
             (S.Plus(lit, x), K + U), (S.Times(x, lit), U * K), (S.Times(lit, x), K * U)]
    for t, tv in ((x, U), (S.Minus(x, y), U - V)):
        for term, kernel in ((S.Div(t, lit), rat_quot), (S.Mod(t, lit), rat_rem)):
            cases.append((term, DivisionByZero if k == 0 else kernel(tv, K)))
    for term, want in cases:
        if want is DivisionByZero:
            with pytest.raises(DivisionByZero):
                S.compile_term(term)(state)
            continue
        got, want = S.compile_term(term)(state), _canonical(Fraction(want))
        assert got == want and type(got) is type(want), (term, got)
    for rel, holds in _PYTHON_RELATIONS.items():
        assert S.compile_fo(S.Cmp(x, rel, lit))(state) is holds(U, K)
        assert S.compile_fo(S.Cmp(lit, rel, x))(state) is holds(K, U)


# -- static semantics ---------------------------------------------------------


def test_mbv_choice():
    both = S.Choice(S.Assign("x", L(1)), S.Assign("x", L(2)))
    differ = S.Choice(S.Assign("x", L(1)), S.Assign("y", L(2)))
    assert S.must_bound_vars(both) == {"x"}
    assert S.must_bound_vars(differ) == frozenset()


def test_bv_mbv_repeat():
    a = S.Repeat(S.Assign("x", L(1)))
    assert S.bound_vars(a) == S.bound_vars(a.body)
    assert S.must_bound_vars(a) == frozenset()


def test_fv_must_bound_shadows():
    phi = S.Diamond(S.Assign("x", L(1)), S.Cmp(x, ">", y))
    assert S.free_vars(phi) == {"y"}


def test_mbv_subset_bv(rng):
    for _ in range(300):
        g = rand_game(rng, 3)
        assert S.must_bound_vars(g) <= S.bound_vars(g)


# -- renaming -----------------------------------------------------------------


def test_rename_simple():
    assert S.rename(S.Cmp(x, ">", y), "x", "y") == S.Cmp(y, ">", x)


def test_rename_under_binder():
    e = S.Diamond(S.Assign("x", S.Plus(x, L(1))), S.Cmp(x, ">", L(0)))
    r = S.rename(e, "x", "z")
    assert r == S.Diamond(S.Assign("z", S.Plus(z, L(1))), S.Cmp(z, ">", L(0)))


def test_rename_self_dual_random(rng):
    for _ in range(400):
        e = rand_formula(rng, 3)
        assert S.rename(S.rename(e, "x", "y"), "x", "y") == e


def test_rename_commutes_with_eval(rng):
    for _ in range(300):
        f = rand_term(rng, 3)
        st_ = rand_state(rng)
        try:
            lhs = S.eval_term(S.rename(f, "x", "y"), st_)
            rhs = S.eval_term(f, S.rename_state(st_, "x", "y"))
        except DivisionByZero:
            continue
        assert lhs == rhs


def test_coincidence_terms(rng):
    for _ in range(300):
        f = rand_term(rng, 3)
        fv = S.free_vars(f)
        st1 = rand_state(rng)
        st2 = rand_state(rng)
        for v in fv:
            st2 = st2.set(v, st1.get(v))
        try:
            assert S.eval_term(f, st1) == S.eval_term(f, st2)
        except DivisionByZero:
            pass


# -- substitution ---------------------------------------------------------------


def test_subst_basic():
    assert S.subst_term(S.Cmp(x, ">", L(0)), "x", S.Plus(y, L(1))) == S.Cmp(
        S.Plus(y, L(1)), ">", L(0)
    )


def test_subst_capture_rejected():
    phi = S.Diamond(S.AssignAny("x"), S.Cmp(x, "=", y))
    with pytest.raises(S.InadmissibleSubstitution):
        S.subst_term(phi, "y", x)


def test_subst_under_unrelated_binder():
    phi = S.Diamond(S.Assign("y", S.Plus(y, L(1))), S.Cmp(y, ">", x))
    got = S.subst_term(phi, "x", L(3))
    assert got == S.Diamond(S.Assign("y", S.Plus(y, L(1))), S.Cmp(y, ">", L(3)))


def test_subst_evaluation_lemma(rng):
    # eval(f[x->g], w) = eval(f, w[x -> eval(g, w)]) when admissible
    for _ in range(300):
        f = rand_term(rng, 3)
        g = rand_term(rng, 2)
        st_ = rand_state(rng)
        try:
            sub = S.subst_term(f, "x", g)
            lhs = S.eval_term(sub, st_)
            rhs = S.eval_term(f, st_.set("x", S.eval_term(g, st_)))
        except (S.InadmissibleSubstitution, DivisionByZero):
            continue
        assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(1, 20), st.integers(-9, 9), st.integers(1, 6))
def test_quotient_remainder_hypothesis(a, b, cn, cd):
    f = Fraction(a, b)
    g = Fraction(cn if cn != 0 else 1, cd)
    assert f == g * rat_quot(f, g) + rat_rem(f, g)
    assert 0 <= rat_rem(f, g) < abs(g)


def test_fo_evaluation_of_derived_connectives():
    st_ = S.State({"x": 1})
    assert S.eval_fo(S.And(S.Cmp(x, ">", L(0)), S.Cmp(x, "<", L(2))), st_)
    assert S.eval_fo(S.Or(S.Cmp(x, "<", L(0)), S.Cmp(x, ">", L(0))), st_)
    assert S.eval_fo(S.Implies(S.Cmp(x, ">", L(5)), S.FALSE), st_)
    assert not S.eval_fo(S.Not(S.Cmp(x, "=", L(1))), st_)
    with pytest.raises(TypeError):
        S.eval_fo(S.Diamond(S.Repeat(S.Assign("x", L(1))), S.TRUE), st_)


def test_equal_constructions_are_one_node():
    # built apart, by position or by keyword, the same structure is one
    # object, so == is `is` and a node hashes as itself
    rng = random.Random(7)
    terms = [rand_term(rng, depth=1) for _ in range(200)]
    same = [(a is b, repr(a) == repr(b)) for a in terms for b in terms]
    assert all(p == q for p, q in same) and sum(p for p, _ in same) > len(terms)
    seed = rng.random()
    assert rand_game(random.Random(seed)) is rand_game(random.Random(seed))
    assert rand_formula(random.Random(seed)) is rand_formula(random.Random(seed))
    assert S.Plus(x, L(1)) is S.Plus(left=S.Var("x"), right=S.lit(1))
    assert S.Cmp(x, "<", y) is S.Cmp(x, rel="<", right=y) is S.Cmp(right=y, left=x, rel="<")
    assert S.Plus(x, L(1)) != S.Plus(L(1), x) and S.Lit(1) != S.Var("1")
    assert hash(S.Plus(x, L(1))) == object.__hash__(S.Plus(x, L(1)))
    with pytest.raises(ValueError):
        S.Cmp(x, "<>", y)
    with pytest.raises(TypeError):
        S.Plus(x, right=y, extra=z)


def test_threads_building_one_structure_get_one_node():
    # both threads miss on each fresh structure at nearly the same time;
    # a store between one thread's miss and its store must not be lost
    built = ([], [])

    def build(out):
        for i in range(20_000):
            out.append(S.Plus(S.Var(f"v{i}"), S.Lit(i)))

    threads = [threading.Thread(target=build, args=(out,)) for out in built]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(built[0]) == len(built[1]) == 20_000
    assert sum(a is not b for a, b in zip(*built)) == 0


def _exceptions_in_new(build) -> list:
    """The exceptions raised in `_Node.__new__`, or in a call it makes,
    while build() runs."""
    new, seen = S._Node.__new__.__code__, []

    def local(frame, event, arg):
        if event == "exception":
            f = frame
            while f is not None and f.f_code is not new:
                f = f.f_back
            if f is not None:
                seen.append((frame.f_code.co_name, arg[0].__name__))
        return local

    outer = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local)
    try:
        build()
    finally:
        sys.settrace(outer)
    return seen


def test_interning_raises_no_exception():
    # a miss and a hit are plain dictionary reads, never a caught KeyError
    def build():
        for i in range(50):
            S.Plus(S.Var(f"untraced{i}"), S.Lit(Fraction(i, 7)))
            S.Plus(x, L(1))
            S.Cmp(x, rel="<", right=S.Var(f"untraced{i}"))

    assert _exceptions_in_new(build) == []


def test_a_dead_node_s_key_is_stored_again_and_its_entry_goes():
    while gc.collect():
        pass
    before, key = len(S._nodes), (S.Var, "mortal")
    node = S.Var("mortal")
    first = S._nodes[key]
    assert first() is node and len(S._nodes) == before + 1
    dead = weakref.ref(node)
    del node
    assert dead() is None and key not in S._nodes and len(S._nodes) == before
    again = S.Var("mortal")
    assert S._nodes[key]() is again and S.Var("mortal") is again and len(S._nodes) == before + 1
    # the first node's removal, come late, leaves the entry that replaced it
    S._drop(first)
    assert S._nodes[key]() is again
    del again
    assert len(S._nodes) == before


_COLLECT_IN_STORE = """
import gc
from cgl import engine as E, realizer as R, syntax as S

class Collecting(S._Entry):  # a store's entry, made under the table's lock
    __slots__ = ()
    armed = False

    def __init__(self, node, callback):
        if Collecting.armed:
            gc.collect(0)

S._Entry, built = Collecting, []
for i in range(300):
    gc.disable()  # the garbage stays young until a store collects it
    # a Gen and its stream hold each other: garbage only a collection frees
    body = S.Assign("g", S.Plus(S.Var("g"), S.Lit(i)))
    S.kept(R.Gen(R.RVar("v"), "v", R.Unit(), R.Unit(), body), "_stream", E._stream)
    del body
    Collecting.armed = True
    built.append(S.Times(S.Var(f"k{i}"), S.Lit(i)))
    Collecting.armed = False
    gc.enable()
assert all(S.Times(S.Var(f"k{i}"), S.Lit(i)) is n for i, n in enumerate(built))
assert all(S._nodes[(S.Times, n.left, n.right)]() is n for n in built)
print(len(built), len(S._nodes) < 1000)  # the Gens and their children went
"""


def test_a_collection_inside_a_store_neither_deadlocks_nor_loses_it():
    # each fresh Times stores its Var's entry under the table's lock, and a
    # collection there frees a Gen, whose node's and children's entries go
    proc = subprocess.run([sys.executable, "-c", _COLLECT_IN_STORE],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "300 True\n", "")


def test_literal_value_is_canonical():
    two = S.Lit(Fraction(2))
    assert two is S.Lit(2) is L("4/2") and type(two.value) is int and two.value == 2
    assert S.Lit(True) is S.Lit(1) and type(S.Lit(True).value) is int
    half = S.Lit(Fraction(1, 2))
    assert half is L("1/2") and type(half.value) is Fraction


def test_copy_deepcopy_and_pickle_return_the_node():
    phi = S.Box(S.Seq(S.Assign("x", S.Plus(x, L("1/3"))), S.Dual(S.AssignAny("y"))),
                S.Cmp(x, ">=", S.Abs(y)))
    for e in (phi, phi.game, phi.post.right, L("1/3")):
        assert copy.copy(e) is e and copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e
    assert copy.deepcopy([phi, {"k": phi}])[1]["k"] is phi
