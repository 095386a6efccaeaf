"""Proof-term renaming, substitution, and alpha-equivalence."""

import hashlib
import random

from cgl import proofterms as P
from cgl import syntax as S

L = S.lit
x, y = S.Var("x"), S.Var("y")


def _rand_proof(rng, depth=3) -> P.ProofTerm:
    if depth == 0 or rng.random() < 0.3:
        k = rng.randrange(3)
        if k == 0:
            return P.PVar(rng.choice(["p", "q", "r"]))
        if k == 1:
            return P.Split(S.Var(rng.choice(["x", "y", "c"])), L(rng.randint(-3, 3)))
        return P.QE(S.Cmp(S.Var(rng.choice(["x", "y"])), ">", L(0)), None)
    k = rng.randrange(10)
    a = _rand_proof(rng, depth - 1)
    b = _rand_proof(rng, depth - 1)
    if k == 0:
        return P.Lam("p", S.Cmp(x, ">", L(0)), a)
    if k == 1:
        return P.App(a, b)
    if k == 2:
        return P.DPair(a, b)
    if k == 3:
        return P.InjL(a)
    if k == 4:
        return P.Case(a, "l", b, "r", _rand_proof(rng, depth - 1))
    if k == 5:
        return P.Asgn("x", "xg", "h", a, P.DIA)
    if k == 6:
        return P.TCons("y", "yg", "h", S.Plus(x, L(1)), a)
    if k == 7:
        return P.Mon(a, "m", b)
    if k == 8:
        return P.NumLam("x", "x0", a)
    return P.Ghost("g", S.Plus(x, L(2)), "h", a)


def test_rename_self_dual_random():
    rng = random.Random(7)
    for _ in range(400):
        m = _rand_proof(rng, 3)
        assert P.rename_pt(P.rename_pt(m, "x", "y"), "x", "y") == m


def test_rename_split():
    assert P.rename_pt(P.Split(x, L(0)), "x", "z") == P.Split(S.Var("z"), L(0))


def test_rename_transposes_asgn_binders():
    m = P.Asgn("z", "w", "p", P.QE(S.Cmp(S.Var("z"), "=", S.Var("w")), None), P.DIA)
    r = P.rename_pt(m, "z", "w")
    assert r.var == "w" and r.ghost == "z"
    assert r.body.goal == S.Cmp(S.Var("w"), "=", S.Var("z"))


def test_subst_pt_variable():
    n = P.Split(x, L(0))
    assert P.subst_pt(P.PVar("p"), "p", n) == n
    assert P.subst_pt(P.PVar("q"), "p", n) == P.PVar("q")


def test_subst_pt_shadowing():
    m = P.Lam("p", S.TRUE, P.PVar("p"))
    assert P.subst_pt(m, "p", P.Split(x, L(0))) == m


def test_subst_pt_identity_alpha():
    rng = random.Random(13)
    for _ in range(200):
        m = _rand_proof(rng, 3)
        assert P.alpha_eq(P.subst_pt(m, "p", P.PVar("p")), m)


def test_subst_crosses_assignment_binder_with_renaming():
    # substituting under x := ... redirects the copy's x to the recorded
    # ghost, so hypotheses formed before the binding keep their meaning
    n = P.QE(S.Cmp(x, ">", L(0)), None)
    m = P.Asgn("x", "x9", "h", P.App(P.PVar("p"), P.PVar("h")), P.DIA)
    out = P.subst_pt(m, "p", n)
    assert out.body.fn.goal == S.Cmp(S.Var("x9"), ">", L(0))


def test_ghosts_scope_only_the_children_under_them():
    # an unpack's scrutinee and a loop's initial evidence are checked
    # outside the ghost: substitution does not rename them, and alpha
    # equivalence compares them unmapped
    def pos(v):
        return P.QE(S.Cmp(S.Var(v), ">", L(0)), None)

    out = P.subst_pt(P.Unpack("x", "y", "h", P.PVar("p"), P.PVar("h")), "p", pos("x"))
    assert out.scrut == pos("x")
    out = P.subst_pt(P.Unpack("x", "y", "h", P.PVar("q"), P.PVar("p")), "p", pos("x"))
    assert out.body == pos("y")

    def unpack(ghost, scrut, body):
        return P.Unpack("x", ghost, "h", scrut, body)

    assert not P.alpha_eq(unpack("y", pos("y"), P.PVar("h")), unpack("z", pos("z"), P.PVar("h")))
    assert P.alpha_eq(unpack("y", pos("w"), P.PVar("h")), unpack("z", pos("w"), P.PVar("h")))
    assert P.alpha_eq(unpack("y", pos("w"), pos("y")), unpack("z", pos("w"), pos("z")))

    def loop(m0, init, body):
        return P.For("i", "j", m0, init, body, P.PVar("i"), x, S.TRUE)

    assert not P.alpha_eq(loop("m", pos("m"), P.PVar("i")), loop("n", pos("n"), P.PVar("i")))
    assert P.alpha_eq(loop("m", pos("w"), P.PVar("i")), loop("n", pos("w"), P.PVar("i")))
    assert P.alpha_eq(loop("m", pos("w"), pos("m")), loop("n", pos("w"), pos("n")))


def test_subst_avoids_pvar_capture():
    # the Lam binds q; substituting something mentioning q must alpha-vary
    m = P.Lam("q", S.TRUE, P.App(P.PVar("p"), P.PVar("q")))
    out = P.subst_pt(m, "p", P.PVar("q"))
    assert isinstance(out, P.Lam)
    assert out.hyp != "q"
    assert out.body.fn == P.PVar("q")  # the free q survived
    assert out.body.arg == P.PVar(out.hyp)


def test_subst_term_pt():
    m = P.Split(x, L(0))
    assert P.subst_term_pt(m, "x", S.Plus(y, L(1))) == P.Split(S.Plus(y, L(1)), L(0))
    q = P.QE(S.Cmp(x, ">", L(0)), P.PVar("m"))
    got = P.subst_term_pt(q, "x", L(3))
    assert got.goal == S.Cmp(L(3), ">", L(0))


def test_subst_term_pt_blocked_by_binder():
    import pytest

    m = P.TCons("x", "xg", "h", L(1), P.QE(S.Cmp(x, "=", L(1)), None))
    with pytest.raises(S.InadmissibleSubstitution):
        P.subst_term_pt(m, "y", S.Plus(x, L(1)))  # replacement mentions bound x


def test_alpha_eq_binders():
    a = P.Lam("p", S.TRUE, P.PVar("p"))
    b = P.Lam("q", S.TRUE, P.PVar("q"))
    assert P.alpha_eq(a, b)
    assert not P.alpha_eq(a, P.Lam("q", S.TRUE, P.PVar("p")))
    # a binder does not scope the scrutinee beside its body
    case = P.Case(P.PVar("l"), "l", P.PVar("l"), "r", P.PVar("r"))
    assert P.free_pvars(case) == {"l"}
    assert not P.alpha_eq(case, P.Case(P.PVar("m"), "m", P.PVar("m"), "r", P.PVar("r")))
    assert P.alpha_eq(case, P.Case(P.PVar("l"), "m", P.PVar("m"), "r", P.PVar("r")))
    mon = P.Mon(P.PVar("h"), "h", P.PVar("h"))
    assert not P.alpha_eq(mon, P.Mon(P.PVar("k"), "k", P.PVar("k")))
    assert P.alpha_eq(mon, P.Mon(P.PVar("h"), "k", P.PVar("k")))
    unpack = P.Unpack("x", "g", "h", P.PVar("h"), P.PVar("h"))
    assert not P.alpha_eq(unpack, P.Unpack("x", "g", "k", P.PVar("k"), P.PVar("k")))
    assert P.alpha_eq(unpack, P.Unpack("x", "g2", "k", P.PVar("h"), P.PVar("k")))
    # a binder of one side does not capture a free name of the other
    assert not P.alpha_eq(P.Lam("p", S.TRUE, P.PVar("q")), b)
    assert not P.alpha_eq(b, P.Lam("p", S.TRUE, P.PVar("q")))


def test_alpha_eq_ghosts():
    a = P.Asgn("x", "g1", "h", P.QE(S.Cmp(x, "=", S.Var("g1")), None), P.DIA)
    b = P.Asgn("x", "g2", "h", P.QE(S.Cmp(x, "=", S.Var("g2")), None), P.DIA)
    assert P.alpha_eq(a, b)
    c = P.Asgn("y", "g1", "h", P.QE(S.Cmp(x, "=", S.Var("g1")), None), P.DIA)
    assert not P.alpha_eq(a, c)  # the assigned variable is rigid
    d = P.Asgn("x", "g1", "h", P.QE(S.Cmp(x, "=", S.Var("g2")), None), P.DIA)
    assert not P.alpha_eq(d, b) and not P.alpha_eq(b, d)  # g2 free in d, bound in b


def test_subst_does_not_capture_binder_named_like_a_field():
    # the bound name "hyp" is also the Lam field's name; the argument's
    # free hyp must stay free after substitution
    arg = P.Lam("z", S.TRUE, P.PVar("hyp"))
    out = P.subst_pt(P.Lam("hyp", S.TRUE, P.PVar("a")), "a", arg)
    assert out.hyp != "hyp" and out.body == arg
    assert P.free_pvars(out) == {"hyp"}
    assert P.free_pvars(P.Lam("hyp", S.TRUE, P.PVar("hyp"))) == frozenset()


def test_subst_copies_argument_only_where_variable_occurs(monkeypatch):
    # 50 assignments that never mention p: nothing to rename, m returned as is
    def tree(d):
        return P.PVar("leaf") if d == 0 else P.DPair(tree(d - 1), tree(d - 1))

    arg = tree(7)  # 255 nodes
    m = P.PVar("q")
    for i in range(50):
        m = P.Asgn("x", f"x{i}", f"h{i}", m, P.DIA)
    visits = []
    rename = P.rename_pt
    monkeypatch.setattr(P, "rename_pt", lambda t, a, b: visits.append(t) or rename(t, a, b))
    assert P.subst_pt(m, "p", arg) is m
    assert visits == []
    # where p does occur, the argument is renamed once per binder crossed
    inner = P.Asgn("x", "x0", "h", P.PVar("p"), P.DIA)
    out = P.subst_pt(P.Asgn("x", "x1", "k", inner, P.DIA), "p", P.QE(S.Cmp(x, ">", L(0)), None))
    assert out.body.body.goal == S.Cmp(S.Var("x1"), ">", L(0))


def _open_arg(rng) -> P.ProofTerm:
    # free proof variables named like the binders of `_rand_proof` (p, l,
    # r, h, m) and like the substituted ones, with program variables x and
    # y that the binders crossed on the way down rename
    names = ["h", "m", "l", "r", "p", "q", "k"]
    k = rng.randrange(4)
    if k == 0:
        return P.PVar(rng.choice(names))
    if k == 1:
        return P.App(P.PVar(rng.choice(names)), P.QE(S.Cmp(x, ">", y), None))
    if k == 2:
        return P.DPair(P.Split(S.Plus(x, y), L(1)), P.PVar(rng.choice(names)))
    return P.Mon(P.PVar(rng.choice(names)), "h", _rand_proof(rng, 1))


def _wrap_unpack(rng, m) -> P.ProofTerm:
    # `_rand_proof` builds no Unpack: put one above m, or beside it
    if rng.random() < 0.5:
        m = P.Unpack("x", "xu", rng.choice(["h", "p", "u"]), _rand_proof(rng, 1), m)
    if rng.random() < 0.3:
        m = P.DPair(P.Unpack("y", "yu", "h", P.PVar("p"), _rand_proof(rng, 2)), m)
    return m


def test_subst_pinned():
    # a pin of substitution's results on open arguments whose free proof
    # variables collide with binders, through Asgn/TCons/Unpack/NumLam
    # chains: the digest of the results' reprs and how many results are
    # the input itself; an unpack's scrutinee lies outside its ghost
    rng = random.Random(2024)
    h, same, crossed = hashlib.sha256(), 0, set()
    for _ in range(1500):
        m = _wrap_unpack(rng, _rand_proof(rng, rng.randint(2, 5)))
        p = rng.choice(sorted(P.free_pvars(m)) or ["p"])
        out = P.subst_pt(m, p, _open_arg(rng))
        same += out is m
        h.update(repr(out).encode())
        stack = [m]
        while stack:
            n = stack.pop()
            crossed.add(type(n))
            stack.extend(v for v in map(n.__getattribute__, n.__slots__)
                         if isinstance(v, P.ProofTerm))
    assert {P.Asgn, P.TCons, P.Unpack, P.NumLam} <= crossed
    assert (same, h.hexdigest()[:16]) == (434, "c3ae4ad7afa70303")
