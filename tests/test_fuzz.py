"""Metamorphic pipeline fuzz: a mutated corpus proof is either rejected by
the checker or its extracted strategy still wins every adversary line.
A losing strategy extracted from an accepted proof would be a soundness
hole; this guards the checker/oracle/extractor/engine stack jointly."""

import copy
import dataclasses
import hashlib
import json
import random
import re

from cgl import engine as E
from cgl import proofterms as P
from cgl import realizer as R
from cgl import syntax as S
from cgl.checker import CheckError, Checker, elaborate
from cgl.engine import (
    DemonMenu, IllStructuredRealizer, RandomDemon, close, modal_core, play,
    strip_assumptions, verify_exhaustive,
)
from cgl.extraction import UncheckedInput, extract
from cgl.interchange import to_json
from cgl.oracle import ArithOracle
from cgl.parser import parse_formula_text, parse_game_text, parse_script
from cgl.proofterms import Context
from cgl.syntax import State


def _subterms(m, path=()):
    yield path, m
    for f in dataclasses.fields(type(m)):
        v = getattr(m, f.name)
        if isinstance(v, P.ProofTerm):
            yield from _subterms(v, path + (f.name,))


def _replace_at(m, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    vals = {f.name: getattr(m, f.name) for f in dataclasses.fields(type(m))}
    vals[head] = _replace_at(vals[head], rest, new)
    return type(m)(**vals)


def _bump_first_literal(t):
    if isinstance(t, S.Lit):
        return S.Lit(t.value + 1)
    for f in dataclasses.fields(type(t)):
        v = getattr(t, f.name)
        if isinstance(v, S.Term):
            nv = _bump_first_literal(v)
            if nv is not v:
                vals = {g.name: getattr(t, g.name) for g in dataclasses.fields(type(t))}
                vals[f.name] = nv
                return type(t)(**vals)
    return t


def _mutate(m, rng):
    nodes = list(_subterms(m))
    for _ in range(40):
        path, node = rng.choice(nodes)
        k = rng.randrange(7)
        if k == 0 and isinstance(node, P.InjL):
            return _replace_at(m, path, P.InjR(node.arg))
        if k == 1 and isinstance(node, P.InjR):
            return _replace_at(m, path, P.InjL(node.arg))
        if k == 2 and isinstance(node, (P.DPair, P.BPair)):
            return _replace_at(m, path, type(node)(node.snd, node.fst))
        if k == 3 and isinstance(node, P.Proj1):
            return _replace_at(m, path, P.Proj2(node.arg))
        if k == 4 and isinstance(node, P.Case):
            return _replace_at(
                m, path,
                P.Case(node.scrut, node.left, node.bright, node.right, node.bleft),
            )
        if k == 5 and isinstance(node, P.Mon):
            return _replace_at(m, path, node.scrut)
        if k == 6 and isinstance(node, P.TCons):
            return _replace_at(
                m, path,
                P.TCons(node.var, node.ghost, node.hyp,
                        _bump_first_literal(node.witness), node.body),
            )
    return None


CONFIG = {
    "dNim": (
        State({"c": 9}),
        S.Cmp(S.Mod(S.Var("c"), S.lit(4)), "=", S.lit(1)),
        DemonMenu({}, 6), False,
    ),
    "aCake": (State(), S.Cmp(S.Var("a"), ">=", S.lit("1/2")), DemonMenu({}, 2), True),
    "dCake": (
        State(), S.Cmp(S.Var("d"), ">=", S.lit("1/2")),
        DemonMenu({"x": ["0", "1/3", "1/2", "2/3", "1"]}, 2), True,
    ),
    "signFlip": (
        State(), S.Cmp(S.Var("x"), ">=", S.lit(0)),
        DemonMenu({"x": ["-5", "0", "7/2"]}, 2), True,
    ),
    "forCounter": (
        State({"c": 5}), S.Cmp(S.Var("c"), "=", S.lit(0)), DemonMenu({}, 2), True,
    ),
}


def test_accepted_mutants_still_win(all_theorems):
    rng = random.Random(90210)
    ck = Checker()
    names = list(CONFIG)
    rejected = benign = 0
    for i in range(120):
        name = names[i % len(names)]
        phi, proof = all_theorems[name]
        mut = _mutate(proof, rng)
        if mut is None or mut == proof:
            continue
        if ck.check_result(Context(), mut, phi) is not None:
            rejected += 1
            continue
        st, post, menu, reqfin = CONFIG[name]
        try:
            rz = extract(mut, phi, checked=True)
            stripped = strip_assumptions(phi, close(rz), st)
            if stripped is None:
                continue
            game, role, _ = modal_core(phi)
            cex = verify_exhaustive(
                game, role, stripped[1], [st], post, menu, require_finished=reqfin
            )
        except (UncheckedInput, IllStructuredRealizer) as e:
            raise AssertionError(f"accepted mutant broke the pipeline ({name}): {e}")
        assert cex is None, f"checker accepted a losing mutant of {name}"
        benign += 1
    assert rejected >= 20 and benign >= 5  # the fuzz actually bites


# -- pinned verdicts of seeded mutants -------------------------------------------
#
# Accept/reject and the realizer of every accepted proof, for seeded single
# and double mutants of every corpus theorem and of the `mon` scrutinee
# theorems.  The operators reach the `mon` cases on purpose: they wrap
# subproofs in `mon(M; p. p)` in checking and in synthesis position, flip
# flavors and make ghosts clash.  No diagnostic text is pinned.

def _tt():
    return P.QE(S.TRUE, None)


def _mutate_once(m, rng):
    nodes = list(_subterms(m))
    for _ in range(40):
        path, node = rng.choice(nodes)
        k = rng.randrange(8)
        if k == 0:
            return _replace_at(m, path, P.Mon(node, "pw", P.PVar("pw")))
        if k == 1:
            synth = P.Proj1(P.Mon(P.DPair(node, _tt()), "pw", P.PVar("pw")))
            return _replace_at(m, path, synth)
        if k == 2 and isinstance(node, (P.Asgn, P.SeqI, P.Swap)):
            flipped = P.BOX if node.flavor == P.DIA else P.DIA
            return _replace_at(m, path, dataclasses.replace(node, flavor=flipped))
        if k == 3 and isinstance(node, (P.Asgn, P.TCons, P.NumLam)):
            ghost = rng.choice(["x", "c", "y"])
            return _replace_at(m, path, dataclasses.replace(node, ghost=ghost))
        if k == 4 and isinstance(node, P.Mon):
            return _replace_at(m, path, dataclasses.replace(node, body=P.PVar(node.hyp)))
        if k == 5:
            return _replace_at(m, path, rng.choice(nodes)[1])
        if k == 6 and isinstance(node, (P.Lam, P.NumLam)):
            return _replace_at(m, path, node.body)
        if k == 7 and (out := _mutate(m, rng)) is not None:
            return out
    return None


def _canon_names(text):
    """Fresh realizer names (`loop#3`) and ghosts (`x~2`) renumbered in
    order of first occurrence."""
    seen = {}
    return re.sub(
        r"([A-Za-z_]\w*)([#~])(\d+)",
        lambda mo: f"{mo.group(1)}{mo.group(2)}{seen.setdefault(mo.group(0), len(seen) + 1)}",
        text,
    )


def _verdict(m, phi, oracle):
    try:
        rz = elaborate(Context(), m, phi, oracle)
    except CheckError:
        return "rejected"
    except UncheckedInput:
        return "accepted, unrealized"
    return "accepted " + _canon_names(json.dumps(to_json(rz), sort_keys=True))


MUTANT_DIGESTS = {
    "aCake": "a6672a2a6d1d4efc",
    "aNim": "07aa4dd68d7630a9",
    "absFold": "54ecdeb2a82f5522",
    "applyId": "8bb75454e5fa666f",
    "dCake": "7f3d62ac03ead544",
    "dNim": "b61110305deda948",
    "decDemo": "cd03cfef299424c4",
    "dualFlip": "b2f5590ac0dfd293",
    "dualOk": "79fad533871d9876",
    "forCounter": "e46510d2e82d3dde",
    "fpTrivial": "587ad0ac5be432bf",
    "ghostEscape": "b2f5590ac0dfd293",
    "ghostRemember": "811813a25b1bf203",
    "instForall": "04df4455451ba45f",
    "monAssign": "f681b05864c6cc1e",
    "pairProj": "3c0bee679fa40a65",
    "projChain": "2b8fc3da1d55cad8",
    "raceLoop": "63f0857f3fe581ff",
    "rcaseTrivial": "ae884614532f4d17",
    "restEscape": "b2f5590ac0dfd293",
    "signFlip": "9dadc65fc95731ae",
    "splitDemo": "af7e026af929bf0a",
    "unrollRep": "d98874541f172f9a",
    "witAbs": "9b1f05d3c9f60ee9",
    "witMax": "7ee566e7de45ea5e",
    "witPlus": "7efa8bd31b75a7d2",
}


def test_mutant_verdicts_pinned(all_theorems):
    from test_checker import MON_SCRUTINEES

    theorems = dict(all_theorems)
    theorems.update(parse_script(MON_SCRUTINEES).theorems)
    oracle = ArithOracle()
    got = {}
    for name in sorted(theorems):
        phi, proof = theorems[name]
        rng = random.Random(f"mutants-{name}")
        h = hashlib.sha256()
        for i in range(26):
            mut = _mutate_once(proof, rng)
            if mut is not None and i % 2:
                mut = _mutate_once(mut, rng)
            if mut is not None:
                h.update(f"{i} {_verdict(mut, phi, oracle)}\n".encode())
        got[name] = h.hexdigest()[:16]
    assert got == MUTANT_DIGESTS


def _realizer_nodes(rz):
    yield rz
    for f in dataclasses.fields(rz):
        v = getattr(rz, f.name)
        if isinstance(v, R.Realizer):
            yield from _realizer_nodes(v)


def test_every_composition_names_its_games(all_theorems):
    # a run-time composition plays at least one game before its continuation
    oracle = ArithOracle()
    composed = 0
    for name in sorted(all_theorems):
        phi, proof = all_theorems[name]
        rng = random.Random(f"compose-{name}")
        for _ in range(12):
            mut = _mutate_once(proof, rng)
            try:
                rz = elaborate(Context(), mut or proof, phi, oracle)
            except (CheckError, UncheckedInput):
                continue
            for node in _realizer_nodes(rz):
                if isinstance(node, R.Compose):
                    assert node.games, name
                    composed += 1
    assert composed >= 10, composed


def _config_lines(name, phi, rz):
    """The verify verdict and 20 seeded random plays of a CONFIG theorem's
    strategy: (counterexample or None, how each play ends)."""
    st, post, menu, reqfin = CONFIG[name]
    core, cl = strip_assumptions(phi, close(rz), st)
    game, role, _ = modal_core(core)
    cex = verify_exhaustive(game, role, cl, [st], post, menu, require_finished=reqfin)
    ends = [play(game, role, cl, st, RandomDemon(seed, stop_after=6)) for seed in range(20)]
    return (cex and (cex.state, cex.trace)), [(type(e), e.state) for e in ends]


def test_every_wrapped_config_theorem_wins(all_theorems):
    # mon((\f : phi. f) M; p. p): the strategy composes at run time, and the
    # engine applies its hypotheses through the composition
    for name in CONFIG:
        phi, proof = all_theorems[name]
        wrapped = P.Mon(P.App(P.Lam("f", phi, P.PVar("f")), proof), "p", P.PVar("p"))
        rz = elaborate(Context(), wrapped, phi, ArithOracle())
        assert any(isinstance(n, R.Compose) for n in _realizer_nodes(rz)), name
        assert _config_lines(name, phi, rz)[0] is None, name


def test_fusion_is_only_an_optimization(all_theorems, monkeypatch):
    # a strategy whose every composition is left to run time plays like
    # the fused one: the same verdict, and the same end of each random play
    oracle = ArithOracle()
    fused = {}
    for name in CONFIG:
        phi, proof = all_theorems[name]
        fused[name] = elaborate(Context(), proof, phi, oracle)
    monkeypatch.setattr(
        R, "compose",
        lambda first, var, cont, spine: R.Compose(first, var, cont, tuple(f.game for f in spine)),
    )
    moved = 0
    for name, rz in fused.items():
        phi, proof = all_theorems[name]
        # a copy: the shared proof keeps the fused realizer its check left
        late = elaborate(Context(), copy.copy(proof), phi, oracle)
        moved += late is not rz
        lines = _config_lines(name, phi, rz)
        assert lines[0] is None, name
        assert _config_lines(name, phi, late) == lines, name
    assert moved >= 3, moved
    for name, rz in fused.items():
        phi, proof = all_theorems[name]
        assert extract(proof, phi, checked=True) is rz, name


def _observed(all_theorems, oracle):
    """Each CONFIG theorem's verdict, trail and random plays, and the
    records of seeded random plays of the corpus at two fuels."""
    from test_engine import _random_play_records

    lines = {}
    for name in CONFIG:
        phi, proof = all_theorems[name]
        # a copy: an earlier test may have left another realizer on the proof
        lines[name] = _config_lines(name, phi, elaborate(Context(), copy.copy(proof), phi, oracle))
    plays = [_random_play_records(random.Random(20240817), fuel) for fuel in (12, 20_000)]
    return lines, plays


def test_trimmed_closures_are_only_an_optimization(all_theorems, monkeypatch):
    # binding into a copy of the whole environment, as the engine did before
    # closures were trimmed to what their realizers read, plays the same:
    # the same verdicts, trails and play ends, and the same random plays
    oracle = ArithOracle()

    def whole(env, rz, key, v, venv=None):
        bound.append(key)
        return {**env, key: v if venv is None else E.Closure(v, venv)}

    trimmed, bound = _observed(all_theorems, oracle), []
    monkeypatch.setattr(E, "_bind", whole)
    assert _observed(all_theorems, oracle) == trimmed
    assert bound


def _register_lines(strategy, post):
    """Every line of `strategy` for [x := * ; ?x >= 0 ; {y := *}^d], and
    verify's counterexample for post, with menu x in {2, 0, 1, -1}."""
    game = parse_game_text("x := * ; ?x >= 0 ; {y := *}^d")
    menu = DemonMenu({"x": ["2", "0", "1", "-1"]}, 2)
    lines = E._lines(game, E.DORMANT, close(strategy), State(), menu, E.Budget(1_000), None,
                     E._Transpositions())
    lines = [(type(o).__name__, o.state, E._trail(path)) for o, path in lines]
    cex = verify_exhaustive(game, E.DORMANT, close(strategy), [State()], post, menu)
    return lines, cex and (type(cex.outcome).__name__, cex.outcome.state, cex.trace)


def _angel_picks(term):  # at the test: evidence in, then y := term
    return R.ProofLam("h", parse_formula_text("x >= 0"), R.Pair(R.TermVal(term), R.Unit()))


def test_the_assertion_register_is_only_an_optimization(all_theorems, monkeypatch):
    # applying every asserted test's evidence through `_app_rz`, as the
    # engine did before it kept the last application to a ProofLam, plays
    # the same; so do hand-built strategies whose closure at a Demon test
    # is one ProofLam for every x, or an IfTerm on x between two ProofLams
    # that continue differently, which the register must never serve
    oracle = ArithOracle()
    at_test = R.IfTerm(parse_formula_text("x >= 1"), _angel_picks(S.lit(1)), _angel_picks(S.lit(0)))
    strategies = [R.NumLamR("x", at_test), R.NumLamR("x", _angel_picks(S.Var("x")))]
    post = parse_formula_text("y = 1")
    concede = ("DemonViolation", State({"x": -1}), ("demon-value x -1", "demon-test concede"))
    expected = [  # (each line, verify's counterexample), as before the register
        ([*(("Finished", State({"x": x, "y": int(x >= 1)}), (f"demon-value x {x}",))
            for x in (2, 0, 1)), concede],
         ("Finished", State({"x": 0, "y": 0}), ("demon-value x 0",))),
        ([*(("Finished", State({"x": x, "y": x}), (f"demon-value x {x}",)) for x in (2, 0, 1)),
          concede],
         ("Finished", State({"x": 2, "y": 2}), ("demon-value x 2",))),
    ]

    def observed():
        return _observed(all_theorems, oracle), [_register_lines(s, post) for s in strategies]

    kept = observed()
    assert kept[1] == expected

    def every(reg, rz, env, state, budget):
        applied.append(rz)
        return E._app_rz(rz, env, E._UNIT, E._EMPTY, state, budget)

    applied = []
    monkeypatch.setattr(E, "_assertion", every)
    assert observed() == kept
    assert applied
