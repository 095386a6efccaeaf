"""Tests of the benchmark's generators and independent models, at small sizes.

    python3 -m pytest cglbench -q
"""

from fractions import Fraction

import pytest

from cgl import ArithOracle, Checker, Context, ScriptedDemon, State, normalize, parse_script
from cgl.engine import DemonViolation, Finished
from cgl.oracle import REFUTED, VALID

from cglbench import inputs as I
from cglbench import models as M
from cglbench.layers import Plain, count_nodes, rule_family
from cglbench.workloads import start, strategy

BRANCH = {1: ["L"], 2: ["R", "L"], 3: ["R", "R"]}


@pytest.fixture(scope="module")
def nim():
    plain = Plain()
    script = plain.parse(I.corpus_file("nim.cgl"))
    return {name: strategy(plain, script, name) for name in ("dNim", "aNim")}


def test_minimax_loses_exactly_at_one_mod_four():
    assert [c for c in range(1, 41) if not M.nim_mover_wins(c)] == list(range(1, 41, 4))


def test_dnim_lines_by_hand():
    assert M.dnim_lines(1, 0) == (1, True)  # stop at once
    assert M.dnim_lines(1, 1) == (4, True)  # stop, or one of 3 moves that fail the test
    assert M.dnim_lines(5, 1) == (4, True)  # stop, or 3 moves the strategy answers
    assert M.dnim_lines(5, 2) == (13, True)
    assert M.dnim_lines(6, 1) == (4, False)  # the goal fails at once


def test_anim_lines_by_hand():
    assert M.anim_lines(4) == (1, True)  # the strategy stops at once
    assert M.anim_lines(6) == (3, True)  # to 5, then 3 adversary moves to 4, 3, 2
    assert M.anim_lines(10) == (9, True)


def _dnim_scripts(c, it, depth):
    yield ["stop"]
    if it < depth:
        for k in M.MOVES:
            head = ["continue", *BRANCH[k], "assert"]
            if c - k <= 0:
                yield head
            else:
                for rest in _dnim_scripts(c - 4, it + 1, depth):
                    yield head + rest


def _anim_scripts(c):
    if (c - 2) // 4 == 0:
        yield []
        return
    c1 = c - M.anim_move(c)
    for k in M.MOVES:
        for rest in _anim_scripts(c1 - k):
            yield [*BRANCH[k], "assert"] + rest


def _play_all(position, scripts):
    game, role, cl, state, post = position
    ends = []
    for script in scripts:
        out = Plain().play(game, role, cl, state, ScriptedDemon(script), None)
        assert isinstance(out, (Finished, DemonViolation)), out
        ends.append(out)
    return ends


@pytest.mark.parametrize("c,depth", [(5, 2), (9, 3)])
def test_dnim_line_count_matches_engine_plays(nim, c, depth):
    position = start(*nim["dNim"], State({"c": c}))
    ends = _play_all(position, _dnim_scripts(c, 0, depth))
    assert len(ends) == M.dnim_lines(c, depth)[0]
    assert all(o.state.get("c") % 4 == 1 for o in ends if isinstance(o, Finished))


@pytest.mark.parametrize("c", [10, 15])
def test_anim_line_count_matches_engine_plays(nim, c):
    position = start(*nim["aNim"], State({"c": c}))
    ends = _play_all(position, _anim_scripts(c))
    assert len(ends) == M.anim_lines(c)[0]
    assert all(isinstance(o, Finished) and o.state.get("c") in (2, 3, 4) for o in ends)


def test_long_plays_end_where_the_model_says(nim):
    rng = I.rng_for(0, "test")
    dk = I.balanced_moves(rng, 30)
    ak = I.balanced_moves(rng, 30, last=1)
    assert sorted(dk) == sorted(ak) == [1] * 10 + [2] * 10 + [3] * 10 and ak[-1] == 1
    for name, c0, script, want in (
        ("dNim", 121, I.dnim_script(dk), M.dnim_play(121, dk)),
        ("aNim", 124, I.anim_script(ak), M.anim_play(124, ak)),
    ):
        game, role, cl, state, _ = start(*nim[name], State({"c": c0}))
        out = Plain().play(game, role, cl, state, ScriptedDemon(script), None)
        assert isinstance(out, Finished) and out.state.get("c") == want


def test_sequents_have_their_planted_answers():
    rng = I.rng_for(0, "sequents")
    names = ["v0", "v1", "v2"]
    valid = I.sequent_batch(rng, names, 20, 4, True)
    false = I.sequent_batch(rng, names[:2], 20, 4, False)
    grid = [[Fraction(a, 2), Fraction(b, 3), Fraction(c)]
            for a in range(-6, 7) for b in range(-6, 7) for c in range(-3, 4)]
    for s in valid:
        assert not any(M.falsifies(s["rho_data"], s["goal_data"], p) for p in grid)
        assert ArithOracle().decide(s["rho"], s["goal"]).status == VALID
    for s in false:
        assert M.falsifies(s["rho_data"], s["goal_data"], s["point"])
        res = ArithOracle().decide(s["rho"], s["goal"])
        assert res.status == REFUTED
        witness = [res.witness.get(v) for v in s["names"]]
        assert M.falsifies(s["rho_data"], s["goal_data"], witness)


def test_renamed_corpus_checks_with_every_name_prefixed():
    text = I.rename_apart(I.corpus_file("nim.cgl") + I.corpus_file("cake.cgl"), "k7_")
    assert "Half^d" in text and "k7_c := k7_c - 1" in text
    script = parse_script(text)
    assert set(script.theorems) == {"dNim", "aNim", "aCake", "dCake"}
    for phi, m in script.theorems.values():
        assert Checker().check_result(Context(), m, phi) is None


def test_false_theorems_are_rejected():
    script = parse_script(I.corpus_file("cake.cgl") + I.FALSE_THEOREMS)
    for name in ("falseStep", "falseResidue", "falseShare"):
        phi, m = script.theorems[name]
        assert Checker().check_result(Context(), m, phi) is not None


@pytest.mark.parametrize("kind", I.REDEX_KINDS)
def test_each_wrapper_checks_and_reduces_back(kind):
    script = parse_script(I.corpus_file("basics.cgl"))
    for name in ("pairProj", "absFold", "signFlip"):
        phi, m = script.theorems[name]
        w = I.wrap(kind, phi, m, "_t")
        assert Checker().check_result(Context(), w, phi) is None
        nf, steps, _ = normalize(w)
        assert nf == normalize(m)[0]
        assert steps >= I.PLANTED[kind]


def test_wrap_stack_plants_every_kind():
    phi, m = parse_script(I.corpus_file("basics.cgl")).theorems["applyId"]
    w, planted = I.wrap_stack(I.rng_for(0, "stack"), phi, m, 2)
    assert planted == 2 * sum(I.PLANTED.values())
    nf, steps, trace = normalize(w)
    assert steps >= planted and nf == normalize(m)[0]
    assert {rule_family(r) for r, _ in trace} <= {"beta", "mon", "commute", "struct"}
    assert count_nodes(w) > count_nodes(nf)


def test_cake_menu_is_distinct_and_mostly_cuts():
    cuts = I.cake_menu(I.rng_for(0, "cake"), 500)
    assert len(set(cuts)) == 500
    inside = sum(M.is_cut(x) for x in cuts)
    assert 400 < inside < 500


def test_rule_family():
    assert [rule_family(r) for r in ("case-beta-L", "lam-phi-beta", "dpair-mon",
                                     "app-C1", "mon-C", "app-S2", "proj1-S")] == [
        "beta", "beta", "mon", "commute", "commute", "struct", "struct"]
