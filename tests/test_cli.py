"""Command-line contract: exit codes, diagnostics, goldens."""

import hashlib
import json
import sys

import pytest

from cgl import extraction, selftest
from cgl.checker import accepted
from cgl.cli import corpus_path, main
from cgl.proofterms import Context


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_corpus_ok(capsys):
    code, out, _ = run(capsys, "check", corpus_path("nim.cgl"))
    assert code == 0
    assert "dNim: ok" in out and "aNim: ok" in out


def test_selftest_passes_and_reuses_its_checks(capsys, monkeypatch):
    # `cgl test` extracts each strategy it verifies long after its check,
    # and the realizer that check left on the proof is the one it gets
    reused = []

    def extract(m, phi, **kwargs):
        reused.append(accepted(Context(), m, phi) is not None)
        return extraction.extract(m, phi, **kwargs)

    monkeypatch.setattr(selftest, "extract", extract)
    assert run(capsys, "test", "--quiet") == (0, "all tests passed\n", "")
    assert reused == [True] * 4


def test_check_rejects_corruption(tmp_path, capsys):
    from conftest import corpus_text

    # swap the mirroring moves: subtract 1 where the proof must subtract 2
    bad = corpus_text("nim.cgl").replace(
        "l2. inr inl asgnd c (g5, c.", "l2. inl asgnd c (g5, c.", 1
    )
    f = tmp_path / "bad.cgl"
    f.write_text(bad)
    code, out, _ = run(capsys, "check", str(f))
    assert code == 1
    assert "dNim:" in out and "Oracle" in out


def test_check_json_diagnostics(tmp_path, capsys):
    f = tmp_path / "bad.cgl"
    f.write_text("theorem t : x > 0 = FO[x > 0]()")
    code, out, _ = run(capsys, "check", "--json", str(f))
    assert code == 1
    data = json.loads(out[out.index("{"):])
    assert data["errors"][0]["kind"] in ("OracleRefuted", "OracleIncomplete")
    assert "path" in data["errors"][0]


def test_usage_error_exit_2(tmp_path, capsys):
    f = tmp_path / "oops.cgl"
    f.write_text("theorem broken : = ")
    code, _out, err = run(capsys, "check", str(f))
    assert code == 2
    assert ":" in err  # line:col position


def test_malformed_number_exit_2(tmp_path, capsys):
    f = tmp_path / "zero.cgl"
    f.write_text("theorem t : x = 1/0 -> tt = \\h : x = 1/0. FO[tt]()")
    code, _out, err = run(capsys, "check", str(f))
    assert code == 2
    assert err.splitlines() == [f"cgl check: {f}:1:17: 1/0: denominator 0"]


def test_missing_file_exit_2(tmp_path, capsys):
    undecodable = tmp_path / "latin1.cgl"
    undecodable.write_bytes("theorem caf\xe9 : tt = FO[tt]()".encode("latin-1"))
    for path in ("/nonexistent/x.cgl", str(undecodable)):
        code, _out, err = run(capsys, "check", path)
        assert code == 2 and len(err.splitlines()) == 1, err


def test_normalize_trace(capsys):
    code, out, _ = run(
        capsys, "normalize", corpus_path("basics.cgl"), "--theorem", "unrollRep",
        "--trace",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert any("unroll-beta" in l and " at " in l for l in lines)
    assert "normal after 3 steps" in lines[-1]


def test_play_golden_trace(capsys):
    argv = (
        "play", corpus_path("nim.cgl"), "--theorem", "dNim",
        "--demon", "random:42", "--state", "c=9",
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == 0 and out1 == out2
    assert out1.splitlines()[-1].endswith("holds")
    assert "demon-loop" in out1
    # recorded before play and verify shared one machine
    assert hashlib.sha256(out1.encode()).hexdigest()[:16] == "67238fd4061012e8"


def test_play_reports_goal(capsys):
    code, out, _ = run(
        capsys, "play", corpus_path("cake.cgl"), "--theorem", "aCake",
        "--demon", "random:7",
    )
    assert code == 0
    assert "goal a >= 1/2 holds" in out


def test_verify_nim_small(capsys):
    code, out, _ = run(
        capsys, "verify", corpus_path("nim.cgl"), "--theorem", "dNim",
        "--menu", corpus_path("nim_menu.json"),
        "--state", "c=5", "--state", "c=9",
    )
    assert code == 0
    assert out.count("all demon lines win") == 2


def test_verify_cake(capsys):
    code, out, _ = run(
        capsys, "verify", corpus_path("cake.cgl"), "--theorem", "dCake",
        "--menu", corpus_path("cake_menu.json"),
    )
    assert code == 0


def test_verify_parses_its_menu_once(capsys, monkeypatch):
    # each menu value is parsed where the menu is read, not again by the
    # verify of each --state
    from cgl import cli, engine
    from cgl.rational import parse_rational

    parsed = []

    def counted(text):
        parsed.append(text)
        return parse_rational(text)

    monkeypatch.setattr(cli, "parse_rational", counted)
    monkeypatch.setattr(engine, "parse_rational", counted)
    code, out, err = run(
        capsys, "verify", corpus_path("cake.cgl"), "--theorem", "dCake",
        "--menu", corpus_path("cake_menu.json"), "--state", "c=5", "--state", "c=7",
    )
    assert (code, err) == (0, "")
    assert out == ("state State(c=5): all demon lines win\n"
                   "state State(c=7): all demon lines win\n")
    with open(corpus_path("cake_menu.json"), encoding="utf-8") as fh:
        values = json.load(fh)["values"]["x"]
    assert sorted(parsed) == sorted([*values, "5", "7"])


def test_extract_emit(tmp_path, capsys):
    out_file = tmp_path / "strategy.json"
    code, out, _ = run(
        capsys, "extract", corpus_path("cake.cgl"), "--theorem", "dCake",
        "--emit-realizer", str(out_file),
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["node"] in ("NumLamR", "ProofLam", "Pair", "Compose", "Decide")

    from cgl.interchange import realizer_from_json

    realizer_from_json(data)  # parses back


def test_extract_unwritable_output_exit_2(tmp_path, capsys):
    for out_file in (tmp_path / "missing" / "strategy.json", tmp_path):
        code, out, err = run(
            capsys, "extract", corpus_path("cake.cgl"), "--theorem", "dCake",
            "--emit-realizer", str(out_file),
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"cgl extract: cannot write {out_file}: ")


def test_play_script_demon(tmp_path, capsys):
    script = tmp_path / "demon.json"
    script.write_text(json.dumps(["continue", "L", "assert", "stop"]))
    code, out, _ = run(
        capsys, "play", corpus_path("nim.cgl"), "--theorem", "dNim",
        "--demon", f"script:{script}", "--state", "c=9",
    )
    assert code == 0
    assert "assign c 8" in out and "assign c 5" in out


def test_outputs_byte_stable(capsys):
    runs = []
    for _ in range(2):
        chunks = []
        for argv in (
            ("check", corpus_path("nim.cgl")),
            ("check", corpus_path("cake.cgl")),
            ("normalize", corpus_path("basics.cgl"), "--trace"),
            ("verify", corpus_path("nim.cgl"), "--theorem", "dNim",
             "--menu", corpus_path("nim_menu.json"), "--state", "c=5"),
        ):
            code = main(list(argv))
            assert code == 0
            chunks.append(capsys.readouterr().out)
        runs.append("".join(chunks))
    assert runs[0] == runs[1]


def test_interactive_demon_protocol(capsys):
    from cgl.engine import InteractiveDemon, play, close, ACTIVE, Finished
    from cgl import syntax as S
    from cgl import realizer as R

    answers = iter(["-5"])
    lines = []
    demon = InteractiveDemon(write=lines.append, read=lambda: next(answers))
    game = S.Seq(
        S.Dual(S.AssignAny("x")),
        S.Choice(S.Assign("x", S.Var("x")), S.Assign("x", S.Neg(S.Var("x")))),
    )
    rz = R.NumLamR(
        "v",
        R.IfTerm(
            S.Cmp(S.Var("x"), "<", S.lit(0)),
            R.Pair(R.TermVal(S.lit(1)), R.Unit()),
            R.Pair(R.TermVal(S.lit(0)), R.Unit()),
        ),
    )
    out = play(game, ACTIVE, close(rz), S.State(), demon)
    assert isinstance(out, Finished) and out.state.get("x") == 5
    assert any("demon value for x" in l for l in lines)


def test_interactive_play_subprocess():
    import subprocess
    import sys

    answers = "continue\nL\nassert\nstop\n"
    proc = subprocess.run(
        [sys.executable, "-m", "cgl.cli", "play", corpus_path("nim.cgl"),
         "--theorem", "dNim", "--demon", "interactive", "--state", "c=9"],
        input=answers, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "goal c mod 4 = 1 holds" in proc.stdout


def test_undefined_division_is_a_diagnostic(tmp_path, capsys):
    # the checker accepts the quotient; at y = 0 it has no value
    f = tmp_path / "divy.cgl"
    f.write_text("theorem divy : <x := 1 div y> tt = asgnd x (x0, h. FO[tt]())\n")
    menu = tmp_path / "menu.json"
    menu.write_text(json.dumps({"values": {}, "repeat_depth": 2}))
    assert run(capsys, "check", str(f))[0] == 0
    for argv in (
        ("play", str(f), "--state", "y=0"),
        ("verify", str(f), "--menu", str(menu), "--state", "y=0"),
    ):
        code, _out, err = run(capsys, *argv)
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert "evaluates to 0" in err and "Traceback" not in err


def test_disjunctive_hypothesis_gets_its_evidence(tmp_path, capsys):
    # the strategy cases on the hypothesis, so it needs a decision, not a unit
    f = tmp_path / "okName.cgl"
    f.write_text(
        "theorem okName : (x > 0 | x <= 0) -> [w := * ; {z := 1 ++ z := 2}^d] z > 0 =\n"
        "  \\h : (x > 0 | x <= 0). seqb (\\w : Q as w0. yieldb (case h of\n"
        "    l. inl asgnd z (z0, k. FO[z > 0](k))\n"
        "  | r. inr asgnd z (z1, k. FO[z > 0](k))))\n"
    )
    menu = tmp_path / "menu.json"
    menu.write_text(json.dumps({"values": {"w": ["5"]}}))
    assert run(capsys, "check", str(f))[0] == 0
    for x, z in (("1", "1"), ("-1", "2")):
        code, out, err = run(capsys, "play", str(f), "--state", f"x={x}")
        assert (code, err) == (0, "")
        assert f"assign z {z}" in out
        code, out, err = run(capsys, "verify", str(f), "--menu", str(menu),
                             "--state", f"x={x}")
        assert (code, err) == (0, "")
        assert "all demon lines win" in out


def test_ill_structured_strategy_is_a_diagnostic(tmp_path, capsys, monkeypatch):
    import cgl.cli
    from cgl import realizer as R

    f = tmp_path / "t.cgl"
    f.write_text("theorem t : <x := *> x = 1 = wit x := 1 (x0, h. FO[x = 1](h))\n")
    menu = tmp_path / "menu.json"
    menu.write_text(json.dumps({"values": {}}))
    monkeypatch.setattr(cgl.cli, "extract", lambda proof, phi: R.Unit())
    for argv in (("play", str(f)), ("verify", str(f), "--menu", str(menu))):
        code, _out, err = run(capsys, *argv)
        assert code == 1
        assert err == f"cgl {argv[0]}: ill-structured strategy: expected a pair, got Unit\n"


def test_check_rejects_negated_forall_hypothesis(tmp_path, capsys):
    f = tmp_path / "bad.cgl"
    f.write_text(
        "theorem bad : ((forall x x < x) -> y > 0) -> y > 0 =\n"
        "  \\h : (forall x x < x) -> y > 0. FO[y > 0](h)\n"
    )
    code, out, _ = run(capsys, "check", str(f))
    assert code == 1
    assert out.splitlines() == [
        f"{f}: bad: body: OracleIncomplete: FO: cannot certify y > 0 under "
        "forall x x < x -> y > 0 (quantified sequent: no certificate; witness search skipped)"
    ]


def test_check_refutes_a_leaf_off_the_grid(tmp_path, capsys):
    # every counter-model is non-integer and has x + y = 1
    f = tmp_path / "share.cgl"
    f.write_text(
        "theorem share : x <= 1/2 & x + y = 1 & d = y -> d >= 3/5 =\n"
        "  \\h : x <= 1/2 & x + y = 1 & d = y. FO[d >= 3/5](h)\n"
    )
    code, out, _ = run(capsys, "check", str(f))
    assert code == 1
    assert out.startswith(f"{f}: share: body: OracleRefuted: FO: d >= 3/5 refuted at State(")
    assert out.endswith(" under x <= 1/2 & x + y = 1 & d = y\n")


STALE = """
formula Goal = (y = 0 & x <= 0) | (y = 1 & x > 0)
theorem stale : [x := * ; {x := x + 1 ; {y := 0 ++ y := 1}^d}] Goal =
  seqb (\\x : Q as xg. seqb asgnb x (x0, h.
    yieldb (case split(x, 0) of
      l. inl asgnd y (y0, k. FO[Goal](l, k))
    | r. inr asgnd y (y1, k. FO[Goal](r, k)))))
"""


def test_verify_counterexample_outcome_is_readable(tmp_path, capsys, monkeypatch):
    import cgl.cli
    from cgl import realizer as R
    from cgl import syntax as S

    f = tmp_path / "stale.cgl"
    f.write_text(STALE)
    # a strategy that always sets y to 0, which loses once x > 0
    losing = R.NumLamR("x", R.Pair(R.TermVal(S.lit(0)), R.Unit()))
    monkeypatch.setattr(cgl.cli, "extract", lambda proof, phi: losing)
    menu = tmp_path / "menu.json"
    menu.write_text(json.dumps({"values": {"x": ["-1/2"]}, "repeat_depth": 4}))
    code, out, _ = run(capsys, "verify", str(f), "--menu", str(menu))
    assert code == 1
    outcome = [l for l in out.splitlines() if "outcome:" in l]
    assert len(outcome) == 1 and len(outcome[0]) < 200
    assert "finished State(x=1/2, y=0)" in outcome[0] and "FAILS" in outcome[0]
    assert "Finished(" not in out


def _one_line_usage_error(err, cmd):
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith(f"cgl {cmd}: ") and "Traceback" not in err


def test_bad_json_inputs_are_usage_errors(tmp_path, capsys):
    bad, listed = tmp_path / "bad.json", tmp_path / "list.json"
    bad.write_text('{"values": ')
    listed.write_text("[]")
    for menu in (bad, listed, tmp_path / "missing.json"):
        code, _out, err = run(
            capsys, "verify", corpus_path("nim.cgl"), "--theorem", "dNim", "--menu", str(menu),
        )
        assert code == 2
        _one_line_usage_error(err, "verify")
    code, _out, err = run(
        capsys, "play", corpus_path("nim.cgl"), "--theorem", "dNim", "--state", "c=9",
        "--demon", f"script:{bad}",
    )
    assert code == 2
    _one_line_usage_error(err, "play")


def test_deep_nesting_is_usage_error(tmp_path, capsys):
    f = tmp_path / "deep.cgl"
    f.write_text("theorem t : " + "(" * 1000 + "x > 0" + ")" * 1000 + " = FO[x > 0]()\n")
    code, _out, err = run(capsys, "check", str(f))
    assert code == 2
    _one_line_usage_error(err, "check")


def test_demon_spec_is_read_before_the_hypotheses(capsys):
    # without --state, c = 0 fails dNim's hypothesis c > 0; the bad spec is
    # still what is reported
    argv = ("play", corpus_path("nim.cgl"), "--theorem", "dNim", "--demon", "random:x")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    _one_line_usage_error(err, "play")
    assert "the seed is not an integer" in err, err


def _sum(n):
    return " + ".join(["x"] * n)


# sums that the parser builds in a loop, so that the first walk over them
# after parsing is what runs out of stack; 3,000 terms is several times
# the default recursion limit, so a walk overflows whether or not the
# interpreter counts C-level comparison frames against that limit
LONG_INPUTS = {
    "equation": f"theorem t : {_sum(3000)} = {_sum(3000)} = FO[{_sum(3000)} = {_sum(3000)}]()\n",
    "assignment": f"theorem t : <x := {_sum(3000)}> x = x = asgnd x (x0, h. FO[x = x]())\n",
}


@pytest.mark.parametrize("cmd", ["check", "play"])
@pytest.mark.parametrize("case", sorted(LONG_INPUTS))
def test_long_input_is_usage_error(case, cmd, tmp_path, capsys):
    f = tmp_path / "long.cgl"
    f.write_text(LONG_INPUTS[case])
    code, _out, err = run(capsys, cmd, str(f))
    assert (code, err) == (2, f"cgl {cmd}: input too deep to process\n")


def test_equation_of_a_330_term_sum_checks(tmp_path, capsys):
    # the depth at which comparing the two sides structurally overflowed
    # CPython 3.11's stack; interned syntax compares them by identity
    f = tmp_path / "sum.cgl"
    f.write_text(f"theorem t : {_sum(330)} = {_sum(330)} = FO[{_sum(330)} = {_sum(330)}]()\n")
    code, out, err = run(capsys, "check", str(f))
    assert (code, out, err) == (0, "t: ok\n", "")


def test_demon_value_is_read_from_the_state(tmp_path, capsys):
    # hole B: the demon's x must not shadow the x := x + 1 that follows it
    f = tmp_path / "stale.cgl"
    f.write_text(STALE)
    menu = tmp_path / "menu.json"
    menu.write_text(json.dumps({"values": {"x": ["-1/2", "0", "2"]}}))
    code, out, err = run(capsys, "verify", str(f), "--menu", str(menu), "--state", "x=0")
    assert (code, err) == (0, "") and "all demon lines win" in out


def test_demon_value_drops_an_earlier_number_of_its_name(tmp_path, capsys):
    # the ghost binds x to 5; the demon's x := * that follows must not be
    # read as that 5 (the strategy would play z := 5 against x = 7)
    f = tmp_path / "shadow.cgl"
    f.write_text(
        "theorem t : [x := * ; {z := *}^d] z = x =\n"
        "  ghost(x := 5; p. seqb (\\x : Q as x1. yieldb wit z := x (z0, k. FO[z = x](k))))\n"
    )
    menu = tmp_path / "menu.json"
    menu.write_text(json.dumps({"values": {"x": ["7"]}}))
    assert run(capsys, "check", str(f))[0] == 0
    code, out, err = run(capsys, "verify", str(f), "--menu", str(menu))
    assert (code, err) == (0, "") and "all demon lines win" in out


def test_numbers_leave_same_named_hypotheses_alone(tmp_path, capsys):
    # hole H: neither the demon's y nor the ghost g replaces the hypothesis
    # of the same name that the strategy cases on
    f = tmp_path / "names.cgl"
    f.write_text(
        "theorem okName : (x > 0 | x <= 0) -> [y := * ; {z := 1 ++ z := 2}^d] z > 0 =\n"
        "  \\y : (x > 0 | x <= 0). seqb (\\y : Q as y0. yieldb (case y of\n"
        "    l. inl asgnd z (z0, k. FO[z > 0](k))\n"
        "  | r. inr asgnd z (z1, k. FO[z > 0](k))))\n"
        "theorem ghostName : (x > 0 | x <= 0) -> <z := *> z > 0 =\n"
        "  \\g : (x > 0 | x <= 0). ghost(g := 1; p. case g of\n"
        "    l. wit z := 1 (z0, k. FO[z > 0](k))\n"
        "  | r. wit z := 2 (z1, k. FO[z > 0](k)))\n"
    )
    menu = tmp_path / "menu.json"
    menu.write_text(json.dumps({"values": {"y": ["5"]}}))
    assert run(capsys, "check", str(f))[0] == 0
    for x, z in (("1", "1"), ("-1", "2")):
        code, out, err = run(capsys, "verify", str(f), "--theorem", "okName", "--menu", str(menu),
                             "--state", f"x={x}")
        assert (code, err) == (0, "") and "all demon lines win" in out
        code, out, err = run(capsys, "play", str(f), "--theorem", "ghostName", "--state", f"x={x}")
        assert (code, err) == (0, "") and f"angel-value z {z}" in out


def test_verify_menu_without_values_is_usage_error(tmp_path, capsys):
    f = tmp_path / "stale.cgl"
    f.write_text(STALE)
    menu = tmp_path / "menu.json"
    for values in ({"y": ["1"]}, {"x": []}):  # no entry for x, or an empty one
        menu.write_text(json.dumps({"values": values}))
        code, out, err = run(capsys, "verify", str(f), "--menu", str(menu))
        assert code == 2 and out == ""
        assert err == "cgl verify: no menu values for x := *\n"


MODAL = "theorem modal : [x := 1] <y := 2> y = 2 = asgnb x (x0, h. asgnd y (y0, k. FO[y = 2](k)))\n"


def test_modal_postcondition_is_usage_error(tmp_path, capsys):
    f = tmp_path / "modal.cgl"
    f.write_text(MODAL)
    menu = tmp_path / "menu.json"
    menu.write_text(json.dumps({"values": {}}))
    assert run(capsys, "check", str(f))[0] == 0
    for argv in (("play", str(f)), ("verify", str(f), "--menu", str(menu))):
        code, _out, err = run(capsys, *argv)
        assert code == 2
        _one_line_usage_error(err, argv[0])
        assert "postcondition <y := 2>y = 2 is not first-order" in err


def test_theorem_without_game_is_usage_error(tmp_path, capsys):
    f = tmp_path / "fo.cgl"
    f.write_text("theorem t : x > 0 -> x > 0 = \\h : x > 0. FO[x > 0](h)\n")
    menu = tmp_path / "menu.json"
    menu.write_text(json.dumps({"values": {}}))
    for argv in (("play", str(f), "--state", "x=1"), ("verify", str(f), "--menu", str(menu))):
        code, _out, err = run(capsys, *argv)
        assert code == 2
        _one_line_usage_error(err, argv[0])
        assert "has no game to play" in err


# one bad number per input that reads one: (flag, its value or the JSON file
# it names, a part of the one-line message)
BAD_NUMBERS = {
    "state": ("--state", "x=abc", "--state x: 'abc' is not a number"),
    "state-division": ("--state", "x=1/0", "--state x: '1/0' is not a number"),
    "random-seed": ("--demon", "random:abc", "the seed is not an integer"),
    "menu-value": ("--menu", {"values": {"x": ["abc"]}}, "x: 'abc' is not a number"),
    "menu-depth": ("--menu", {"values": {}, "repeat_depth": "x"}, "bad repeat_depth 'x'"),
    "menu-depth-fraction": ("--menu", {"values": {}, "repeat_depth": 2.5}, "bad repeat_depth 2.5"),
    "menu-depth-negative": ("--menu", {"values": {}, "repeat_depth": -3}, "bad repeat_depth -3"),
    "menu-depth-bool": ("--menu", {"values": {}, "repeat_depth": True}, "bad repeat_depth True"),
    "menu-depth-string": ("--menu", {"values": {}, "repeat_depth": "4"}, "bad repeat_depth '4'"),
    "script-value": ("--demon", ["abc"], "'abc' is not a number"),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_bad_number_is_usage_error(case, tmp_path, capsys):
    flag, value, msg = BAD_NUMBERS[case]
    if not isinstance(value, str):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(value))
        value = str(path) if flag == "--menu" else f"script:{path}"
    cmd = "verify" if flag == "--menu" else "play"
    argv = (cmd, corpus_path("basics.cgl"), "--theorem", "signFlip", flag, value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    _one_line_usage_error(err, cmd)
    assert msg in err, err


@pytest.mark.parametrize("cmd", ["normalize", "play", "verify"])
@pytest.mark.parametrize("fuel", ["0", "-5", "ten"])
def test_fuel_must_be_a_positive_integer(cmd, fuel, capsys):
    argv = [cmd, corpus_path("nim.cgl"), "--theorem", "dNim", "--fuel", fuel]
    if cmd == "verify":
        argv += ["--menu", corpus_path("nim_menu.json")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    _one_line_usage_error(err, cmd)
    assert f"argument --fuel: {fuel!r} is not a positive integer" in err, err


def _nested_sum(depth):
    return "(x + " * depth + "x" + ")" * depth


def _sweep_input(shape, nodes):
    """A script of about `nodes` syntax nodes, long or deep in `shape`."""
    def chain(unit, unit_nodes, sep):
        return sep.join([unit] * (nodes // unit_nodes))

    if shape == "sum":
        return f"theorem t : <x := {chain('x', 2, ' + ')}> x = x = asgnd x (x0, h. FO[x = x]())\n"
    if shape == "and":
        conj = chain("x = x", 4, " & ")
        return f"theorem t : <x := 1> ({conj}) = asgnd x (x0, h. FO[{conj}]())\n"
    if shape == "seq":
        k = nodes // 5
        proof = "".join(f"seqd asgnd x (x{i}, h{i}. " for i in range(k - 1))
        proof += f"asgnd x (x{k}, h{k}. FO[tt]())" + ")" * (k - 1)
        return f"theorem t : <{chain('x := x + 1', 5, '; ')}> tt = {proof}\n"
    deep = chain(_nested_sum(150), 302, " + ")  # parentheses nested 150 deep
    return f"theorem t : <x := {deep}> x = x = asgnd x (x0, h. FO[x = x]())\n"


def test_200_step_proof_checks_and_plays(tmp_path, capsys):
    # 200 assignments in sequence and their natural proof, `seqd asgnd`
    # nested 200 deep, at the interpreter's own recursion limit
    f = tmp_path / "steps.cgl"
    f.write_text(_sweep_input("seq", 1_000))
    assert run(capsys, "check", str(f)) == (0, "t: ok\n", "")
    code, out, err = run(capsys, "play", str(f))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "finished State(x=200); goal tt holds"


@pytest.mark.parametrize("cmd", ["check", "normalize", "extract", "play", "verify"])
@pytest.mark.parametrize("nodes", [1_000, 10_000])
@pytest.mark.parametrize("shape", ["sum", "and", "seq", "parens"])
def test_size_sweep_ends_in_one_line_at_most(shape, nodes, cmd, tmp_path, capsys):
    # long sums, & chains and ; sequences, and sums nested 150 parentheses
    # deep: every command ends with a documented exit code and at most a
    # one-line diagnostic, at the interpreter's own recursion limit
    f, menu = tmp_path / "long.cgl", tmp_path / "menu.json"
    f.write_text(_sweep_input(shape, nodes))
    menu.write_text('{"values": {}}')
    limit = sys.getrecursionlimit()
    argv = [cmd, str(f)] + (["--menu", str(menu)] if cmd == "verify" else [])
    code, _out, err = run(capsys, *argv)
    assert code in (0, 1, 2) and len(err.splitlines()) <= 1, err
    assert "Traceback" not in err and sys.getrecursionlimit() == limit
