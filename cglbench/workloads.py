"""The four workloads, the negative control and the soundness reproducers.

A workload prepares what it plays (`prepare`, part of set-up), generates
each operation's input (`make_input`, untimed), runs the operation through
a layer object (`run_op`, timed) and checks the outputs against answers
the benchmark computes itself (`check_op`, untimed).  `reproducers` are
cheap extra operations that fail today because of known kernel faults;
each returns True when the kernel behaves correctly.
"""

from __future__ import annotations

import json
from functools import partial
from fractions import Fraction

from cgl import ArithOracle, Checker, Context, DemonMenu, ScriptedDemon, State, close, step
from cgl import syntax as S
from cgl.cli import corpus_path
from cgl.engine import Finished, Tracer, modal_core, strip_assumptions
from cgl.normalizer import normalize
from cgl.oracle import REFUTED, VALID

from . import inputs as I
from . import models as M
from .layers import Plain


class Mismatch(Exception):
    """An output of the program disagrees with its known answer."""


def expect(cond, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


def strategy(lay, script, name):
    """Check and extract a theorem as `cgl extract` does: (phi, realizer)."""
    phi, m = script.theorems[name]
    err = lay.check(phi, m)
    expect(err is None, f"{name} rejected: {err}")
    return phi, lay.extract(m, phi)


def start(phi, rz, state: State):
    """(game, role, closure, state, post) for playing rz from state."""
    stripped = strip_assumptions(phi, close(rz), state)
    expect(stripped is not None, f"a hypothesis fails at {state!r}")
    core, cl = stripped
    game, role, post = modal_core(core)
    return game, role, cl, state, post


def final_state(out) -> State:
    expect(isinstance(out, Finished), f"play ended in {type(out).__name__}")
    return out.state


def as_int(v: Fraction) -> int:
    expect(v.denominator == 1, f"counter {v} is not an integer")
    return int(v)


# ---------------------------------------------------------------------------
# Soundness holes A-C (ROADMAP Open item 1), kept as operations that count
# as failed until the kernel is fixed.  Their inputs never depend on the
# seed.

HOLE_A = r"""
theorem bad : ((forall x x < x) -> y > 0) -> y > 0 =
  \h : (forall x x < x) -> y > 0. FO[y > 0](h)
"""

HOLES_BC = r"""
formula Goal = (y = 0 & x <= 0) | (y = 1 & x > 0)
theorem stale : [x := * ; {x := x + 1 ; {y := 0 ++ y := 1}^d}] Goal =
  seqb (\x : Q as xg. seqb asgnb x (x0, h.
    yieldb (case split(x, 0) of
      l. inl asgnd y (y0, k. FO[Goal](l, k))
    | r. inr asgnd y (y1, k. FO[Goal](r, k)))))

theorem oldval : x = 3 -> [x := * ; {z := *}^d] z = 3 =
  \h : x = 3. seqb (\x : Q as x0. yieldb wit z := x0 (z0, k. FO[z = 3](h, k)))
"""


def hole_a():
    """A: y = 0 falsifies `bad` (the premise is vacuously true, y > 0 is
    not), so the checker must reject it."""
    phi, m = Plain().parse(HOLE_A).theorems["bad"]
    return lambda: Checker(ArithOracle()).check_result(Context(), m, phi) is not None


def holes_bc():
    """B: from any x the strategy can read x + 1 and pick y, so no line of
    `stale` loses; C: `oldval` must set z to the old x = 3 whatever the
    adversary writes into x."""
    plain = Plain()
    script = plain.parse(HOLES_BC)
    out = []
    for name, state, menu in (
        ("stale", State(), {"x": ["-1/2"]}),
        ("oldval", State({"x": 3}), {"x": ["0", "7"]}),
    ):
        phi, rz = strategy(plain, script, name)
        game, role, cl, st, post = start(phi, rz, state)
        out.append(partial(_wins, plain, (game, role, cl, st, post), DemonMenu(menu, 4)))
    return out


def _wins(lay, position, menu) -> bool:
    return lay.verify(*position, menu, 1) is None


# ---------------------------------------------------------------------------
# certify: parse, check and extract the whole corpus, decide sequents


class Certify:
    # sequents per operation: valid ones over 3 variables, false ones over
    # 2, where the oracle's witness grid has 17^2 points; over 3 variables
    # the search cost spreads from 1 to 90 ms per sequent
    SEQ_VALID, SEQ_FALSE, SEQ_HYPS = 12, 12, 4

    def __init__(self, seed: int):
        self.seed = seed
        self.text = I.corpus_text() + I.FALSE_THEOREMS
        self.reproducers = [hole_a()]

    def prepare(self, lay):
        names = list(lay.parse(self.text).theorems)
        self.accept = [n for n in names if not n.startswith("false")]
        self.reject = [n for n in names if n.startswith("false")]

    def make_input(self, i: int):
        prefix = f"s{self.seed}n{i}_"
        names = [f"{prefix}v{j}" for j in range(3)]
        rng = I.rng_for(self.seed, "sequents", i)
        return {
            "text": I.rename_apart(self.text, prefix),
            "sequents": I.sequent_batch(rng, names, self.SEQ_VALID, self.SEQ_HYPS, True)
            + I.sequent_batch(rng, names[:2], self.SEQ_FALSE, self.SEQ_HYPS, False),
        }

    def run_op(self, lay, inp):
        script = lay.parse(inp["text"])
        verdicts = {}
        for name, (phi, m) in script.theorems.items():
            err = lay.check(phi, m)
            verdicts[name] = (err, None if err else lay.extract(m, phi))
        return verdicts, lay.decide_all(inp["sequents"])

    def check_op(self, inp, out):
        verdicts, answers = out
        expect(len(verdicts) == len(self.accept) + len(self.reject), "theorems lost")
        for name in self.accept:
            err, rz = verdicts[name]
            expect(err is None and rz is not None, f"{name} rejected: {err}")
        for name in self.reject:
            expect(verdicts[name][0] is not None, f"false theorem {name} accepted")
        for s, res in zip(inp["sequents"], answers, strict=True):
            if res.status == VALID:
                expect(s["valid"], f"VALID for a sequent false at {s['point']}")
            elif res.status == REFUTED:
                w = res.witness
                expect(w is not None, "REFUTED without a witness")
                point = [w.get(v) for v in s["names"]]
                expect(M.falsifies(s["rho_data"], s["goal_data"], point),
                       f"witness {w!r} does not falsify its sequent")


# ---------------------------------------------------------------------------
# reduce: normalize every corpus proof inside a stack of identity redexes


class Reduce:
    PER_KIND = 6  # wrappers of each of the 5 kinds around every proof

    def __init__(self, seed: int):
        self.seed = seed
        self.reproducers = []
        self.check_oracle = ArithOracle()  # the benchmark's own re-checks

    def prepare(self, lay):
        script = lay.parse(I.corpus_text())
        self.theorems = list(script.theorems.items())
        for name, (phi, m) in self.theorems:
            err = lay.check(phi, m)
            expect(err is None, f"{name} rejected: {err}")
        self.normal = {name: normalize(m)[0] for name, (_, m) in self.theorems}

    def make_input(self, i: int):
        rng = I.rng_for(self.seed, "wrap", i)
        return [(name, phi, *I.wrap_stack(rng, phi, m, self.PER_KIND))
                for name, (phi, m) in self.theorems]

    def run_op(self, lay, inp):
        return [lay.normalize(w) for _, _, w, _ in inp]

    def check_op(self, inp, out):
        for (name, phi, _, planted), (nf, steps, _) in zip(inp, out, strict=True):
            expect(nf == self.normal[name], f"{name}: wrappers change the normal form")
            expect(steps >= planted, f"{name}: {steps} steps for {planted} redexes")
            expect(step(nf) is None, f"{name}: normal form still steps")
            err = Checker(self.check_oracle).check_result(Context(), nf, phi)
            expect(err is None, f"{name}: normal form fails to check: {err}")


# ---------------------------------------------------------------------------
# verify: exhaust dNim, aNim and dCake against finite adversary menus


class Verify:
    DNIM_START, DNIM_DEPTH, ANIM_START, CAKE_CUTS = 29, 12, 30, 2000

    def __init__(self, seed: int):
        self.seed = seed
        self.reproducers = holes_bc()
        # the theorems' claims, by minimax: the adversary moves first in
        # dNim and must lose, aNim's strategy moves first and must win
        expect(not M.nim_mover_wins(self.DNIM_START), "dNim start is not lost")
        expect(M.nim_mover_wins(self.ANIM_START), "aNim start is not won")
        self.dnim_lines, ok_d = M.dnim_lines(self.DNIM_START, self.DNIM_DEPTH)
        self.anim_lines, ok_a = M.anim_lines(self.ANIM_START)
        expect(ok_d and ok_a, "a Nim strategy loses in the model")

    def prepare(self, lay):
        nim = lay.parse(I.corpus_file("nim.cgl"))
        cake = lay.parse(I.corpus_file("cake.cgl"))
        self.dnim = start(*strategy(lay, nim, "dNim"), State({"c": self.DNIM_START}))
        self.anim = start(*strategy(lay, nim, "aNim"), State({"c": self.ANIM_START}))
        self.dcake = start(*strategy(lay, cake, "dCake"), State())
        self.nim_menu = DemonMenu({}, self.DNIM_DEPTH)

    def make_input(self, i: int):
        cuts = I.cake_menu(I.rng_for(self.seed, "cake", i), self.CAKE_CUTS)
        return cuts, DemonMenu({"x": [str(x) for x in cuts]}, 4)

    def run_op(self, lay, inp):
        _, cake_menu = inp
        return [
            lay.verify(*self.dnim, self.nim_menu, self.dnim_lines),
            lay.verify(*self.anim, self.nim_menu, self.anim_lines),
            lay.verify(*self.dcake, cake_menu, self.CAKE_CUTS),
        ]

    def check_op(self, inp, out):
        cuts, _ = inp
        expect(all(M.chooser_piece(x) >= M.HALF for x in cuts if M.is_cut(x)),
               "a cut leaves the chooser less than half")
        for name, cex in zip(("dNim", "aNim", "dCake"), out, strict=True):
            expect(cex is None, f"{name} loses: {cex}")


# ---------------------------------------------------------------------------
# play: long single plays with a tracer, against seeded scripted adversaries


class Play:
    ROUNDS, ANIM_START, SHORT = 999, 4000, 40

    def __init__(self, seed: int):
        self.seed = seed
        self.reproducers = []
        self.dnim_start = 4 * self.ROUNDS + 1

    def prepare(self, lay):
        nim = lay.parse(I.corpus_file("nim.cgl"))
        cake = lay.parse(I.corpus_file("cake.cgl"))
        basics = lay.parse(I.corpus_file("basics.cgl"))
        self.dnim = start(*strategy(lay, nim, "dNim"), State({"c": self.dnim_start}))
        self.anim = start(*strategy(lay, nim, "aNim"), State({"c": self.ANIM_START}))
        self.dcake = start(*strategy(lay, cake, "dCake"), State())
        self.acake = start(*strategy(lay, cake, "aCake"), State())
        self.sign = start(*strategy(lay, basics, "signFlip"), State())

    def make_input(self, i: int):
        rng = I.rng_for(self.seed, "play", i)
        dk = I.balanced_moves(rng, self.ROUNDS)
        ak = I.balanced_moves(rng, self.ROUNDS, last=1)
        cuts = I.cuts(rng, self.SHORT)
        sides = ["L", "R"] * (self.SHORT // 2)
        rng.shuffle(sides)
        signs = I.signs(rng, self.SHORT)
        plays = [(self.dnim, I.dnim_script(dk)), (self.anim, I.anim_script(ak))]
        plays += [(self.dcake, [str(x), "assert"]) for x in cuts]
        plays += [(self.acake, [s]) for s in sides]
        plays += [(self.sign, [str(v)]) for v in signs]
        return {"dk": dk, "ak": ak, "cuts": cuts, "signs": signs,
                "plays": [(pos, ScriptedDemon(script)) for pos, script in plays]}

    def run_op(self, lay, inp):
        out = []
        for (game, role, cl, state, _), demon in inp["plays"]:
            out.append(lay.play(game, role, cl, state, demon, Tracer()))
        return out

    def check_op(self, inp, out):
        n = self.SHORT
        ends = [final_state(o) for o in out]
        c = as_int(ends[0].get("c"))
        expect(c == M.dnim_play(self.dnim_start, inp["dk"]) and c % 4 == 1,
               f"dNim ends at c={c}")
        c = as_int(ends[1].get("c"))
        expect(c == M.anim_play(self.ANIM_START, inp["ak"]) and c in (2, 3, 4),
               f"aNim ends at c={c}")
        for x, st in zip(inp["cuts"], ends[2:2 + n], strict=True):
            d = st.get("d")
            expect(d == M.chooser_piece(x) and d >= M.HALF, f"dCake: cut {x}, d={d}")
        for st in ends[2 + n:2 + 2 * n]:
            expect(st.get("a") == M.HALF, f"aCake: a={st.get('a')}")
        for v, st in zip(inp["signs"], ends[2 + 2 * n:], strict=True):
            x = st.get("x")
            expect(x == abs(v) and x >= 0, f"signFlip: {v} became {x}")


WORKLOADS = {"certify": Certify, "reduce": Reduce, "verify": Verify, "play": Play}


# ---------------------------------------------------------------------------
# Negative control, run once by every workload after its timed phase


def control(lay):
    """dCake's strategy must lose against d >= 1/2 + 1/100 on the bundled
    cake menu; the counterexample is replayed as a traced single play.
    Also normalizes dCake inside one wrapper of each kind."""
    cake = lay.parse(I.corpus_file("cake.cgl"))
    phi, rz = strategy(lay, cake, "dCake")
    m = cake.theorems["dCake"][1]
    wrapped, _ = I.wrap_stack(I.rng_for(0, "control"), phi, m, 1)
    expect(lay.normalize(wrapped)[0] == normalize(m)[0], "control: wrappers stay")

    with open(corpus_path("cake_menu.json"), "r", encoding="utf-8") as fh:
        values = json.load(fh)["values"]["x"]
    cuts = [Fraction(v) for v in values]
    bound = Fraction(1, 2) + Fraction(1, 100)
    first = next(i for i, x in enumerate(cuts) if M.chooser_piece(x) < bound)
    game, role, cl, st, _ = start(phi, rz, State())
    post = S.Cmp(S.Var("d"), ">=", S.Plus(S.lit("1/2"), S.lit("1/100")))
    cex = lay.verify(game, role, cl, st, post, DemonMenu({"x": values}, 4), first + 1)
    expect(cex is not None, "control: no counterexample against d >= 51/100")
    want = M.chooser_piece(cuts[first])
    expect(final_state(cex.outcome).get("d") == want, f"control: {cex}")
    replay = lay.play(game, role, cl, st, ScriptedDemon([values[first], "assert"]), Tracer())
    expect(final_state(replay).get("d") == want, "control: replay disagrees")
