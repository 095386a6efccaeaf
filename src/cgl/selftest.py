"""Built-in corpus and property suite behind `cgl test`.

One pass/fail line per item; returns a process exit code.  The heavier
exhaustive enumerations live in the acceptance test suite; this command
keeps a representative, fast subset bundled with the tool.
"""

from __future__ import annotations

import random
from fractions import Fraction
from importlib import resources

from . import normalizer
from . import proofterms as P
from .checker import Checker
from .engine import (
    DemonMenu, close, modal_core, strip_assumptions, verify_exhaustive,
)
from .extraction import extract, extract_disjunct, extract_existential, validate_existential
from .parser import parse_script
from .printer import print_script
from .proofterms import Context
from .syntax import State


def _corpus(name: str) -> str:
    return resources.files("cgl").joinpath("corpus", name).read_text()


def run(verbose: bool = True) -> int:
    ok = True
    results = []

    def item(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        results.append((name, passed, detail))
        if verbose:
            tag = "pass" if passed else "FAIL"
            extra = f"  ({detail})" if detail and not passed else ""
            print(f"{tag}  {name}{extra}")

    ck = Checker()
    scripts = {}
    for fname in ("nim.cgl", "cake.cgl", "exists.cgl", "basics.cgl"):
        try:
            scripts[fname] = parse_script(_corpus(fname))
            item(f"parse {fname}", True)
        except Exception as e:  # pragma: no cover - corpus is bundled
            item(f"parse {fname}", False, str(e))
    if not ok:
        return 1

    # round-trip and checking
    for fname, script in scripts.items():
        reparsed = parse_script(print_script(script))
        item(
            f"round-trip {fname}",
            reparsed.theorems == script.theorems
            and reparsed.games == script.games
            and reparsed.formulas == script.formulas,
        )
        for tname, (phi, proof) in script.theorems.items():
            err = ck.check_result(Context(), proof, phi)
            item(f"check {tname}", err is None, str(err) if err else "")

    # normalization: progress, preservation, normal forms
    for fname, script in scripts.items():
        for tname, (phi, proof) in script.theorems.items():
            try:
                nf, steps, trace = normalizer.normalize(proof, 10**6)
            except normalizer.FuelExhausted as e:
                item(f"normalize {tname}", False, str(e))
                continue
            item(f"normal-form {tname}", normalizer.is_normal(nf))
            bad = None
            for _rule, reduct in trace:
                err = ck.check_result(Context(), reduct, phi)
                if err is not None:
                    bad = err
                    break
            item(f"preservation {tname}", bad is None, str(bad) if bad else "")

    # strategy soundness at reduced scale
    nim = scripts["nim.cgl"].theorems
    menu = DemonMenu(values={}, repeat_depth=8)
    for tname, states, post_needs_finished in (
        ("dNim", [State({"c": k}) for k in (1, 5, 9, 13)], False),
        ("aNim", [State({"c": k}) for k in (2, 3, 4, 7, 8, 11)], True),
    ):
        phi, proof = nim[tname]
        rz = extract(proof, phi, checked=True)
        game, role, post = modal_core(phi)
        bad = None
        for st in states:
            stripped = strip_assumptions(phi, close(rz), st)
            if stripped is None:
                bad = f"hypothesis fails at {st!r}"
                break
            cex = verify_exhaustive(
                game, role, stripped[1], [st], post, menu,
                require_finished=post_needs_finished,
            )
            if cex is not None:
                bad = f"counterexample at {st!r}"
                break
        item(f"verify {tname}", bad is None, bad or "")

    cake = scripts["cake.cgl"].theorems
    cake_menu = DemonMenu(
        values={"x": ["0", "1/10", "1/3", "1/2", "2/3", "9/10", "1"]},
        repeat_depth=4,
    )
    for tname in ("aCake", "dCake"):
        phi, proof = cake[tname]
        rz = extract(proof, phi, checked=True)
        game, role, post = modal_core(phi)
        stripped = strip_assumptions(phi, close(rz), State())
        cex = verify_exhaustive(game, role, stripped[1], [State()], post, cake_menu)
        item(f"verify {tname}", cex is None, repr(cex) if cex else "")

    # witness extraction
    ex = scripts["exists.cgl"].theorems
    for tname in ("witPlus", "witAbs", "witMax"):
        phi, proof = ex[tname]
        witness, _rest = extract_existential(proof, phi)
        counter = validate_existential(phi, witness, samples=300)
        item(f"existential {tname}", counter is None, repr(counter) if counter else "")

    # decided disjuncts agree with evaluation
    split_phi, split_proof = scripts["basics.cgl"].theorems["splitDemo"]
    rng = random.Random(11)
    bad = None
    for _ in range(200):
        st = State({"x": Fraction(rng.randint(-30, 30), rng.randint(1, 5))})
        side, _sub = extract_disjunct(split_proof, split_phi, st)
        want = "L" if st.get("x") <= 0 else "R"
        if side != want:
            bad = f"{st!r} gave {side}"
            break
    item("disjunction sides", bad is None, bad or "")

    # metatheory smoke: renaming self-duality on every corpus proof
    bad = None
    for fname, script in scripts.items():
        for tname, (phi, proof) in script.theorems.items():
            r2 = P.rename_pt(P.rename_pt(proof, "c", "x"), "c", "x")
            if r2 != proof:
                bad = tname
    item("renaming self-dual", bad is None, bad or "")

    print("all tests passed" if ok else "FAILURES above")
    return 0 if ok else 1
