"""Command-line front end.

Subcommands: check, normalize, extract, play, verify, test.
Exit codes: 0 success, 1 check/verify/play failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from . import engine, normalizer
from . import syntax as S
from .checker import Checker
from .engine import (
    DemonMenu, InteractiveDemon, NoMenuValues, RandomDemon, ScriptedDemon, Tracer, close,
    modal_core, play, strip_assumptions, verify_exhaustive,
)
from .extraction import UncheckedInput, extract
from .interchange import to_json
from .parser import ParseError, parse_script
from .printer import print_formula, print_proof
from .proofterms import Context
from .rational import DivisionByZero, parse_rational
from .syntax import State


class _Usage(Exception):
    """Bad input: reported as one `cgl <cmd>: ...` line with exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `cgl <cmd>: ...` line, exit 2."""

    def error(self, message):
        raise _Usage(f"{self.prog}: {message}")


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return n


def _load_script(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _Usage(f"{path}: {e}") from None
    try:
        return parse_script(text)
    except ParseError as e:
        raise _Usage(f"{path}:{e}") from None
    except RecursionError:
        raise _Usage(f"{path}: input nested too deeply to parse") from None


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise _Usage(f"cannot read {what} {path}: {e}") from None


def _pick_theorem(script, name, path):
    if name is None:
        if len(script.theorems) == 1:
            return next(iter(script.theorems.items()))
        raise _Usage(f"{path}: choose one of {', '.join(script.theorems)} with --theorem")
    if name not in script.theorems:
        raise _Usage(f"{path}: no theorem named {name}")
    return name, script.theorems[name]


def _number(text, what: str):
    """A rational read from user input, or a usage error naming `what`."""
    try:
        return parse_rational(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise _Usage(f"{what}: {text!r} is not a number") from None


def _parse_state(text: str) -> State:
    vals = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise _Usage(f"bad state binding {part!r}")
        k, v = part.split("=", 1)
        vals[k.strip()] = _number(v, f"--state {k.strip()}")
    return State(vals)


def _make_demon(spec: str):
    kind, _, arg = spec.partition(":")
    if spec == "interactive":
        return InteractiveDemon()
    if kind == "random":
        try:
            return RandomDemon(int(arg))
        except ValueError:
            raise _Usage(f"bad --demon {spec!r}: the seed is not an integer") from None
    if kind == "script":
        script = _load_json(arg, "demon script")
        if not isinstance(script, list):
            raise _Usage(f"demon script {arg} is not a JSON list")
        for v in script:
            if v not in ScriptedDemon.WORDS:
                _number(v, f"demon script {arg}")
        return ScriptedDemon(script)
    raise _Usage(f"bad --demon {spec!r}")


def _make_menu(path: str) -> DemonMenu:
    data = _load_json(path, "menu")
    if not isinstance(data, dict) or not isinstance(data.get("values", {}), dict):
        raise _Usage(f"menu {path} is not a JSON object with a \"values\" object")
    values = {}  # var -> its values, parsed here once for every --state
    for var, vals in data.get("values", {}).items():
        if not isinstance(vals, list):
            raise _Usage(f"menu values for {var} in {path} are not a JSON list")
        values[var] = [_number(v, f"menu {path}, {var}") for v in vals]
    depth = data.get("repeat_depth", 8)
    if type(depth) is not int or depth < 0:  # JSON's true is a bool, not an int
        raise _Usage(f"bad repeat_depth {depth!r} in menu {path}: not a non-negative integer")
    return DemonMenu(values=values, repeat_depth=depth)


def _playable(phi):
    """modal_core(phi): a game to play and a first-order postcondition,
    which the play judges at its final state."""
    try:
        game, role, post = modal_core(phi)
    except ValueError:
        raise _Usage(f"{print_formula(phi)} has no game to play") from None
    try:
        S.compile_fo(post)
    except TypeError:
        raise _Usage(
            f"postcondition {print_formula(post)} is not first-order; a play cannot judge it"
        ) from None
    return game, role, post


def cmd_check(args) -> int:
    script = _load_script(args.file)
    ck = Checker()
    failures = []
    diags = []
    for name, (phi, proof) in script.theorems.items():
        err = ck.check_result(Context(), proof, phi)
        if err is None:
            print(f"{name}: ok")
        else:
            failures.append(name)
            print(f"{args.file}: {name}: {err}")
            diags.append({"theorem": name, **err.to_json()})
    if args.json:
        print(json.dumps({"file": args.file, "errors": diags}, indent=2))
    return 1 if failures else 0


def cmd_normalize(args) -> int:
    script = _load_script(args.file)
    names = [args.theorem] if args.theorem else list(script.theorems)
    ck = Checker()
    status = 0
    for name in names:
        _, (phi, proof) = _pick_theorem(script, name, args.file)
        try:
            nf, steps, trace = normalizer.normalize(proof, args.fuel)
        except normalizer.FuelExhausted as e:
            print(f"{name}: fuel exhausted after {e.steps} steps")
            status = 1
            continue
        if args.trace:
            cur = proof
            for rule, reduct in trace:
                print(f"{name}: {rule} at {normalizer.redex_path(cur, reduct)}")
                cur = reduct
        kind = normalizer.normal_kind(nf)
        recheck = ck.check_result(Context(), nf, phi)
        ok = "ok" if recheck is None else f"RECHECK FAILED: {recheck}"
        print(f"{name}: normal after {steps} steps ({kind}); {ok}")
        if recheck is not None:
            status = 1
        if args.show:
            print(print_proof(nf))
    return status


def cmd_extract(args) -> int:
    script = _load_script(args.file)
    name, (phi, proof) = _pick_theorem(script, args.theorem, args.file)
    try:
        rz = extract(proof, phi)
    except UncheckedInput as e:
        print(f"{name}: {e}", file=sys.stderr)
        return 1
    data = json.dumps(to_json(rz), indent=2)
    if args.emit_realizer:
        try:
            with open(args.emit_realizer, "w", encoding="utf-8") as fh:
                fh.write(data + "\n")
        except OSError as e:
            raise _Usage(f"cannot write {args.emit_realizer}: {e}") from None
        print(f"{name}: strategy written to {args.emit_realizer}")
    else:
        print(data)
    return 0


def cmd_play(args) -> int:
    script = _load_script(args.file)
    name, (phi, proof) = _pick_theorem(script, args.theorem, args.file)
    state = _parse_state(args.state)
    demon = _make_demon(args.demon)
    try:
        rz = extract(proof, phi)
    except UncheckedInput as e:
        print(f"{name}: {e}", file=sys.stderr)
        return 1
    stripped = strip_assumptions(phi, close(rz), state)
    if stripped is None:
        print(f"{name}: a hypothesis fails at {state!r}; nothing to play")
        return 1
    core_phi, cl = stripped
    game, role, post = _playable(core_phi)
    tracer = Tracer()
    out = play(game, role, cl, state, demon, fuel=args.fuel, tracer=tracer)
    for line in tracer.events:
        print(line)
    line, won = _outcome(out, post)
    print(line)
    return 0 if won else 1


def _outcome(out, post):
    """(one line naming how a play ended, whether the strategy won)."""
    if isinstance(out, engine.Finished):
        holds = S.eval_fo(post, out.state)
        return (f"finished {out.state!r}; goal {print_formula(post)} "
                f"{'holds' if holds else 'FAILS'}"), holds
    if isinstance(out, engine.DemonViolation):
        return "demon violated a test: win by default", True
    if isinstance(out, engine.AngelViolation):
        return "strategy violated a test: loss", False
    return "fuel exhausted", False


def cmd_verify(args) -> int:
    script = _load_script(args.file)
    name, (phi, proof) = _pick_theorem(script, args.theorem, args.file)
    menu = _make_menu(args.menu)
    states = [_parse_state(s) for s in args.state] or [State()]
    try:
        rz = extract(proof, phi)
    except UncheckedInput as e:
        print(f"{name}: {e}", file=sys.stderr)
        return 1
    game, role, post = _playable(phi)
    usable = []
    for st in states:
        stripped = strip_assumptions(phi, close(rz), st)
        if stripped is None:
            print(f"state {st!r}: hypothesis fails, skipped")
            continue
        usable.append((st, stripped[1]))
    for st, cl in usable:
        try:
            cex = verify_exhaustive(game, role, cl, [st], post, menu, fuel=args.fuel)
        except NoMenuValues as e:
            raise _Usage(str(e)) from None
        if cex is not None:
            print(f"counterexample from {st!r}:")
            for line in cex.trace[:40]:
                print(f"  {line}")
            print(f"  outcome: {_outcome(cex.outcome, post)[0]}")
            return 1
        print(f"state {st!r}: all demon lines win")
    return 0


def cmd_test(args) -> int:
    from . import selftest

    return selftest.run(verbose=not args.quiet)


def corpus_path(name: str) -> str:
    return str(resources.files("cgl").joinpath("corpus", name))


def main(argv=None) -> int:
    ap = _Parser(
        prog="cgl",
        description="Check, normalize, extract, and play game-logic proofs.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="typecheck every theorem in a script")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="machine-readable diagnostics")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("normalize", help="reduce proofs to normal form")
    p.add_argument("file")
    p.add_argument("--theorem")
    p.add_argument("--fuel", type=_positive_int, default=10**6)
    p.add_argument("--trace", action="store_true", help="one line per step")
    p.add_argument("--show", action="store_true", help="print the normal form")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("extract", help="compile a proof into a strategy")
    p.add_argument("file")
    p.add_argument("--theorem")
    p.add_argument("--emit-realizer", metavar="OUT")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("play", help="play one run against an adversary")
    p.add_argument("file")
    p.add_argument("--theorem")
    p.add_argument("--demon", default="random:0",
                   help="interactive | random:SEED | script:PATH")
    p.add_argument("--state", default="", help='e.g. "c=9,x=1/2"')
    p.add_argument("--fuel", type=_positive_int, default=100_000)
    p.set_defaults(fn=cmd_play)

    p = sub.add_parser("verify", help="exhaust finite demon menus")
    p.add_argument("file")
    p.add_argument("--theorem")
    p.add_argument("--menu", required=True, help="JSON adversary menu")
    p.add_argument("--state", action="append", default=[],
                   help="initial state (repeatable)")
    p.add_argument("--fuel", type=_positive_int, default=2_000_000)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("test", help="run the bundled corpus and property suites")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_test)

    try:
        args = ap.parse_args(argv)
    except _Usage as e:
        print(e, file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except _Usage as e:
        print(f"cgl {args.cmd}: {e}", file=sys.stderr)
        return 2
    except DivisionByZero as e:
        # a term the checker accepted is undefined at this concrete state
        print(f"cgl {args.cmd}: undefined at this state: {e}", file=sys.stderr)
        return 1
    except engine.IllStructuredRealizer as e:
        # a strategy whose shape does not fit the game it is played on
        print(f"cgl {args.cmd}: ill-structured strategy: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        # a walk over a long input ran out of Python's stack
        print(f"cgl {args.cmd}: input too deep to process", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
