"""Calls into cgl's layers, plain or traced.

The workloads reach cgl only through one of these objects.  `Plain` calls
each public function directly; `Traced` makes the same calls and records,
into the current unit (one operation, one set-up or the control), the time
and work of each layer.  The oracle is traced through a subclass of
`ArithOracle`, a fresh instance for each call that would make its own, so
the traced run does the same oracle work as the plain one.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections import Counter

from cgl import (
    ArithOracle, Checker, Context, extract, normalize, parse_script, play,
    verify_exhaustive,
)
from cgl.oracle import UNKNOWN


class Plain:
    """Calls cgl's public functions directly."""

    def begin(self, phase: str) -> None:
        pass

    def scale(self, factor: float) -> None:
        pass

    def parse(self, text):
        return parse_script(text)

    def check(self, phi, m):
        """The CheckError, or None when m proves phi; one fresh oracle."""
        return Checker(self.oracle()).check_result(Context(), m, phi)

    def extract(self, m, phi):
        """Extraction of a checked proof with its own fresh oracle."""
        return extract(m, phi, oracle=self.oracle(), checked=True)

    def decide_all(self, sequents):
        oracle = self.oracle()
        return [oracle.decide(s["rho"], s["goal"]) for s in sequents]

    def normalize(self, m):
        return normalize(m)

    def verify(self, game, role, cl, state, post, menu, lines: int):
        """verify_exhaustive from one state; `lines` is the benchmark's own
        count of adversary lines, recorded when traced."""
        return verify_exhaustive(game, role, cl, [state], post, menu)

    def play(self, game, role, cl, state, demon, tracer):
        return play(game, role, cl, state, demon, tracer=tracer)

    def oracle(self) -> ArithOracle:
        return ArithOracle()


class TimedOracle(ArithOracle):
    """ArithOracle that records its queries into a trace."""

    def __init__(self, trace: "Traced"):
        super().__init__()
        self.trace = trace
        self.seen = set()
        self.seconds = 0.0
        self.queries = 0

    def decide(self, rho, phi):
        t = time.perf_counter()
        res = super().decide(rho, phi)
        dt = time.perf_counter() - t
        self.seconds += dt
        self.queries += 1
        key = (rho, phi)
        fresh = key not in self.seen
        self.seen.add(key)
        tr = self.trace
        tr.add("oracle.decide_ms", dt * 1e3)
        tr.add("oracle.queries", 1)
        tr.add("oracle.distinct", int(fresh))
        tr.add("oracle.unknown", int(res.status == UNKNOWN))
        return res


def count_nodes(x) -> int:
    """Nodes of a dataclass tree (proof terms, realizers, their syntax)."""
    n = 0
    stack = [x]
    while stack:
        y = stack.pop()
        if dataclasses.is_dataclass(y) and not isinstance(y, type):
            n += 1
            stack.extend(getattr(y, f.name) for f in dataclasses.fields(y))
        elif isinstance(y, (tuple, list)):
            stack.extend(y)
    return n


def rule_family(rule: str) -> str:
    """beta, mon, commute or struct, from a conversion rule's name."""
    if "-beta" in rule:
        return "beta"
    if rule.endswith("-mon"):
        return "mon"
    return "commute" if rule.rsplit("-", 1)[1].startswith("C") else "struct"


class Traced(Plain):
    """The same calls, recording each layer's time and work per unit."""

    def __init__(self):
        self.units = {"setup": [], "op": [], "control": []}
        self.cur = Counter()
        self.sizes = []  # (unit, key, tree): node counts taken after the run

    def begin(self, phase: str) -> None:
        self.cur = Counter()
        self.units[phase].append(self.cur)

    def scale(self, factor: float) -> None:
        """The current unit's times scale by factor to reference speed."""
        self.cur["scale"] = factor

    def add(self, key: str, value) -> None:
        self.cur[key] += value

    def add_size(self, key: str, tree) -> None:
        """Count tree's nodes into `key` of the current unit, later, so the
        count stays out of the timed operation."""
        self.cur[key] += 0
        self.sizes.append((self.cur, key, tree))

    def count_sizes(self) -> None:
        for unit, key, tree in self.sizes:
            unit[key] += count_nodes(tree)
        self.sizes = []

    def oracle(self) -> ArithOracle:
        return TimedOracle(self)

    def parse(self, text):
        t = time.perf_counter()
        out = super().parse(text)
        self.add("parser.parse_ms", (time.perf_counter() - t) * 1e3)
        return out

    def check(self, phi, m):
        oracle = self.oracle()
        t = time.perf_counter()
        out = Checker(oracle).check_result(Context(), m, phi)
        dt = time.perf_counter() - t
        self.add("checker.check_ms", dt * 1e3)
        self.add("checker.self_ms", (dt - oracle.seconds) * 1e3)
        return out

    def extract(self, m, phi):
        oracle = self.oracle()
        t = time.perf_counter()
        rz = extract(m, phi, oracle=oracle, checked=True)
        self.add("extraction.extract_ms", (time.perf_counter() - t) * 1e3)
        self.add("extraction.oracle_queries", oracle.queries)
        self.add_size("extraction.realizer_nodes", rz)
        return rz

    def normalize(self, m):
        t = time.perf_counter()
        out = normalize(m)
        self.add("normalizer.normalize_ms", (time.perf_counter() - t) * 1e3)
        nf, steps, trace = out
        self.add("normalizer.steps", steps)
        fams = Counter(rule_family(rule) for rule, _ in trace)
        for fam in ("beta", "mon", "commute", "struct"):
            self.add(f"normalizer.steps_{fam}", fams[fam])
        self.add_size("normalizer.nodes_in", m)
        self.add_size("normalizer.nodes_out", nf)
        return out

    def verify(self, game, role, cl, state, post, menu, lines: int):
        t = time.perf_counter()
        out = super().verify(game, role, cl, state, post, menu, lines)
        self.add("engine.verify_ms", (time.perf_counter() - t) * 1e3)
        self.add("engine.demon_lines", lines)
        return out

    def play(self, game, role, cl, state, demon, tracer):
        t = time.perf_counter()
        out = super().play(game, role, cl, state, demon, tracer)
        self.add("engine.play_ms", (time.perf_counter() - t) * 1e3)
        self.add("engine.play_events", len(tracer.events))
        return out


# Per-layer metrics and their units.
PER_LAYER = {
    "parser.parse_ms": "ms",
    "checker.check_ms": "ms",
    "checker.self_ms": "ms",
    "oracle.decide_ms": "ms",
    "oracle.queries": "count",
    "oracle.distinct": "count",
    "oracle.unknown": "count",
    "extraction.extract_ms": "ms",
    "extraction.oracle_queries": "count",
    "extraction.realizer_nodes": "count",
    "normalizer.normalize_ms": "ms",
    "normalizer.steps": "count",
    "normalizer.steps_beta": "count",
    "normalizer.steps_mon": "count",
    "normalizer.steps_commute": "count",
    "normalizer.steps_struct": "count",
    "normalizer.nodes_in": "count",
    "normalizer.nodes_out": "count",
    "engine.verify_ms": "ms",
    "engine.demon_lines": "count",
    "engine.lines_per_s": "1/s",
    "engine.play_ms": "ms",
    "engine.play_events": "count",
    "engine.events_per_s": "1/s",
}
# rates: (count, milliseconds) of the same unit
_RATES = {
    "engine.lines_per_s": ("engine.demon_lines", "engine.verify_ms"),
    "engine.events_per_s": ("engine.play_events", "engine.play_ms"),
}


def summarize(trace: Traced):
    """Per-layer medians and where each came from.

    A layer's metrics are medians per operation over the traced operations
    that call the layer; when none does, per set-up over the set-ups that
    do; otherwise from the run's control.  Times and rates are scaled to
    reference speed with their unit's factor.  Returns {name: (value, phase)}.
    """
    trace.count_sizes()
    out = {}
    for name in PER_LAYER:
        count_key, ms_key = _RATES.get(name, (name, None))
        for phase in ("op", "setup", "control"):
            units = [u for u in trace.units[phase] if count_key in u]
            if units:
                f = [u.get("scale", 1.0) for u in units]
                if ms_key:
                    vals = [u[count_key] / (u[ms_key] * k) * 1e3 for u, k in zip(units, f)]
                elif PER_LAYER[name] == "ms":
                    vals = [u[name] * k for u, k in zip(units, f)]
                else:
                    vals = [u[name] for u in units]
                out[name] = (statistics.median(vals), phase)
                break
        else:
            out[name] = (0, "none")
    return out
