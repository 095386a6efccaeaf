"""Benchmark of the cgl proof kernel: certify, reduce, verify and play.

From the repository root:

    python3 cglbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

One process, one thread.  The run sets up the workload, measures whole
rounds (one timed operation plus the workload's soundness reproducers) for
--seconds, checks every output against answers computed apart from cgl,
runs the negative control, and prints as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer ones with --trace 1.  Per-operation
detail goes to .bench_runs/.  See cglbench/README.md.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("certify", "reduce", "verify", "play")
SETUP_REPEATS = 3
# peak memory is read after this many operations, so that it does not grow
# with however many operations the machine's speed fits into the run
RSS_OPS = 8


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cgl", "__init__.py")):
        print(f"cglbench: no cgl sources under {src}", file=sys.stderr)
        return 2
    # the same import work on every run: compile from source, write nothing
    sys.dont_write_bytecode = True
    sys.path[:0] = [src, ROOT]
    from cglbench import speed  # the standard library only

    ref = speed.measure()
    t = time.perf_counter()
    from cglbench.layers import PER_LAYER, Plain, Traced, summarize
    from cglbench.workloads import WORKLOADS, Mismatch, control

    import_raw = time.perf_counter() - t
    import_s = import_raw * speed.REF_S * 2 / (ref + speed.measure())

    def timed(fn, *args):
        """(result, raw seconds, seconds scaled to reference speed, factor)"""
        before = speed.measure()
        t = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t
        factor = speed.REF_S * 2 / (before + speed.measure())
        return out, dt, dt * factor, factor

    plain = Plain()
    lay = Traced() if args.trace else plain

    def set_up(wl, k):
        wl.prepare(lay)
        inp = wl.make_input(f"warmup{k}")
        wl.check_op(inp, wl.run_op(plain, inp))

    try:
        wl, init_raw, init_s, _ = timed(WORKLOADS[args.workload], args.seed)
        setups = []
        for k in range(SETUP_REPEATS):
            lay.begin("setup")
            _, raw, scaled, factor = timed(set_up, wl, k)
            lay.scale(factor)
            setups.append((raw, scaled))
    except Mismatch as e:
        print(f"cglbench: set-up failed: {e}", file=sys.stderr)
        return 1
    setup_s = import_s + init_s + statistics.median(x for _, x in setups)

    correct = True
    attempted = failed = 0
    peak_rss = None
    times, traced_times = [], []  # (raw, scaled) seconds per operation
    t_start = time.perf_counter()
    i = 0
    # a traced run needs at least one plain and one traced operation
    while (time.perf_counter() - t_start < args.seconds
           or (args.trace and i < 2)):
        inp = wl.make_input(i)
        traced = args.trace and i % 2 == 1
        use = lay if traced else plain
        if traced:
            lay.begin("op")
        gc.collect()
        attempted += 1
        try:
            out, raw, scaled, factor = timed(wl.run_op, use, inp)
        except Exception:
            failed += 1
            traceback.print_exc()
        else:
            use.scale(factor)
            (traced_times if traced else times).append((raw, scaled))
            if len(times) + len(traced_times) == RSS_OPS:
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                wl.check_op(inp, out)
            except Mismatch as e:
                correct = False
                print(f"cglbench: operation {i}: {e}", file=sys.stderr)
        for rep in wl.reproducers:
            attempted += 1
            try:
                ok = rep()
            except Exception:
                traceback.print_exc()
                ok = False
            failed += not ok
        i += 1

    lay.begin("control")
    try:
        lay.scale(timed(control, lay)[3])
    except Mismatch as e:
        correct = False
        print(f"cglbench: {e}", file=sys.stderr)

    if not times:
        print("cglbench: no operation completed", file=sys.stderr)
        return 1
    if args.trace:
        layer = summarize(lay)
        metrics = {name: {"value": v, "unit": PER_LAYER[name]} for name, (v, _) in layer.items()}
        metrics["trace.overhead"] = {
            "value": statistics.median(x for _, x in traced_times)
            / statistics.median(x for _, x in times),
            "unit": "ratio",
        }
        detail = {"layers": {k: {"value": v, "from": p} for k, (v, p) in layer.items()},
                  "units": {ph: [dict(u) for u in us] for ph, us in lay.units.items()}}
    else:
        scaled = [x for _, x in times]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": (peak_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024,
                "unit": "MB",
            },
        }
        detail = {}
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        python=sys.version.split()[0], cores=os.cpu_count(),
        setup={"import_s": [import_raw, import_s], "init_s": [init_raw, init_s],
               "repeats_s": setups},
        op_s=times, traced_op_s=traced_times,
    )
    out_dir = os.path.join(ROOT, ".bench_runs")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
