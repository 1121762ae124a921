"""xft benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload moe-sft --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` there.
Inputs are made from ``--seed``. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
public functions of each layer are wrapped, spans are recorded in memory and
written to ``perfbench/out/trace-<workload>.json``, and the last line holds
the per-layer metrics. ``--quick`` runs a tiny size of the same code for the
benchmark's own tests (``python3 -m pytest perfbench/quick_check.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
BLAS_THREADS = 1

# Fixed before numpy loads, so every run uses the same BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def import_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "xft", "__init__.py")):
        sys.exit(f"error: no xft package under {src}; run from a checkout of the repository")
    sys.path.insert(0, src)
    import xft

    if os.path.dirname(os.path.dirname(os.path.abspath(xft.__file__))) != src:
        sys.exit(f"error: imported xft from {xft.__file__}, not from {src}")
    return xft


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def end_to_end(setup_s, cycles, loss_end) -> dict:
    op_ms = [v for c in cycles for v in c.op_ms]
    busy_s = sum(op_ms) / 1e3
    return {
        "setup_s": (percentile(setup_s, 50), "s"),
        "tok_s": (sum(c.tokens for c in cycles) / busy_s, "tok/s"),
        "step_ms_p50": (percentile(op_ms, 50), "ms"),
        "step_ms_p90": (percentile(op_ms, 90), "ms"),
        "loss_end": (loss_end, "nats"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(setup_rec, setup_reps, rec, traced, untraced) -> dict:
    """Per-layer figures from the traced cycles, per operation (step or round)."""
    loop = rec.summary()
    setup = setup_rec.summary()
    ops = sum(len(c.op_ms) for c in traced)

    def per_op(name, key="total_ms"):
        return loop.get(name, {}).get(key, 0.0) / ops

    def per_setup(name):
        return setup.get(name, {}).get("total_ms", 0.0) / setup_reps

    def ratio(a, b):
        return a / b if b else 0.0

    new_tokens = rec.counts["decode.new_tokens"]
    overhead = percentile([c.wall_s for c in traced], 50) / percentile([c.wall_s for c in untraced], 50)
    return {
        "tensor.backward_ms": (per_op("tensor.backward"), "ms"),
        "tensor.ops_per_step": (rec.ops / ops, "count"),
        "model.attention_ms": (per_op("model.attention"), "ms"),
        "model.dense_ffn_ms": (per_op("model.dense_ffn"), "ms"),
        "model.forward_loss_ms": (per_op("model.forward_loss"), "ms"),
        "model.logits_self_ms": (per_op("model.logits", "self_ms"), "ms"),
        "model.decode_ms_per_token": (
            ratio(loop.get("model.generate", {}).get("total_ms", 0.0), new_tokens), "ms"),
        "model.decode_prefix_tokens": (ratio(rec.counts["decode.prefix_tokens"], new_tokens), "count"),
        "moe.forward_ms": (per_op("moe.forward"), "ms"),
        "moe.router_ms": (per_op("moe.router"), "ms"),
        "moe.experts_ms": (per_op("moe.experts"), "ms"),
        "moe.dispatch_ms": (per_op("moe.forward", "self_ms"), "ms"),
        "moe.expert_calls_per_step": (per_op("moe.experts", "calls"), "count"),
        "moe.expert_rows_per_token": (ratio(rec.counts["moe.expert_rows"], rec.counts["moe.rows"]), "count"),
        "train.optimizer_ms": (per_op("train.optimizer"), "ms"),
        "train.clip_ms": (per_op("train.clip"), "ms"),
        "train.step_self_ms": (per_op("train.step", "self_ms"), "ms"),
        "checkpoint.save_ms": (per_setup("checkpoint.save"), "ms"),
        "checkpoint.load_ms": (per_setup("checkpoint.load"), "ms"),
        "checkpoint.bytes": (setup_rec.counts["checkpoint.bytes"] / setup_reps, "B"),
        "dataset.load_ms": (per_setup("dataset.load"), "ms"),
        "trace.overhead_pct": (100.0 * (overhead - 1.0), "%"),
    }


def run(args) -> dict:
    xft = import_package()
    import numpy as np

    import workloads
    from spans import Recorder

    sizes = workloads.QUICK if args.quick else workloads.FULL
    seconds = 0 if args.quick else args.seconds
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](sizes, args.seed, workdir)
        context = {
            "workload": args.workload, "seed": args.seed, "seconds": seconds,
            "trace": args.trace, "quick": args.quick, "clients": 1,
            "python": platform.python_version(), "numpy": np.__version__,
            "xft": xft.__version__, "git_commit": git_commit(),
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS, **wl.config(),
        }
        print(json.dumps({"context": context}, sort_keys=True))
        wl.generate()

        setup_rec = Recorder()
        setup_s = []
        for _ in range(sizes.setup_reps):
            if args.trace:
                setup_rec.install()
            try:
                t0 = time.perf_counter()
                wl.setup()
                setup_s.append(time.perf_counter() - t0)
            finally:
                setup_rec.uninstall()

        wl.warmup()
        # With --trace 1, untraced and traced cycles alternate: the untraced
        # ones are the base of the tracing overhead, under the same drift.
        cycles, traced, untraced = [], [], []
        rec = Recorder()
        t_start = time.perf_counter()
        while True:
            tracing = args.trace and len(cycles) % 2 == 1
            if tracing:
                rec.install()
            try:
                cycle = wl.cycle(rec if tracing else None)
            finally:
                rec.uninstall()
            cycles.append(cycle)
            (traced if tracing else untraced).append(cycle)
            ops = sum(len(c.op_ms) for c in cycles)
            if (time.perf_counter() - t_start >= seconds and len(cycles) >= 2
                    and (args.trace or ops >= sizes.min_ops)):
                break

        tally = workloads.Tally()
        for c in cycles:
            tally.ops(c.attempted, c.failed)
        loss_end = wl.check(tally, cycles)
        for line in wl.report(untraced if args.trace else cycles):
            print(line)

        if args.trace:
            metrics = per_layer(setup_rec, sizes.setup_reps, rec, traced, untraced)
            os.makedirs(OUT_DIR, exist_ok=True)
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}.json")
            with open(trace_path, "w", encoding="utf-8") as f:
                json.dump({"context": context, "setup": setup_rec.to_json_obj(),
                           "loop": rec.to_json_obj()}, f)
            print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
            for target in rec.missing:
                print(f"warning: {target} not found, its layer reads 0", file=sys.stderr)
            for name, row in sorted(rec.summary().items()):
                print(f"  {name:20s} calls {row['calls']:8d}  total {row['total_ms']:10.1f} ms"
                      f"  self {row['self_ms']:10.1f} ms")
        else:
            metrics = end_to_end(setup_s, cycles, loss_end)
        samples = {"ops": sum(len(c.op_ms) for c in cycles), "cycles": len(cycles),
                   "setup_reps": len(setup_s)}
        print(json.dumps({"checks": tally.checks, "samples": samples,
                          "failed_share": tally.failed / max(tally.attempted, 1)}, sort_keys=True))
        return {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("moe-sft", "merge-long", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes and two cycles, for the benchmark's own tests")
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
