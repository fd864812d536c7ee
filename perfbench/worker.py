"""One run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --t0 MONOTONIC [--setup-only]

``--t0`` is the ``time.monotonic()`` reading taken by the parent just before
it started this interpreter, so set-up time covers interpreter start, the
import of ``annigraph.cli`` and input generation.

An untraced run times whole passes over the workload's ops, one caller in a
closed loop: at least the workload's ``min_passes``, and more while the ops
have taken less than ``--seconds``.  A pass also runs the reference loop of
``probe`` before its first op and after each op, and each op's time is
scaled to the nominal host speed by the loop's times either side of it; the
median over passes of these scaled times gives ``ops_per_s``.  The loop runs
once more right after set-up, for the scaled ``setup_s``.  The first pass
checks every output; later passes must repeat its deterministic counts
exactly.  A traced run warms up on one untimed op, then makes one paired
pass: each op untraced and traced, back to back, which gives the spans and
the tracing overhead as paired differences per op.  The untraced half is the
checked pass; the traced half must repeat its counts.
The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=("corpus", "genus", "lattice"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import annigraph.cli  # noqa: F401  (the import users pay for)
    import_s = time.perf_counter() - start

    import ops
    import probe
    import tracing

    rec = tracing.Recorder()
    rec.install(tracing=bool(args.trace), build_module=ops, build_attr="build_ring")
    wl = ops.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    setup_s = time.monotonic() - args.t0
    setup_op = rec.op
    result = {"setup_s": setup_s, "import_s": import_s,
              "setup_probe_s": probe.reference_s()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    rec.tracing = False
    if args.trace:
        # One untimed op warms the process up; the checked pass is the
        # untraced half of the paired pass.
        op_id, payload = wl.items[0]
        ops.run_op(wl, rec, ops.new_pass(), op_id, payload, check=False)
        checked, traced = ops.run_paired_pass(wl, rec)
        passes, repeats, timed = [checked, traced], [traced], [checked]
    else:
        checked = ops.run_pass(wl, rec, check=True)
        passes = [checked]
        while (len(passes) < wl.min_passes
               or sum(p_["op_time"] for p_ in passes) < args.seconds):
            passes.append(ops.run_pass(wl, rec, check=False))
        repeats, timed = passes[1:], passes
    rec.uninstall()

    problems = list(checked["problems"])
    for other in repeats:
        if other["counts"] != checked["counts"]:
            diff = [k for k in checked["counts"] if other["counts"].get(k) != checked["counts"][k]]
            problems.append(f"deterministic counts differ between passes: {diff[:5]}")
            break

    # Per op, the median of its wall-clock times over the timed passes.
    op_s = [statistics.median(ts) for ts in zip(*(p_["op_times"] for p_ in timed))]
    failed_ids = {op_id for op_id, _ in checked["failures"]}
    done = [k for k, (op_id, _) in enumerate(wl.items) if op_id not in failed_ids]
    result.update({
        "attempted": sum(len(wl.items) for _ in passes),
        "failed": sum(len(p_["failures"]) for p_ in passes),
        "failures": checked["failures"],
        "ops_per_pass": len(wl.items),
        "passes": len(passes),
        "busy_s": sum(p_["op_time"] for p_ in passes),
        "op_s_by_pass": [p_["op_times"] for p_ in timed],
        "reference_s_by_pass": [p_["reference_times"] for p_ in timed],
        "op_s": op_s,
        "scaled_op_s": ops.scaled_op_times(timed) if not args.trace else op_s,
        "completed_per_pass": len(done),
        "latencies_s": sorted(op_s[k] for k in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "genus": ops.genus_summary(checked["answers"]),
        "counts": checked["counts"],
        "layer_counts": checked["layer_counts"],
        "setup_counts": ops.op_counts(setup_op, [ops.answer_summary(a)
                                                 for a in setup_op.genus]),
        "problems": problems,
    })
    if args.trace:
        spans = rec.spans
        by_op = ops.layer_times(spans)
        per_pass = {}
        for op_id, times in by_op.items():
            if op_id != "setup":
                for k, v in times.items():
                    per_pass[k] = per_pass.get(k, 0.0) + v
        result["trace"] = {
            "setup_layers": by_op.get("setup", {}),
            "pass_layers": per_pass,
            "op_layers": {k: v for k, v in by_op.items() if k != "setup"},
            "untraced_op_s": checked["op_times"],
            "traced_op_s": traced["op_times"],
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": spans}, fh)
        result["trace"]["file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
