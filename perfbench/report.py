#!/usr/bin/env python3
"""Run every workload untraced and traced, each in its own process, and
print all end-to-end metrics by name and unit, the per-layer metrics with
the largest self times, and the tracing overhead.

    python3 perfbench/report.py --seed 1 --seconds 30 [--out record.json]

Tracing overhead is, per workload and named metric, the traced run's
seconds per operation over the untraced run's, minus one.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train_paper", "tag_paper", "pipeline_grid")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-2])
    record["result"] = json.loads(lines[-1])
    return record


def overhead(untraced: dict, traced: dict) -> dict:
    """Traced over untraced seconds per operation, minus one."""

    def per_op(named: dict) -> float:
        return sum(named["all_s"]) / len(named["all_s"])

    return {
        metric: per_op(traced["named"][metric]) / per_op(value) - 1.0
        for metric, value in untraced["named"].items()
        if value["samples"] and traced["named"][metric]["samples"]
    }


def show(name: str, untraced: dict, traced: dict, over: dict) -> None:
    result = untraced["result"]
    print(f"\n== {name} (seed {untraced['seed']}, {untraced['seconds']:g} s, correct={result['correct']})")
    for metric, v in untraced["named"].items():
        if not v["samples"]:
            print(f"  {metric:14s} no samples: every operation failed")
            continue
        tails = " ".join(f"{k}={v[k]:.4g}" for k in v if k.startswith("p") and k.endswith("_s"))
        print(f"  {metric:14s} {v['value']:12.4f} {v['unit']:6s} n={v['samples']:<4d} median_s={v['median_s']:.4g} {tails}")
    v = untraced["setup_s"]
    print(f"  {'setup_s':14s} {v['value']:12.4f} {v['unit']}")
    v = untraced["peak_rss_mb"]
    print(f"  {'peak_rss_mb':14s} {v['value']:12.4f} {v['unit']}     after inputs {v['after_inputs_mb']:.1f}, whole run {v['whole_run_mb']:.1f}")
    share = untraced["failed_share"]
    print(f"  {'failed_share':14s} {share['value']:12.4f} ratio  ({share['failed']} of {share['attempted']} operations)")
    print("  benchmark metrics: " + ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()))
    print("  tracing overhead: " + ", ".join(f"{k} {100 * v:+.1f}%" for k, v in over.items()))
    layers = traced["result"]["metrics"]
    top = sorted((k for k in layers if k.endswith(".self_s")), key=lambda k: -layers[k]["value"])[:8]
    print(f"  largest self times per cycle ({traced['cycles']} traced cycle(s)):")
    for k in top:
        print(f"    {k:42s} {layers[k]['value']:9.4f} s")
    for k in ("autodiff.tape_nodes_per_token", "tagger.word_emb_grad.useful_ratio", "tagger.batch_gradients.call_median_ms", "tagger.batch_gradients.call_tail_ms"):
        print(f"    {k:42s} {layers[k]['value']:9.4g} {layers[k]['unit']}")
    absent = traced["per_layer"]["absent_hooks"]
    if absent:
        print(f"  absent hooks: {', '.join(absent)}")
    for failure in untraced["failures"] + traced["failures"]:
        print(f"  FAILED: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", help="write every record as JSON to this file")
    args = parser.parse_args()
    records = {}
    for name in WORKLOADS:
        untraced = run_workload(name, args.seed, args.seconds, 0)
        traced = run_workload(name, args.seed, args.seconds, 1)
        over = overhead(untraced, traced)
        if not records:
            print("environment: " + json.dumps(untraced["env"]))
        show(name, untraced, traced, over)
        records[name] = {"untraced": untraced, "traced": traced, "tracing_overhead": over}
    if args.out:
        lines = ",\n".join(f"{json.dumps(name)}: {json.dumps(record)}" for name, record in records.items())
        Path(args.out).write_text("{\n" + lines + "\n}\n", encoding="utf-8")  # a workload per line
    return 0


if __name__ == "__main__":
    sys.exit(main())
