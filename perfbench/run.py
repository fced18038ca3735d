#!/usr/bin/env python3
"""xlner benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 30 --trace 0

Set-up (generating corpora, tables, the model and files) runs several times,
each time in a forked child that saves the workload's inputs, and is timed
on its own; this process then loads the last set-up's inputs. The
workload's cycle of operations then repeats, each operation waiting for
the previous one, until --seconds have passed. Untraced, a fixed
calibration kernel is timed before every operation and after the last
(calibration.py), and main_s, aux_s and setup_s are each operation's wall
seconds scaled to the host speed at which the kernel takes
calibration.REFERENCE_S; the wall figures stay in the record.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 xlner's public functions are wrapped, spans are recorded and the
last line holds per-layer metrics per cycle. The line before it is a JSON
record of the environment, every named metric with its samples, and any
failed checks. Run from the root of an xlner checkout; xlner is imported
from its src/ directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
SETUP_KERNEL_REPEATS = 7

# The load model is a single-threaded client; BLAS gets one thread too,
# which is within nproc on any machine. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def environment() -> dict:
    import ctypes

    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    threads = int(getattr(handle, symbol)())
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
    }


def max_rss_mb() -> float:
    """This process's peak RSS so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(workload, rec, seconds: float, tracer=None, speeds=None) -> tuple[int, int, int, float]:
    """Repeat the workload's cycle of operations. Untraced, stop at the
    first operation boundary after `seconds` once every kind of operation
    has a sample; traced, stop after whole cycles, so per-layer totals
    divide evenly into cycles. With `speeds` (a Calibration), the kernel's
    seconds before operation i are speeds.seen[i], and after the last
    operation speeds.seen[-1]. Returns (cycles, attempted, failed, peak RSS
    in MB once every kind of operation has run once)."""
    ops = workload.ops()
    kinds = {kind for kind, _ in ops}
    pending = set(kinds)
    first_peak = None
    start = time.perf_counter()
    cycles = attempted = failed = 0
    while True:
        for kind, op in ops:
            if (
                tracer is None
                and time.perf_counter() - start >= seconds
                and all(rec.samples.get(k) for k in kinds)
            ):
                break
            if speeds is not None:
                speeds.seen.append(speeds.measure())
            rec.op = attempted
            attempted += 1
            rec.op_failed = False
            try:
                if tracer is not None:
                    tracer.op = attempted
                    with tracer.span(f"op.{kind}"):
                        op(rec)
                else:
                    op(rec)
            except Exception:  # a failed operation is counted, and the run goes on
                rec.failures.append(traceback.format_exc(limit=3))
                rec.op_failed = True
            failed += rec.op_failed
            pending.discard(kind)
            if first_peak is None and not pending:
                first_peak = max_rss_mb()
        else:
            cycles += 1
            if time.perf_counter() - start < seconds:
                continue
        if speeds is not None:
            speeds.seen.append(speeds.measure())
        return cycles, attempted, failed, first_peak


def forked_setup(workload, seed: int, workdir: Path) -> float:
    """Run workload.setup in a forked child, which saves its set-up seconds
    and then the workload's attributes to workdir/state.pkl; returns the
    seconds. The generators' working data dies with the child, so this
    process holds only the inputs an xlner command would load (see
    load_state), and its peak RSS is not set by set-up."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            start = time.perf_counter()
            workload.setup(seed, workdir)
            seconds = time.perf_counter() - start
            with open(workdir / "state.pkl", "wb") as fh:
                pickle.dump(seconds, fh)
                pickle.dump(vars(workload), fh, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"set-up of {workload.name} failed in its child process")
    with open(workdir / "state.pkl", "rb") as fh:
        return pickle.load(fh)


def load_state(workload, workdir: Path) -> None:
    """Give the workload the attributes its forked set-up saved."""
    with open(workdir / "state.pkl", "rb") as fh:
        pickle.load(fh)  # the set-up seconds
        vars(workload).update(pickle.load(fh))


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "paper", spans_dir: Path | None = None) -> tuple[dict, dict]:
    """Set up and measure one workload; returns (result line, record)."""
    from calibration import REFERENCE_S, Calibration
    from tracing import Tracer, installed
    from workloads import WORKLOADS, Recorder, mean

    workload = WORKLOADS[name](size)
    speeds = Calibration()
    scratch = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    try:
        # Each set-up is one long sample, so the kernel runs more times
        # around it than around an operation.
        setups, setups_ref = [], []
        before = speeds.measure(SETUP_KERNEL_REPEATS)
        for i in range(SETUP_REPEATS):
            workdir = scratch / f"setup{i}"
            workdir.mkdir()
            setups.append(forked_setup(workload, seed, workdir))
            after = speeds.measure(SETUP_KERNEL_REPEATS)
            setups_ref.append(speeds.scale(setups[-1], before, after))
            before = after
            if i:
                shutil.rmtree(scratch / f"setup{i - 1}")
        load_state(workload, workdir)
        # Keep the modules and inputs out of the collector's sweeps. Left in,
        # train_paper's peak RSS on one seed read 176 MB in one run and
        # 185 MB in another; frozen, it repeats to within 0.5 MB.
        gc.collect()
        gc.freeze()
        inputs_rss_mb = max_rss_mb()

        tracer = Tracer() if trace else None
        rec = Recorder(tracer)
        absent: list[str] = []
        if tracer is None:
            cycles, attempted, failed, peak_rss_mb = run_ops(workload, rec, seconds, speeds=speeds)
        else:
            with installed(tracer) as absent:
                cycles, attempted, failed, peak_rss_mb = run_ops(workload, rec, seconds, tracer)
        final = getattr(workload, "final_checks", None)
        if final is not None:
            attempted += 1
            rec.op_failed = False
            try:
                final(rec)
            except Exception:  # counted like a failed operation
                rec.failures.append(traceback.format_exc(limit=3))
                rec.op_failed = True
            failed += rec.op_failed
        named = workload.named(rec)
        describe = workload.describe()
    finally:
        gc.unfreeze()
        shutil.rmtree(scratch, ignore_errors=True)

    setup_s = statistics.median(setups_ref)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "cycles": cycles,
        "operations": workload.kinds,
        "named": named,
        "setup_s": {"value": setup_s, "unit": "s", "samples": len(setups), "wall_s": setups, "all_s": setups_ref},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "after_inputs_mb": inputs_rss_mb, "whole_run_mb": max_rss_mb()},
        "failed_share": {"value": failed / attempted, "unit": "ratio", "failed": failed, "attempted": attempted},
        "failures": rec.failures[:20],
        "inputs": describe,
    }
    if tracer is None:
        metrics = {"setup_s": (setup_s, "s")}
        record["calibration"] = {"reference_s": REFERENCE_S, "kernel_s": speeds.seen, "wall_s": {}}
        # A kind whose every operation failed has no sample and no metric.
        for kind in ("main", "aux"):
            if rec.samples[kind]:
                seen = speeds.seen
                scaled = [speeds.scale(t, seen[op], seen[op + 1]) for t, op in zip(rec.samples[kind], rec.sample_ops[kind])]
                metrics[f"{kind}_s"] = (mean(scaled), "s")
                record["calibration"]["wall_s"][f"{kind}_s"] = mean(rec.samples[kind])
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    else:
        from tracing import per_layer_names

        values, record["per_layer"] = tracer.layer_metrics(cycles, absent)
        metrics = {metric: (values[metric], unit) for metric, unit in per_layer_names()}
        if spans_dir is not None:
            spans_file = spans_dir / f"spans-{name}-seed{seed}.jsonl"
            tracer.write_spans(spans_file)
            record["spans_file"] = str(spans_file.relative_to(HERE.parent))
    result = {
        "correct": failed == 0 and all(rec.samples[kind] for kind in ("main", "aux")),
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train_paper", "tag_paper", "pipeline_grid"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "xlner" / "__init__.py").is_file():
        print(f"error: no xlner sources at {SRC}; run from an xlner checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import xlner

    if Path(xlner.__file__).resolve().parent != (SRC / "xlner").resolve():
        print(f"error: imported xlner from {xlner.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), spans_dir=HERE / "runs")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
