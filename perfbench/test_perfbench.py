"""Smoke test of the benchmark itself: every workload at a tiny size,
untraced and traced, prints exactly the metrics BENCHMARK.json names and
leaves xlner unwrapped afterwards.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import importlib
import json
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def xlner_bindings():
    """Every callable attribute of every xlner module."""
    import xlner

    for info in pkgutil.iter_modules(xlner.__path__):
        importlib.import_module(f"xlner.{info.name}")
    return {
        (name, attr): value
        for name, module in sorted(sys.modules.items())
        if name.startswith("xlner.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == ["train_paper", "tag_paper", "pipeline_grid"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.per_layer_names()


# Hooks each workload must reach, including names its callers import
# directly (crf.tape_crf_nll into tagger, load_embeddings into transfer)
# and train()'s local import of evaluation.evaluate.
CALLED = {
    "train_paper": ("tagger.train", "evaluation.evaluate", "crf.tape_crf_nll", "autodiff.backward"),
    "tag_paper": ("tagger.load_model", "crf.viterbi_decode", "tnt.estimate"),
    "pipeline_grid": ("embeddings.load_embeddings", "transfer.load_resources", "svd.jacobi_svd"),
}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_tiny(workload):
    before = xlner_bindings()
    for trace, spec in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        result, record = run.run(workload, seed=3, seconds=0.01, trace=trace, size="tiny")
        assert result["correct"], record["failures"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        if not trace:  # every timed operation sits between two kernel measurements
            kernel_s = record["calibration"]["kernel_s"]
            assert len(kernel_s) >= 2 and min(kernel_s) > 0
        if trace:
            assert record["per_layer"]["absent_hooks"] == []
            for hook in CALLED[workload]:
                assert result["metrics"][f"{hook}.calls"]["value"] >= 1, hook
    after = xlner_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items()), "a wrapper was left installed"
    assert not any(hasattr(v, "__wrapped__") for v in after.values())


@pytest.mark.parametrize("workload, target", [("train_paper", "train"), ("tag_paper", "load_model")])
def test_failing_program_is_reported(monkeypatch, workload, target):
    """When xlner raises, the run still ends with a result line that says so;
    tag_paper's final check fails too, after the timed region."""
    import xlner.tagger

    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(xlner.tagger, target, broken)
    result, record = run.run(workload, seed=3, seconds=0.01, trace=False, size="tiny")
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "main_s" not in result["metrics"] and "setup_s" in result["metrics"]
    assert any("broken" in failure for failure in record["failures"])
    json.dumps(result)


def test_absent_hook_is_reported(monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + ("autodiff.no_such_function", "no_such_module.fn"))
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        import xlner.tagger

        assert hasattr(xlner.tagger.train, "__wrapped__")
    assert absent == ["autodiff.no_such_function", "no_such_module.fn"]
    assert not hasattr(xlner.tagger.train, "__wrapped__")
    metrics, _ = tracer.layer_metrics(1, absent)
    assert metrics["no_such_module.fn.calls"] == 0


def test_fails_without_xlner_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "work-*", "runs"))
    cmd = SPEC["command"] + ["--workload", "tag_paper", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
