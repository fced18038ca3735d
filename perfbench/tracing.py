"""Spans recorded from outside the program: the benchmark wraps xlner's
public functions at every module attribute that names them, records one
span per call, and turns the spans into per-layer metrics.

A span is (name, start, end, parent span index, operation id). Spans stay
in memory until the run ends. Probes that the benchmark itself runs inside
a span (the tape walk, the gradient row count) are spans named
`perfbench.*`; their time is taken out of every enclosing span, so `s`
and `self_s` measure xlner's work only.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import pkgutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Functions wrapped in the traced run, as <module>.<function> under xlner.
# A hook whose target is gone (deleted module or function) is reported as
# absent and its metrics read 0; that is not an error.
HOOKS = (
    "tagger.train",
    "tagger.batch_gradients",
    "autodiff.backward",
    "crf.tape_crf_nll",
    "tagger.init_params",
    "tagger.tag_corpus",
    "tagger.encode_sentence",
    "crf.viterbi_decode",
    "tagger.constrained_transitions",
    "tagger.load_model",
    "tagger.save_model",
    "conll.read_conll",
    "conll.write_conll",
    "tnt.estimate",
    "tnt.tag_corpus",
    "evaluation.evaluate",
    "evaluation.majority_baseline",
    "embeddings.load_embeddings",
    "embeddings.save_embeddings",
    "embeddings.mine_identical_seeds",
    "embeddings.align_tables",
    "svd.jacobi_svd",
    "embeddings.apply_mapping",
    "transfer.load_resources",
    "transfer.bilingual_table",
    "transfer.run_seed",
)
STATS = (("s", "s"), ("self_s", "s"), ("calls", "count"))
# Per-layer metrics that are not per-hook time/call totals.
DERIVED = (
    ("autodiff.tape_nodes_per_token", "count"),
    ("tagger.word_emb_grad.useful_ratio", "ratio"),
    ("tagger.batch_gradients.call_median_ms", "ms"),
    ("tagger.batch_gradients.call_tail_ms", "ms"),
)
PROBE_PREFIX = "perfbench."


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    return [(f"{hook}.{stat}", unit) for hook in HOOKS for stat, unit in STATS] + list(DERIVED)


def tail_percentile(n: int):
    """Highest whole percentile above the median with at least ten of n
    samples beyond it, or None when n is too small for one."""
    if n < 20:
        return None
    return min(99, math.floor(100.0 * (1.0 - 10.0 / n)))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._open: list[int] = []
        self.op = 0
        self._paused = 0
        self.tape_nodes = 0
        self.batch_tokens = 0
        self.grad_rows_nonzero = 0
        self.grad_rows_updated = 0
        self.batch_signature = None  # of tagger.batch_gradients, to find `batch`

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    @contextmanager
    def paused(self):
        """Calls made inside (output checks) record no spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def wrap(self, name: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            # A direct recursive call (load_embeddings re-enters itself
            # with the opened file) stays inside the outer span.
            if self._paused or (self._open and self.spans[self._open[-1]][0] == name):
                return fn(*args, **kwargs)
            if before is not None:
                with self.span(PROBE_PREFIX + before.__name__):
                    before(self, args, kwargs)
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if after is not None:
                with self.span(PROBE_PREFIX + after.__name__):
                    after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---------------------------------------------------------------- output

    def layer_metrics(self, cycles: int, absent: list[str]) -> tuple[dict, dict]:
        """Per-layer metrics per cycle of the workload, and details."""
        n = len(self.spans)
        dur = [0.0] * n
        child = [0.0] * n
        probe = [0.0] * n
        for i in range(n - 1, -1, -1):  # children come after their parent
            name, start, end, parent, _ = self.spans[i]
            dur[i] = end - start
            if name.startswith(PROBE_PREFIX):
                probe[i] = dur[i]
            if parent is not None:
                child[parent] += dur[i]
                probe[parent] += probe[i]
        totals = {hook: [0.0, 0.0, 0] for hook in HOOKS}
        batch_calls = []
        for i, (name, *_rest) in enumerate(self.spans):
            if name in totals:
                t = totals[name]
                t[0] += dur[i] - probe[i]
                t[1] += dur[i] - child[i]
                t[2] += 1
                if name == "tagger.batch_gradients":
                    batch_calls.append(dur[i] - probe[i])
        metrics = {}
        for hook, (s, self_s, calls) in totals.items():
            metrics[f"{hook}.s"] = s / cycles
            metrics[f"{hook}.self_s"] = self_s / cycles
            metrics[f"{hook}.calls"] = calls / cycles
        metrics["autodiff.tape_nodes_per_token"] = (
            self.tape_nodes / self.batch_tokens if self.batch_tokens else 0.0
        )
        metrics["tagger.word_emb_grad.useful_ratio"] = (
            self.grad_rows_nonzero / self.grad_rows_updated if self.grad_rows_updated else 0.0
        )
        pct = tail_percentile(len(batch_calls))
        metrics["tagger.batch_gradients.call_median_ms"] = (
            1000.0 * statistics.median(batch_calls) if batch_calls else 0.0
        )
        metrics["tagger.batch_gradients.call_tail_ms"] = (
            1000.0 * float(np.percentile(batch_calls, pct)) if pct is not None else 0.0
        )
        probe_s = sum(dur[i] for i in range(n) if self.spans[i][0].startswith(PROBE_PREFIX))
        detail = {
            "per": f"{cycles} cycle(s); s and calls are per cycle",
            "absent_hooks": absent,
            "spans": n,
            "probe_s_per_cycle": probe_s / cycles,
            "tape_nodes": self.tape_nodes,
            "batch_tokens": self.batch_tokens,
            "word_emb_grad_rows": {
                "nonzero": self.grad_rows_nonzero,
                "updated": self.grad_rows_updated,
                "base": "every row of the dense word_emb gradient that the SGD step applies",
            },
            "batch_gradients_calls": {
                "samples": len(batch_calls),
                "tail_percentile": pct,
            },
        }
        return metrics, detail

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


# ----------------------------------------------------------------- probes


def tape_walk(tracer: Tracer, args, kwargs) -> None:
    """Count the tape nodes reachable from the root handed to backward."""
    root = args[0] if args else kwargs.get("root")
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    tracer.tape_nodes += len(seen)


def grad_rows(tracer: Tracer, args, kwargs, result) -> None:
    """Tokens in the batch, and non-zero rows of the word_emb gradient
    against the rows a dense update touches."""
    batch = None
    if tracer.batch_signature is not None:
        try:
            batch = tracer.batch_signature.bind(*args, **kwargs).arguments.get("batch")
        except TypeError:
            pass
    if batch is not None:
        tracer.batch_tokens += sum(len(sentence) for sentence in batch)
    grads = result[1] if isinstance(result, tuple) and len(result) == 2 else None
    grad = grads.get("word_emb") if isinstance(grads, dict) else None
    if isinstance(grad, np.ndarray) and grad.ndim == 2:
        tracer.grad_rows_nonzero += int(np.count_nonzero(np.any(grad != 0.0, axis=1)))
        tracer.grad_rows_updated += grad.shape[0]


PROBES = {
    "autodiff.backward": (tape_walk, None),
    "tagger.batch_gradients": (None, grad_rows),
}


@contextmanager
def installed(tracer: Tracer):
    """Wrap every hook target wherever an xlner module names it; yields
    the list of absent hooks. Originals are restored on exit."""
    import xlner

    for info in pkgutil.iter_modules(xlner.__path__):
        try:
            importlib.import_module(f"xlner.{info.name}")
        except ImportError:
            pass
    modules = [m for name, m in list(sys.modules.items()) if name == "xlner" or name.startswith("xlner.")]
    patches = []
    absent = []
    try:
        for hook in HOOKS:
            module_name, function_name = hook.rsplit(".", 1)
            module = sys.modules.get(f"xlner.{module_name}")
            target = getattr(module, function_name, None) if module is not None else None
            if not callable(target):
                absent.append(hook)
                continue
            if hook == "tagger.batch_gradients":
                tracer.batch_signature = inspect.signature(target)
            before, after = PROBES.get(hook, (None, None))
            wrapper = tracer.wrap(hook, target, before, after)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is target:
                        setattr(m, attr, wrapper)
                        patches.append((m, attr, target))
        yield absent
    finally:
        for m, attr, target in reversed(patches):
            setattr(m, attr, target)
