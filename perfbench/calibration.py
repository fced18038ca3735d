"""How fast the host runs right now, from a fixed piece of work timed
between operations.

The benchmark shares its host: for minutes at a time the same code runs up
to 50% slower, with CPU time equal to wall time, so the slowdown is
contention on shared hardware, not lost CPU time. The kernel here touches
no xlner code. It does a third each of the kinds of work xlner does:
interpreter work on strings and dicts (CoNLL and table parsing, TnT),
many small numpy calls (LSTM steps, the Jacobi sweeps) and streaming
through arrays larger than a core's cache (the dense SGD update of a
paper-size embedding table). An operation's wall seconds, scaled by
REFERENCE_S over the kernel's seconds measured just before and just
after it, are the seconds the operation takes at the host speed at which
the kernel takes REFERENCE_S. A change to xlner moves that figure as it
moves wall time; a change in host speed mostly does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A scale only: on a 2-vCPU Intel Xeon container the kernel took 0.009 to
# 0.017 s, as the host's speed wandered.
REFERENCE_S = 0.012
STREAM_PASSES = 4
REPEATS = 3  # kernel runs per measurement; the median is kept


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.words = [f"w{i}x{i % 13}" for i in range(1000)] * 32
        self.weights = rng.standard_normal((200, 100)) * 0.1
        self.inputs = rng.standard_normal((330, 50))
        self.table = rng.standard_normal((8000, 64))  # 4 MB, as is self.grad
        self.grad = np.zeros_like(self.table)
        self.seen: list[float] = []  # measurements between a run's operations

    def kernel(self) -> None:
        self.interpret()
        self.small_calls()
        self.stream()

    def interpret(self) -> None:
        counts: dict[str, int] = {}
        for word in self.words:
            counts[word] = counts.get(word, 0) + len(word)

    def small_calls(self) -> None:
        h = np.zeros(50)
        for x in self.inputs:
            z = self.weights @ np.concatenate([x, h])
            h = np.tanh(z[:50]) / (1.0 + np.exp(-z[50:100]))

    def stream(self) -> None:
        for _ in range(STREAM_PASSES):
            self.grad[...] = 0.0
            self.grad[::97] += 1.0
            np.multiply(self.grad, 1e-9, out=self.grad)
            np.subtract(self.table, self.grad, out=self.table)

    def measure(self, repeats: int = REPEATS) -> float:
        """The median seconds of `repeats` kernel runs."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self, seconds: float, before: float, after: float) -> float:
        """Seconds at the reference speed, for wall seconds spent between
        kernel measurements `before` and `after`."""
        return seconds * REFERENCE_S * 2.0 / (before + after)
