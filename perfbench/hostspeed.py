"""Host-speed calibration: op times scaled to a fixed reference speed.

The shared virtual machines this benchmark runs on change speed for
minutes at a time: the same code runs up to ~1.8x slower while a
neighbour loads the physical core, and CPU time slows with wall time, so
a run's raw times depend on the phase it falls in more than on the
program. A fixed calibration kernel that calls no ``zefoz`` code (numpy
Hamiltonians and ``eigh``, Faddeeva on a grid, Python string and dict
work, unmarshalling a code object) runs between the ops: in the op's own
process for the in-process workloads, in the benchmark's process between
CLI commands and set-up spawns. An op's scaled time is

    wall time * REFERENCE_S / median kernel time measured around the op,

the time the op would take on a host where the kernel takes REFERENCE_S.
A slow phase lengthens both and cancels; a change to the program moves
only the op. Raw medians are printed beside the scaled ones.
"""

from __future__ import annotations

import marshal
import os
import statistics
import time

import numpy as np
from scipy.special import wofz

import inputs
from oracles import hamiltonian

# A nominal kernel time, about the kernel's median time on a 2-vCPU Intel
# Xeon virtual machine at 2.1 GHz (Python 3.11, numpy 2.4, OpenBLAS, one
# thread) in a quiet phase. It only sets the scale of the scaled times.
REFERENCE_S = 3.0e-3
WINDOW_S = 0.5  # kernel samples this close to an op set its speed
EVERY_S = 0.1  # in-process sampling period

_ION = dict(inputs.ND_GROUND, P=1.5)
_FIELDS = [(0.3 * i, -0.2 * i, 10.0 + 7.0 * i) for i in range(8)]
_GRID = np.linspace(-18.0, 18.0, 1801) + 0.5j
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.py"),
          encoding="utf-8") as _handle:
    _CODE = marshal.dumps(compile(_handle.read(), "oracles.py", "exec"))


def kernel() -> float:
    """A fixed mix of the kinds of work zefoz does; about 3 ms."""
    rows = []
    for field in _FIELDS:
        energies = np.linalg.eigh(hamiltonian(_ION, field))[0]
        rows.append(",".join(f"{e:.9g}" for e in energies))
    total = float(wofz(_GRID).real.sum())
    counts: dict[str, int] = {}
    for row in rows:
        for cell in row.split(","):
            counts[cell[:4]] = counts.get(cell[:4], 0) + 1
    for _ in range(16):
        marshal.loads(_CODE)
    return total + len(counts)


class HostSpeed:
    """Kernel timings (midpoint, seconds) on the ``time.perf_counter`` clock."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        kernel()  # warm-up, untimed

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.samples.append(((start + end) / 2, end - start))

    def sample_if_due(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of
        [start, end]; the nearest sample when none is that close."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - (start + end) / 2))[1]]
        return REFERENCE_S / statistics.median(near)

    def op_times(self, cycles, groups=None) -> tuple[dict[str, list[float]],
                                                    dict[str, list[float]]]:
        """Scaled and raw times by op kind and, for each cycle whose ops all
        succeeded, its total under "pass" and the total of each of
        ``groups`` (name -> op kinds). ``cycles`` holds one list per cycle
        of (kind, (start, seconds) or None for a failed op)."""
        scaled: dict[str, list[float]] = {"pass": []}
        raw: dict[str, list[float]] = {"pass": []}
        for cycle in cycles:
            done = [(kind, t[1] * self.scale(t[0], t[0] + t[1]), t[1])
                    for kind, t in cycle if t is not None]
            for kind, seconds, measured in done:
                scaled.setdefault(kind, []).append(seconds)
                raw.setdefault(kind, []).append(measured)
            if len(done) < len(cycle):
                continue
            for group, kinds in [("pass", None), *(groups or {}).items()]:
                part = [(s, m) for kind, s, m in done if kinds is None or kind in kinds]
                scaled.setdefault(group, []).append(sum(s for s, _ in part))
                raw.setdefault(group, []).append(sum(m for _, m in part))
        return scaled, raw
