"""In-process workloads: field-study and eit-study.

One process, one client, closed loop: each op starts when the previous
one and its check have finished. Prints one JSON line: the
``time.monotonic()`` at which set-up finished (``ready_at``; the clock is
shared by all processes, so the caller can time set-up from the spawn)
and, unless ``--setup-only``, the samples.

    python perfbench/study.py --workload field-study --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import replace

import numpy as np

# Functions are called through the ``zefoz`` namespace, where the tracer
# binds its wrappers; classes are imported by name.
import zefoz
from zefoz import (AxisGrid, CombModel, FieldGrid, LambdaParams, NoiseModel, SpectrumParams,
                   SpinParams, TransitionOperator, TransitionSelector)

import inputs
import oracles
from hostspeed import HostSpeed
from tracer import Profile, Tracer, layer_metrics, write_spans

FAILURE_LIMIT = 5  # failure messages kept for the report
FADDEEVA_CHECKS = 3


def _spin(params: dict) -> SpinParams:
    return SpinParams(**params)


def _grid(bounds) -> FieldGrid:
    return FieldGrid(*(AxisGrid(*axis) for axis in bounds))


class Op:
    """One timed call and the check of its result."""

    def __init__(self, kind: str, index: int, run, check):
        self.kind, self.index, self.run, self.check = kind, index, run, check

    @property
    def op_id(self) -> str:
        return f"{self.kind}:{self.index}"


# --- field-study -----------------------------------------------------------

def field_setup(seed: int):
    return None


def field_cycle(seed: int, cycle: int, state) -> list[Op]:
    """One 3-D search, then FIELD_STUDY_POINTS single-field evaluations with
    FIELD_STUDY_DIAGRAMS 201-point diagrams spread among them."""
    search = inputs.search_case(seed, cycle)
    n, m = inputs.FIELD_STUDY_POINTS, inputs.FIELD_STUDY_DIAGRAMS

    def run_search():
        sel = TransitionSelector("ground", *search["pair"])
        return zefoz.zefoz_search(_spin(search["ground"]), sel, search["start"],
                                  _grid(search["bounds"]), search["tol"])

    def run_point(case):
        params = _spin(case["ground"])
        sel = TransitionSelector("ground", *case["pair"])
        return (zefoz.ion_levels(params, case["field"]),
                zefoz.frequency_gradient(params, case["field"], sel))

    def run_diagram(case):
        axes = [(0.0, 0.0, 1)] * 3
        axes[case["axis"]] = case["scan"]
        return zefoz.level_diagram(_spin(case["ground"]), _grid(axes))

    ops = [Op("search", cycle, run_search, lambda r: oracles.check_search(r, search))]
    for j in range(n):
        if j % (n // m) == 0:
            index = cycle * m + j // (n // m)
            case = inputs.diagram_case(seed, index)
            ops.append(Op("diagram", index, lambda c=case: run_diagram(c),
                          lambda r, c=case: oracles.check_diagram(r, c)))
        case = inputs.point_case(seed, cycle * n + j)
        ops.append(Op("point", cycle * n + j, lambda c=case: run_point(c),
                      lambda r, c=case: oracles.check_point(r, c)))
    return ops


# --- eit-study -------------------------------------------------------------

def eit_setup(seed: int):
    """The ion and its stationary point from the README default 1-D search."""
    case = inputs.eit_ion(seed)
    ground = _spin(case["ion"]["ground"])
    points = zefoz.zefoz_search(ground, TransitionSelector("ground", *case["pair"]),
                                case["start"], _grid(case["bounds"]))
    oracles.check_search(points, dict(case, tol=1e-6))
    return {"ground": ground, "excited": _spin(case["ion"]["excited"]), "point": points[0],
            "grid": np.linspace(*inputs.EIT_GRID)}


def eit_cycle(seed: int, cycle: int, state) -> list[Op]:
    """EIT_STUDY_PROFILES eit_profile ops; the cycle ends with a 41-point
    amplitude_vs_field (nine-line comb) and a table -> Lambda systems ->
    spectrum op.

    The first FADDEEVA_CHECKS profile ops of a run also check the Faddeeva
    form of the average they used against quadrature at two detunings."""
    z = state["point"]
    noise = NoiseModel(curvatures=tuple(float(c) for c in z.curvatures))
    lam = LambdaParams()
    n = inputs.EIT_STUDY_PROFILES
    ops = []
    for j in range(n):
        index = cycle * n + j
        case = inputs.profile_case(seed, index)
        comb = CombModel(spacing=case["spacing"], n_lines=case["n_lines"], noise=noise)

        def run_profile(comb=comb, case=case):
            return zefoz.eit_profile(comb, lam, case["delta_b"], state["grid"])

        def check_profile(profile, case=case, index=index):
            oracles.check_profile(profile)
            if index < FADDEEVA_CHECKS:
                width = zefoz.spin_linewidth(noise, case["delta_b"])
                rng = inputs.stream(seed, "eit-study/faddeeva", index)
                points = [(rng.uniform(-18.0, 18.0), rng.uniform(-18.0, 18.0)) for _ in range(2)]
                oracles.check_faddeeva(zefoz.averaged_susceptibility, zefoz.susceptibility,
                                       replace(lam, spin_dephasing=width / 2), points)

        ops.append(Op("profile", index, run_profile, check_profile))

    sweep = inputs.sweep_case(seed, cycle)
    bz = float(z.field[2])
    line = FieldGrid(AxisGrid(float(z.field[0]), float(z.field[0]), 1),
                     AxisGrid(float(z.field[1]), float(z.field[1]), 1),
                     AxisGrid(bz - sweep["below"], bz + sweep["above"], 41))
    sweep_comb = CombModel(spacing=sweep["spacing"], n_lines=9, noise=noise)

    def run_sweep():
        return zefoz.amplitude_vs_field(state["ground"], z, noise, lam, sweep_comb, line)

    spectrum = SpectrumParams(grid=AxisGrid(*inputs.SPECTRUM_GRID))
    field = z.field + np.array(sweep["spectrum_offset"])

    def run_spectrum():
        table = zefoz.transition_table(zefoz.ion_levels(state["ground"], field),
                                       zefoz.ion_levels(state["excited"], field),
                                       TransitionOperator("S_x"), spectrum)
        return (table, zefoz.find_lambda_systems(table),
                zefoz.absorption_spectrum(table, spectrum))

    dim = state["ground"].dimension
    ops.append(Op("sweep", cycle, run_sweep, lambda r: oracles.check_sweep(r, 41)))
    ops.append(Op("spectrum", cycle, run_spectrum,
                  lambda r: oracles.check_spectrum(r, dim, inputs.SPECTRUM_GRID[2])))
    return ops


WORKLOADS = {
    "field-study": (field_setup, field_cycle),
    "eit-study": (eit_setup, eit_cycle),
}


class Run:
    """Ops attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def execute(self, op: Op, tracer: Tracer | None = None) -> tuple[float, float] | None:
        """Time one op, then check it; returns (start, seconds), or None if it failed."""
        self.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                result = op.run()
                elapsed = time.perf_counter() - start
            else:
                with tracer.op(op.op_id):
                    start = time.perf_counter()
                    result = op.run()
                    elapsed = time.perf_counter() - start
            op.check(result)
        except Exception as exc:  # any error is a failed op; the run goes on
            self.failed += 1
            if len(self.failures) < FAILURE_LIMIT:
                self.failures.append(f"{op.op_id}: {type(exc).__name__}: {exc}")
            return None
        return start, elapsed

    def execute_cycle(self, ops, tracer: Tracer | None = None) -> list[tuple[float, float] | None]:
        return [self.execute(op, tracer) for op in ops]


def measure(workload: str, seed: int, seconds: float, state) -> dict:
    """Fresh seeded cycles for ``seconds`` (at least one), each op once,
    with the host-speed kernel sampled between ops.

    The samples are the ops' times scaled to the reference host speed
    (hostspeed.py), which takes out the minutes-long phases in which a
    shared host runs everything slower; ``raw`` holds the measured ones."""
    run = Run()
    speed = HostSpeed()
    cycle_of = WORKLOADS[workload][1]
    cycles = []
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        cycle = []
        for op in cycle_of(seed, len(cycles), state):
            speed.sample_if_due()
            cycle.append((op.kind, run.execute(op)))
        cycles.append(cycle)
    speed.sample()
    samples, raw = speed.op_times(cycles)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"samples": samples, "raw": raw, "attempted": run.attempted,
            "failed": run.failed, "failures": run.failures, "peak_rss_mb": peak_mb}


def _total(times: list[tuple[float, float] | None]) -> float | None:
    return None if None in times else sum(t[1] for t in times)


def measure_traced(workload: str, seed: int, seconds: float, state, spans_path: str | None):
    """Cycle 0, alternately untraced and traced, until ``seconds`` have passed
    (at least twice each). Counts must repeat exactly in every traced pass."""
    run = Run()
    cycle_of = WORKLOADS[workload][1]
    tracer = Tracer()
    tracer.install()
    plain, traced, metrics, counts = [], [], [], None
    deadline = time.perf_counter() + seconds
    try:
        while len(traced) < 2 or time.perf_counter() < deadline:
            plain.append(_total(run.execute_cycle(cycle_of(seed, 0, state))))
            traced.append(_total(run.execute_cycle(cycle_of(seed, 0, state), tracer)))
            spans = tracer.take_spans()
            if spans_path is not None and len(traced) == 1:
                write_spans(spans_path, spans)
            profile = Profile(spans)
            if counts is None:
                counts = profile.counts()
            elif profile.counts() != counts:
                run.failed += 1
                run.failures.append(f"traced pass {len(traced)}: counts differ from pass 1")
            metrics.append(layer_metrics(profile))
    finally:
        tracer.uninstall()
    return {"plain": plain, "traced": traced, "layers": metrics, "counts": counts,
            "attempted": run.attempted, "failed": run.failed, "failures": run.failures}


def environment() -> dict:
    import os
    import platform
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "zefoz": zefoz.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the first traced pass's spans here")
    parser.add_argument("--env", action="store_true", help="print the environment and exit")
    args = parser.parse_args(argv)
    if args.env:
        print(json.dumps(environment()))
        return 0
    state = WORKLOADS[args.workload][0](args.seed)
    result = {"ready_at": time.monotonic()}
    if args.trace and not args.setup_only:
        result.update(measure_traced(args.workload, args.seed, args.seconds, state, args.spans))
    elif not args.setup_only:
        result.update(measure(args.workload, args.seed, args.seconds, state))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
