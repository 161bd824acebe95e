"""zefoz benchmark: three workloads, checked results, one JSON line.

    python3 perfbench/run.py --workload cli-suite --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program is imported from ./src.
It and every process it spawns have their BLAS/OpenMP threads pinned to 1,
and the children run alone, one after another, so the load is one client
in a closed loop. End-to-end times are scaled to a reference host speed
measured between ops (hostspeed.py), since the shared hosts it runs on
change speed for minutes at a time.

Workloads (see README.md beside this file):

* ``cli-suite``: the seven commands as fresh ``python -m zefoz.cli``
  processes on a seeded ion file;
* ``field-study``: 3-D ZEFOZ searches, single-field evaluations and level
  diagrams, in one process;
* ``eit-study``: EIT profiles, field sweeps and spectra, in one process.

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer ones; the lines before it give every timing
under its per-workload name with its sample count, and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One BLAS/OpenMP thread here, where the host-speed kernel runs, and in every
# child, which inherits the environment; set before numpy is loaded.
os.environ.update({name: "1" for name in THREAD_PINS})

import inputs  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import Profile, layer_metrics, read_spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-suite", "field-study", "eit-study")
SETUP_SAMPLES = 5
SPEED_BATCH = 3  # host-speed kernel runs before each spawn (hostspeed.py)
RUN_LIMIT_S = 170.0  # every child is killed when a run reaches this

# cli-suite's commands in three groups, timed per pass: the commands that
# run a 1-D ZEFOZ search, those that evaluate a grid of fields or
# frequencies, and those that evaluate a single field.
CLI_GROUPS = {"search": ("zefoz", "eit", "sweep"), "grid": ("diagram", "spectrum"),
              "single": ("levels", "lambda")}
# The three timed op kinds of each workload, heaviest compute first, and
# the end-to-end metric each one feeds (see README.md).
OP_ROLES = {
    "cli-suite": {"heavy_op_s": "search", "mid_op_ms": "grid", "light_op_ms": "single"},
    "field-study": {"heavy_op_s": "search", "mid_op_ms": "diagram", "light_op_ms": "point"},
    "eit-study": {"heavy_op_s": "sweep", "mid_op_ms": "spectrum", "light_op_ms": "profile"},
}
# Per-workload names of the same timings, in the report lines.
REPORT_NAMES = {
    "cli-suite": {"pass": ("suite_s", 1.0), "search": ("search_commands_s", 1.0),
                  "grid": ("grid_commands_s", 1.0), "single": ("single_commands_s", 1.0)},
    "field-study": {"search": ("search_s", 1.0), "point": ("point_ms", 1e3),
                    "diagram": ("diagram_s", 1.0)},
    "eit-study": {"profile": ("profile_ms", 1e3), "sweep": ("sweep_s", 1.0),
                  "spectrum": ("spectrum_ms", 1e3)},
}
# Per-layer times that only some workloads exercise; reported by name in
# the lines before the result, where they are not zero.
WORKLOAD_LAYER_TIMES = ("config.", "output.write_table.ms", "transitions.", "eit.",
                        "fieldmap.frequency_gradient.self_ms",
                        "fieldmap.frequency_curvatures.self_ms",
                        "fieldmap.zefoz_search.self_ms", "fieldmap.level_diagram.self_ms")


class Failure(Exception):
    """The benchmark itself could not run."""


class Children:
    """Spawns the benchmark's processes, one at a time, under one deadline."""

    def __init__(self, root: str, tmp: str):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.speed = HostSpeed()

    def run(self, argv: list[str]):
        """Run in the run's temporary directory; returns (start, wall seconds,
        result) on the ``time.perf_counter`` clock."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Failure("run time limit reached")
        start = time.perf_counter()
        try:
            done = subprocess.run(argv, cwd=self.tmp, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise Failure(f"{' '.join(argv[:3])} timed out") from exc
        return start, time.perf_counter() - start, done

    def python(self, *args: str):
        return self.run([sys.executable, *args])

    def study(self, *args: str) -> tuple[tuple[float, float], dict]:
        """Run study.py; returns ((start, set-up seconds from spawn), its JSON result)."""
        spawned = time.monotonic()
        start, _, done = self.python(os.path.join(HERE, "study.py"), *args)
        if done.returncode != 0:
            raise Failure(f"study.py exited {done.returncode}: {done.stderr.strip()[-500:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        return (start, result["ready_at"] - spawned), result


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def p90_if_resolved(values) -> float | None:
    """The 90th percentile when at least ten samples lie beyond it."""
    if len(values) < 100:
        return None
    p90 = statistics.quantiles(values, n=10)[-1]
    return p90 if sum(v > p90 for v in values) >= 10 else None


def import_probes(children: Children) -> dict[str, list[float]]:
    """Walls of a bare interpreter and of one that imports zefoz.cli."""
    probes = {"import.python_s": [], "import.zefoz_s": []}
    for _ in range(SETUP_SAMPLES):
        probes["import.python_s"].append(children.python("-c", "pass")[1])
        probes["import.zefoz_s"].append(children.python("-c", "import zefoz.cli")[1])
    return probes


# --- cli-suite -------------------------------------------------------------

def check_zefoz_rows(text: str, expected: tuple[float, float]) -> None:
    bz, omega0 = expected
    rows = [json.loads(line) for line in text.splitlines() if line and not line.startswith("#")]
    if not rows:
        raise ValueError("no stationary point written")
    for row in rows:
        if not (abs(row["Bz_mT"] / bz - 1) <= 1e-6 and abs(row["omega0_MHz"] / omega0 - 1) <= 1e-6
                and math.hypot(row["Bx_mT"], row["By_mT"]) <= 1e-6 * abs(bz)
                and row["gradient_residual_MHz_per_mT"] <= 1e-6):
            raise ValueError(f"zefoz row {row} does not match Bz*={bz!r}, w0={omega0!r}")


class CliSuite:
    def __init__(self, children: Children, seed: int):
        self.children = children
        self.case = inputs.cli_case(seed)
        for name, text in self.case["files"].items():
            with open(os.path.join(children.tmp, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        self.digests: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def command(self, name: str, spans_path: str | None) -> tuple[float, float] | None:
        """One command; returns (start, wall seconds), or None if it failed its checks."""
        self.attempted += 1
        argv = ["-m", "zefoz.cli"] if spans_path is None else [
            os.path.join(HERE, "tracecli.py"), spans_path]
        self.children.speed.sample(SPEED_BATCH)
        start, wall, done = self.children.python(*argv, "--config", f"{name}.cfg")
        try:
            if done.returncode != 0:
                raise ValueError(f"exit {done.returncode}: {done.stderr.strip()[-300:]}")
            with open(os.path.join(self.children.tmp, inputs.OUTPUTS[name]), "rb") as handle:
                data = handle.read()
            if name == "zefoz":
                check_zefoz_rows(data.decode("utf-8"), self.case["expected"])
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(name, digest) != digest:
                raise ValueError("output bytes differ from the first pass")
        except (ValueError, KeyError, OSError) as exc:
            self.failed += 1
            self.failures.append(f"{name}: {exc}")
            return None
        return start, wall

    def one_pass(self, traced: bool = False) -> tuple[list, Profile | None]:
        """[(command, (start, wall) or None)], and the spans' profile if traced."""
        walls, profile = [], Profile([]) if traced else None
        for name in inputs.COMMANDS:
            spans_path = os.path.join(self.children.tmp, f"{name}.spans.jsonl") if traced else None
            walls.append((name, self.command(name, spans_path)))
            if traced and walls[-1][1] is not None:
                profile.merge(Profile(read_spans(spans_path)))
        return walls, profile


def raw_total(walls: list) -> float | None:
    return None if any(t is None for _, t in walls) else sum(t[1] for _, t in walls)


def setup_samples(children: Children, spawns: list) -> tuple[list[float], list[float]]:
    """Scaled and raw set-up times of (start, seconds) spawns."""
    speed = children.speed
    return [s * speed.scale(t, t + s) for t, s in spawns], [s for _, s in spawns]


def cli_setup(children: Children) -> list[tuple[float, float]]:
    children.python("-c", "import zefoz.cli")  # untimed: fills the bytecode cache
    spawns = []
    for _ in range(SETUP_SAMPLES):
        children.speed.sample(SPEED_BATCH)
        spawns.append(children.python("-c", "import zefoz.cli")[:2])
    return spawns


def run_cli(children: Children, seed: int, seconds: float, trace: bool) -> dict:
    """Passes over the same seven commands for ``seconds``; each command's
    wall time is scaled to the reference host speed (hostspeed.py)."""
    spawns = cli_setup(children)
    suite = CliSuite(children, seed)
    passes, traced_passes, layers, counts = [], [], [], None
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline or (trace and len(layers) < 2):
        passes.append(suite.one_pass()[0])
        if trace:
            walls, profile = suite.one_pass(traced=True)
            if raw_total(walls) is None:
                continue
            traced_passes.append(raw_total(walls))
            if counts is None:
                counts = profile.counts()
            elif profile.counts() != counts:
                suite.failed += 1
                suite.failures.append("traced pass counts differ from the first")
            layers.append(layer_metrics(profile))
    children.speed.sample(SPEED_BATCH)
    samples, raw = children.speed.op_times(passes, CLI_GROUPS)
    setup, setup_raw = setup_samples(children, spawns)
    result = {"setup": setup, "setup_raw": setup_raw, "samples": samples, "raw": raw,
              "attempted": suite.attempted, "failed": suite.failed, "failures": suite.failures,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    if trace:
        result.update(plain=raw["pass"], traced=traced_passes, layers=layers)
    return result


# --- field-study and eit-study ---------------------------------------------

def run_study(children: Children, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    children.study(*base, "--setup-only")  # untimed: fills the bytecode cache
    spawns = []
    for _ in range(SETUP_SAMPLES - 1):
        children.speed.sample(SPEED_BATCH)
        spawns.append(children.study(*base, "--setup-only")[0])
    extra = ["--spans", os.path.join(children.tmp, "spans.jsonl")] if trace else []
    children.speed.sample(SPEED_BATCH)
    ready, result = children.study(*base, "--seconds", str(seconds), "--trace", str(int(trace)),
                                   *extra)
    result["setup"], result["setup_raw"] = setup_samples(children, spawns + [ready])
    return result


# --- report ----------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, r: dict) -> dict:
    samples = r["samples"]
    roles = OP_ROLES[workload]
    return {
        "setup_s": metric(median(r["setup"]), "s"),
        "pass_s": metric(median(samples["pass"]), "s"),
        "heavy_op_s": metric(median(samples[roles["heavy_op_s"]]), "s"),
        "mid_op_ms": metric(median(samples[roles["mid_op_ms"]]) * 1e3, "ms"),
        "light_op_ms": metric(median(samples[roles["light_op_ms"]]) * 1e3, "ms"),
        "peak_rss_mb": metric(r["peak_rss_mb"], "MB"),
    }


def per_layer(workload: str, r: dict, probes: dict) -> tuple[dict, dict]:
    """(metrics for the result line, workload-specific times for the report)."""
    layers = r["layers"]
    out = {}
    if workload == "cli-suite":
        for name in inputs.COMMANDS:
            out[f"cli.{name}.wall_s"] = metric(median(r["samples"].get(name, [])), "s")
    for name, values in probes.items():
        out[name] = metric(median(values), "s")
    for name, (_, unit) in layers[0].items():
        out[name] = metric(median([layer[name][0] for layer in layers]), unit)
    plain = [t for t in r["plain"] if t is not None]
    traced = [t for t in r["traced"] if t is not None]
    out["trace.overhead_frac"] = metric(median(traced) / median(plain), "ratio")
    specific = {name: m for name, m in out.items()
                if name.startswith("cli.") or (name.startswith(WORKLOAD_LAYER_TIMES)
                                               and m["unit"] in ("ms", "s"))}
    return {k: v for k, v in out.items() if k not in specific}, specific


def report_lines(workload: str, r: dict, specific: dict | None) -> list[str]:
    """Timings under their per-workload names with sample counts; in a
    traced run, the per-layer times that only this workload exercises."""
    lines = [f"{'setup_s':<40} {median(r['setup']):12.6g} s     median of "
             f"{len(r['setup'])}, scaled; measured {median(r['setup_raw']):.6g}"]
    rows = []
    if specific is None:
        for kind, (name, scale) in REPORT_NAMES[workload].items():
            rows.append((name, kind, scale, name.rsplit("_", 1)[1]))
        if workload == "cli-suite":
            rows += [(f"cli.{c}.wall_s", c, 1.0, "s") for c in inputs.COMMANDS]
    for name, kind, scale, unit in rows:
        values, raw = r["samples"].get(kind, []), r["raw"].get(kind, [])
        lines.append(f"{name:<40} {median(values) * scale:12.6g} {unit:<5} median of "
                     f"{len(values)}, scaled; measured {median(raw) * scale:.6g}")
        p90 = p90_if_resolved(values)
        if p90 is not None:
            lines.append(f"{name + '.p90':<40} {p90 * scale:12.6g} {unit:<5} of {len(values)}")
    frac = r["failed"] / r["attempted"] if r["attempted"] else float("nan")
    lines.append(f"{'failed_frac':<40} {frac:12.6g} ratio {r['failed']} of {r['attempted']} ops")
    if specific is None:
        lines.append(f"{'peak_rss_mb':<40} {r['peak_rss_mb']:12.6g} MB")
    for name, m in sorted((specific or {}).items()):
        if m["value"]:
            lines.append(f"{name:<40} {m['value']:12.6g} {m['unit']}")
    lines += [f"failure: {f}" for f in r["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="zefoz benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zefoz", "__init__.py")):
        print("perfbench: no src/zefoz here; run from the root of a zefoz checkout",
              file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(tmp)
    children = Children(root, tmp)
    try:
        done = children.python(os.path.join(HERE, "study.py"), "--env")[2]
        env = json.loads(done.stdout) if done.returncode == 0 else {}
        if args.workload == "cli-suite":
            r = run_cli(children, args.seed, args.seconds, bool(args.trace))
        else:
            r = run_study(children, args.workload, args.seed, args.seconds, bool(args.trace))
        specific = None
        if args.trace:
            metrics, specific = per_layer(args.workload, r, import_probes(children))
            keep = os.path.join(root, ".perfbench_out", args.workload)
            shutil.rmtree(keep, ignore_errors=True)
            os.makedirs(keep)
            for name in os.listdir(tmp):
                if name.endswith("spans.jsonl"):
                    shutil.copy(os.path.join(tmp, name), keep)
        else:
            metrics = end_to_end(args.workload, r)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only when no other run is using it

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in report_lines(args.workload, r, specific):
        print(line)
    correct = r["failed"] == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():  # a metric with no samples is null: JSON has no NaN
        if not math.isfinite(m["value"]):
            m["value"] = None
    print(json.dumps({"correct": correct, "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
