"""Seeded inputs for every workload.

Pure standard library, so the same seed gives the same inputs on any
machine and the harness can write the CLI files without importing numpy.
Each input is drawn from its own stream, keyed by workload, op kind, seed
and index, so op ``i`` does not depend on how many ops ran before it.
"""

from __future__ import annotations

import math
import random

MU_B = 14.0

# 143Nd3+:YLiF4 effective spin parameters, the paper's reference ion.
ND_GROUND = dict(electron_spin=0.5, nuclear_spin=3.5, g_par=1.987, g_perp=2.554,
                 A=-590.0, B_hf=-789.0)
ND_EXCITED = dict(electron_spin=0.5, nuclear_spin=3.5, g_par=0.18, g_perp=0.0,
                  A=-257.0, B_hf=-456.0)

COMMANDS = ("levels", "diagram", "zefoz", "lambda", "spectrum", "eit", "sweep")
OUTPUTS = {c: f"{c}.jsonl" if c in ("zefoz", "lambda") else f"{c}.csv" for c in COMMANDS}

FIELD_STUDY_POINTS = 40  # single-field evaluations per field-study cycle
FIELD_STUDY_DIAGRAMS = 4  # level diagrams per field-study cycle; divides the points
EIT_STUDY_PROFILES = 10  # eit_profile ops per eit-study cycle; the last adds sweep + spectrum
EIT_GRID = (-18.0, 18.0, 1801)
SPECTRUM_GRID = (-2200.0, 2200.0, 2201)


def stream(seed: int, name: str, index: int = 0) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


def _manifold(rng: random.Random, base: dict, nuclear_spin: float) -> dict:
    """Nd-like parameters, each scaled by a factor in [0.9, 1.1], |P| <= 5 MHz."""
    params = dict(base, nuclear_spin=nuclear_spin)
    for key in ("g_par", "g_perp", "A", "B_hf"):
        params[key] = base[key] * (1.0 + rng.uniform(-0.1, 0.1))
    params["P"] = rng.uniform(-5.0, 5.0)
    return params


def perturbed_ion(rng: random.Random, nuclear_spin: float = 3.5) -> dict:
    return {
        "ground": _manifold(rng, ND_GROUND, nuclear_spin),
        "excited": _manifold(rng, ND_EXCITED, nuclear_spin),
    }


def clock_point(ground: dict) -> tuple[float, float]:
    """Closed-block oracle for the (8, 10) clock transition of an I = 7/2 ion.

    In a longitudinal field {|5/2, +1/2>, |7/2, -1/2>} is an exactly closed
    block; its splitting is stationary where the diagonal terms cross, at
    Bz* = -(3A - 6P) / (g_par mu_B), with frequency w0 = sqrt(7) |B_hf|.
    """
    bz = -(3.0 * ground["A"] - 6.0 * ground["P"]) / (ground["g_par"] * MU_B)
    return bz, math.sqrt(7.0) * abs(ground["B_hf"])


def _random_field(rng: random.Random, low: float, high: float) -> tuple[float, float, float]:
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(1.0 - z * z)
    mag = rng.uniform(low, high)
    return (mag * r * math.cos(phi), mag * r * math.sin(phi), mag * z)


# --- field-study -----------------------------------------------------------

def search_case(seed: int, index: int) -> dict:
    """3-D search of an I = 7/2 ion over a 3x3x26 box around its clock point."""
    rng = stream(seed, "field-study/search", index)
    ion = perturbed_ion(rng)
    bz, omega0 = clock_point(ion["ground"])
    dx, dy = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
    z_lo, z_hi = bz - rng.uniform(10.0, 25.0), bz + rng.uniform(10.0, 25.0)
    return {
        "ground": ion["ground"],
        "bounds": ((-dx, dx, 3), (-dy, dy, 3), (z_lo, z_hi, 26)),
        "start": (0.0, 0.0, rng.uniform(z_lo, z_hi)),
        "pair": (8, 10),
        "tol": 1e-6,
        "expected": (bz, omega0),
    }


def point_case(seed: int, index: int) -> dict:
    """ion_levels + frequency_gradient at a random field, I in {1/2, 5/2, 7/2}."""
    rng = stream(seed, "field-study/point", index)
    ground = perturbed_ion(rng, rng.choice((0.5, 2.5, 3.5)))["ground"]
    dim = 2 * int(round(2 * ground["nuclear_spin"] + 1))
    i, j = sorted(rng.sample(range(1, dim + 1), 2))
    return {"ground": ground, "field": _random_field(rng, 1.0, 120.0), "pair": (i, j)}


def diagram_case(seed: int, index: int) -> dict:
    """201-point level diagram of an I = 7/2 ion along a random axis."""
    rng = stream(seed, "field-study/diagram", index)
    ground = perturbed_ion(rng)["ground"]
    start = rng.uniform(0.0, 10.0)
    return {
        "ground": ground,
        "axis": rng.randrange(3),
        "scan": (start, start + rng.uniform(60.0, 120.0), 201),
    }


# --- eit-study -------------------------------------------------------------

def eit_ion(seed: int) -> dict:
    """The ion of one eit-study run, with the README default 1-D search."""
    ion = perturbed_ion(stream(seed, "eit-study/ion"))
    return {
        "ion": ion,
        "pair": (8, 10),
        "start": (0.0, 0.0, 50.0),
        "bounds": ((0.0, 0.0, 1), (0.0, 0.0, 1), (30.0, 100.0, 36)),
        "expected": clock_point(ion["ground"]),
    }


def profile_case(seed: int, index: int) -> dict:
    """Field offset from the stationary point (mT) and superhyperfine comb."""
    rng = stream(seed, "eit-study/profile", index)
    return {
        "delta_b": (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-5.0, 5.0)),
        "n_lines": rng.choice((1, 3, 5, 7, 9, 11, 13)),
        "spacing": rng.uniform(1.0, 4.0),
    }


def sweep_case(seed: int, index: int) -> dict:
    """41-point Bz sweep around the stationary point with the default
    nine-line comb, and a spectrum field. The comb is not drawn like the
    profiles' because the sweep's grid, and so its cost, grows with the
    comb's width: a cost varying tenfold between sweeps would make a
    run's median sweep time depend on which combs the seed drew."""
    rng = stream(seed, "eit-study/sweep", index)
    return {
        "below": rng.uniform(5.0, 10.0),
        "above": rng.uniform(5.0, 10.0),
        "spacing": rng.uniform(2.0, 3.0),
        "spectrum_offset": (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                            rng.uniform(-5.0, 5.0)),
    }


# --- cli-suite -------------------------------------------------------------

def ion_file_text(ion: dict) -> str:
    lines = []
    for section in ("ground", "excited"):
        p = ion[section]
        lines.append(f"[{section}]")
        lines += [
            f"S = {p['electron_spin']!r}",
            f"I = {p['nuclear_spin']!r}",
            f"g_par = {p['g_par']!r}",
            f"g_perp = {p['g_perp']!r}",
            f"A = {p['A']!r}",
            f"B_hf = {p['B_hf']!r}",
            f"P = {p['P']!r}",
            "",
        ]
    return "\n".join(lines)


def cli_case(seed: int) -> dict:
    """Ion file and the seven README default configs; lambda and spectrum
    run at the ion's clock field."""
    ion = perturbed_ion(stream(seed, "cli-suite/ion"))
    bz, omega0 = clock_point(ion["ground"])
    files = {"ion.ion": ion_file_text(ion)}
    for command in COMMANDS:
        text = f"command = {command}\nion_file = ion.ion\n"
        if command in ("lambda", "spectrum"):
            text += f"field = 0 0 {bz!r}\n"
        files[f"{command}.cfg"] = text
    return {"files": files, "expected": (bz, omega0)}
