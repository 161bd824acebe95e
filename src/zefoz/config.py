"""Flat key-value configuration: ion parameter files and run configs.

Both formats share one syntax: ``key = value`` lines, ``#`` comments,
UTF-8. Ion files carry two sections, ``[ground]`` and ``[excited]``.
Run configs use dotted keys (``noise.gamma0 = 0.5``) and are fully
echoed back, defaults included, so that a run is reproducible from its
own output header. Every default here is taken from the owning module
(dataclass field defaults or function signatures), never duplicated.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass

from .eit import LambdaParams, NoiseModel
from .errors import ConfigError
from .operators import is_half_integer
from .spins import BOHR_MAGNETON_MHZ_PER_MT, IonParams, SpinParams
from .transitions import SpectrumParams, find_lambda_systems

COMMANDS = ("levels", "diagram", "zefoz", "lambda", "spectrum", "eit", "sweep")
FORMATS = ("csv", "json-records")
OPERATORS = ("S_x", "S_y", "S_z", "S_plus", "S_minus", "identity")

ION_SECTIONS = ("ground", "excited")
ION_KEYS = ("S", "I", "g_par", "g_perp", "A", "B_hf", "P", "mu_B")
ION_REQUIRED = ("S", "I", "g_par", "g_perp", "A", "B_hf")


def _field_default(cls, name: str):
    for f in dataclasses.fields(cls):
        if f.name == name:
            if f.default is not dataclasses.MISSING:
                return f.default
            return f.default_factory()
    raise KeyError(name)


def _signature_default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved run: command, ion file, output and all options.

    Vector-valued options are stored as tuples so configs compare equal
    after an echo round trip. ``None`` encodes an ``auto`` value resolved
    at run time (inhomogeneous width by field, curvatures by search,
    comb spacing by Larmor frequency).
    """

    command: str
    ion_file: str
    output: str
    out_format: str
    field: tuple[float, float, float]
    manifold: str
    operator: str
    zefoz_pair: tuple[int, int]
    zefoz_start: tuple[float, float, float]
    zefoz_bounds_x: tuple[float, float, int]
    zefoz_bounds_y: tuple[float, float, int]
    zefoz_bounds_z: tuple[float, float, int]
    zefoz_tol: float
    diagram_axis: str
    diagram_start: float
    diagram_stop: float
    diagram_count: int
    spectrum_temperature: float
    spectrum_inhom_fwhm: float | None
    spectrum_profile: str
    spectrum_grid: tuple[float, float, int]
    spectrum_table_output: str | None
    lambda_max_asymmetry: float
    lambda_max_leakage_ratio: float
    lambda_min_strength: float
    noise_gamma0: float
    noise_delta_b: tuple[float, float, float]
    noise_curvatures: tuple[float, float, float] | None
    comb_n_lines: int
    comb_spacing: float | None
    comb_weights: str
    eit_rabi: float
    eit_gamma_ge: float
    eit_inhom_fwhm: float
    eit_two_photon_offset: float
    eit_averaging: str
    eit_quadrature_points: int
    eit_grid: tuple[float, float, int]
    eit_delta_b: tuple[float, float, float]
    sweep_start: float
    sweep_stop: float
    sweep_count: int


# key -> (attribute, kind); kinds drive parsing and echo formatting
_KEYS: dict[str, tuple[str, str]] = {
    "command": ("command", "choice:command"),
    "ion_file": ("ion_file", "path"),
    "output": ("output", "path"),
    "format": ("out_format", "choice:format"),
    "field": ("field", "vec3"),
    "manifold": ("manifold", "choice:manifold"),
    "operator": ("operator", "choice:operator"),
    "zefoz.pair": ("zefoz_pair", "pair"),
    "zefoz.start": ("zefoz_start", "vec3"),
    "zefoz.bounds.x": ("zefoz_bounds_x", "axis"),
    "zefoz.bounds.y": ("zefoz_bounds_y", "axis"),
    "zefoz.bounds.z": ("zefoz_bounds_z", "axis"),
    "zefoz.tol": ("zefoz_tol", "pos_float"),
    "diagram.axis": ("diagram_axis", "choice:axis"),
    "diagram.start": ("diagram_start", "float"),
    "diagram.stop": ("diagram_stop", "float"),
    "diagram.count": ("diagram_count", "pos_int"),
    "spectrum.temperature": ("spectrum_temperature", "pos_float"),
    "spectrum.inhom_fwhm": ("spectrum_inhom_fwhm", "auto_or_pos_float"),
    "spectrum.profile": ("spectrum_profile", "choice:profile"),
    "spectrum.grid": ("spectrum_grid", "axis"),
    "spectrum.table_output": ("spectrum_table_output", "optional_path"),
    "lambda.max_asymmetry": ("lambda_max_asymmetry", "unit_float"),
    "lambda.max_leakage_ratio": ("lambda_max_leakage_ratio", "unit_float"),
    "lambda.min_strength": ("lambda_min_strength", "nonneg_float"),
    "noise.gamma0": ("noise_gamma0", "nonneg_float"),
    "noise.delta_b": ("noise_delta_b", "vec3"),
    "noise.curvatures": ("noise_curvatures", "auto_or_vec3"),
    "comb.n_lines": ("comb_n_lines", "odd_int"),
    "comb.spacing": ("comb_spacing", "auto_or_pos_float"),
    "comb.weights": ("comb_weights", "choice:weights"),
    "eit.rabi": ("eit_rabi", "nonneg_float"),
    "eit.gamma_ge": ("eit_gamma_ge", "nonneg_float"),
    "eit.inhom_fwhm": ("eit_inhom_fwhm", "pos_float"),
    "eit.two_photon_offset": ("eit_two_photon_offset", "float"),
    "eit.averaging": ("eit_averaging", "choice:averaging"),
    "eit.quadrature_points": ("eit_quadrature_points", "pos_int"),
    "eit.grid": ("eit_grid", "axis"),
    "eit.delta_b": ("eit_delta_b", "vec3"),
    "sweep.start": ("sweep_start", "float"),
    "sweep.stop": ("sweep_stop", "float"),
    "sweep.count": ("sweep_count", "pos_int"),
}

_CHOICES = {
    "command": COMMANDS,
    "format": FORMATS,
    "manifold": ("ground", "excited"),
    "operator": OPERATORS,
    "axis": ("x", "y", "z"),
    "profile": ("gaussian", "lorentzian"),
    "weights": ("binomial", "flat"),
    "averaging": ("exact", "hermite"),
}


def module_defaults() -> dict[str, object]:
    """Documented defaults for every optional key, pulled from the owning
    module so the interface can never drift from the library."""
    return {
        "format": None,  # depends on command, see _default_format
        "output": None,  # derived from command and format
        "field": (0.0, 0.0, 0.0),
        "manifold": "ground",
        "operator": "S_x",
        "zefoz.pair": (8, 10),
        "zefoz.start": (0.0, 0.0, 50.0),
        "zefoz.bounds.x": (0.0, 0.0, 1),
        "zefoz.bounds.y": (0.0, 0.0, 1),
        "zefoz.bounds.z": (30.0, 100.0, 36),
        "zefoz.tol": 1e-6,
        "diagram.axis": "z",
        "diagram.start": 0.0,
        "diagram.stop": 100.0,
        "diagram.count": 201,
        "spectrum.temperature": _field_default(SpectrumParams, "temperature"),
        "spectrum.inhom_fwhm": None,  # auto: 35 in a bias field, 70 at zero field
        "spectrum.profile": _field_default(SpectrumParams, "line_profile"),
        "spectrum.grid": (-2200.0, 2200.0, 2201),
        "spectrum.table_output": None,  # also write the line table when set
        "lambda.max_asymmetry": _signature_default(find_lambda_systems, "max_asymmetry"),
        "lambda.max_leakage_ratio": _signature_default(
            find_lambda_systems, "max_leakage_ratio"
        ),
        "lambda.min_strength": _signature_default(find_lambda_systems, "min_strength"),
        "noise.gamma0": _field_default(NoiseModel, "gamma0"),
        "noise.delta_b": _field_default(NoiseModel, "delta_b"),
        "noise.curvatures": None,  # auto: from the ZEFOZ search
        "comb.n_lines": 9,
        "comb.spacing": None,  # auto: fluorine Larmor frequency at |B|
        "comb.weights": "binomial",
        "eit.rabi": _field_default(LambdaParams, "rabi_coupling"),
        "eit.gamma_ge": _field_default(LambdaParams, "optical_dephasing"),
        "eit.inhom_fwhm": _field_default(LambdaParams, "optical_inhom_fwhm"),
        "eit.two_photon_offset": _field_default(LambdaParams, "two_photon_offset"),
        "eit.averaging": _field_default(LambdaParams, "averaging"),
        "eit.quadrature_points": _field_default(LambdaParams, "quadrature_points"),
        "eit.grid": (-18.0, 18.0, 1801),
        "eit.delta_b": (0.0, 0.0, 0.0),
        "sweep.start": 54.0,
        "sweep.stop": 74.0,
        "sweep.count": 41,
    }


def _default_format(command: str) -> str:
    # stationary-point and Lambda reports are key-value records by default
    return "json-records" if command in ("zefoz", "lambda") else "csv"


def _default_output(command: str, out_format: str) -> str:
    return f"{command}.{'jsonl' if out_format == 'json-records' else 'csv'}"


def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def _scan_pairs(text: str, errors: list) -> list[tuple[int, str, str]]:
    pairs = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            pairs.append((no, "[section]", line[1:-1].strip()))
            continue
        if "=" not in line:
            errors.append((no, f"expected 'key = value', got {raw.strip()!r}"))
            continue
        key, _, value = line.partition("=")
        pairs.append((no, key.strip(), value.strip()))
    return pairs


def _parse_floats(value: str, count: int, no: int, key: str, errors: list):
    parts = value.split()
    if len(parts) != count:
        errors.append((no, f"{key}: expected {count} numbers, got {len(parts)}"))
        return None
    try:
        return tuple(float(x) for x in parts)
    except ValueError:
        errors.append((no, f"{key}: could not parse {value!r} as numbers"))
        return None


def _parse_value(kind: str, value: str, no: int, key: str, errors: list):
    if kind.startswith("choice:"):
        choices = _CHOICES[kind.split(":", 1)[1]]
        if value not in choices:
            errors.append((no, f"{key}: {value!r} is not one of {', '.join(choices)}"))
            return None
        return value
    if kind == "path":
        if not value:
            errors.append((no, f"{key}: path must be non-empty"))
            return None
        return value
    if kind == "optional_path":
        if value == "none":
            return None
        return _parse_value("path", value, no, key, errors)
    if kind in ("float", "pos_float", "nonneg_float", "unit_float"):
        try:
            x = float(value)
        except ValueError:
            errors.append((no, f"{key}: could not parse {value!r} as a number"))
            return None
        if kind == "pos_float" and not x > 0:
            errors.append((no, f"{key}: must be positive, got {value}"))
            return None
        if kind == "nonneg_float" and x < 0:
            errors.append((no, f"{key}: must be non-negative, got {value}"))
            return None
        if kind == "unit_float" and not 0.0 <= x <= 1.0:
            errors.append((no, f"{key}: must lie in [0, 1], got {value}"))
            return None
        return x
    if kind in ("pos_int", "odd_int"):
        try:
            x = int(value)
        except ValueError:
            errors.append((no, f"{key}: could not parse {value!r} as an integer"))
            return None
        if x < 1:
            errors.append((no, f"{key}: must be >= 1, got {value}"))
            return None
        if kind == "odd_int" and x % 2 == 0:
            errors.append((no, f"{key}: must be odd, got {value}"))
            return None
        return x
    if kind == "vec3":
        return _parse_floats(value, 3, no, key, errors)
    if kind == "pair":
        parts = value.split()
        if len(parts) != 2:
            errors.append((no, f"{key}: expected two level labels"))
            return None
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            errors.append((no, f"{key}: could not parse {value!r} as integers"))
            return None
        if a < 1 or b < 1 or a == b:
            errors.append((no, f"{key}: labels must be distinct positive integers"))
            return None
        return (a, b)
    if kind == "axis":
        parts = value.split()
        if len(parts) != 3:
            errors.append((no, f"{key}: expected 'start stop count'"))
            return None
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            errors.append((no, f"{key}: could not parse {value!r}"))
            return None
        if count < 1:
            errors.append((no, f"{key}: count must be >= 1"))
            return None
        if stop < start:
            errors.append((no, f"{key}: stop must not be below start"))
            return None
        return (start, stop, count)
    if kind == "auto_or_pos_float":
        if value == "auto":
            return None
        return _parse_value("pos_float", value, no, key, errors)
    if kind == "auto_or_vec3":
        if value == "auto":
            return None
        return _parse_value("vec3", value, no, key, errors)
    raise AssertionError(f"unhandled kind {kind}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a run configuration, reporting every error."""
    errors: list[tuple[int | None, str]] = []
    seen: dict[str, int] = {}
    values: dict[str, object] = {}
    for no, key, value in _scan_pairs(text, errors):
        if key == "[section]":
            errors.append((no, "sections are not allowed in a run config"))
            continue
        if key not in _KEYS:
            errors.append((no, f"unknown key {key!r}"))
            continue
        if key in seen:
            errors.append((no, f"duplicate key {key!r} (first on line {seen[key]})"))
            continue
        seen[key] = no
        parsed = _parse_value(_KEYS[key][1], value, no, key, errors)
        if parsed is not None or _KEYS[key][1].startswith("auto"):
            values[key] = parsed

    for required in ("command", "ion_file"):
        if required not in values:
            errors.append((None, f"missing required key {required!r}"))
    if errors:
        raise ConfigError(errors)

    defaults = module_defaults()
    command = values["command"]
    resolved: dict[str, object] = {}
    for key, (attr, _) in _KEYS.items():
        if key in values:
            resolved[attr] = values[key]
        elif key in ("command", "ion_file"):
            pass
        elif key == "format":
            resolved[attr] = _default_format(command)
        elif key == "output":
            pass  # depends on format, resolved below
        else:
            resolved[attr] = defaults[key]
    resolved["command"] = command
    resolved["ion_file"] = values["ion_file"]
    if "output" in values:
        resolved["output"] = values["output"]
    else:
        resolved["output"] = _default_output(command, resolved["out_format"])
    return RunConfig(**resolved)


def _format_value(kind: str, value) -> str:
    if value is None:
        return "none" if kind == "optional_path" else "auto"
    if kind in ("vec3", "auto_or_vec3"):
        return " ".join(repr(float(x)) for x in value)
    if kind == "pair":
        return f"{value[0]} {value[1]}"
    if kind == "axis":
        return f"{repr(float(value[0]))} {repr(float(value[1]))} {value[2]}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_echo(config: RunConfig) -> list[str]:
    """Canonical ``key = value`` lines reproducing the config exactly.

    Parsing the echo yields a RunConfig equal to the input, defaults and
    all, which is what makes output headers replayable.
    """
    lines = []
    for key, (attr, kind) in _KEYS.items():
        lines.append(f"{key} = {_format_value(kind, getattr(config, attr))}")
    return lines


def parse_ion_file(text: str) -> IonParams:
    """Read ground/excited parameter sections into an IonParams.

    Values round-trip bit-exactly through ``format_ion_file``.
    """
    errors: list[tuple[int | None, str]] = []
    sections: dict[str, dict[str, float]] = {}
    section_lines: dict[str, dict[str, int]] = {}
    current: str | None = None
    for no, key, value in _scan_pairs(text, errors):
        if key == "[section]":
            if value not in ION_SECTIONS:
                errors.append((no, f"unknown section [{value}]"))
                current = None
                continue
            if value in sections:
                errors.append((no, f"duplicate section [{value}]"))
            current = value
            sections.setdefault(value, {})
            section_lines.setdefault(value, {})
            continue
        if current is None:
            errors.append((no, f"key {key!r} appears outside any section"))
            continue
        if key not in ION_KEYS:
            errors.append((no, f"unknown ion parameter {key!r}"))
            continue
        if key in sections[current]:
            errors.append((no, f"duplicate key {key!r} in [{current}]"))
            continue
        try:
            sections[current][key] = float(value)
            section_lines[current][key] = no
        except ValueError:
            errors.append((no, f"{key}: could not parse {value!r} as a number"))

    for name in ION_SECTIONS:
        if name not in sections:
            errors.append((None, f"missing section [{name}]"))
            continue
        for key in ION_REQUIRED:
            if key not in sections[name]:
                errors.append((None, f"[{name}] is missing required key {key!r}"))
        for spin_key in ("S", "I"):
            if spin_key in sections[name] and not is_half_integer(sections[name][spin_key]):
                errors.append(
                    (
                        section_lines[name][spin_key],
                        f"{spin_key} = {sections[name][spin_key]!r} is not a "
                        "half-integer spin",
                    )
                )
    if errors:
        raise ConfigError(errors)

    def build(name: str) -> SpinParams:
        sec = sections[name]
        return SpinParams(
            electron_spin=sec["S"],
            nuclear_spin=sec["I"],
            g_par=sec["g_par"],
            g_perp=sec["g_perp"],
            A=sec["A"],
            B_hf=sec["B_hf"],
            P=sec.get("P", 0.0),
            mu_B=sec.get("mu_B", BOHR_MAGNETON_MHZ_PER_MT),
        )

    return IonParams(ground=build("ground"), excited=build("excited"))


def format_ion_file(ion: IonParams) -> str:
    """Serialize an IonParams back to the two-section text format."""
    out = []
    for name, params in (("ground", ion.ground), ("excited", ion.excited)):
        out.append(f"[{name}]")
        out.append(f"S = {params.electron_spin!r}")
        out.append(f"I = {params.nuclear_spin!r}")
        out.append(f"g_par = {params.g_par!r}")
        out.append(f"g_perp = {params.g_perp!r}")
        out.append(f"A = {params.A!r}")
        out.append(f"B_hf = {params.B_hf!r}")
        out.append(f"P = {params.P!r}")
        out.append(f"mu_B = {params.mu_B!r}")
    return "\n".join(out) + "\n"
