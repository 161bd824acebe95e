"""Flat key-value configuration: ion parameter files and run configs.

Both formats share one syntax: ``key = value`` lines, ``#`` comments,
UTF-8. Ion files carry two sections, ``[ground]`` and ``[excited]``.
Run configs use dotted keys (``noise.gamma0 = 0.5``) and are fully
echoed back, defaults included, so that a run is reproducible from its
own output header.

``RunConfig`` is the single table of run-config keys: each field declares
its dotted key, its parser and its default, and ``parse_config`` and
``config_echo`` are loops over that table.
``ION_KEYS`` is the single table of ion keys: it maps each ion-file key
to its ``SpinParams`` field, and the required keys, the ``SpinParams``
built by ``parse_ion_file`` and the lines of ``format_ion_file`` all
follow it; an omitted optional key takes ``SpinParams``' own default.
Both parsers read each line through one helper that rejects unknown,
repeated keys and bad values with their line numbers.
Defaults and choice lists owned by the library (``LambdaParams``,
``NoiseModel``, ``CombModel``, ``SpectrumParams``, ``find_lambda_systems``,
``LINE_PROFILES``, ``OPERATOR_KINDS``) are restated here as literals, so
that parsing a config loads neither ``eit`` nor ``transitions``; a test
checks each literal against its owner.
Every number must be finite and every value in range: a bad value in a
run config or an ion file fails at parse time with its line number (CLI
exit code 2), not mid-run. So does, for a command that runs the ZEFOZ
search, a search box with no free axis or without ``zefoz.start``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError, InvalidParameterError
from .operators import is_half_integer
from .spins import AxisGrid, FieldGrid, IonParams, SpinParams

COMMANDS = ("levels", "diagram", "zefoz", "lambda", "spectrum", "eit", "sweep")
FORMATS = ("csv", "json-records")

ION_SECTIONS = ("ground", "excited")
# The ion-key table: ion-file key -> SpinParams field, in file order.
ION_KEYS = {"S": "electron_spin", "I": "nuclear_spin", "g_par": "g_par", "g_perp": "g_perp",
            "A": "A", "B_hf": "B_hf", "P": "P", "mu_B": "mu_B"}
# Required ion keys: those whose SpinParams field has no default.
_OPTIONAL = {f.name for f in dataclasses.fields(SpinParams) if f.default is not dataclasses.MISSING}
ION_REQUIRED = tuple(key for key, name in ION_KEYS.items() if name not in _OPTIONAL)

# Largest magnitude (mT) of a field-valued key: of ``field``,
# ``zefoz.start``, ``zefoz.bounds.*``, ``diagram.grid``, ``sweep.grid``,
# ``eit.delta_b`` and ``noise.delta_b``. 1 kT
# lies far beyond any laboratory field, and below it the squares of fields
# and their products with the model's constants (curvatures, g factors)
# stay finite, so a field offset cannot overflow mid-run.
MAX_FIELD_MT = 1e6

# Parsers turn one value's text into its typed value, or raise ValueError
# with a message that follows the key's name.


def _number(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise ValueError(f"could not parse {text!r} as a number") from None
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


def _real(rule: str, ok):
    def parse(text: str) -> float:
        x = _number(text)
        if not ok(x):
            raise ValueError(f"must {rule}, got {text}")
        return x

    return parse


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"could not parse {text!r} as an integer") from None


def _odd_count(text: str) -> int:
    n = _integer(text)
    if n < 1 or n % 2 == 0:
        raise ValueError(f"must be an odd integer >= 1, got {text}")
    return n


def _field(text: str) -> float:
    x = _number(text)
    if not abs(x) <= MAX_FIELD_MT:
        raise ValueError(f"must not exceed {MAX_FIELD_MT:.0f} mT in magnitude, got {text}")
    return x


def _vec3(text: str, number=_number) -> tuple[float, float, float]:
    parts = text.split()
    if len(parts) != 3:
        raise ValueError(f"expected 3 numbers, got {len(parts)}")
    return tuple(number(x) for x in parts)


def _field_vec3(text: str) -> tuple[float, float, float]:
    return _vec3(text, _field)


def _nonneg_field_vec3(text: str) -> tuple[float, float, float]:
    vec = _field_vec3(text)
    if any(x < 0 for x in vec):
        raise ValueError(f"components must be non-negative, got {text}")
    return vec


def _pair(text: str) -> tuple[int, int]:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError("expected two level labels")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"could not parse {text!r} as integers") from None
    if a < 1 or b < 1 or a == b:
        raise ValueError("labels must be distinct positive integers")
    return (a, b)


def _axis(min_count: int, number=_number):
    def parse(text: str) -> AxisGrid:
        parts = text.split()
        if len(parts) != 3:
            raise ValueError("expected 'start stop count'")
        start, stop, count = number(parts[0]), number(parts[1]), _integer(parts[2])
        if count < min_count:
            raise ValueError(f"count must be >= {min_count}, got {count}")
        try:
            return AxisGrid(start, stop, count)
        except InvalidParameterError as exc:
            raise ValueError(str(exc)) from None

    return parse


def _choice(options: tuple[str, ...]):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"{text!r} is not one of {', '.join(options)}")
        return text

    return parse


def _path(text: str) -> str:
    """A path that its ``key = value`` echo reads back unchanged."""
    if not text:
        raise ValueError("path must be non-empty")
    if text != text.strip() or "#" in text or len(text.splitlines()) > 1:
        raise ValueError(f"path must have no '#', line break or outer whitespace, got {text!r}")
    return text


_POS = _real("be positive", lambda x: x > 0)
_NONNEG = _real("be non-negative", lambda x: x >= 0)
_UNIT = _real("lie in [0, 1]", lambda x: 0.0 <= x <= 1.0)
_FIELD_AXIS = _axis(1, _field)
# Choice lists of transitions.LINE_PROFILES and transitions.OPERATOR_KINDS
# (a custom operator has no config key).
_PROFILES = ("gaussian", "lorentzian")
_OPERATORS = ("identity", "S_x", "S_y", "S_z", "S_plus", "S_minus")
_Vec3 = tuple[float, float, float]


def _key(key: str, parse, default=dataclasses.MISSING, null: str | None = None):
    """One run-config key: dotted name, parser and default. ``null`` is the
    token that stands for ``None`` (a value resolved at run time)."""
    metadata = {"key": key, "parse": parse, "null": null}
    return dataclasses.field(default=default, metadata=metadata)


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved run: command, ion file, output and all options.

    Vector-valued options are stored as tuples and each 1-D grid (a scan,
    a spectrum or EIT grid, a search-box axis) as the ``AxisGrid`` it
    parses to, echoed as ``start stop count``, so configs compare equal
    after an echo round trip. ``None`` encodes an ``auto`` value resolved
    at run time (inhomogeneous width by field, curvatures by search,
    comb spacing by Larmor frequency). ``format`` and ``output`` default
    by command: stationary-point and Lambda reports are key-value records,
    and the output is named ``<command>.csv`` or ``<command>.jsonl``.
    """

    command: str = _key("command", _choice(COMMANDS))
    ion_file: str = _key("ion_file", _path)
    output: str = _key("output", _path, None)
    out_format: str = _key("format", _choice(FORMATS), None)
    field: _Vec3 = _key("field", _field_vec3, (0.0, 0.0, 0.0))
    manifold: str = _key("manifold", _choice(ION_SECTIONS), "ground")
    operator: str = _key("operator", _choice(_OPERATORS), "S_x")
    zefoz_pair: tuple[int, int] = _key("zefoz.pair", _pair, (8, 10))
    zefoz_start: _Vec3 = _key("zefoz.start", _field_vec3, (0.0, 0.0, 50.0))
    zefoz_bounds_x: AxisGrid = _key("zefoz.bounds.x", _FIELD_AXIS, AxisGrid(0.0, 0.0, 1))
    zefoz_bounds_y: AxisGrid = _key("zefoz.bounds.y", _FIELD_AXIS, AxisGrid(0.0, 0.0, 1))
    zefoz_bounds_z: AxisGrid = _key("zefoz.bounds.z", _FIELD_AXIS, AxisGrid(30.0, 100.0, 36))
    zefoz_tol: float = _key("zefoz.tol", _POS, 1e-6)
    diagram_axis: str = _key("diagram.axis", _choice(("x", "y", "z")), "z")
    diagram_grid: AxisGrid = _key("diagram.grid", _FIELD_AXIS, AxisGrid(0.0, 100.0, 201))
    spectrum_temperature: float = _key("spectrum.temperature", _POS, 2.0)
    # auto: 35 MHz in a bias field, 70 MHz at zero field
    spectrum_inhom_fwhm: float | None = _key("spectrum.inhom_fwhm", _POS, None, "auto")
    spectrum_profile: str = _key("spectrum.profile", _choice(_PROFILES), "gaussian")
    spectrum_grid: AxisGrid = _key("spectrum.grid", _axis(1), AxisGrid(-2200.0, 2200.0, 2201))
    # none: write no line table
    spectrum_table_output: str | None = _key("spectrum.table_output", _path, None, "none")
    lambda_max_asymmetry: float = _key("lambda.max_asymmetry", _UNIT, 0.01)
    lambda_max_leakage_ratio: float = _key("lambda.max_leakage_ratio", _UNIT, 0.01)
    lambda_min_strength: float = _key("lambda.min_strength", _NONNEG, 1e-6)
    noise_gamma0: float = _key("noise.gamma0", _NONNEG, 0.5)
    noise_delta_b: _Vec3 = _key("noise.delta_b", _nonneg_field_vec3, (1.0, 1.0, 1.0))
    # auto: from the ZEFOZ search
    noise_curvatures: _Vec3 | None = _key("noise.curvatures", _vec3, None, "auto")
    comb_n_lines: int = _key("comb.n_lines", _odd_count, 9)
    # auto: fluorine Larmor frequency at |B|
    comb_spacing: float | None = _key("comb.spacing", _POS, None, "auto")
    comb_weights: str = _key("comb.weights", _choice(("binomial", "flat")), "binomial")
    eit_rabi: float = _key("eit.rabi", _NONNEG, 2.0)
    eit_gamma_ge: float = _key("eit.gamma_ge", _NONNEG, 0.5)
    eit_inhom_fwhm: float = _key("eit.inhom_fwhm", _POS, 35.0)
    eit_two_photon_offset: float = _key("eit.two_photon_offset", _number, 0.0)
    eit_grid: AxisGrid = _key("eit.grid", _axis(3), AxisGrid(-18.0, 18.0, 1801))
    eit_delta_b: _Vec3 = _key("eit.delta_b", _field_vec3, (0.0, 0.0, 0.0))
    sweep_grid: AxisGrid = _key("sweep.grid", _FIELD_AXIS, AxisGrid(54.0, 74.0, 41))

    def __post_init__(self):
        if self.out_format is None:
            records = self.command in ("zefoz", "lambda")
            object.__setattr__(self, "out_format", "json-records" if records else "csv")
        if self.output is None:
            suffix = "jsonl" if self.out_format == "json-records" else "csv"
            object.__setattr__(self, "output", f"{self.command}.{suffix}")

    @property
    def runs_search(self) -> bool:
        """Whether the command runs the ZEFOZ search (``eit`` for an ``auto`` value)."""
        auto = self.noise_curvatures is None or self.comb_spacing is None
        return self.command in ("zefoz", "sweep") or self.command == "eit" and auto

    def search_bounds(self) -> FieldGrid:
        return FieldGrid(self.zefoz_bounds_x, self.zefoz_bounds_y, self.zefoz_bounds_z)


_FIELDS = {f.metadata["key"]: f for f in dataclasses.fields(RunConfig)}
_BOUNDS = ("zefoz.bounds.x", "zefoz.bounds.y", "zefoz.bounds.z")


# Parser tables, key -> (parser, null token).
_CONFIG_PARSERS = {key: (f.metadata["parse"], f.metadata["null"]) for key, f in _FIELDS.items()}
_ION_PARSERS = dict.fromkeys(ION_KEYS, (_number, None))


def _scan_pairs(text: str, errors: list) -> list[tuple[int, str | None, str]]:
    """(line, key, value) per ``key = value`` line; a ``[name]`` header is (line, None, name)."""
    pairs = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            pairs.append((no, None, line[1:-1].strip()))
            continue
        if "=" not in line:
            errors.append((no, f"expected 'key = value', got {raw.strip()!r}"))
            continue
        key, _, value = line.partition("=")
        pairs.append((no, key.strip(), value.strip()))
    return pairs


def _read_pair(no, key, value, parsers, seen, values, errors, where=""):
    """Parse one ``key = value`` line through ``parsers`` into ``values``.

    ``seen`` maps each key read to its line. An unknown key, a repeated
    key or a bad value goes to ``errors`` instead; ``where`` names the
    section in those messages.
    """
    if key not in parsers:
        errors.append((no, f"unknown key {key!r}{where}"))
    elif key in seen:
        errors.append((no, f"duplicate key {key!r}{where} (first on line {seen[key]})"))
    else:
        seen[key] = no
        parse, null = parsers[key]
        try:
            values[key] = None if value == null else parse(value)
        except ValueError as exc:
            errors.append((no, f"{key}: {exc}"))


def parse_config(text: str) -> RunConfig:
    """Parse and validate a run configuration, reporting every error."""
    errors: list[tuple[int | None, str]] = []
    seen: dict[str, int] = {}
    values: dict[str, object] = {}
    for no, key, value in _scan_pairs(text, errors):
        if key is None:
            errors.append((no, "sections are not allowed in a run config"))
        else:
            _read_pair(no, key, value, _CONFIG_PARSERS, seen, values, errors)
    for key, spec in _FIELDS.items():
        if spec.default is dataclasses.MISSING and key not in values:
            errors.append((None, f"missing required key {key!r}"))
    if errors:
        raise ConfigError(errors)
    config = RunConfig(**{_FIELDS[key].name: value for key, value in values.items()})
    if config.runs_search:  # the search box, once every key is valid
        bounds = config.search_bounds()
        line = max(seen.get(key, 0) for key in _BOUNDS) or None  # the last bound given
        if not bounds.free_axes():
            errors.append((line, "zefoz.bounds: every axis has count 1, no free axis to search"))
        if not bounds.contains(config.zefoz_start):
            message = f"zefoz.start: {_format(config.zefoz_start)} lies outside zefoz.bounds"
            errors.append((seen.get("zefoz.start", line), message))
    if errors:
        raise ConfigError(errors)
    return config


def with_output(config: RunConfig, path: str) -> RunConfig:
    """``config`` writing to ``path`` (``--out``), checked as an ``output`` value."""
    try:
        return dataclasses.replace(config, output=_path(path))
    except ValueError as exc:
        raise ConfigError([(None, f"--out: {exc}")]) from None


def _format(value) -> str:
    if isinstance(value, AxisGrid):
        return _format((value.start, value.stop, value.count))
    if isinstance(value, tuple):
        return " ".join(_format(x) for x in value)
    return repr(float(value)) if isinstance(value, float) else str(value)


def config_echo(config: RunConfig) -> list[str]:
    """Canonical ``key = value`` lines reproducing the config exactly.

    Parsing the echo yields a RunConfig equal to the input, defaults and
    all, which is what makes output headers replayable.
    """
    lines = []
    for key, spec in _FIELDS.items():
        value = getattr(config, spec.name)
        lines.append(f"{key} = {spec.metadata['null'] if value is None else _format(value)}")
    return lines


def parse_ion_file(text: str) -> IonParams:
    """Read ground/excited parameter sections into an IonParams.

    Values round-trip bit-exactly through ``format_ion_file``. A parameter
    set that ``SpinParams`` rejects is reported against its section header.
    """
    errors: list[tuple[int | None, str]] = []
    headers: dict[str, int] = {}  # section -> line of its header
    seen: dict[str, dict[str, int]] = {}  # per section: key -> line
    values: dict[str, dict[str, float]] = {}  # per section: key -> value
    current: str | None = None
    for no, key, value in _scan_pairs(text, errors):
        if key is None:
            current = value if value in ION_SECTIONS else None
            if current is None:
                errors.append((no, f"unknown section [{value}]"))
            elif current in headers:
                errors.append((no, f"duplicate section [{value}]"))
            else:
                headers[current] = no
                seen[current], values[current] = {}, {}
        elif current is None:
            errors.append((no, f"key {key!r} appears outside any section"))
        else:
            where = f" in [{current}]"
            _read_pair(no, key, value, _ION_PARSERS, seen[current], values[current], errors, where)

    for name in ION_SECTIONS:
        if name not in headers:
            errors.append((None, f"missing section [{name}]"))
            continue
        sec = values[name]
        for key in ION_REQUIRED:
            if key not in sec:
                errors.append((None, f"[{name}] is missing required key {key!r}"))
        for spin_key in ("S", "I"):
            if spin_key in sec and not is_half_integer(sec[spin_key]):
                message = f"{spin_key} = {sec[spin_key]!r} is not a half-integer spin"
                errors.append((seen[name][spin_key], message))
    if errors:
        raise ConfigError(errors)

    manifolds = {}
    for name in ION_SECTIONS:
        try:
            manifolds[name] = SpinParams(**{ION_KEYS[key]: x for key, x in values[name].items()})
        except InvalidParameterError as exc:
            errors.append((headers[name], f"[{name}]: {exc}"))
    if errors:
        raise ConfigError(errors)
    return IonParams(**manifolds)


def format_ion_file(ion: IonParams) -> str:
    """Serialize an IonParams back to the two-section text format."""
    out = []
    for name in ION_SECTIONS:
        params = getattr(ion, name)
        out.append(f"[{name}]")
        out.extend(f"{key} = {getattr(params, field)!r}" for key, field in ION_KEYS.items())
    return "\n".join(out) + "\n"
