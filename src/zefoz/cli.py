"""Command dispatch: one config file in, one table out.

Usage: ``zefoz --config run.cfg [--out path]``. Exit codes: 0 success,
2 configuration error, 3 computation error. Every output file starts
with a provenance header (tool version, full config echo, ion
parameters) so results are reproducible from the file alone.

Start-up is most of a command's run time, so this module loads only
``config``, ``errors``, ``output`` and ``spins``; each runner imports what
it uses from ``fieldmap``, ``transitions`` and ``eit`` when it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import __version__
from .config import RunConfig, config_echo, format_ion_file, parse_config, parse_ion_file
from .errors import ComputationError, ConfigError, InvalidParameterError
from .output import write_table
from .spins import AxisGrid, FieldGrid, IonParams, ion_levels


def _provenance(config: RunConfig, ion: IonParams) -> list[str]:
    lines = [f"zefoz {__version__}"]
    lines += config_echo(config)
    for raw in format_ion_file(ion).splitlines():
        lines.append(f"ion: {raw}")
    return lines


def _axis_grid(triple: tuple[float, float, int]) -> AxisGrid:
    return AxisGrid(start=triple[0], stop=triple[1], count=triple[2])


def _bounds(config: RunConfig) -> FieldGrid:
    return FieldGrid(
        x=_axis_grid(config.zefoz_bounds_x),
        y=_axis_grid(config.zefoz_bounds_y),
        z=_axis_grid(config.zefoz_bounds_z),
    )


def _manifold_params(config: RunConfig, ion: IonParams):
    return ion.ground if config.manifold == "ground" else ion.excited


def _spectrum_params(config: RunConfig) -> SpectrumParams:
    from .transitions import SpectrumParams

    fwhm = config.spectrum_inhom_fwhm
    if fwhm is None:
        in_field = float(np.linalg.norm(config.field)) > 0.0
        fwhm = 35.0 if in_field else 70.0
    return SpectrumParams(
        temperature=config.spectrum_temperature,
        inhom_fwhm=fwhm,
        line_profile=config.spectrum_profile,
        grid=_axis_grid(config.spectrum_grid),
    )


def _lambda_params(config: RunConfig) -> LambdaParams:
    from .eit import LambdaParams

    return LambdaParams(
        rabi_coupling=config.eit_rabi,
        optical_dephasing=config.eit_gamma_ge,
        optical_inhom_fwhm=config.eit_inhom_fwhm,
        two_photon_offset=config.eit_two_photon_offset,
    )


def _find_zefoz(config: RunConfig, ion: IonParams):
    from .fieldmap import TransitionSelector, zefoz_search

    label, levels = max(config.zefoz_pair), ion.ground.dimension
    if label > levels:
        message = f"zefoz.pair: label {label} exceeds the {levels} ground levels"
        raise ConfigError([(None, f"{message} of {config.ion_file!r}")])
    sel = TransitionSelector("ground", *config.zefoz_pair)
    points = zefoz_search(
        ion.ground, sel, np.array(config.zefoz_start), _bounds(config), config.zefoz_tol
    )
    return points


def _noise_model(config: RunConfig, zefoz_point) -> NoiseModel:
    from .eit import NoiseModel

    curvatures = config.noise_curvatures
    if curvatures is None:
        if zefoz_point is None:
            raise ComputationError(
                "noise curvatures set to auto but no stationary point was found"
            )
        curvatures = tuple(float(c) for c in zefoz_point.curvatures)
    return NoiseModel(
        curvatures=curvatures,
        gamma0=config.noise_gamma0,
        delta_b=config.noise_delta_b,
    )


def _comb_model(config: RunConfig, noise: NoiseModel, operating_field) -> CombModel:
    from .eit import FLUORINE_GAMMA_MHZ_PER_MT, CombModel, binomial_weights, flat_weights

    spacing = config.comb_spacing
    if spacing is None:
        spacing = FLUORINE_GAMMA_MHZ_PER_MT * float(np.linalg.norm(operating_field))
        if spacing == 0.0:
            field = " ".join(repr(float(b)) for b in operating_field)
            raise ComputationError(
                "comb.spacing = auto needs a nonzero operating field, "
                f"got B = {field} mT"
            )
    weights = (
        binomial_weights(config.comb_n_lines)
        if config.comb_weights == "binomial"
        else flat_weights(config.comb_n_lines)
    )
    return CombModel(
        spacing=spacing, n_lines=config.comb_n_lines, weights=weights, noise=noise
    )


def _run_levels(config: RunConfig, ion: IonParams):
    levels = ion_levels(_manifold_params(config, ion), np.array(config.field))
    rows = [
        (config.manifold, label, energy)
        for label, energy in zip(levels.labels.tolist(), levels.energies.tolist())
    ]
    return rows, ("manifold", "level", "energy_MHz")


def _run_diagram(config: RunConfig, ion: IonParams):
    from .fieldmap import level_diagram

    axes = {"x": 0, "y": 1, "z": 2}
    fixed = AxisGrid(0.0, 0.0, 1)
    scan = AxisGrid(config.diagram_start, config.diagram_stop, config.diagram_count)
    per_axis = [fixed, fixed, fixed]
    per_axis[axes[config.diagram_axis]] = scan
    grid = FieldGrid(x=per_axis[0], y=per_axis[1], z=per_axis[2])
    diagram = level_diagram(ion, grid, config.manifold)
    rows = [
        (*point, level, energy)
        for point, energies in zip(diagram.field_points.tolist(), diagram.energies.tolist())
        for level, energy in enumerate(energies, start=1)
    ]
    return rows, ("Bx_mT", "By_mT", "Bz_mT", "level", "energy_MHz")


def _run_zefoz(config: RunConfig, ion: IonParams):
    points = _find_zefoz(config, ion)
    rows = [
        (
            float(z.field[0]),
            float(z.field[1]),
            float(z.field[2]),
            float(z.omega0),
            float(z.gradient_residual),
            float(z.curvatures[0]),
            float(z.curvatures[1]),
            float(z.curvatures[2]),
            z.signature_string,
        )
        for z in points
    ]
    columns = (
        "Bx_mT",
        "By_mT",
        "Bz_mT",
        "omega0_MHz",
        "gradient_residual_MHz_per_mT",
        "S2x_kHz_per_mT2",
        "S2y_kHz_per_mT2",
        "S2z_kHz_per_mT2",
        "signature",
    )
    return rows, columns


def _tables_at_field(config: RunConfig, ion: IonParams):
    from .transitions import TransitionOperator, transition_table

    pairs = [(p.electron_spin, p.nuclear_spin) for p in (ion.ground, ion.excited)]
    if pairs[0] != pairs[1]:
        message = f"ground (S, I) = {pairs[0]} differs from excited (S, I) = {pairs[1]}"
        raise ConfigError([(None, f"{message} in {config.ion_file!r}")])
    field = np.array(config.field)
    ground = ion_levels(ion.ground, field)
    excited = ion_levels(ion.excited, field)
    op = TransitionOperator(config.operator)
    return transition_table(ground, excited, op, _spectrum_params(config))


def _run_lambda(config: RunConfig, ion: IonParams):
    from .transitions import find_lambda_systems

    table = _tables_at_field(config, ion)
    systems = find_lambda_systems(
        table,
        max_asymmetry=config.lambda_max_asymmetry,
        max_leakage_ratio=config.lambda_max_leakage_ratio,
        min_strength=config.lambda_min_strength,
    )
    rows = [
        (
            s.ground_a,
            s.ground_b,
            s.excited,
            s.strength_a,
            s.strength_b,
            s.leakage,
            s.asymmetry,
            s.splitting,
        )
        for s in systems
    ]
    columns = (
        "ground_a",
        "ground_b",
        "excited",
        "strength_a",
        "strength_b",
        "leakage",
        "asymmetry",
        "splitting_MHz",
    )
    return rows, columns


def _run_spectrum(config: RunConfig, ion: IonParams):
    from .transitions import absorption_spectrum

    table = _tables_at_field(config, ion)
    if config.spectrum_table_output is not None:
        write_table(
            config.spectrum_table_output,
            [
                (t.ground_label, t.excited_label, t.frequency, t.strength,
                 t.population_weight)
                for t in table
            ],
            ("g_label", "e_label", "freq_MHz", "strength", "pop_weight"),
            out_format="csv",
            header_lines=_provenance(config, ion),
        )
    freqs, depth = absorption_spectrum(table, _spectrum_params(config))
    rows = list(zip(freqs.tolist(), depth.tolist()))
    return rows, ("freq_MHz", "optical_depth")


def _run_eit(config: RunConfig, ion: IonParams):
    from .eit import eit_profile

    needs_search = config.noise_curvatures is None or config.comb_spacing is None
    points = _find_zefoz(config, ion) if needs_search else []
    zefoz_point = points[0] if points else None
    noise = _noise_model(config, zefoz_point)
    anchor = zefoz_point.field if zefoz_point is not None else np.array(config.field)
    operating = anchor + np.array(config.eit_delta_b)
    comb = _comb_model(config, noise, operating)
    grid = _axis_grid(config.eit_grid).values()
    profile = eit_profile(comb, _lambda_params(config), config.eit_delta_b, grid)
    columns = (profile.detuning, profile.alpha_off, profile.alpha_on, profile.transmission)
    rows = list(zip(*(column.tolist() for column in columns)))
    return rows, ("detuning_MHz", "alpha_off", "alpha_on", "transmission")


def _run_sweep(config: RunConfig, ion: IonParams):
    from .eit import amplitude_vs_field

    points = _find_zefoz(config, ion)
    if not points:
        raise ComputationError("field sweep needs a stationary point, none found")
    z = points[0]
    noise = _noise_model(config, z)
    comb = _comb_model(config, noise, z.field)
    sweep = FieldGrid(
        x=AxisGrid(float(z.field[0]), float(z.field[0]), 1),
        y=AxisGrid(float(z.field[1]), float(z.field[1]), 1),
        z=AxisGrid(config.sweep_start, config.sweep_stop, config.sweep_count),
    )
    swept = amplitude_vs_field(ion.ground, z, noise, _lambda_params(config), comb, sweep)
    rows = np.array([(p.field[2], p.omega12, p.amplitude) for p in swept]).tolist()
    return rows, ("Bz_mT", "omega12_MHz", "amplitude")


_RUNNERS = {
    "levels": _run_levels,
    "diagram": _run_diagram,
    "zefoz": _run_zefoz,
    "lambda": _run_lambda,
    "spectrum": _run_spectrum,
    "eit": _run_eit,
    "sweep": _run_sweep,
}


def run(config: RunConfig) -> str:
    """Execute one config and write its output file; returns the path."""
    try:
        with open(config.ion_file, "r", encoding="utf-8") as handle:
            ion_text = handle.read()
    except OSError as exc:
        raise ConfigError([(None, f"cannot read ion file {config.ion_file!r}: {exc}")])
    ion = parse_ion_file(ion_text)
    rows, columns = _RUNNERS[config.command](config, ion)
    return write_table(
        config.output,
        rows,
        columns,
        out_format=config.out_format,
        header_lines=_provenance(config, ion),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="zefoz",
        description="Hyperfine structure, ZEFOZ transitions and EIT spectra "
        "of Kramers rare-earth ions.",
    )
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", help="override the configured output path")
    parser.add_argument("--version", action="version", version=f"zefoz {__version__}")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        config = parse_config(text)
        if args.out:
            config = dataclasses.replace(config, output=args.out)
        path = run(config)
    except ConfigError as exc:
        for line, message in exc.problems:
            where = f"line {line}: " if line is not None else ""
            print(f"config error: {where}{message}", file=sys.stderr)
        return 2
    except (ComputationError, InvalidParameterError, OSError) as exc:
        print(f"computation error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
