"""Command dispatch: one config file in, one table out.

Usage: ``zefoz --config run.cfg [--out path]``. Exit codes: 0 success,
2 configuration error, 3 computation error. Every output file starts
with a provenance header (tool version, full config echo, ion
parameters) so results are reproducible from the file alone.

Start-up is most of a command's run time, so this module loads only
``config``, ``errors``, ``output`` and ``spins``, and reads every other
library name as ``zefoz.<name>``, which loads its module on first use:
each command loads only the modules it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

import zefoz
from .config import RunConfig, config_echo, format_ion_file, parse_config, parse_ion_file
from .errors import ComputationError, ConfigError, InvalidParameterError
from .output import write_table
from .spins import AxisGrid, FieldGrid, IonParams, ion_levels


def _provenance(config: RunConfig, ion: IonParams) -> list[str]:
    lines = [f"zefoz {zefoz.__version__}"]
    lines += config_echo(config)
    for raw in format_ion_file(ion).splitlines():
        lines.append(f"ion: {raw}")
    return lines


def _spectrum_params(config: RunConfig) -> zefoz.SpectrumParams:
    fwhm = config.spectrum_inhom_fwhm
    if fwhm is None:
        in_field = float(np.linalg.norm(config.field)) > 0.0
        fwhm = 35.0 if in_field else 70.0
    return zefoz.SpectrumParams(
        temperature=config.spectrum_temperature,
        inhom_fwhm=fwhm,
        line_profile=config.spectrum_profile,
        grid=AxisGrid(*config.spectrum_grid),
    )


def _lambda_params(config: RunConfig) -> zefoz.LambdaParams:
    return zefoz.LambdaParams(
        rabi_coupling=config.eit_rabi,
        optical_dephasing=config.eit_gamma_ge,
        optical_inhom_fwhm=config.eit_inhom_fwhm,
        two_photon_offset=config.eit_two_photon_offset,
    )


def _find_zefoz(config: RunConfig, ion: IonParams):
    label, levels = max(config.zefoz_pair), ion.ground.dimension
    if label > levels:
        message = f"zefoz.pair: label {label} exceeds the {levels} ground levels"
        raise ConfigError([(None, f"{message} of {config.ion_file!r}")])
    sel = zefoz.TransitionSelector("ground", *config.zefoz_pair)
    return zefoz.zefoz_search(
        ion.ground, sel, np.array(config.zefoz_start), config.search_bounds(), config.zefoz_tol
    )


def _noise_model(config: RunConfig, zefoz_point) -> zefoz.NoiseModel:
    curvatures = config.noise_curvatures
    if curvatures is None:
        if zefoz_point is None:
            raise ComputationError(
                "noise curvatures set to auto but no stationary point was found"
            )
        curvatures = tuple(float(c) for c in zefoz_point.curvatures)
    return zefoz.NoiseModel(
        curvatures=curvatures,
        gamma0=config.noise_gamma0,
        delta_b=config.noise_delta_b,
    )


def _comb_model(config: RunConfig, noise: zefoz.NoiseModel, operating_field) -> zefoz.CombModel:
    spacing = config.comb_spacing
    if spacing is None:
        if operating_field is None:
            raise ComputationError("comb.spacing set to auto but no stationary point was found")
        spacing = zefoz.FLUORINE_GAMMA_MHZ_PER_MT * float(np.linalg.norm(operating_field))
        if spacing == 0.0:
            field = " ".join(repr(float(b)) for b in operating_field)
            raise ComputationError(
                "comb.spacing = auto needs a nonzero operating field, "
                f"got B = {field} mT"
            )
    weights = (
        zefoz.binomial_weights(config.comb_n_lines)
        if config.comb_weights == "binomial"
        else zefoz.flat_weights(config.comb_n_lines)
    )
    return zefoz.CombModel(
        spacing=spacing, n_lines=config.comb_n_lines, weights=weights, noise=noise
    )


def _run_levels(config: RunConfig, ion: IonParams):
    levels = ion_levels(getattr(ion, config.manifold), np.array(config.field))
    rows = [
        (config.manifold, label, energy)
        for label, energy in enumerate(levels.energies.tolist(), start=1)
    ]
    return rows, ("manifold", "level", "energy_MHz")


def _run_diagram(config: RunConfig, ion: IonParams):
    fixed = AxisGrid(0.0, 0.0, 1)
    scan = AxisGrid(config.diagram_start, config.diagram_stop, config.diagram_count)
    grid = FieldGrid(**{axis: scan if axis == config.diagram_axis else fixed for axis in "xyz"})
    diagram = zefoz.level_diagram(getattr(ion, config.manifold), grid)
    rows = [
        (*point, level, energy)
        for point, energies in zip(diagram.field_points.tolist(), diagram.energies.tolist())
        for level, energy in enumerate(energies, start=1)
    ]
    return rows, ("Bx_mT", "By_mT", "Bz_mT", "level", "energy_MHz")


def _run_zefoz(config: RunConfig, ion: IonParams):
    points = _find_zefoz(config, ion)
    rows = [
        (*z.field.tolist(), z.omega0, z.gradient_residual, *z.curvatures.tolist(),
         z.signature_string)
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
    pairs = [(p.electron_spin, p.nuclear_spin) for p in (ion.ground, ion.excited)]
    if pairs[0] != pairs[1]:
        message = f"ground (S, I) = {pairs[0]} differs from excited (S, I) = {pairs[1]}"
        raise ConfigError([(None, f"{message} in {config.ion_file!r}")])
    field = np.array(config.field)
    ground = ion_levels(ion.ground, field)
    excited = ion_levels(ion.excited, field)
    op = zefoz.TransitionOperator(config.operator)
    return zefoz.transition_table(ground, excited, op, _spectrum_params(config))


def _run_lambda(config: RunConfig, ion: IonParams):
    table = _tables_at_field(config, ion)
    systems = zefoz.find_lambda_systems(
        table,
        max_asymmetry=config.lambda_max_asymmetry,
        max_leakage_ratio=config.lambda_max_leakage_ratio,
        min_strength=config.lambda_min_strength,
    )
    columns = ("ground_a", "ground_b", "excited", "strength_a", "strength_b", "leakage",
               "asymmetry", "splitting_MHz")
    return [dataclasses.astuple(s) for s in systems], columns


def _run_spectrum(config: RunConfig, ion: IonParams):
    table = _tables_at_field(config, ion)
    if config.spectrum_table_output is not None:
        write_table(
            config.spectrum_table_output,
            [dataclasses.astuple(line) for line in table],
            ("g_label", "e_label", "freq_MHz", "strength", "pop_weight"),
            out_format="csv",
            header_lines=_provenance(config, ion),
        )
    freqs, depth = zefoz.absorption_spectrum(table, _spectrum_params(config))
    rows = list(zip(freqs.tolist(), depth.tolist()))
    return rows, ("freq_MHz", "optical_depth")


def _run_eit(config: RunConfig, ion: IonParams):
    points = _find_zefoz(config, ion) if config.runs_search else []
    zefoz_point = points[0] if points else None
    noise = _noise_model(config, zefoz_point)
    operating = None if zefoz_point is None else zefoz_point.field + np.array(config.eit_delta_b)
    comb = _comb_model(config, noise, operating)
    grid = AxisGrid(*config.eit_grid).values()
    profile = zefoz.eit_profile(comb, _lambda_params(config), config.eit_delta_b, grid)
    columns = (profile.detuning, profile.alpha_off, profile.alpha_on, profile.transmission)
    rows = list(zip(*(column.tolist() for column in columns)))
    return rows, ("detuning_MHz", "alpha_off", "alpha_on", "transmission")


def _run_sweep(config: RunConfig, ion: IonParams):
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
    swept = zefoz.amplitude_vs_field(ion.ground, z, noise, _lambda_params(config), comb, sweep)
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


def _check_paths(config: RunConfig) -> None:
    """Reject a run whose ion file, output and line table are not different
    files: one write would replace another file of the run."""
    named = {"ion_file": config.ion_file, "output": config.output}
    if config.spectrum_table_output is not None:
        named["spectrum.table_output"] = config.spectrum_table_output
    seen: dict[str, str] = {}  # real path -> key
    for key, path in named.items():
        real = os.path.realpath(path)
        if real in seen:
            other = seen[real]
            message = f"{key} {path!r} names the same file as {other} {named[other]!r}"
            raise ConfigError([(None, message)])
        seen[real] = key


def run(config: RunConfig) -> str:
    """Execute one config and write its output file; returns the path.
    The ion file, the output and the line table must be different files."""
    _check_paths(config)
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
    parser.add_argument("--version", action="version", version=f"zefoz {zefoz.__version__}")
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
