"""Hyperfine structure, ZEFOZ clock transitions and EIT spectra of
Kramers rare-earth ions in magnetic fields.

Units throughout: energies and frequencies in MHz, magnetic fields in mT,
curvatures in kHz/mT^2, with z along the crystal symmetry axis.

The top-level names are resolved on first access (PEP 562): importing
``zefoz`` loads no submodule, and ``zefoz.eit_profile`` loads ``zefoz.eit``
and what it imports. Resolved names are not stored in the package
namespace, so a name rebound in its defining module is what ``zefoz.name``
returns.
"""

import importlib
import sys

__version__ = "0.1.0"

_SUBMODULES = (
    "cli",
    "config",
    "eit",
    "errors",
    "fieldmap",
    "operators",
    "output",
    "spins",
    "transitions",
)

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: f"{__name__}.{module}"
    for module, names in (
        ("errors", ("ComputationError", "ConfigError", "InvalidParameterError")),
        (
            "spins",
            (
                "BOHR_MAGNETON_MHZ_PER_MT",
                "AxisGrid",
                "FieldGrid",
                "IonParams",
                "LevelSet",
                "SpinParams",
                "StateComponent",
                "ion_levels",
                "state_composition",
            ),
        ),
        (
            "fieldmap",
            (
                "GradientResult",
                "LevelDiagram",
                "TransitionSelector",
                "ZefozPoint",
                "frequency_gradient",
                "level_diagram",
                "quadratic_model",
                "transition_frequencies",
                "zefoz_search",
            ),
        ),
        (
            "transitions",
            (
                "BOLTZMANN_MHZ_PER_K",
                "LambdaSystem",
                "SpectrumParams",
                "TransitionLine",
                "TransitionOperator",
                "absorption_spectrum",
                "boltzmann_weights",
                "find_lambda_systems",
                "transition_table",
            ),
        ),
        (
            "eit",
            (
                "FLUORINE_GAMMA_MHZ_PER_MT",
                "CombModel",
                "EitProfile",
                "LambdaParams",
                "NoiseModel",
                "SweepPoint",
                "amplitude_vs_field",
                "averaged_susceptibility",
                "binomial_weights",
                "eit_profile",
                "flat_weights",
                "spin_linewidth",
                "susceptibility",
            ),
        ),
        (
            "config",
            (
                "RunConfig",
                "config_echo",
                "format_ion_file",
                "parse_config",
                "parse_ion_file",
            ),
        ),
        ("output", ("render_csv", "render_json_records", "write_table")),
    )
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        if name in _SUBMODULES:
            return importlib.import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = sys.modules.get(module)
    if loaded is None:
        loaded = importlib.import_module(module)
    return getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
