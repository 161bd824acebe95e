"""Optical transition strengths, symmetric Lambda-system discovery and
Boltzmann-weighted absorption spectra.

The optical operator acts on the electron spin only; the nuclear spin is a
spectator. The default sigma-polarization operator is Sx (x) 1_nuclear,
the minimal electron-spin-flip model: it couples each excited sublevel
only to ground sublevels sharing its nuclear composition.

An absorption spectrum adds one unit-area profile per line. A Gaussian
line is evaluated only on the grid points within its reach,
sigma * sqrt(2 * GAUSSIAN_UNDERFLOW_Q): beyond it exp(-q) underflows to
exactly 0.0 in float64, so every point left out would have added +0.0
and the spectrum is bit-identical to one summed over the whole grid. A
Lorentzian has no such reach and is evaluated on every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError
from .operators import electron_operator, spin_matrices
from .spins import FWHM_PER_SIGMA, AxisGrid, LevelSet, as_real

# Boltzmann constant expressed in MHz per kelvin (k_B / h).
BOLTZMANN_MHZ_PER_K = 2.08366e4

# each named electron-spin operator from the spin's (Sx, Sy, Sz)
_NAMED_OPERATORS = {
    "identity": lambda sx, sy, sz: np.eye(len(sx), dtype=complex),
    "S_x": lambda sx, sy, sz: sx,
    "S_y": lambda sx, sy, sz: sy,
    "S_z": lambda sx, sy, sz: sz,
    "S_plus": lambda sx, sy, sz: sx + 1j * sy,
    "S_minus": lambda sx, sy, sz: sx - 1j * sy,
}
OPERATOR_KINDS = (*_NAMED_OPERATORS, "custom")
LINE_PROFILES = ("gaussian", "lorentzian")

# exp(-q) is exactly 0.0 in float64 for every q above about 745.13
GAUSSIAN_UNDERFLOW_Q = 746.0


@dataclass(frozen=True)
class TransitionOperator:
    """Effective optical operator: an electron-spin part times nuclear identity."""

    kind: str
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise InvalidParameterError(
                f"operator kind must be one of {OPERATOR_KINDS}, got {self.kind!r}"
            )
        if self.kind == "custom":
            if self.matrix is None:
                raise InvalidParameterError("custom operator needs a matrix")
            m = np.asarray(self.matrix, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise InvalidParameterError("custom operator matrix must be square")
            if not np.isfinite(m).all():
                raise InvalidParameterError("custom operator matrix must be finite")

    def electron_matrix(self, electron_dim: int) -> np.ndarray:
        if self.kind in _NAMED_OPERATORS:
            return _NAMED_OPERATORS[self.kind](*spin_matrices((electron_dim - 1) / 2.0))
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (electron_dim, electron_dim):
            raise InvalidParameterError(
                f"custom operator is {m.shape}, electron space is "
                f"({electron_dim}, {electron_dim})"
            )
        return m

    def full_matrix(self, nuclear_dim: int, electron_dim: int) -> np.ndarray:
        return electron_operator(self.electron_matrix(electron_dim), nuclear_dim)


@dataclass(frozen=True)
class SpectrumParams:
    """Knobs for spectrum synthesis.

    ``inhom_fwhm`` is the optical inhomogeneous width in MHz; 35 is typical
    with a bias field applied, 70 without one. ``grid`` samples the output
    frequency axis (MHz relative to the optical origin).
    """

    temperature: float = 2.0
    inhom_fwhm: float = 35.0
    line_profile: str = "gaussian"
    grid: AxisGrid | None = None

    def __post_init__(self):
        if not as_real(self.temperature, "temperature") > 0:
            raise InvalidParameterError("temperature must be positive")
        # temperature = inf is the uniform-population limit; an infinite
        # width would spread every line to nothing
        if not (as_real(self.inhom_fwhm, "inhom_fwhm") > 0 and np.isfinite(self.inhom_fwhm)):
            raise InvalidParameterError("inhom_fwhm must be positive and finite")
        if self.line_profile not in LINE_PROFILES:
            raise InvalidParameterError(
                f"line_profile must be one of {LINE_PROFILES}, got {self.line_profile!r}"
            )


@dataclass(frozen=True)
class TransitionLine:
    ground_label: int
    excited_label: int
    frequency: float
    strength: float
    population_weight: float


@dataclass(frozen=True)
class LambdaSystem:
    """Two ground sublevels coupled to one excited sublevel.

    ``leakage`` is the strongest transition from the excited level to any
    other ground level; ``asymmetry`` is |sa - sb| / (sa + sb);
    ``splitting`` the two-photon frequency difference in MHz.
    """

    ground_a: int
    ground_b: int
    excited: int
    strength_a: float
    strength_b: float
    leakage: float
    asymmetry: float
    splitting: float


def boltzmann_weights(energies: np.ndarray, temperature: float) -> np.ndarray:
    """Normalized thermal populations for energies in MHz at a positive
    temperature in K (inf: uniform)."""
    if not as_real(temperature, "temperature") > 0:
        raise InvalidParameterError("temperature must be positive")
    e = np.asarray(energies, dtype=float)
    w = np.exp(-(e - e.min()) / (BOLTZMANN_MHZ_PER_K * temperature))
    return w / w.sum()


def transition_table(
    ground: LevelSet,
    excited: LevelSet,
    op: TransitionOperator,
    spectrum: SpectrumParams,
) -> list[TransitionLine]:
    """All ground->excited lines: |<e|O|g>|^2, frequency, thermal weight.

    Ground and excited level sets must come from the same field point and
    share one product basis, i.e. the same (S, I).
    """
    if ground.basis != excited.basis:
        raise InvalidParameterError(
            "ground and excited level sets have different product bases (S, I)"
        )
    dim = ground.dimension
    electron_dim = len({b[1] for b in ground.basis})
    nuclear_dim = dim // electron_dim
    full_op = op.full_matrix(nuclear_dim, electron_dim)
    overlap = excited.eigenvectors.conj().T @ full_op @ ground.eigenvectors
    # (ground, excited) columns, read once as Python floats
    frequencies = (excited.energies[None, :] - ground.energies[:, None]).tolist()
    strengths = (np.abs(overlap) ** 2).T.tolist()
    weights = boltzmann_weights(ground.energies, spectrum.temperature).tolist()
    return [
        TransitionLine(g + 1, e + 1, frequency, strength, weight)
        for g, (g_frequencies, g_strengths, weight) in enumerate(
            zip(frequencies, strengths, weights)
        )
        for e, (frequency, strength) in enumerate(zip(g_frequencies, g_strengths))
    ]


def find_lambda_systems(
    table: Sequence[TransitionLine],
    *,
    max_asymmetry: float = 0.01,
    max_leakage_ratio: float = 0.01,
    min_strength: float = 1e-6,
) -> list[LambdaSystem]:
    """Triples (g_a, g_b, e) forming near-symmetric Lambda configurations.

    Keeps triples whose two strengths both reach ``min_strength``, whose
    asymmetry stays below ``max_asymmetry`` and whose leakage relative to
    the weaker branch stays below ``max_leakage_ratio``; a (ground,
    excited) pair the table does not list is no leg and counts as strength
    0 in the leakage. Sorted best-first
    by (asymmetry, -weaker strength), each rounded to 12 decimals so that
    systems equal up to round-off (the degenerate levels at zero field)
    keep the (excited, ground_a, ground_b) order they are found in.
    """
    for name, value in (
        ("max_asymmetry", max_asymmetry),
        ("max_leakage_ratio", max_leakage_ratio),
    ):
        if not 0.0 <= as_real(value, name) <= 1.0:
            raise InvalidParameterError(f"{name} must lie in [0, 1], got {value!r}")
    if not 0.0 <= as_real(min_strength, "min_strength") < np.inf:  # nan would pass all
        raise InvalidParameterError(
            f"min_strength must be non-negative and finite, got {min_strength!r}"
        )

    if not table:
        return []
    ground_of = [line.ground_label for line in table]
    excited_of = [line.excited_label for line in table]
    grounds, excited = sorted(set(ground_of)), sorted(set(excited_of))
    n = len(grounds)
    column = {label: k for k, label in enumerate(grounds)}
    row = {label: k * n for k, label in enumerate(excited)}
    # one (excited, ground) array of strengths, a row per excited level, and
    # the table index of each cell's line: np.put assigns in table order,
    # so a pair listed twice keeps its last line, as a dict would; a pair
    # not listed has strength 0 and is no leg
    cells = np.array([row[e] + column[g] for g, e in zip(ground_of, excited_of)])
    strengths = np.zeros((len(excited), n))
    np.put(strengths, cells, [line.strength for line in table])
    line_of = np.full(strengths.shape, -1)
    np.put(line_of, cells, np.arange(len(table)))
    # every (excited, a < b) pair whose legs pass the strength, sum and
    # asymmetry tests, each written so that a nan passes it
    legs = (line_of >= 0) & ~(strengths < min_strength)
    a_of, b_of = np.triu_indices(n, 1)  # ground positions a < b, in (a, b) order
    sa, sb = strengths[:, a_of], strengths[:, b_of]
    with np.errstate(all="ignore"):  # inf or nan, as Python floats give them
        total = sa + sb
        asymmetry = np.abs(sa - sb) / total
    passing = legs[:, a_of] & legs[:, b_of] & ~(total <= 0.0) & ~(asymmetry > max_asymmetry)
    levels, pairs = np.nonzero(passing)
    branches = strengths.tolist()

    systems = []
    for e, a, b in zip(levels.tolist(), a_of[pairs].tolist(), b_of[pairs].tolist()):
        branch = branches[e]
        sa, sb = branch[a], branch[b]
        leak = max((s for g, s in enumerate(branch) if g != a and g != b), default=0.0)
        if leak > max_leakage_ratio * min(sa, sb):
            continue
        systems.append(
            LambdaSystem(
                ground_a=grounds[a],
                ground_b=grounds[b],
                excited=excited[e],
                strength_a=sa,
                strength_b=sb,
                leakage=leak,
                asymmetry=abs(sa - sb) / (sa + sb),
                splitting=abs(table[line_of[e, a]].frequency - table[line_of[e, b]].frequency),
            )
        )
    systems.sort(
        key=lambda s: (round(s.asymmetry, 12), -round(min(s.strength_a, s.strength_b), 12))
    )
    return systems


def gaussian_profile(x: np.ndarray, center: float, fwhm: float) -> np.ndarray:
    """Unit-area Gaussian of the given FWHM."""
    sigma = fwhm / FWHM_PER_SIGMA
    return np.exp(-((x - center) ** 2) / (2.0 * sigma**2)) / (sigma * np.sqrt(2.0 * np.pi))


def lorentzian_profile(x: np.ndarray, center: float, fwhm: float) -> np.ndarray:
    """Unit-area Lorentzian of the given FWHM."""
    hw = fwhm / 2.0
    return hw / np.pi / ((x - center) ** 2 + hw**2)


def absorption_spectrum(
    table: Sequence[TransitionLine], spectrum: SpectrumParams
) -> tuple[np.ndarray, np.ndarray]:
    """Relative optical depth on the spectrum grid.

    Each line contributes strength x population weight x a unit-area
    profile of FWHM ``inhom_fwhm`` at the line frequency, added in table
    order. A Gaussian line is evaluated only within
    sigma * sqrt(2 * GAUSSIAN_UNDERFLOW_Q) of its center: every grid point
    further out gets exp(-q) == 0.0 exactly, so the result is the same,
    bit for bit, as the sum over the whole grid. The vertical scale is
    relative; absolute absorption is not modelled. A line whose frequency
    or strength x population weight is not finite raises
    ``InvalidParameterError``: a nan center would fill the spectrum with
    nan, an infinite one would drop the line without a word.
    """
    if spectrum.grid is None:
        raise InvalidParameterError("spectrum grid is required for synthesis")
    freqs = spectrum.grid.values()
    columns = np.array(
        [(line.frequency, line.strength * line.population_weight) for line in table],
        dtype=float,
    ).reshape(-1, 2)
    centers, amplitudes = columns.T
    bad = np.flatnonzero(~np.isfinite(columns).all(axis=1))
    if bad.size:
        labels = ", ".join(
            f"{table[i].ground_label}->{table[i].excited_label}" for i in bad[:8]
        )
        raise InvalidParameterError(
            f"{bad.size} spectrum line(s) with a non-finite frequency or "
            f"strength x population weight (ground->excited): {labels}"
            + (", ..." if bad.size > 8 else "")
        )
    fwhm = spectrum.inhom_fwhm
    if spectrum.line_profile == "gaussian":
        shape = gaussian_profile
        sigma = fwhm / FWHM_PER_SIGMA
        # A point left out has q >= 746 (1 - e)**2, e being the rounding of
        # center +- reach and of x - center relative to reach; q stays above
        # 745.13 while reach exceeds ~1e-12 |center|. 1e-9 covers reach's own.
        reach = sigma * np.sqrt(2.0 * GAUSSIAN_UNDERFLOW_Q) * (1.0 + 1e-9)
    else:
        shape = lorentzian_profile
        reach = np.inf
    starts = np.searchsorted(freqs, centers - reach, side="left").tolist()
    stops = np.searchsorted(freqs, centers + reach, side="right").tolist()
    depth = np.zeros_like(freqs)
    for center, amplitude, lo, hi in zip(
        centers.tolist(), amplitudes.tolist(), starts, stops
    ):
        if amplitude == 0.0 or lo == hi:
            continue
        depth[lo:hi] += amplitude * shape(freqs[lo:hi], center, fwhm)
    return freqs, depth
