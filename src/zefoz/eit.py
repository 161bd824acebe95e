"""Weak-probe EIT response of the symmetric Lambda-system, including the
superhyperfine comb and the magnetic-noise spin linewidth.

Rate convention, used at every interface here: all gamma parameters are
Lorentzian half-widths in linear-frequency MHz (a bare optical line has
FWHM 2*gamma_ge). The magnetic-noise linewidth Gamma is a FWHM, so the
per-line spin dephasing entering the susceptibility is Gamma / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb as binomial_coefficient

import numpy as np
from scipy.special import roots_hermite, wofz

from .errors import ComputationError, InvalidParameterError
from .fieldmap import FieldGrid, ZefozPoint, quadratic_model, transition_frequencies
from .spins import as_field

# Fluorine nuclear gyromagnetic ratio in MHz/mT (linear frequency).
FLUORINE_GAMMA_MHZ_PER_MT = 0.04006

GAUSSIAN_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

AVERAGING_METHODS = ("exact", "hermite")


@dataclass(frozen=True)
class NoiseModel:
    """Magnetic-noise broadening of the two-photon transition.

    Gamma(dB) = gamma0 + sum_i |S2i| * deltaB_i * sqrt(2 deltaB_i^2 + 4 dB_i^2)

    with curvatures S2i in kHz/mT^2, fluctuation amplitudes ``delta_b`` and
    field offsets dB in mT, and the result in MHz (a FWHM). ``gamma0``
    absorbs residual broadening such as unresolved superhyperfine structure.
    """

    curvatures: tuple[float, float, float]
    gamma0: float = 0.5
    delta_b: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.gamma0 < 0:
            raise InvalidParameterError("gamma0 must be non-negative")
        if len(self.curvatures) != 3 or len(self.delta_b) != 3:
            raise InvalidParameterError("curvatures and delta_b need 3 components")
        if any(d < 0 for d in self.delta_b):
            raise InvalidParameterError("delta_b components must be non-negative")

    @classmethod
    def from_zefoz(cls, z: ZefozPoint, gamma0: float = 0.5,
                   delta_b: tuple[float, float, float] = (1.0, 1.0, 1.0)) -> "NoiseModel":
        return cls(curvatures=tuple(float(c) for c in z.curvatures),
                   gamma0=gamma0, delta_b=delta_b)


def spin_linewidth(noise: NoiseModel, delta_field) -> float:
    """Two-photon FWHM (MHz) at an offset ``delta_field`` (mT) from the
    stationary point. Monotone non-decreasing in each |dB_i|."""
    d = as_field(delta_field)
    s2 = np.abs(np.asarray(noise.curvatures, dtype=float)) * 1e-3  # MHz/mT^2
    db = np.asarray(noise.delta_b, dtype=float)
    return float(noise.gamma0 + np.sum(s2 * db * np.sqrt(2.0 * db**2 + 4.0 * d**2)))


@dataclass(frozen=True)
class LambdaParams:
    """Lambda-system rates for the weak-probe response (all MHz).

    ``rabi_coupling`` is the coupling Rabi frequency; ``optical_dephasing``
    and ``spin_dephasing`` are half-widths. ``averaging`` selects how the
    optical inhomogeneous distribution is integrated: "exact" evaluates the
    closed-form Gaussian convolution via the Faddeeva function, "hermite"
    uses Gauss-Hermite quadrature with ``quadrature_points`` nodes.
    """

    rabi_coupling: float = 2.0
    optical_dephasing: float = 0.5
    spin_dephasing: float = 0.0
    optical_inhom_fwhm: float = 35.0
    two_photon_offset: float = 0.0
    averaging: str = "exact"
    quadrature_points: int = 64

    def __post_init__(self):
        for name in ("rabi_coupling", "optical_dephasing", "spin_dephasing",
                     "optical_inhom_fwhm"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be non-negative")
        if self.averaging not in AVERAGING_METHODS:
            raise InvalidParameterError(
                f"averaging must be one of {AVERAGING_METHODS}, got {self.averaging!r}"
            )
        if self.quadrature_points < 2:
            raise InvalidParameterError("quadrature_points must be at least 2")


def susceptibility(probe_detuning, two_photon_detuning, p: LambdaParams):
    """Steady-state weak-probe response of a single Lambda-system.

    chi = i*g_ge*(g_gs + i*d2) / [(g_ge + i*dp)(g_gs + i*d2) + (Omega_c/2)^2]

    normalized so Im chi = 1 at line center with the coupling off. The
    coupling field sits on its own line center; ``two_photon_detuning`` is
    the offset of probe-minus-coupling from the spin splitting. Accepts
    scalars or arrays (broadcast together).
    """
    g_ge = p.optical_dephasing
    g_gs = p.spin_dephasing
    omega = p.rabi_coupling
    if g_ge == 0.0 and g_gs == 0.0 and omega == 0.0:
        raise ComputationError(
            "singular parameters: optical_dephasing, spin_dephasing and "
            "rabi_coupling are all zero"
        )
    dp = np.asarray(probe_detuning, dtype=float)
    d2 = np.asarray(two_photon_detuning, dtype=float)
    if omega == 0.0:
        # exact algebraic limit of the formula above
        return 1j * g_ge / (g_ge + 1j * dp) * np.ones_like(d2)
    z = g_gs + 1j * d2
    return 1j * g_ge * z / ((g_ge + 1j * dp) * z + (omega / 2.0) ** 2)


def _pole_offset(d2: np.ndarray, p: LambdaParams) -> np.ndarray:
    """Complex pole parameter: chi(dp) = g_ge / (dp - i*pole)."""
    g_ge = p.optical_dephasing
    if p.rabi_coupling == 0.0:
        return np.broadcast_to(g_ge + 0.0j, d2.shape).copy()
    z = p.spin_dephasing + 1j * d2
    return g_ge + (p.rabi_coupling / 2.0) ** 2 / z


def averaged_susceptibility(detuning, two_photon_detuning, p: LambdaParams):
    """<chi> averaged over the Gaussian optical inhomogeneous distribution.

    For a probe offset f from the distribution center, the average over
    ion detunings D of chi(f - D, d2) has the closed form

        <chi>(f, d2) = g_ge * sqrt(pi) / (sigma*sqrt(2)) * i * w(zeta),
        zeta = (-f + i*pole(d2)) / (sigma*sqrt(2)),

    with w the Faddeeva function, because chi is a simple pole in the probe
    detuning. The "hermite" method integrates numerically instead; it is
    only accurate when the pole width is comparable to the node spacing.
    """
    f = np.asarray(detuning, dtype=float)
    d2 = np.asarray(two_photon_detuning, dtype=float)
    f, d2 = np.broadcast_arrays(f, d2)
    sigma = p.optical_inhom_fwhm * GAUSSIAN_FWHM_TO_SIGMA
    if sigma == 0.0:
        return susceptibility(f, d2, p)
    if p.averaging == "hermite":
        return _averaged_hermite(f, d2, p, sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        pole = _pole_offset(d2, p)
    zeta = (-f + 1j * pole) / (sigma * np.sqrt(2.0))
    out = p.optical_dephasing * np.sqrt(np.pi) / (sigma * np.sqrt(2.0)) * 1j * wofz(zeta)
    # zero spin dephasing at exact two-photon resonance: the pole diverges
    # and the response is the dark-state limit, exactly zero
    bad = ~np.isfinite(pole)
    if np.any(bad):
        out = np.where(bad, 0.0 + 0.0j, out)
    return out


def _averaged_hermite(f: np.ndarray, d2: np.ndarray, p: LambdaParams, sigma: float):
    nodes, weights = roots_hermite(p.quadrature_points)
    offsets = np.sqrt(2.0) * sigma * nodes
    w_norm = weights / np.sqrt(np.pi)
    probe = f[..., None] - offsets
    chi = susceptibility(probe, d2[..., None], p)
    return np.sum(chi * w_norm, axis=-1)


def binomial_weights(n_lines: int) -> np.ndarray:
    """Comb weights for n-1 equivalent spin-1/2 neighbors."""
    w = np.array(
        [binomial_coefficient(n_lines - 1, k) for k in range(n_lines)], dtype=float
    )
    return w / w.sum()


def flat_weights(n_lines: int) -> np.ndarray:
    return np.full(n_lines, 1.0 / n_lines)


@dataclass(frozen=True)
class CombModel:
    """Superhyperfine comb: equidistant two-photon resonances.

    Each comb class is an independent Lambda-system whose two-photon
    resonance is shifted by a multiple of ``spacing`` (MHz); classes add
    incoherently. ``weights`` default to the binomial distribution over
    n_lines - 1 equivalent spin-1/2 neighbors. ``noise`` supplies the
    per-line spin linewidth.
    """

    spacing: float
    n_lines: int = 9
    weights: np.ndarray | None = None
    noise: NoiseModel | None = None

    def __post_init__(self):
        if self.n_lines < 1 or self.n_lines % 2 == 0:
            raise InvalidParameterError("n_lines must be an odd integer >= 1")
        if not self.spacing > 0:
            raise InvalidParameterError("spacing must be positive")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.n_lines,):
                raise InvalidParameterError(
                    f"weights needs {self.n_lines} entries, got shape {w.shape}"
                )
            if np.any(w < 0) or w.sum() <= 0:
                raise InvalidParameterError("weights must be non-negative with positive sum")
            object.__setattr__(self, "weights", w / w.sum())

    @classmethod
    def for_field(
        cls,
        field,
        noise: NoiseModel | None = None,
        n_lines: int = 9,
        weights: np.ndarray | None = None,
        gyromagnetic_ratio: float = FLUORINE_GAMMA_MHZ_PER_MT,
    ) -> "CombModel":
        """Comb with spacing set to the host-nucleus Larmor frequency at |B|."""
        b = as_field(field)
        spacing = float(gyromagnetic_ratio * np.linalg.norm(b))
        return cls(spacing=spacing, n_lines=n_lines, weights=weights, noise=noise)

    def resolved_weights(self) -> np.ndarray:
        if self.weights is None:
            return binomial_weights(self.n_lines)
        return self.weights

    def shifts(self) -> np.ndarray:
        k = np.arange(self.n_lines, dtype=float)
        return (k - (self.n_lines - 1) / 2.0) * self.spacing


@dataclass
class EitProfile:
    """Probe absorption with the coupling on/off versus two-photon detuning.

    ``alpha_off`` is normalized to 1 at line center; ``transmission`` is the
    pointwise contrast (alpha_off - alpha_on) / alpha_off and ``amplitude``
    its maximum over the grid.
    """

    detuning: np.ndarray
    alpha_on: np.ndarray
    alpha_off: np.ndarray
    transmission: np.ndarray
    amplitude: float
    grid_covers_comb: bool


def eit_profile(
    comb: CombModel,
    p: LambdaParams,
    delta_field,
    grid,
    noise: NoiseModel | None = None,
) -> EitProfile:
    """EIT transmission window at a field offset from the stationary point.

    The per-line spin dephasing is spin_linewidth(noise, delta_field) / 2;
    ``noise`` falls back to the comb's own model. alpha_on sums the comb
    classes with their weights; alpha_off is the coupling-off response.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise InvalidParameterError("detuning grid must be a 1-D array of >= 3 points")
    if np.any(np.diff(grid) <= 0):
        raise InvalidParameterError("detuning grid must be strictly ascending")
    active_noise = noise if noise is not None else comb.noise
    if active_noise is None:
        raise InvalidParameterError("a NoiseModel is required (on the comb or passed in)")

    width = spin_linewidth(active_noise, delta_field)
    per_line = replace(p, spin_dephasing=width / 2.0)

    weights = comb.resolved_weights()
    shifts = comb.shifts() + p.two_photon_offset

    alpha_on = np.zeros_like(grid)
    for w, s in zip(weights, shifts):
        alpha_on += w * averaged_susceptibility(grid, grid - s, per_line).imag

    off_params = replace(per_line, rabi_coupling=0.0)
    alpha_off = averaged_susceptibility(grid, np.zeros_like(grid), off_params).imag
    norm = float(np.asarray(averaged_susceptibility(0.0, 0.0, off_params).imag))
    if not norm > 0.0:
        raise ComputationError("coupling-off absorption vanishes at line center")
    alpha_on = alpha_on / norm
    alpha_off = alpha_off / norm

    if np.any(alpha_off <= 0.0):
        raise ComputationError("alpha_off is not positive over the whole grid")
    transmission = (alpha_off - alpha_on) / alpha_off
    covers = bool(grid[0] <= shifts.min() and grid[-1] >= shifts.max())
    return EitProfile(
        detuning=grid,
        alpha_on=alpha_on,
        alpha_off=alpha_off,
        transmission=transmission,
        amplitude=float(transmission.max()),
        grid_covers_comb=covers,
    )


def eit_amplitude(profile: EitProfile) -> float:
    """Fractional absorption reduction at the best-contrast grid point."""
    idx = int(np.argmax(profile.transmission))
    off = profile.alpha_off[idx]
    if off == 0.0:
        raise ComputationError("alpha_off vanishes at the evaluation point")
    return float((off - profile.alpha_on[idx]) / off)


@dataclass(frozen=True)
class SweepPoint:
    field: np.ndarray
    omega12: float
    amplitude: float
    omega12_exact: float


def amplitude_vs_field(
    params,
    z: ZefozPoint,
    noise: NoiseModel,
    p: LambdaParams,
    comb: CombModel,
    sweep: FieldGrid,
    grid=None,
) -> list[SweepPoint]:
    """Two-photon frequency and EIT amplitude along a 1-D field sweep.

    ``omega12`` comes from the quadratic model around ``z``;
    ``omega12_exact`` re-diagonalizes at each point as a cross-check (they
    agree to better than 0.05 MHz within 2 mT of the stationary point),
    all sweep points in one stacked evaluation.
    """
    if len(sweep.free_axes()) > 1:
        raise InvalidParameterError("field sweep must vary a single axis")
    if grid is None:
        half = float(np.max(np.abs(comb.shifts()))) + 10.0
        grid = np.arange(-half, half + 1e-9, 0.05)
    points = sweep.points()
    modelled = []
    for point in points:
        offset = point - z.field
        profile = eit_profile(comb, p, offset, grid, noise=noise)
        modelled.append((quadratic_model(z, offset), eit_amplitude(profile)))
    exact = transition_frequencies(params, points, z.selector)
    return [
        SweepPoint(
            field=point, omega12=omega12, amplitude=amplitude, omega12_exact=float(w)
        )
        for point, (omega12, amplitude), w in zip(points, modelled, exact)
    ]
