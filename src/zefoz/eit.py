"""Weak-probe EIT response of the symmetric Lambda-system, including the
superhyperfine comb and the magnetic-noise spin linewidth.

Rate convention, used at every interface here: all gamma parameters are
Lorentzian half-widths in linear-frequency MHz (a bare optical line has
FWHM 2*gamma_ge). The magnetic-noise linewidth Gamma is a FWHM, so the
per-line spin dephasing entering the susceptibility is Gamma / 2.

Every profile goes through ``_profile``, which takes a stack of per-line
spin dephasings (one for ``eit_profile``, one per field point for
``amplitude_vs_field``) and returns the coupling-off absorption and each
row's coupling-on absorption and contrast (alpha_off - alpha_on) /
alpha_off. It evaluates the rows in blocks of whole profiles of at most
PROFILE_BLOCK (comb line, detuning) points, each element with the same
ufuncs on the same operands in the same order as a profile of its own, so
the results are bit-identical to one evaluation per profile.

The Gaussian average of each line is the Faddeeva function ``wofz``,
Weideman's N = 40 rational expansion in a form with one complex division
per point, u = 1/(L - iz), and the rest multiplications: against
``scipy.special.wofz`` its complex relative error is at most 2.2e-14 for
|Re z| and Im z up to 1e8, and that of Re w at most 5.2e-13 where
Im z >= 1e-2 and |Re z| <= 30.

``wofz`` sees finite z with Im z >= 0 only: detunings are finite
(``averaged_susceptibility`` rejects others) and rates >= 0, so Im zeta =
Re(pole)/(sigma*sqrt(2)) >= 0. ``_average`` alone owns a zeta that is not
finite, the dark state's (zero spin dephasing at d2 = 0, where the pole
diverges): it passes 0 to ``wofz`` and sets the response to 0 there.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from math import isfinite
from numbers import Real

import numpy as np

from .errors import ComputationError, InvalidParameterError
from .fieldmap import ZefozPoint, quadratic_model, transition_frequencies
from .spins import FWHM_PER_SIGMA, FieldGrid, as_field, as_integer, as_real

# Fluorine nuclear gyromagnetic ratio in MHz/mT (linear frequency).
FLUORINE_GAMMA_MHZ_PER_MT = 0.04006

# At most this many (comb line, detuning) points go into one Faddeeva
# evaluation of a profile stack, in whole profiles (at least one). The
# Faddeeva passes cost the same per element in any block, and a block no
# larger than one wide profile (13 lines over 1801 points) keeps a sweep's
# peak memory below that profile's.
PROFILE_BLOCK = 2**14


# Weideman's rational expansion of the Faddeeva function with N = 40 terms
# (J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1497 (1994)): the Horner
# coefficients, highest power first, are the FFT construction of that paper
# written out, so that importing this module does not load numpy.fft.
_WEIDEMAN_N = 40
_WEIDEMAN_L = np.sqrt(_WEIDEMAN_N / np.sqrt(2.0))
_WEIDEMAN_COEFFICIENTS = (
    -1.7356980998791865e-15, 1.201674910759281e-15, 1.1519170220749485e-14,
    -5.231716366324404e-15, -7.071088022159408e-14, 1.3778224047664046e-14,
    4.5341448909434655e-13, 1.203330952919568e-13, -2.90771851041427e-12,
    -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727420938907015e-11,
    -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085990731251058e-10,
    3.017780425551564e-09, 3.249746582945079e-09, -1.8315616834296834e-08,
    -6.351773483015411e-08, 1.419864237295343e-08, 5.912136953029057e-07,
    1.4835661133172014e-06, -1.066013898416273e-06, -1.8007447144723407e-05,
    -5.5913092642348794e-05, -3.939363145483805e-05, 0.000439807015986967,
    0.002705405633073729, 0.010048186242783535, 0.02920291647124188,
    0.07182361779074328, 0.15504263802479504, 0.2998943799615006,
    0.5266528988277086, 0.8472174576593815, 1.2563815675765133,
    1.7253830848179779, 2.201513794878312, 2.6160541527618597,
    2.899624509389705,
)


def wofz(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) on its domain here,
    finite z with Im z >= 0 (module docstring); its one caller,
    ``_average``, keeps to it, and it is not checked.

    Weideman's N = 40 rational expansion (SIAM J. Numer. Anal. 31, 1497
    (1994)) with L = sqrt(N/sqrt(2)) and the degree-39 polynomial p, in a
    form with one complex division per point: u = 1/(L - iz),
    Z = 2L u - 1 (which is (L + iz)/(L - iz)) and
    w(z) = (2 p(Z) u + 1/sqrt(pi)) u. Against ``scipy.special.wofz`` the
    complex relative error is at most 2.2e-14 for |Re z| and Im z up to
    1e8, and the relative error of Re w at most 5.2e-13 where
    Im z >= 1e-2 and |Re z| <= 30.

    It allocates three arrays of z's shape (u, Z and p) and works in them
    in place (``out=``), with the same ufuncs on the same operands in the
    same order as the plain expressions, so its bits are the same; an
    array per step would be page-faulted in again whenever the heap has
    been trimmed.
    """
    # u = 1/(L - iz) in the buffer of i*z; np.asarray keeps every step of
    # a scalar z a 0-d array, so that out= can write into it
    u = np.asarray(1j * np.asarray(z, dtype=complex))
    np.subtract(_WEIDEMAN_L, u, out=u)
    np.divide(1.0, u, out=u)
    ratio = np.asarray(2.0 * _WEIDEMAN_L * u)
    np.subtract(ratio, 1.0, out=ratio)
    # Horner from a0*Z + a1
    p = np.asarray(_WEIDEMAN_COEFFICIENTS[0] * ratio)
    np.add(p, _WEIDEMAN_COEFFICIENTS[1], out=p)
    for c in _WEIDEMAN_COEFFICIENTS[2:]:
        p *= ratio
        p += c
    # (2 p u + 1/sqrt(pi)) u; each product by u goes into a buffer that is
    # not its operand, as in the plain expression: numpy rounds a complex
    # product written in place over a one-element operand by another loop
    np.multiply(2.0, p, out=p)
    w = np.multiply(p, u, out=ratio)
    np.add(w, 1.0 / np.sqrt(np.pi), out=w)
    return np.multiply(w, u, out=p)[()]


@dataclass(frozen=True)
class NoiseModel:
    """Magnetic-noise broadening of the two-photon transition.

    Gamma(dB) = gamma0 + sum_i |S2i| * deltaB_i * sqrt(2 deltaB_i^2 + 4 dB_i^2)

    with curvatures S2i in kHz/mT^2, fluctuation amplitudes ``delta_b`` and
    field offsets dB in mT, each 3 finite numbers, and the result in MHz (a
    FWHM). ``gamma0`` absorbs residual broadening such as unresolved
    superhyperfine structure.
    """

    curvatures: tuple[float, float, float]
    gamma0: float = 0.5
    delta_b: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if as_real(self.gamma0, "gamma0") < 0:
            raise InvalidParameterError("gamma0 must be non-negative")
        for name in ("curvatures", "delta_b"):  # not a 3x3 matrix, a string or a scalar
            value = np.asarray(getattr(self, name), dtype=object)
            if value.shape != (3,) or not all(isinstance(x, Real) for x in value):
                raise InvalidParameterError(f"{name} must be a sequence of 3 real numbers")
        if any(d < 0 for d in self.delta_b):
            raise InvalidParameterError("delta_b components must be non-negative")
        for name in ("curvatures", "gamma0", "delta_b"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidParameterError(f"{name} must be finite")


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
    and ``spin_dephasing`` are half-widths. ``optical_inhom_fwhm`` is the
    width of the Gaussian optical inhomogeneous distribution and must be
    positive.
    """

    rabi_coupling: float = 2.0
    optical_dephasing: float = 0.5
    spin_dephasing: float = 0.0
    optical_inhom_fwhm: float = 35.0
    two_photon_offset: float = 0.0

    def __post_init__(self):
        for name in (field.name for field in fields(self)):  # every rate
            if not isfinite(as_real(getattr(self, name), name)):
                raise InvalidParameterError(f"{name} must be finite")
        for name in ("rabi_coupling", "optical_dephasing", "spin_dephasing"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be non-negative")
        if not self.optical_inhom_fwhm > 0:
            raise InvalidParameterError("optical_inhom_fwhm must be positive")


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
    numerator = 1j * g_ge * z
    # chi is exactly 0 where the numerator is (the dark state), also when
    # a tiny coupling's (Omega_c/2)^2 underflows and would give 0/0
    chi = np.zeros(np.broadcast_shapes(dp.shape, d2.shape), dtype=complex)
    denominator = (g_ge + 1j * dp) * z + (omega / 2.0) ** 2
    return np.divide(numerator, denominator, out=chi, where=numerator != 0)[()]


def _average(detuning, iz, spin_dephasing, p: LambdaParams, pole: np.ndarray):
    """The closed form of ``averaged_susceptibility`` from iz = i*d2.

    ``spin_dephasing`` takes the place of p.spin_dephasing: a float, or an
    array that broadcasts against iz (one row of profiles per entry).
    The pole is built in ``pole``, an array of the broadcast shape that
    may be iz itself, and zeta in the buffer of i*pole.
    """
    g_ge = p.optical_dephasing
    sigma = p.optical_inhom_fwhm / FWHM_PER_SIGMA
    with np.errstate(divide="ignore", invalid="ignore"):
        if p.rabi_coupling == 0.0:
            # chi(dp) = g_ge / (dp - i*pole) with the pole g_ge alone
            pole[...] = g_ge + 0.0j
        else:
            # g_ge + (Omega_c/2)^2 / (g_gs + i*d2)
            np.add(spin_dephasing, iz, out=pole)
            np.divide((p.rabi_coupling / 2.0) ** 2, pole, out=pole)
            np.add(g_ge, pole, out=pole)
        # (-f + i*pole) / (sigma*sqrt(2)) in the buffer of i*pole, scaled by
        # the reciprocal (numpy divides a complex array by a real scalar
        # that way, so the bits are the same); -f is negated before
        # broadcasting, so it costs one detuning-sized array
        zeta = np.asarray(1j * pole)
        np.add(-detuning, zeta, out=zeta)
        np.multiply(zeta, 1.0 / (sigma * np.sqrt(2.0)), out=zeta)
    # the dark state, or any zeta that is not finite: 0, the limit of w
    dark = ~np.isfinite(zeta)
    zeta[dark] = 0.0
    out = np.asarray(wofz(zeta))
    np.multiply(g_ge * np.sqrt(np.pi) / (sigma * np.sqrt(2.0)) * 1j, out, out=out)
    out[dark] = 0.0
    return out


def averaged_susceptibility(detuning, two_photon_detuning, p: LambdaParams):
    """<chi> averaged over the Gaussian optical inhomogeneous distribution.

    For a probe offset f from the distribution center, the average over
    ion detunings D of chi(f - D, d2) has the closed form

        <chi>(f, d2) = g_ge * sqrt(pi) / (sigma*sqrt(2)) * i * w(zeta),
        zeta = (-f + i*pole(d2)) / (sigma*sqrt(2)),
        pole(d2) = g_ge + (Omega_c/2)^2 / (g_gs + i*d2),

    with w the Faddeeva function, because chi is a simple pole in the probe
    detuning: chi(dp) = g_ge / (dp - i*pole).

    The closed form is evaluated in place: the pole in the buffer of
    i*d2, zeta in that of i*pole and the prefactor into w's result, each
    step the same ufunc on the same operands in the same order as the
    formula above, so the result is bit-identical to the plain
    expressions with about two output-sized arrays fewer at its peak.
    The EIT profiles use the same core for a stack of spin dephasings.
    A detuning that is not finite raises ``InvalidParameterError``.
    """
    detuning = np.asarray(detuning, dtype=float)
    _, d2 = np.broadcast_arrays(detuning, np.asarray(two_photon_detuning, dtype=float))
    if not (np.all(np.isfinite(detuning)) and np.all(np.isfinite(d2))):
        raise InvalidParameterError("detunings must be finite")
    iz = np.asarray(1j * d2)
    return _average(detuning, iz, p.spin_dephasing, p, pole=iz)[()]


def _line_count(n_lines) -> int:
    count = as_integer(n_lines, "n_lines")
    if count < 1:
        raise InvalidParameterError(f"n_lines must be at least 1, got {count}")
    return count


def binomial_weights(n_lines: int) -> np.ndarray:
    """Comb weights for n-1 equivalent spin-1/2 neighbors: C(n-1, k) / 2^(n-1),
    each rounded once from the exact integers, so that no n overflows."""
    top = _line_count(n_lines) - 1
    # each C(n-1, k+1) from C(n-1, k) by one exact step: a fresh math.comb
    # per k takes seconds from about 10 000 lines
    coefficient, coefficients = 1, []
    for k in range(top + 1):
        coefficients.append(coefficient)
        coefficient = coefficient * (top - k) // (k + 1)
    scale = 2**top
    return np.array([c / scale for c in coefficients])


def flat_weights(n_lines: int) -> np.ndarray:
    n_lines = _line_count(n_lines)
    return np.full(n_lines, 1.0 / n_lines)


@dataclass(frozen=True)
class CombModel:
    """Superhyperfine comb: equidistant two-photon resonances.

    Each comb class is an independent Lambda-system whose two-photon
    resonance is shifted by a multiple of ``spacing`` (MHz); classes add
    incoherently. Given ``weights`` are normalized to sum 1; ``None``
    stands for ``binomial_weights(n_lines)`` as it is, the binomial
    distribution over n_lines - 1 equivalent spin-1/2 neighbors. ``noise``
    supplies the per-line spin linewidth of ``eit_profile``.
    """

    spacing: float
    n_lines: int = 9
    weights: np.ndarray | None = None
    noise: NoiseModel | None = None

    def __post_init__(self):
        if as_integer(self.n_lines, "n_lines") < 1 or self.n_lines % 2 == 0:
            raise InvalidParameterError("n_lines must be an odd integer >= 1")
        if not (as_real(self.spacing, "spacing") > 0 and isfinite(self.spacing)):
            raise InvalidParameterError("spacing must be positive and finite")
        if self.weights is None:
            object.__setattr__(self, "weights", binomial_weights(self.n_lines))
            return
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.n_lines,):
            raise InvalidParameterError(
                f"weights needs {self.n_lines} entries, got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise InvalidParameterError("weights must be finite")
        if np.any(w < 0) or w.sum() <= 0:
            raise InvalidParameterError("weights must be non-negative with positive sum")
        object.__setattr__(self, "weights", w / w.sum())

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


def _checked_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise InvalidParameterError("detuning grid must be a 1-D array of >= 3 points")
    if not np.all(np.isfinite(grid)):
        raise InvalidParameterError("detuning grid points must be finite")
    if np.any(np.diff(grid) <= 0):
        raise InvalidParameterError("detuning grid must be strictly ascending")
    return grid


def _spin_dephasings(noise: NoiseModel, delta_fields) -> np.ndarray:
    """Per-line spin dephasing Gamma/2 at each field offset, each checked
    as ``LambdaParams`` checks its ``spin_dephasing``."""
    dephasings = np.array([spin_linewidth(noise, offset) / 2.0 for offset in delta_fields])
    if not np.all(np.isfinite(dephasings)):  # every term of the linewidth is >= 0
        raise InvalidParameterError("spin_dephasing must be finite")
    return dephasings


def _profile(comb: CombModel, p: LambdaParams, dephasings: np.ndarray, grid: np.ndarray):
    """(alpha_off, alpha_on, contrast) on the grid: the coupling-off
    absorption, 1 at line center, and for the K per-line spin dephasings
    ``dephasings`` the coupling-on absorption by the same norm and the
    contrast (alpha_off - alpha_on) / alpha_off, each (K, grid).

    alpha_off and its norm come from one evaluation with 0 appended to the
    grid; with the coupling off the pole is gamma_ge alone, so neither
    depends on the spin dephasing. Row k of alpha_on adds the comb lines
    with their weights, each line the average <chi> at spin dephasing
    dephasings[k]. The rows are evaluated in blocks of whole profiles of
    at most PROFILE_BLOCK (line, detuning) points. Every element takes the
    same ufuncs on the same operands in the same order as in a stack of
    one, so a row's bits do not depend on the stack or the block it is in.
    """
    off_params = replace(p, rabi_coupling=0.0)
    alpha = averaged_susceptibility(np.append(grid, 0.0), 0.0, off_params).imag
    norm = float(alpha[-1])
    if not norm > 0.0:
        raise ComputationError("coupling-off absorption vanishes at line center")
    alpha_off = alpha[:-1] / norm
    if np.any(alpha_off <= 0.0):
        raise ComputationError("alpha_off is not positive over the whole grid")
    shifts = comb.shifts() + p.two_photon_offset
    iz = 1j * (grid - shifts[:, None])  # i*d2 of every comb line, (lines, grid)
    count = len(dephasings)
    rows = max(1, PROFILE_BLOCK // iz.size)
    # a single profile builds its poles in the buffer of i*d2
    poles = iz[None] if count == 1 else np.empty((min(rows, count),) + iz.shape, dtype=complex)
    alpha_on = np.zeros((count, grid.size))
    for start in range(0, count, rows):
        block = dephasings[start:start + rows, None, None]
        lines = _average(grid, iz, block, p, poles[:len(block)]).imag
        on = alpha_on[start:start + rows]
        for w, line in zip(comb.weights, lines.swapaxes(0, 1)):
            on += w * line
    alpha_on /= norm
    return alpha_off, alpha_on, (alpha_off - alpha_on) / alpha_off


def eit_profile(comb: CombModel, p: LambdaParams, delta_field, grid) -> EitProfile:
    """EIT transmission window at a field offset from the stationary point.

    The per-line spin dephasing is spin_linewidth(comb.noise, delta_field)
    / 2, so the comb must carry a NoiseModel. alpha_on sums the comb
    classes with their weights (a profile stack of one); alpha_off is the
    coupling-off response.
    """
    if comb.noise is None:
        raise InvalidParameterError("eit_profile needs a comb with a NoiseModel")
    grid = _checked_grid(grid)
    dephasings = _spin_dephasings(comb.noise, [delta_field])
    alpha_off, (alpha_on,), (transmission,) = _profile(comb, p, dephasings, grid)
    shifts = comb.shifts() + p.two_photon_offset
    return EitProfile(
        detuning=grid,
        alpha_on=alpha_on,
        alpha_off=alpha_off,
        transmission=transmission,
        amplitude=float(transmission.max()),
        grid_covers_comb=bool(grid[0] <= shifts.min() and grid[-1] >= shifts.max()),
    )


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
) -> list[SweepPoint]:
    """Two-photon frequency and EIT amplitude along a 1-D field sweep.

    ``omega12`` comes from the quadratic model around ``z``;
    ``omega12_exact`` re-diagonalizes at each point as a cross-check (they
    agree to better than 0.05 MHz within 2 mT of the stationary point),
    all sweep points in one stacked evaluation. Each amplitude is read on
    a 0.05 MHz detuning grid over the comb plus 10 MHz on either side,
    centred on the comb shifted by ``p.two_photon_offset``. All sweep points
    are one profile stack (``_profile``), each row bit-identical to a
    profile of its own.
    """
    if len(sweep.free_axes()) > 1:
        raise InvalidParameterError("field sweep must vary a single axis")
    half = float(np.max(np.abs(comb.shifts()))) + 10.0
    # with no offset, exactly the grid from -half to +half
    grid = p.two_photon_offset + np.arange(-half, half + 1e-9, 0.05)
    points = sweep.points()
    offsets = points - z.field
    dephasings = _spin_dephasings(noise, offsets)
    amplitudes = _profile(comb, p, dephasings, grid)[2].max(axis=1).tolist()
    exact = transition_frequencies(params, points, z.selector)
    return [
        SweepPoint(
            field=point, omega12=quadratic_model(z, offset), amplitude=amplitude,
            omega12_exact=float(w),
        )
        for point, offset, amplitude, w in zip(points, offsets, amplitudes, exact)
    ]
