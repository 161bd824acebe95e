"""Spin linewidth model, Lambda susceptibility and the EIT comb."""

from __future__ import annotations

import inspect
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss

import zefoz.eit
from zefoz import (
    AxisGrid,
    CombModel,
    ComputationError,
    FieldGrid,
    InvalidParameterError,
    LambdaParams,
    NoiseModel,
    SpinParams,
    TransitionSelector,
    amplitude_vs_field,
    averaged_susceptibility,
    binomial_weights,
    eit_profile,
    flat_weights,
    spin_linewidth,
    parse_config,
    susceptibility,
    transition_frequencies,
    zefoz_search,
)
from zefoz.cli import _comb_model

from conftest import (
    ND_GROUND,
    analytic_zefoz_bz,
    assert_same_bits,
    averaged_susceptibility_oracle,
    feature_fwhm,
    local_max_indices,
    sweep_oracle,
    wofz_oracle,
)

REFERENCE_CURVATURES = (-52.7, -52.7, 185.3)  # kHz/mT^2


@pytest.fixture()
def noise() -> NoiseModel:
    return NoiseModel(curvatures=REFERENCE_CURVATURES)


@pytest.fixture()
def comb(noise) -> CombModel:
    return CombModel(spacing=2.8, noise=noise)


@pytest.fixture()
def grid() -> np.ndarray:
    return np.linspace(-18.0, 18.0, 1801)


def test_linewidth_at_the_stationary_point(noise):
    # 0.5 + sqrt(2) * (0.0527 + 0.0527 + 0.1853) ~= 0.911 MHz
    assert spin_linewidth(noise, (0.0, 0.0, 0.0)) == pytest.approx(0.911, abs=1e-3)


def test_linewidth_seven_mT_off(noise):
    assert spin_linewidth(noise, (0.0, 0.0, 7.0)) == pytest.approx(3.26, abs=0.02)


def test_linewidth_zero_when_noiseless():
    quiet = NoiseModel(curvatures=REFERENCE_CURVATURES, gamma0=0.0, delta_b=(0, 0, 0))
    for offset in ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)):
        assert spin_linewidth(quiet, offset) == 0.0


def test_linewidth_monotone(noise):
    base = spin_linewidth(noise, (0.0, 0.0, 0.0))
    rng = np.random.default_rng(3)
    for _ in range(50):
        offset = rng.uniform(-10, 10, 3)
        assert spin_linewidth(noise, offset) >= base
    # and strictly increasing along each axis
    for axis in range(3):
        values = []
        for d in (0.0, 1.0, 2.0, 5.0):
            offset = np.zeros(3)
            offset[axis] = d
            values.append(spin_linewidth(noise, offset))
        assert np.all(np.diff(values) > 0)


# 60-node Gauss-Hermite rule for x ~ N(0, 1): E f(x) = sum_k w_k f(t_k),
# exact for polynomials up to degree 119
GAUSS_NODES, GAUSS_WEIGHTS = hermegauss(60)
GAUSS_WEIGHTS = GAUSS_WEIGHTS / np.sqrt(2.0 * np.pi)


def gaussian_std(values: np.ndarray) -> float:
    """Standard deviation of f(x) from its values f(delta_b * t_k) at the nodes."""
    mean = GAUSS_WEIGHTS @ values
    return float(np.sqrt(GAUSS_WEIGHTS @ (values - mean) ** 2))


def test_linewidth_is_the_spread_of_the_quadratic_model_under_gaussian_noise():
    # Gamma - gamma0 = sum_i std of S2i (dB_i + x_i)^2 with x_i ~ N(0, deltaB_i^2)
    rng = np.random.default_rng(41)
    for case in range(40):
        curvatures = tuple(rng.uniform(-300.0, 300.0, 3))
        delta_b = tuple(rng.uniform(0.0, 2.0, 3) * (rng.random(3) > 0.2))
        offset = rng.uniform(-10.0, 10.0, 3) * (rng.random(3) > 0.2)
        noise = NoiseModel(curvatures=curvatures, gamma0=rng.uniform(0.0, 1.0),
                           delta_b=delta_b)
        spread = sum(
            gaussian_std(1e-3 * s2 * (d + db * GAUSS_NODES) ** 2)
            for s2, db, d in zip(curvatures, delta_b, offset)
        )
        scale = 1e-3 * sum(abs(s2) * (abs(d) + db) ** 2
                           for s2, db, d in zip(curvatures, delta_b, offset))
        model = spin_linewidth(noise, offset) - noise.gamma0
        assert abs(model - spread) <= 1e-12 * max(1.0, scale)


# Largest |Gamma_model / Gamma_exact - 1| accepted, per (deltaB, offset along
# z): the measured deviations are 7.5e-6, 3.0e-3 and 6.9e-3 at 0.1 mT and
# 7.5e-4, 2.25e-2 and 2.9e-2 at 1 mT
EXACT_SPREAD_BOUNDS = {
    (0.1, 0.0): 2e-5, (0.1, 2.0): 5e-3, (0.1, 7.0): 1e-2,
    (1.0, 0.0): 1.5e-3, (1.0, 2.0): 3e-2, (1.0, 7.0): 4e-2,
}


@pytest.mark.parametrize("delta_b, offset", list(EXACT_SPREAD_BOUNDS))
def test_linewidth_against_the_exact_clock_frequency_under_gaussian_noise(
    nd_ground, zefoz_point, delta_b, offset
):
    # the spread of the exact omega12(B) of the reference ion, noise on one
    # axis at a time, against the quadratic model; the model only ever
    # overestimates it, since omega12 bends away from its parabola
    sel = TransitionSelector("ground", 8, 10)
    centre = zefoz_point.field + np.array([0.0, 0.0, offset])
    exact = 0.0
    for axis in range(3):
        fields = centre + np.outer(delta_b * GAUSS_NODES, np.eye(3)[axis])
        exact += gaussian_std(transition_frequencies(nd_ground, fields, sel))
    noise = NoiseModel(curvatures=tuple(zefoz_point.curvatures), gamma0=0.0,
                       delta_b=(delta_b,) * 3)
    model = spin_linewidth(noise, (0.0, 0.0, offset))
    assert 0.0 <= model / exact - 1.0 <= EXACT_SPREAD_BOUNDS[delta_b, offset]


def test_dark_state_transparency():
    p = LambdaParams(rabi_coupling=1.0, optical_dephasing=2.0, spin_dephasing=0.0)
    chi = susceptibility(0.7, 0.0, p)
    assert chi.imag == pytest.approx(0.0, abs=1e-15)
    # a coupling whose (Omega_c/2)^2 underflows is still dark: exactly 0,
    # with no warning (the suite turns warnings into errors), like the
    # inhomogeneous average
    tiny = LambdaParams(rabi_coupling=1e-170, optical_dephasing=0.5, spin_dephasing=0.0)
    assert susceptibility(0.0, 0.0, tiny) == 0j
    assert np.array_equal(susceptibility(np.array([-0.3, 0.0, 2.0]), 0.0, tiny), np.zeros(3))
    assert averaged_susceptibility(0.0, 0.0, tiny) == 0j


def test_two_level_limit_lorentzian():
    p = LambdaParams(rabi_coupling=0.0, optical_dephasing=2.0, spin_dephasing=0.3)
    detunings = np.linspace(-20, 20, 4001)
    chi = susceptibility(detunings, 0.0, p)
    assert chi.imag.max() == pytest.approx(1.0, abs=1e-12)
    expected = 2.0**2 / (2.0**2 + detunings**2)
    assert np.max(np.abs(chi.imag - expected)) < 1e-12
    # FWHM equals 2*gamma_ge
    above = chi.imag >= 0.5
    fwhm = detunings[above][-1] - detunings[above][0]
    assert fwhm == pytest.approx(4.0, abs=0.05)


def test_transparency_window_width_scaling():
    # weak-coupling window: FWHM of the dip ~= rabi^2 / (2 * gamma_ge),
    # measured from a dense scan of the closed-form response
    gamma_ge = 10.0
    rabi = 0.2
    p = LambdaParams(rabi_coupling=rabi, optical_dephasing=gamma_ge, spin_dephasing=0.0)
    expected = rabi**2 / (2.0 * gamma_ge)
    scan = np.linspace(-10 * expected, 10 * expected, 200001)
    absorption = susceptibility(scan, scan, p).imag  # probe scan: dp = d2
    window = 1.0 - absorption / absorption.max()
    above = window >= 0.5
    measured = scan[above][-1] - scan[above][0]
    assert measured == pytest.approx(expected, rel=0.05)


def test_susceptibility_singular_parameters():
    p = LambdaParams(rabi_coupling=0.0, optical_dephasing=0.0, spin_dephasing=0.0)
    with pytest.raises(ComputationError):
        susceptibility(0.0, 0.0, p)


def test_symmetry_in_probe_detuning():
    # on two-photon resonance, Re chi is odd and Im chi even in the probe
    # detuning, both for the bare line and with the coupling on
    detunings = np.linspace(-30, 30, 601)
    for p in (
        LambdaParams(rabi_coupling=0.0, optical_dephasing=1.5, spin_dephasing=0.0),
        LambdaParams(rabi_coupling=2.0, optical_dephasing=1.5, spin_dephasing=0.4),
    ):
        chi_pos = susceptibility(detunings, 0.0, p)
        chi_neg = susceptibility(-detunings, 0.0, p)
        assert np.max(np.abs(chi_pos.real + chi_neg.real)) < 1e-9
        assert np.max(np.abs(chi_pos.imag - chi_neg.imag)) < 1e-9


def lambda_master_equation_chi(dp, d2, p: LambdaParams, decay) -> complex:
    """chi from the steady state of the three-level Lindblad equation.

    Levels g, s (spin) and e in the frame rotating with probe and coupling,
    H = dp |e><e| + d2 |s><s| - (Omega_c/2)(|s><e| + h.c.)
    - (Omega_p/2)(|g><e| + h.c.). Jumps: e -> g and e -> s at the rates
    ``decay``, with pure dephasing of e and s that makes the coherences
    e-g and s-g decay at gamma_ge and gamma_gs. To first order in Omega_p,
    L0 rho1 = -L1 rho0 with rho0 = |g><g|, and chi = 2 gamma_ge rho1_eg.
    """
    g, s, e = np.eye(3)[:, :, None]

    def op(ket, bra):  # |ket><bra| from two column vectors
        return ket @ bra.T

    def liouvillian(h, jumps=()):
        eye = np.eye(3)  # row-major vec: vec(A rho B) = kron(A, B.T) vec(rho)
        out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for c in jumps:
            cc = c.conj().T @ c
            out += np.kron(c, c.conj()) - 0.5 * (np.kron(cc, eye) + np.kron(eye, cc.T))
        return out

    to_g, to_s = decay
    h0 = dp * op(e, e) + d2 * op(s, s) - p.rabi_coupling / 2.0 * (op(s, e) + op(e, s))
    jumps = (np.sqrt(to_g) * op(g, e), np.sqrt(to_s) * op(s, e),
             np.sqrt(2.0 * p.optical_dephasing - to_g - to_s) * op(e, e),
             np.sqrt(2.0 * p.spin_dephasing) * op(s, s))
    l0 = liouvillian(h0, jumps)
    rhs = -liouvillian(-0.5 * (op(g, e) + op(e, g))) @ op(g, g).reshape(9)
    rho1 = np.linalg.lstsq(l0, rhs, rcond=None)[0]
    # L0 is singular (trace, dark populations), but the system is consistent
    assert np.max(np.abs(l0 @ rho1 - rhs)) < 1e-12
    return 2.0 * p.optical_dephasing * rho1.reshape(3, 3)[2, 0]


def master_equation_cases():
    """Random rates and detunings, then the edges: coupling off, no spin
    dephasing off two-photon resonance, two-photon resonance."""
    rng = np.random.default_rng(29)
    for case in range(40):
        rates = dict(rabi_coupling=rng.uniform(0.0, 8.0), optical_dephasing=rng.uniform(0.05, 5.0),
                     spin_dephasing=rng.uniform(0.0, 2.0))
        dp, d2 = rng.uniform(-20.0, 20.0, 2)
        if case % 4 == 1:
            rates["rabi_coupling"] = 0.0
        elif case % 4 == 2:
            rates["spin_dephasing"] = 0.0
        elif case % 4 == 3:
            d2 = 0.0
        yield dp, d2, LambdaParams(**rates), rng.uniform(0.0, rates["optical_dephasing"], 2)


def test_susceptibility_is_the_lambda_master_equation_steady_state():
    for dp, d2, p, decay in master_equation_cases():
        chi = susceptibility(dp, d2, p)
        oracle = lambda_master_equation_chi(dp, d2, p, decay)
        assert abs(chi - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_coupling_off_absorption_is_one_at_line_center():
    for gamma_ge, gamma_gs, d2 in ((0.5, 0.0, 0.0), (2.0, 0.3, 1.7), (0.05, 1.0, -4.0)):
        p = LambdaParams(rabi_coupling=0.0, optical_dephasing=gamma_ge, spin_dephasing=gamma_gs)
        assert susceptibility(0.0, d2, p).imag == 1.0
        oracle = lambda_master_equation_chi(0.0, d2, p, (gamma_ge, 0.0))
        assert abs(oracle - 1j) <= 1e-12


def test_wofz_matches_scipy_faddeeva_on_the_upper_half_plane():
    # the module-level name is what instruments wrap
    assert inspect.isfunction(zefoz.eit.wofz)
    assert zefoz.eit.wofz.__module__ == "zefoz.eit"
    re = np.concatenate([-np.logspace(-3, 8, 300)[::-1], [0.0], np.logspace(-3, 8, 300)])
    im = np.concatenate([[0.0], np.logspace(-8, 8, 300)])
    z = re[:, None] + 1j * im[None, :]
    ours = zefoz.eit.wofz(z)
    reference = scipy.special.wofz(z)
    assert ours.dtype == reference.dtype and ours.shape == z.shape
    assert np.max(np.abs(ours - reference) / np.abs(reference)) <= 5e-14
    # Re w is the absorption; it keeps its own relative accuracy over the
    # detunings and widths the EIT profiles reach
    z = np.linspace(-30.0, 30.0, 601)[:, None] + 1j * np.logspace(-2, 3, 101)[None, :]
    ours = zefoz.eit.wofz(z).real
    reference = scipy.special.wofz(z).real
    assert np.max(np.abs(ours - reference) / np.abs(reference)) <= 1e-12


def test_wofz_non_finite_input_gives_scipy_values_without_warnings():
    # the dark state (zero spin dephasing at d2 = 0) passes a non-finite
    # zeta that averaged_susceptibility masks afterwards; RuntimeWarning
    # fails the suite
    inf, nan = np.inf, np.nan
    z = np.array([
        complex(inf, 0), complex(-inf, 0), complex(0, inf), complex(inf, inf),
        complex(-inf, inf), complex(1, inf), complex(-inf, 1), complex(nan, 0),
        complex(0, nan), complex(nan, nan), complex(inf, nan), complex(nan, inf),
        complex(2, 0.5),
    ])
    ours = zefoz.eit.wofz(z)
    reference = scipy.special.wofz(z)
    assert np.array_equal(np.isnan(ours), np.isnan(reference))
    assert np.all(ours[:7] == 0)
    assert ours[-1] == pytest.approx(reference[-1], rel=1e-14)
    assert zefoz.eit.wofz(complex(inf, 0)) == 0
    assert zefoz.eit.wofz(0.0) == pytest.approx(1.0, abs=1e-15)


def test_wofz_rejects_the_lower_half_plane():
    with pytest.raises(InvalidParameterError):
        zefoz.eit.wofz(np.array([1.0 + 1.0j, 1.0 - 1e-300j]))


def test_wofz_coefficients_are_weidemans_fft_construction():
    # Weideman (1994): a_n from the FFT of exp(-t^2) (L^2 + t^2) sampled at
    # t = L tan(theta/2), written out in the module to keep numpy.fft off
    # the import path
    n = zefoz.eit._WEIDEMAN_N
    m = 2 * n
    length = np.sqrt(n / np.sqrt(2.0))
    t = length * np.tan(np.arange(-m + 1, m) * np.pi / (2 * m))
    samples = np.concatenate([[0.0], np.exp(-(t**2)) * (length**2 + t**2)])
    a = np.real(np.fft.fft(np.fft.fftshift(samples))) / (2 * m)
    expected = a[1 : n + 1][::-1]  # highest power first, for Horner
    assert zefoz.eit._WEIDEMAN_L == length
    assert len(zefoz.eit._WEIDEMAN_COEFFICIENTS) == n
    assert np.max(np.abs(np.array(zefoz.eit._WEIDEMAN_COEFFICIENTS) - expected)) <= 1e-15


PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)
RABI = st.floats(0.0, 6.0)
GAMMA_GE = st.floats(0.05, 5.0)


@st.composite
def averaging_cases(draw):
    """Detuning, two-photon detuning and rates for the exact average: a
    scalar pair, a grid at one d2, or a (lines, grid) comb whose grid
    passes through every line center, so d2 is exactly 0 there."""
    p = LambdaParams(
        rabi_coupling=draw(st.just(0.0) | st.floats(0.0, 10.0)),
        optical_dephasing=draw(st.floats(0.01, 5.0)),
        spin_dephasing=draw(st.just(0.0) | st.floats(0.0, 2.0)),
        optical_inhom_fwhm=draw(st.floats(0.1, 100.0)),
    )
    kind = draw(st.sampled_from(("scalar", "grid", "comb")))
    if kind == "scalar":
        return draw(st.floats(-60.0, 60.0)), draw(st.just(0.0) | st.floats(-10.0, 10.0)), p
    step = draw(st.floats(0.01, 0.5))
    grid = step * np.arange(-draw(st.integers(10, 200)), draw(st.integers(10, 200)))
    if kind == "grid":
        return grid, draw(st.just(0.0) | st.floats(-10.0, 10.0)), p
    half = draw(st.integers(0, 4))
    shifts = step * (draw(st.integers(1, 5)) * np.arange(-half, half + 1))
    return grid, grid - shifts[:, None], p


DARK = LambdaParams(spin_dephasing=0.0)
COMB_GRID = 0.05 * np.arange(-200, 200)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@example((1.5, 0.0, DARK))  # zero spin dephasing on two-photon resonance
@example((COMB_GRID, COMB_GRID - 0.05 * (28 * np.arange(-4, 5))[:, None], DARK))
@given(averaging_cases())
def test_averaged_susceptibility_is_bit_identical_to_the_plain_expressions(case):
    # the in-place path runs the same ufuncs on the same operands in the
    # same order as the plain expressions, so not one bit may differ
    f, d2, p = case
    assert_same_bits(averaged_susceptibility(f, d2, p),
                     averaged_susceptibility_oracle(f, d2, p))


def test_scalar_input_gives_a_numpy_scalar_in_every_case():
    # the dark state and non-finite Faddeeva input take their own branches
    assert averaged_susceptibility(1.5, 0.0, DARK) == 0.0
    for d2 in (0.0, 0.3):
        assert type(averaged_susceptibility(1.5, d2, DARK)) is np.complex128
    for z in (complex(np.inf, 0.0), complex(np.nan, 1.0), 1.0 + 1.0j):
        assert type(zefoz.eit.wofz(z)) is np.complex128


NON_FINITE = st.sampled_from((np.inf, -np.inf, np.nan))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.floats(-1e3, 1e3) | NON_FINITE, st.floats(0.0, 1e3) | NON_FINITE),
        min_size=1, max_size=20,
    ),
    scalar=st.booleans(),
)
def test_wofz_is_bit_identical_to_the_plain_expressions(points, scalar):
    # Im z >= 0: wofz rejects the lower half-plane
    z = np.array([complex(re, abs(im)) for re, im in points])
    if scalar:
        z = z[0]
    assert_same_bits(zefoz.eit.wofz(z), wofz_oracle(z))


def _peak_in_arrays(call, array_bytes: int) -> float:
    """tracemalloc peak of one call, in units of ``array_bytes``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / array_bytes


def test_faddeeva_path_allocates_few_full_size_arrays():
    # a sweep point's comb: 9 lines over a 760-point grid; each full-size
    # temporary costs page faults once the heap has been trimmed
    grid = np.linspace(-19.0, 18.95, 760)
    d2 = grid - 2.25 * np.arange(-4.0, 5.0)[:, None]
    p = LambdaParams(spin_dephasing=0.3)
    zeta = (d2 + 0.5j) / 20.0
    output_bytes = d2.size * np.dtype(complex).itemsize
    averaged_susceptibility(grid, d2, p)  # warm-up
    assert _peak_in_arrays(lambda: averaged_susceptibility(grid, d2, p), output_bytes) <= 5.5
    assert _peak_in_arrays(lambda: zefoz.eit.wofz(zeta), output_bytes) <= 3.5


def _chi(dp: float, d2: float, p: LambdaParams) -> complex:
    """Single Lambda-system response, written out for the quadrature."""
    if p.rabi_coupling == 0.0:
        return 1j * p.optical_dephasing / complex(p.optical_dephasing, dp)
    z = complex(p.spin_dephasing, d2)
    return 1j * p.optical_dephasing * z / (
        complex(p.optical_dephasing, dp) * z + (p.rabi_coupling / 2.0) ** 2
    )


@PROPERTY
@example(  # dark state: zero spin dephasing on two-photon resonance
    rabi=2.0, gamma_ge=0.5, gamma_gs=0.0, fwhm=35.0, f_sigmas=0.3, d2=0.0
)
@given(
    rabi=RABI, gamma_ge=GAMMA_GE, gamma_gs=st.floats(0.0, 2.0), fwhm=st.floats(1.0, 100.0),
    f_sigmas=st.floats(-3.0, 3.0), d2=st.floats(-10.0, 10.0),
)
def test_averaged_susceptibility_matches_quadrature(rabi, gamma_ge, gamma_gs, fwhm, f_sigmas, d2):
    # <chi>(f, d2) = integral of chi(f - D, d2) over the Gaussian of the
    # ion detunings D; chi is a simple pole in dp, centered at D = f + b
    # with half-width a for pole = a + ib
    p = LambdaParams(
        rabi_coupling=rabi, optical_dephasing=gamma_ge, spin_dephasing=gamma_gs,
        optical_inhom_fwhm=fwhm,
    )
    sigma = fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    f = f_sigmas * sigma
    center = f
    if rabi != 0.0 and (gamma_gs != 0.0 or d2 != 0.0):
        center += (gamma_ge + (rabi / 2.0) ** 2 / complex(gamma_gs, d2)).imag

    def integrand(d, part):
        chi = _chi(f - d, d2, p)
        weight = np.exp(-d * d / (2.0 * sigma**2)) / (sigma * np.sqrt(2.0 * np.pi))
        return (chi.real, chi.imag)[part] * weight

    got = complex(averaged_susceptibility(f, d2, p))
    breaks = [x for x in (f, center) if abs(x) < 12.0 * sigma]
    # epsabs as well, for a part that integrates to zero
    expected = complex(*(
        scipy.integrate.quad(
            integrand, -12.0 * sigma, 12.0 * sigma, args=(part,), points=breaks,
            limit=400, epsabs=1e-10 * abs(got), epsrel=1e-10,
        )[0]
        for part in (0, 1)
    ))
    assert abs(got - expected) <= 1e-7 * abs(expected)


@PROPERTY
@given(
    half_lines=st.integers(0, 6),
    spacing=st.floats(0.5, 5.0),
    raw_weights=st.lists(st.floats(0.0, 1.0), min_size=13, max_size=13),
    rabi=RABI, gamma_ge=GAMMA_GE, fwhm=st.floats(20.0, 100.0), gamma0=st.floats(0.0, 2.0),
)
def test_symmetric_comb_gives_a_mirror_symmetric_transmission(
    half_lines, spacing, raw_weights, rabi, gamma_ge, fwhm, gamma0
):
    # mirror-symmetric comb weights with zero two-photon offset: the
    # transmission is even in the two-photon detuning on a symmetric grid
    n_lines = 2 * half_lines + 1
    weights = np.array(raw_weights[:n_lines]) + 0.1
    weights = weights + weights[::-1]
    noise = NoiseModel(curvatures=REFERENCE_CURVATURES, gamma0=gamma0)
    comb = CombModel(spacing=spacing, n_lines=n_lines, weights=weights, noise=noise)
    p = LambdaParams(rabi_coupling=rabi, optical_dephasing=gamma_ge, optical_inhom_fwhm=fwhm)
    half = np.linspace(0.0, half_lines * spacing + 5.0, 151)
    grid = np.concatenate([-half[:0:-1], half])
    profile = eit_profile(comb, p, (0.0, 0.0, 0.0), grid)
    assert np.max(np.abs(profile.transmission - profile.transmission[::-1])) <= 1e-12


def test_averaged_susceptibility_against_dense_integration():
    # brute-force reference: trapezoidal convolution with the Gaussian
    p = LambdaParams(rabi_coupling=1.4, optical_dephasing=0.7, spin_dephasing=0.3)
    sigma = 35.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    offsets = np.linspace(-300.0, 300.0, 600001)
    gauss = np.exp(-(offsets**2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
    for f, d2 in ((0.0, 0.0), (2.8, 0.4), (-11.2, -11.2), (15.0, 3.1)):
        chi = susceptibility(f - offsets, d2, p)
        reference = np.trapezoid(gauss * chi, offsets)
        value = averaged_susceptibility(f, d2, p)
        assert abs(value - reference) < 1e-9


def test_comb_has_nine_resolved_peaks(comb, grid):
    profile = eit_profile(comb, LambdaParams(), (0.0, 0.0, 0.0), grid)
    maxima = local_max_indices(profile.transmission)
    assert len(maxima) == 9
    positions = profile.detuning[maxima]
    spacings = np.diff(positions)
    assert np.all(np.abs(spacings - 2.8) <= 0.1)
    assert profile.grid_covers_comb


def test_comb_blurs_into_single_feature_at_seven_mT(comb, grid):
    profile = eit_profile(comb, LambdaParams(), (0.0, 0.0, 7.0), grid)
    maxima = local_max_indices(profile.transmission)
    assert len(maxima) == 1
    width = feature_fwhm(profile.detuning, profile.transmission)
    assert 9.0 <= width <= 15.0


def test_single_ideal_lambda_reaches_full_contrast():
    quiet = NoiseModel(curvatures=(0.0, 0.0, 0.0), gamma0=0.0, delta_b=(0, 0, 0))
    comb = CombModel(spacing=2.8, n_lines=1, noise=quiet)
    grid = np.linspace(-5.0, 5.0, 501)
    profile = eit_profile(comb, LambdaParams(), (0.0, 0.0, 0.0), grid)
    center = np.argmin(np.abs(grid))
    assert profile.alpha_on[center] == pytest.approx(0.0, abs=1e-12)
    assert profile.amplitude == pytest.approx(1.0, abs=1e-12)


def test_coupling_off_means_no_contrast(comb, grid):
    p = LambdaParams(rabi_coupling=0.0)
    profile = eit_profile(comb, p, (0.0, 0.0, 0.0), grid)
    assert profile.amplitude == pytest.approx(0.0, abs=1e-12)


def test_concentrated_weights_reduce_to_shifted_single_line(noise, grid):
    # all weight on class k is the same model as a single Lambda-system
    # whose two-photon resonance is offset by that class's shift
    weights = np.zeros(9)
    weights[7] = 1.0
    concentrated = CombModel(spacing=2.8, weights=weights, noise=noise)
    single = CombModel(spacing=2.8, n_lines=1, noise=noise)
    shift = concentrated.shifts()[7]
    a = eit_profile(concentrated, LambdaParams(), (0.0, 0.0, 0.0), grid)
    b = eit_profile(
        single, LambdaParams(two_photon_offset=shift), (0.0, 0.0, 0.0), grid
    )
    assert np.max(np.abs(a.alpha_on - b.alpha_on)) < 1e-12
    assert np.max(np.abs(a.transmission - b.transmission)) < 1e-12


def test_strong_dephasing_kills_contrast(grid):
    # spin dephasing far above the power-broadening scale leaves almost
    # no transparency
    loud = NoiseModel(curvatures=REFERENCE_CURVATURES, gamma0=50.0)
    comb = CombModel(spacing=2.8, noise=loud)
    profile = eit_profile(comb, LambdaParams(), (0.0, 0.0, 0.0), grid)
    assert profile.amplitude < 0.05


def test_profile_even_in_detuning(comb, grid):
    profile = eit_profile(comb, LambdaParams(), (0.0, 0.0, 0.0), grid)
    assert np.max(np.abs(profile.alpha_on - profile.alpha_on[::-1])) < 1e-9


def test_transparency_bound_single_line(noise):
    # at its own two-photon resonance a Lambda-system always absorbs less
    # with the coupling on
    single = CombModel(spacing=2.8, n_lines=1, noise=noise)
    grid = np.linspace(-6.0, 6.0, 601)
    for dz in (0.0, 3.0, 7.0):
        profile = eit_profile(single, LambdaParams(), (0.0, 0.0, dz), grid)
        assert np.all(profile.alpha_on >= 0.0)
        center = np.argmin(np.abs(grid))
        assert profile.alpha_on[center] <= profile.alpha_off[center] * (1 + 1e-9)


def test_transparency_bound_at_strong_comb_resonances(comb, grid):
    # the five majority-weight resonances obey the bound; the outermost
    # classes (weights 1/256, 8/256) can sit slightly above alpha_off from
    # dressed-state pulling by the off-resonant strong classes
    profile = eit_profile(comb, LambdaParams(), (0.0, 0.0, 0.0), grid)
    for shift in (-5.6, -2.8, 0.0, 2.8, 5.6):
        idx = np.argmin(np.abs(grid - shift))
        assert profile.alpha_on[idx] <= profile.alpha_off[idx] * (1 + 1e-9)
    # the violation at the weak outer lines stays below the percent level
    worst = np.max(profile.alpha_on - profile.alpha_off)
    assert worst < 0.01 * profile.alpha_off.max()


def test_comb_model_validation(noise):
    with pytest.raises(InvalidParameterError):
        CombModel(spacing=2.8, n_lines=8, noise=noise)
    with pytest.raises(InvalidParameterError):
        CombModel(spacing=0.0, noise=noise)
    with pytest.raises(InvalidParameterError):
        CombModel(spacing=2.8, weights=np.ones(4), noise=noise)
    weights = CombModel(spacing=2.8, weights=np.ones(9), noise=noise).weights
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)
    # weights=None stands for the binomial comb, resolved when the comb is built
    assert np.array_equal(CombModel(spacing=2.8, noise=noise).weights, binomial_weights(9))
    assert binomial_weights(9).sum() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(flat_weights(9), 1.0 / 9.0)


@pytest.mark.parametrize("weights", [binomial_weights, flat_weights])
@pytest.mark.parametrize("n_lines", [0, -1, 3.0, 2.5])
def test_comb_weights_need_a_positive_integer_line_count(weights, n_lines):
    with pytest.raises(InvalidParameterError, match="n_lines"):
        weights(n_lines)


def test_comb_spacing_from_larmor_frequency(noise):
    config = parse_config("command = eit\nion_file = nd.ion\n")
    comb = _comb_model(config, noise, np.array([0.0, 0.0, 63.6]))
    assert comb.spacing == pytest.approx(0.04006 * 63.6, rel=1e-12)
    assert comb.spacing == pytest.approx(2.55, abs=0.01)


def test_grid_coverage_flag(noise):
    comb = CombModel(spacing=2.8, noise=noise)
    narrow = np.linspace(-5.0, 5.0, 301)
    profile = eit_profile(comb, LambdaParams(), (0.0, 0.0, 0.0), narrow)
    assert not profile.grid_covers_comb


def test_amplitude_error_when_line_vanishes(comb, grid):
    p = LambdaParams(rabi_coupling=1.0, optical_dephasing=0.0)
    with pytest.raises(ComputationError):
        eit_profile(comb, p, (0.0, 0.0, 0.0), grid)


def test_amplitude_vs_field_peaks_at_the_stationary_point(
    nd_ground, zefoz_point, noise
):
    comb = CombModel(spacing=2.8, noise=noise)
    sweep = FieldGrid(
        x=AxisGrid(0.0, 0.0, 1),
        y=AxisGrid(0.0, 0.0, 1),
        z=AxisGrid(54.0, 74.0, 41),
    )
    rows = amplitude_vs_field(
        nd_ground, zefoz_point, noise, LambdaParams(), comb, sweep
    )
    assert len(rows) == 41
    amplitudes = np.array([r.amplitude for r in rows])
    omegas = np.array([r.omega12 for r in rows])
    bz = np.array([r.field[2] for r in rows])
    step = bz[1] - bz[0]
    assert abs(bz[np.argmax(amplitudes)] - 63.6) <= step
    assert abs(bz[np.argmin(omegas)] - 63.6) <= step
    # amplitude decreases monotonically away from the peak
    peak = int(np.argmax(amplitudes))
    assert np.all(np.diff(amplitudes[: peak + 1]) > 0)
    assert np.all(np.diff(amplitudes[peak:]) < 0)
    # quadratic and exact frequencies agree close to the point
    for row in rows:
        if abs(row.field[2] - zefoz_point.field[2]) <= 2.0:
            assert abs(row.omega12 - row.omega12_exact) < 0.05


def _clock_point(params: SpinParams):
    """The clock transition's stationary point of an Nd-like ion, from a
    1-D search around its closed-form field."""
    sel = TransitionSelector("ground", 8, 10)
    bz = analytic_zefoz_bz(params)
    box = FieldGrid(AxisGrid(0.0, 0.0, 1), AxisGrid(0.0, 0.0, 1), AxisGrid(bz - 2.0, bz + 2.0, 3))
    (z,) = zefoz_search(params, sel, (0.0, 0.0, bz), box)
    return z


@st.composite
def sweep_cases(draw):
    """An Nd-like ground ion (each constant scaled by 0.9-1.1, |P| <= 5 MHz)
    and a 5-point sweep along one axis (one point where half = 0), offset
    in the other two, near the clock point."""
    scaled = {key: ND_GROUND[key] * draw(st.floats(0.9, 1.1))
              for key in ("g_par", "g_perp", "A", "B_hf")}
    params = SpinParams(**{**ND_GROUND, **scaled, "P": draw(st.floats(-5.0, 5.0))})
    axis = draw(st.integers(0, 2))
    center = [draw(st.floats(-2.0, 2.0)) for _ in range(3)]
    half = draw(st.floats(0.0, 2.0))
    return params, axis, center, half


@settings(derandomize=True, database=None, max_examples=24, deadline=None)
@given(sweep_cases())
def test_sweep_quadratic_model_holds_within_2_mt_on_nd_like_ions(case):
    # the quadratic model omega12 and the exact omega12_exact agree to
    # better than 0.05 MHz at every sweep point within 2 mT of the point
    params, axis, center, half = case
    z = _clock_point(params)
    offset = np.array(center)
    axes = [AxisGrid(c, c, 1) for c in z.field + offset]
    start, stop = z.field[axis] + offset[axis] - half, z.field[axis] + offset[axis] + half
    axes[axis] = AxisGrid(start, stop, 5 if stop > start else 1)  # zero extent: one point
    comb = CombModel(spacing=2.8, n_lines=1, noise=NoiseModel(curvatures=tuple(z.curvatures)))
    rows = amplitude_vs_field(params, z, comb.noise, LambdaParams(), comb, FieldGrid(*axes))
    near = [row for row in rows if np.linalg.norm(row.field - z.field) <= 2.0]
    for row in near:
        assert abs(row.omega12 - row.omega12_exact) < 0.05


def test_zero_extent_sweep_reproduces_point_values(nd_ground, zefoz_point, noise):
    comb = CombModel(spacing=2.8, noise=noise)
    z = zefoz_point
    sweep = FieldGrid(
        x=AxisGrid(0.0, 0.0, 1),
        y=AxisGrid(0.0, 0.0, 1),
        z=AxisGrid(float(z.field[2]), float(z.field[2]), 1),
    )
    rows = amplitude_vs_field(nd_ground, z, noise, LambdaParams(), comb, sweep)
    assert len(rows) == 1
    assert rows[0].omega12 == pytest.approx(z.omega0, abs=1e-9)
    grid = np.arange(-(comb.shifts().max() + 10.0), comb.shifts().max() + 10.0 + 1e-9, 0.05)
    direct = eit_profile(comb, LambdaParams(), (0.0, 0.0, 0.0), grid)
    assert rows[0].amplitude == pytest.approx(direct.amplitude, abs=1e-12)


def _sweep_bits(row):
    values = (row.omega12, row.amplitude, row.omega12_exact)
    assert all(type(v) is float for v in values)
    return np.asarray(row.field).tobytes(), np.array(values).tobytes()


@st.composite
def stacked_sweep_cases(draw):
    """An Nd-like ground ion and its clock point; a comb of 1-13 lines with
    binomial, flat or custom weights; a noise model, noiseless in a quarter
    of the cases (zero spin dephasing: the dark state); Lambda rates with
    the coupling off now and then and a two-photon offset in half of the
    cases; a sweep of 1-57 points along one axis; and a block budget from
    one profile per block up to the whole sweep in one."""
    scaled = {key: ND_GROUND[key] * draw(st.floats(0.9, 1.1))
              for key in ("g_par", "g_perp", "A", "B_hf")}
    params = SpinParams(**{**ND_GROUND, **scaled, "P": draw(st.floats(-5.0, 5.0))})
    n_lines = draw(st.sampled_from(range(1, 14, 2)))
    kind = draw(st.sampled_from(("binomial", "flat", "custom")))
    if kind == "binomial":
        weights = None
    elif kind == "flat":
        weights = flat_weights(n_lines)
    else:
        weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n_lines,
                                         max_size=n_lines).filter(lambda w: sum(w) > 0)))
    quiet = draw(st.booleans()) and draw(st.booleans())
    noise = dict(gamma0=0.0, delta_b=(0.0, 0.0, 0.0)) if quiet else dict(
        gamma0=draw(st.floats(0.0, 1.0)),
        delta_b=tuple(draw(st.floats(0.0, 2.0)) for _ in range(3)))
    p = LambdaParams(
        rabi_coupling=draw(st.just(0.0) | st.floats(0.1, 6.0)),
        optical_dephasing=draw(st.floats(0.05, 3.0)),
        optical_inhom_fwhm=draw(st.floats(5.0, 80.0)),
        two_photon_offset=draw(st.just(0.0) | st.floats(-20.0, 20.0)),
    )
    count = draw(st.sampled_from((1, 2, 7, 41, 57)))
    axis, half = draw(st.integers(0, 2)), draw(st.floats(0.5, 8.0))
    block = draw(st.sampled_from((1, 5000, zefoz.eit.PROFILE_BLOCK, 10**7)))
    return params, draw(st.floats(0.5, 4.0)), n_lines, weights, noise, p, count, axis, half, block


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(stacked_sweep_cases())
def test_stacked_sweep_is_bit_identical_to_the_per_point_loop(case):
    # every SweepPoint field, bit for bit, against one profile per point,
    # whatever the block budget splits the sweep into
    params, spacing, n_lines, weights, noise, p, count, axis, half, block = case
    z = _clock_point(params)
    noise = NoiseModel(curvatures=tuple(z.curvatures), **noise)
    comb = CombModel(spacing=spacing, n_lines=n_lines, weights=weights, noise=noise)
    axes = [AxisGrid(c, c, 1) for c in z.field]
    if count > 1:
        axes[axis] = AxisGrid(z.field[axis] - half, z.field[axis] + half, count)
    sweep = FieldGrid(*axes)
    with mock.patch.object(zefoz.eit, "PROFILE_BLOCK", block):
        rows = amplitude_vs_field(params, z, noise, p, comb, sweep)
    expected = sweep_oracle(params, z, noise, p, comb, sweep)
    assert [_sweep_bits(row) for row in rows] == [_sweep_bits(row) for row in expected]


@pytest.mark.parametrize("count", [1, 41])
def test_stacked_sweep_with_a_partial_last_block(nd_ground, zefoz_point, noise, count,
                                                 monkeypatch):
    # 5 lines over a 625-point window make five profiles per block, so 41
    # points end in a block of one; a 1-point sweep is a block of one
    comb = CombModel(spacing=2.8, n_lines=5, noise=noise)
    profile_points = 5 * 625
    assert count % (zefoz.eit.PROFILE_BLOCK // profile_points) == 1
    z = zefoz_point
    sweep = FieldGrid(AxisGrid(0.0, 0.0, 1), AxisGrid(0.0, 0.0, 1),
                      AxisGrid(z.field[2] - 5.0, z.field[2] + 5.0, count) if count > 1
                      else AxisGrid(z.field[2], z.field[2], 1))
    p = LambdaParams(two_photon_offset=3.5)
    sizes = []

    def counting(zeta, wofz=zefoz.eit.wofz):
        sizes.append(np.size(zeta))
        return wofz(zeta)

    monkeypatch.setattr(zefoz.eit, "wofz", counting)
    rows = amplitude_vs_field(nd_ground, z, noise, p, comb, sweep)
    # the coupling-off window plus line center once, then whole profiles
    # within the block budget, every profile once
    assert sizes[0] == 626 and sum(sizes[1:]) == count * profile_points
    assert all(size % profile_points == 0 and size <= zefoz.eit.PROFILE_BLOCK
               for size in sizes[1:])
    expected = sweep_oracle(nd_ground, z, noise, p, comb, sweep)
    assert [_sweep_bits(row) for row in rows] == [_sweep_bits(row) for row in expected]


def test_profile_rows_do_not_depend_on_the_stack(noise):
    # a grid through every line centre, so that zero spin dephasing meets
    # d2 == 0 and takes the dark-state zeroing; each row of a stack, in
    # blocks of one row, two rows or all, has the bits of a stack of one
    comb = CombModel(spacing=1.0, n_lines=5, noise=noise)
    grid = 0.25 * np.arange(-40.0, 41.0)
    assert np.isin(comb.shifts(), grid).all()
    p = LambdaParams()
    dephasings = np.array([0.0, 0.3, 0.0, 1.7, 0.05])
    alone = np.concatenate([zefoz.eit._profile(comb, p, dephasings[k:k + 1], grid, 0.7)
                            for k in range(len(dephasings))])
    for block in (1, 2 * comb.n_lines * grid.size, 10**6):
        with mock.patch.object(zefoz.eit, "PROFILE_BLOCK", block):
            stacked = zefoz.eit._profile(comb, p, dephasings, grid, 0.7)
        assert np.array_equal(stacked.view(np.int64), alone.view(np.int64))


def test_sweep_window_is_centred_on_the_shifted_comb(nd_ground, zefoz_point, noise):
    # all weight on the outermost line, which a 15 MHz offset puts at
    # 26.2 MHz: a window centred on 0 ends at 21.2 MHz and misses it
    weights = np.zeros(9)
    weights[-1] = 1.0
    comb = CombModel(spacing=2.8, weights=weights, noise=noise)
    p = LambdaParams(two_photon_offset=15.0)
    z = zefoz_point
    sweep = FieldGrid(AxisGrid(0.0, 0.0, 1), AxisGrid(0.0, 0.0, 1),
                      AxisGrid(z.field[2] - 1.0, z.field[2] + 1.0, 3))
    rows = amplitude_vs_field(nd_ground, z, noise, p, comb, sweep)
    half = 4 * 2.8 + 10.0
    window = 15.0 + np.arange(-half, half + 1e-9, 0.05)
    for row in rows:
        profile = eit_profile(comb, p, row.field - z.field, window)
        assert profile.grid_covers_comb
        # the amplitude is the transparency peak of that line, nearer to it
        # than to its neighbour and beyond the window centred on 0
        peak = window[np.argmax(profile.transmission)]
        assert abs(peak - (15.0 + 4 * 2.8)) < 2.8 / 2 and peak > 21.2
        assert row.amplitude == profile.amplitude


def test_sweep_whose_spin_dephasing_overflows_raises_before_any_profile(
    nd_ground, zefoz_point, noise, monkeypatch
):
    # the linewidth at the second and third points is inf; the sweep
    # rejects it as LambdaParams does, before any Faddeeva evaluation
    comb = CombModel(spacing=2.8, noise=noise)
    z = zefoz_point
    sweep = FieldGrid(AxisGrid(0.0, 0.0, 1), AxisGrid(0.0, 0.0, 1),
                      AxisGrid(z.field[2], z.field[2] + 1e200, 3))

    def no_faddeeva(zeta):
        raise AssertionError("a profile was evaluated")

    monkeypatch.setattr(zefoz.eit, "wofz", no_faddeeva)
    with np.errstate(over="ignore"), pytest.raises(
        InvalidParameterError, match="spin_dephasing must be finite"
    ):
        amplitude_vs_field(nd_ground, z, noise, LambdaParams(), comb, sweep)


def test_noise_model_validation():
    with pytest.raises(InvalidParameterError):
        NoiseModel(curvatures=REFERENCE_CURVATURES, gamma0=-0.1)
    with pytest.raises(InvalidParameterError):
        NoiseModel(curvatures=REFERENCE_CURVATURES, delta_b=(1.0, -1.0, 1.0))
    with pytest.raises(InvalidParameterError):
        NoiseModel(curvatures=(1.0, 2.0))


# the config parser rejects these values first; a library caller used to get
# an amplitude of 1.0 (nan rates), nan (a nan grid point) or a run that
# failed half-way (an infinite comb spacing)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "name", ["rabi_coupling", "optical_dephasing", "spin_dephasing", "optical_inhom_fwhm",
             "two_photon_offset"],
)
def test_lambda_params_reject_non_finite_rates(name, value):
    with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
        LambdaParams(**{name: value})


@pytest.mark.parametrize("fwhm", [0.0, -1.0])
def test_lambda_params_need_a_positive_optical_width(fwhm):
    # the closed-form optical average divides by the width, as eit.inhom_fwhm
    # in a run config must be positive
    with pytest.raises(InvalidParameterError, match="optical_inhom_fwhm must be positive"):
        LambdaParams(optical_inhom_fwhm=fwhm)


def test_eit_profile_needs_the_comb_noise_model(grid):
    with pytest.raises(InvalidParameterError, match="NoiseModel"):
        eit_profile(CombModel(spacing=2.8), LambdaParams(), (0.0, 0.0, 0.0), grid)


@pytest.mark.parametrize(
    "field, value",
    [("curvatures", (-52.7, np.nan, 185.3)), ("curvatures", (np.inf, -52.7, 185.3)),
     ("gamma0", np.nan), ("gamma0", np.inf), ("delta_b", (1.0, 1.0, np.inf)),
     ("delta_b", (np.nan, 1.0, 1.0))],
)
def test_noise_model_rejects_non_finite_values(field, value):
    with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
        NoiseModel(**{"curvatures": REFERENCE_CURVATURES, field: value})


def test_comb_model_rejects_non_finite_values(noise):
    for spacing in (np.inf, np.nan):
        with pytest.raises(InvalidParameterError, match="spacing must be positive and finite"):
            CombModel(spacing=spacing, noise=noise)
    weights = np.ones(9)
    for value in (np.inf, np.nan):
        weights[4] = value
        with pytest.raises(InvalidParameterError, match="weights must be finite"):
            CombModel(spacing=2.8, weights=weights, noise=noise)


def test_detuning_grid_rejects_non_finite_points(comb, grid):
    for value in (np.nan, np.inf):
        bad = grid.copy()
        bad[900] = value
        with pytest.raises(InvalidParameterError, match="grid points must be finite"):
            eit_profile(comb, LambdaParams(), (0.0, 0.0, 0.0), bad)
