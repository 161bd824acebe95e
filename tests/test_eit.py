"""Spin linewidth model, Lambda susceptibility and the EIT comb."""

from __future__ import annotations

import inspect
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zefoz.eit
from zefoz import (
    AxisGrid,
    CombModel,
    ComputationError,
    FieldGrid,
    InvalidParameterError,
    LambdaParams,
    NoiseModel,
    amplitude_vs_field,
    averaged_susceptibility,
    binomial_weights,
    eit_profile,
    flat_weights,
    spin_linewidth,
    parse_config,
    susceptibility,
)
from zefoz.cli import _comb_model

from conftest import (
    assert_same_bits,
    averaged_susceptibility_oracle,
    feature_fwhm,
    local_max_indices,
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


def test_dark_state_transparency():
    p = LambdaParams(rabi_coupling=1.0, optical_dephasing=2.0, spin_dephasing=0.0)
    chi = susceptibility(0.7, 0.0, p)
    assert chi.imag == pytest.approx(0.0, abs=1e-15)


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
