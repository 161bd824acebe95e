"""Acceptance suite: one test per shipped criterion, each printing a
PASS line with the measured values when it succeeds (run with -s or -rA
to see them)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from zefoz import (
    AxisGrid,
    CombModel,
    FieldGrid,
    LambdaParams,
    NoiseModel,
    SpectrumParams,
    TransitionOperator,
    TransitionSelector,
    amplitude_vs_field,
    eit_profile,
    find_lambda_systems,
    frequency_gradient,
    ion_levels,
    quadratic_model,
    spin_linewidth,
    state_composition,
    transition_table,
    zefoz_search,
)

from conftest import feature_fwhm, frequency_at, local_max_indices
from test_properties import gradient_deviations, random_params


def _report(number: int, text: str) -> None:
    print(f"criterion {number:2d} PASS: {text}")


@pytest.fixture(scope="module")
def timed_search(nd_ground, clock_selector, search_bounds):
    start = time.perf_counter()
    points = zefoz_search(nd_ground, clock_selector, (0.0, 0.0, 50.0), search_bounds)
    elapsed = time.perf_counter() - start
    return points, elapsed


def test_criterion_1_zefoz_location(timed_search):
    points, elapsed = timed_search
    assert points, "no stationary point found"
    z = points[0]
    assert z.field[0] == pytest.approx(0.0, abs=1e-6)
    assert z.field[1] == pytest.approx(0.0, abs=1e-6)
    assert abs(z.field[2] - 63.6) <= 1.0
    assert abs(z.omega0 - 2087.0) <= 10.0
    assert elapsed < 5.0
    _report(
        1,
        f"B = (0, 0, {z.field[2]:.3f}) mT, omega0 = {z.omega0:.2f} MHz, "
        f"search took {elapsed:.2f} s",
    )


def test_criterion_2_curvatures(timed_search):
    z = timed_search[0][0]
    s2x, s2y, s2z = z.curvatures
    assert abs(s2x - (-52.7)) <= 0.03 * 52.7
    assert abs(s2y - (-52.7)) <= 0.03 * 52.7
    assert abs(s2z - 185.3) <= 0.03 * 185.3
    assert z.hessian_signature == (-1, -1, 1)
    _report(
        2,
        f"S2 = ({s2x:.2f}, {s2y:.2f}, {s2z:.2f}) kHz/mT^2, "
        f"signature ({z.signature_string})",
    )


def test_criterion_3_eigenstate_composition(nd_ground, nd_excited, timed_search):
    z = timed_search[0][0]
    ground = ion_levels(nd_ground, z.field)
    amplitudes = []
    for label in (8, 10):
        comps = state_composition(ground, label, threshold=0.1)
        assert len(comps) == 2
        assert {(c.m_i, c.m_s) for c in comps} == {(2.5, 0.5), (3.5, -0.5)}
        for c in comps:
            assert abs(abs(c.amplitude) - 0.7071) <= 0.001
            amplitudes.append(abs(c.amplitude))
    excited = ion_levels(nd_excited, z.field)
    top = state_composition(excited, 9, threshold=0.0)[0]
    assert (top.m_i, top.m_s) == (3.5, 0.5)
    assert abs(top.amplitude) > 0.999
    _report(
        3,
        f"|8g>,|10g> amplitudes {min(amplitudes):.5f}..{max(amplitudes):.5f}, "
        f"|9e> = |7/2,+1/2> with amplitude {abs(top.amplitude):.6f}",
    )


def test_criterion_4_lambda_discovery(nd_ground, nd_excited, timed_search):
    z = timed_search[0][0]
    ground = ion_levels(nd_ground, z.field)
    excited = ion_levels(nd_excited, z.field)
    table = transition_table(ground, excited, TransitionOperator("S_x"), SpectrumParams())
    systems = find_lambda_systems(table, max_asymmetry=0.01, max_leakage_ratio=0.01)
    match = [s for s in systems if (s.ground_a, s.ground_b, s.excited) == (8, 10, 9)]
    assert match, "symmetric Lambda-system (8g, 10g, 9e) not found"
    best = match[0]
    assert abs(best.strength_a - 0.125) <= 1e-6
    assert abs(best.strength_b - 0.125) <= 1e-6
    _report(
        4,
        f"(8g, 10g, 9e) with strengths ({best.strength_a:.8f}, "
        f"{best.strength_b:.8f}), asymmetry {best.asymmetry:.2e}",
    )


def test_criterion_5_optical_gradient(nd_ion, timed_search):
    z = timed_search[0][0]
    gradients = []
    for ground_label in (10, 8):  # lines 1 and 2
        sel = TransitionSelector("optical", ground_label, 9)
        grad = frequency_gradient(nd_ion, z.field, sel)
        gradients.append(float(grad.vector[2]))
    # The model value at the stationary point is exactly
    # g_par(excited)*mu_B/2 = 1.26 MHz/mT, which sits ON the closed
    # tolerance boundary |g - 1.33| = 0.07. The 1e-6 guard below only
    # absorbs float representation of the decimal literals and the
    # solver residual; it admits no materially different value.
    for g in gradients:
        assert abs(g - 1.33) <= 0.07 + 1e-6
    _report(
        5,
        f"optical z-gradients: line1 {gradients[0]:.6f}, line2 "
        f"{gradients[1]:.6f} MHz/mT (band 1.33 +- 0.07)",
    )


def test_criterion_6_linewidth_model():
    noise = NoiseModel(curvatures=(-52.7, -52.7, 185.3), gamma0=0.5, delta_b=(1, 1, 1))
    at_point = spin_linewidth(noise, (0.0, 0.0, 0.0))
    off_point = spin_linewidth(noise, (0.0, 0.0, 7.0))
    assert abs(at_point - 0.911) <= 0.001
    assert abs(off_point - 3.26) <= 0.02
    _report(6, f"Gamma(0) = {at_point:.4f} MHz, Gamma(7 mT) = {off_point:.4f} MHz")


@pytest.fixture(scope="module")
def comb_profiles(timed_search):
    z = timed_search[0][0]
    noise = NoiseModel(curvatures=tuple(z.curvatures))
    comb = CombModel(spacing=2.8, noise=noise)
    grid = np.linspace(-18.0, 18.0, 1801)
    start = time.perf_counter()
    resolved = eit_profile(comb, LambdaParams(), (0.0, 0.0, 0.0), grid)
    blurred = eit_profile(comb, LambdaParams(), (0.0, 0.0, 7.0), grid)
    elapsed = time.perf_counter() - start
    return resolved, blurred, elapsed


def test_criterion_7_comb_structure(comb_profiles):
    resolved, blurred, elapsed = comb_profiles
    maxima = local_max_indices(resolved.transmission)
    assert len(maxima) == 9
    spacings = np.diff(resolved.detuning[maxima])
    assert np.all(np.abs(spacings - 2.8) <= 0.1)
    blurred_maxima = local_max_indices(blurred.transmission)
    assert len(blurred_maxima) == 1
    width = feature_fwhm(blurred.detuning, blurred.transmission)
    assert abs(width - 12.0) <= 3.0
    assert elapsed < 10.0
    _report(
        7,
        f"9 peaks spaced {spacings.mean():.2f} MHz at the point; single "
        f"{width:.1f} MHz feature at 7 mT ({elapsed:.2f} s)",
    )


def test_criterion_8_amplitude_vs_field(nd_ground, timed_search):
    z = timed_search[0][0]
    noise = NoiseModel(curvatures=tuple(z.curvatures))
    comb = CombModel(spacing=2.8, noise=noise)
    sweep = FieldGrid(
        x=AxisGrid(0.0, 0.0, 1), y=AxisGrid(0.0, 0.0, 1), z=AxisGrid(54.0, 74.0, 41)
    )
    rows = amplitude_vs_field(nd_ground, z, noise, LambdaParams(), comb, sweep)
    bz = np.array([r.field[2] for r in rows])
    amplitude = np.array([r.amplitude for r in rows])
    omega = np.array([r.omega12 for r in rows])
    step = bz[1] - bz[0]
    best_bz = bz[np.argmax(amplitude)]
    min_bz = bz[np.argmin(omega)]
    assert abs(best_bz - 63.6) <= step
    assert abs(min_bz - 63.6) <= step
    _report(
        8,
        f"amplitude peaks at Bz = {best_bz:.1f} mT, omega12 minimal at "
        f"Bz = {min_bz:.1f} mT (grid step {step:.1f} mT)",
    )


def test_criterion_9_property_suite(nd_ground, clock_selector, timed_search):
    start = time.perf_counter()

    deviations = gradient_deviations(n_samples=1000, seed=20240521)
    assert deviations.max() < 1e-4

    rng = np.random.default_rng(42)
    worst_unitarity = 0.0
    for _ in range(100):
        levels = ion_levels(random_params(rng), rng.uniform(-100, 100, 3))
        v = levels.eigenvectors
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(v.conj().T @ v - np.eye(16))))
        )
    assert worst_unitarity < 1e-10

    worst_sum_rule = 0.0
    for _ in range(10):
        ground = ion_levels(random_params(rng), rng.uniform(-80, 80, 3))
        excited = ion_levels(random_params(rng), rng.uniform(-80, 80, 3))
        op = TransitionOperator(
            "custom", matrix=rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        )
        table = transition_table(ground, excited, op, SpectrumParams())
        gram = op.full_matrix(8, 2).conj().T @ op.full_matrix(8, 2)
        for g in range(1, 17):
            total = sum(line.strength for line in table if line.ground_label == g)
            vec = ground.vector(g)
            worst_sum_rule = max(
                worst_sum_rule, abs(total - float((vec.conj() @ gram @ vec).real))
            )
    assert worst_sum_rule < 1e-10

    z = timed_search[0][0]
    axis = np.linspace(-2.0, 2.0, 5)
    worst_quad = 0.0
    for dx in axis:
        for dy in axis:
            for dz in axis:
                offset = np.array([dx, dy, dz])
                if np.linalg.norm(offset) > 2.0:
                    continue
                exact = frequency_at(
                    nd_ground, z.field + offset, clock_selector
                )
                worst_quad = max(worst_quad, abs(quadratic_model(z, offset) - exact))
    assert worst_quad < 0.05

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        9,
        f"gradients {deviations.max():.2e} MHz/mT, unitarity "
        f"{worst_unitarity:.2e}, sum rule {worst_sum_rule:.2e}, quadratic "
        f"model {worst_quad:.3f} MHz ({elapsed:.1f} s)",
    )


def test_criterion_10_exclusions_documented():
    # absolute absorption depths, absolute EIT amplitudes (coupling Rabi
    # frequency unknown) and the high-intensity interleaved peaks are out
    # of scope by design; shape criteria 7-8 and the property suite stand
    # in for them
    _report(10, "desk-scale exclusions covered by criteria 7-9")
