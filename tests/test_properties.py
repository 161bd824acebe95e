"""Randomized numerical-hygiene properties.

Sampling is seeded so the suite is deterministic. "Non-degenerate" means
every level adjacent to the selected pair sits at least 5 MHz away; near
crossings the finite-difference reference itself loses accuracy, which is
exactly the regime the gradient routine flags and falls back on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zefoz import (
    SpinParams,
    TransitionOperator,
    TransitionSelector,
    SpectrumParams,
    frequency_gradient,
    ion_levels,
    transition_table,
)

from conftest import central_difference, curvature_matrix_at, lab_hamiltonian


def random_params(rng) -> SpinParams:
    return SpinParams(
        electron_spin=0.5,
        nuclear_spin=3.5,
        g_par=rng.uniform(0.1, 3.0),
        g_perp=rng.uniform(0.0, 3.0),
        A=rng.uniform(-900.0, 900.0),
        B_hf=rng.uniform(-900.0, 900.0),
        P=rng.uniform(-50.0, 50.0),
    )


def gradient_deviations(n_samples: int, seed: int, min_gap: float = 5.0):
    """Max |Hellmann-Feynman - finite-difference| per random sample."""
    rng = np.random.default_rng(seed)
    deviations = []
    while len(deviations) < n_samples:
        params = random_params(rng)
        field = rng.uniform(-100.0, 100.0, 3)
        i, j = sorted(rng.choice(16, size=2, replace=False) + 1)
        levels = ion_levels(params, field)
        gaps = np.diff(levels.energies)
        neighbors = []
        for label in (i, j):
            if label > 1:
                neighbors.append(gaps[label - 2])
            if label < 16:
                neighbors.append(gaps[label - 1])
        if min(neighbors) < min_gap:
            continue
        # a small step keeps finite-difference truncation well below the
        # 1e-4 agreement bound even for sharp avoided crossings that pass
        # the gap filter; roundoff stays two decades lower still
        sel = TransitionSelector("ground", int(i), int(j))
        fd = central_difference(params, field, sel, step=0.002)
        result = frequency_gradient(params, field, sel)
        deviations.append(float(np.max(np.abs(result.vector - fd))))
    return np.array(deviations)


def test_gradient_cross_check_on_random_samples():
    deviations = gradient_deviations(n_samples=1000, seed=20240521)
    assert deviations.max() < 1e-4


def test_eigenvector_unitarity_on_random_samples():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        params = random_params(rng)
        levels = ion_levels(params, rng.uniform(-100.0, 100.0, 3))
        v = levels.eigenvectors
        worst = max(worst, float(np.max(np.abs(v.conj().T @ v - np.eye(16)))))
    assert worst < 1e-10


def test_trace_conservation_on_random_samples():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        params = random_params(rng)
        field = rng.uniform(-100.0, 100.0, 3)
        h = lab_hamiltonian(params, field)
        energies = ion_levels(params, field).energies
        scale = max(1.0, float(np.sum(np.abs(energies))))
        assert abs(np.sum(energies) - np.trace(h).real) < 1e-9 * scale


def test_strength_sum_rule_on_random_samples():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(40):
        ground = ion_levels(random_params(rng), rng.uniform(-80.0, 80.0, 3))
        excited = ion_levels(random_params(rng), rng.uniform(-80.0, 80.0, 3))
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        op = TransitionOperator("custom", matrix=raw)
        table = transition_table(ground, excited, op, SpectrumParams())
        full = op.full_matrix(8, 2)
        gram = full.conj().T @ full
        for g in range(1, 17):
            total = sum(line.strength for line in table if line.ground_label == g)
            vec = ground.vector(g)
            expected = float((vec.conj() @ gram @ vec).real)
            worst = max(worst, abs(total - expected))
    assert worst < 1e-10


def test_gradient_rotational_invariance_on_random_samples():
    # eigenvalues depend only on the transverse magnitude, so swapping the
    # transverse components leaves every transition frequency unchanged
    rng = np.random.default_rng(31415)
    for _ in range(50):
        params = random_params(rng)
        b, bz = rng.uniform(0.0, 50.0), rng.uniform(-80.0, 80.0)
        e1 = ion_levels(params, (b, 0.0, bz)).energies
        e2 = ion_levels(params, (0.0, b, bz)).energies
        assert np.max(np.abs(e1 - e2)) < 1e-9


COUPLING = st.floats(-900.0, 900.0)


@st.composite
def time_reversal_cases(draw):
    """A Kramers doublet (S = 1/2) with I from 1/2 to 7/2 and P != 0, a
    field of at least 0.5 mT and a level pair."""
    params = SpinParams(
        electron_spin=0.5,
        nuclear_spin=draw(st.sampled_from([0.5, 1.5, 2.5, 3.5])),
        g_par=draw(st.floats(0.1, 3.0)),
        g_perp=draw(st.floats(0.0, 3.0)),
        A=draw(COUPLING),
        B_hf=draw(COUPLING),
        P=draw(st.floats(0.5, 50.0)) * draw(st.sampled_from([-1.0, 1.0])),
    )
    field = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3)))
    assume(np.linalg.norm(field) > 0.5)
    i, j = draw(st.lists(st.integers(1, params.dimension), min_size=2, max_size=2,
                         unique=True))
    return params, field, TransitionSelector("ground", i, j)


def _assert_within(a, b, scale: float, rtol: float = 1e-12) -> None:
    assert float(np.max(np.abs(a - b))) <= rtol * scale


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(time_reversal_cases())
# an in-plane field next to a 0.0056 MHz gap, where the z slopes, 0 in
# exact arithmetic, carried 7.1e-12 of round-off at B and at -B
@example((SpinParams(electron_spin=0.5, nuclear_spin=1.5, g_par=1.0, g_perp=0.25, A=0.0,
                     B_hf=48.0, P=-1.0),
          np.array([1.0, 2.0, 0.0]), TransitionSelector("ground", 1, 4)))
def test_time_reversal_maps_b_to_minus_b(case):
    # time reversal flips the Zeeman term and keeps the hyperfine and
    # quadrupole terms: E(B) = E(-B), the gradient is odd, C is even.
    # Each bound is relative to the largest value the quantity can take:
    # max |E|; 2 |M| for a gradient, with |M| = g mu_B / 2 the largest
    # Zeeman matrix element, times max |E| / gap, the factor by which an
    # eigenvector's round-off grows next to a small gap; |M|^2 / gap for
    # C, whose perturbation sum cancels terms of that size (the round-off
    # scales with them, not with C).
    params, field, sel = case
    energies = ion_levels(params, field).energies
    scale = max(1.0, np.abs(energies).max())
    _assert_within(energies, ion_levels(params, -field).energies, scale)
    plus, minus = frequency_gradient(params, field, sel), frequency_gradient(params, -field, sel)
    assume(not plus.flagged)  # a central difference is odd only to its step's round-off
    zeeman = params.mu_B * max(params.g_par, params.g_perp) / 2.0
    _assert_within(plus.vector, -minus.vector, 2.0 * zeeman * max(1.0, scale / plus.min_gap))
    _assert_within(
        curvature_matrix_at(params, field, sel),
        curvature_matrix_at(params, -field, sel),
        1000.0 * zeeman**2 / plus.min_gap,  # kHz/mT^2
    )
