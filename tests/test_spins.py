"""Hamiltonian construction, diagonalization and eigenstate composition."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from zefoz import (
    AxisGrid,
    CombModel,
    FieldGrid,
    InvalidParameterError,
    SpectrumParams,
    SpinParams,
    TransitionSelector,
    boltzmann_weights,
    find_lambda_systems,
    ion_levels,
    state_composition,
    zefoz_search,
)

from conftest import ND_GROUND, analytic_zefoz_bz, lab_hamiltonian


def test_zero_parameters_give_zero_matrix():
    params = SpinParams(
        electron_spin=0.5, nuclear_spin=3.5, g_par=0.0, g_perp=0.0, A=0.0, B_hf=0.0
    )
    h = lab_hamiltonian(params, (12.3, -4.5, 6.7))
    assert h.shape == (16, 16)
    assert np.all(h == 0)


def test_isotropic_coupling_reproduces_total_spin_multiplets():
    # A = B_hf turns the hyperfine part into A * I.S, diagonal in total spin:
    # F = 4 at +1.75 MHz (9 states), F = 3 at -2.25 MHz (7 states)
    params = SpinParams(
        electron_spin=0.5, nuclear_spin=3.5, g_par=0.0, g_perp=0.0, A=1.0, B_hf=1.0
    )
    energies = np.linalg.eigvalsh(lab_hamiltonian(params, (0.0, 0.0, 0.0)))
    assert np.sum(np.abs(energies - 1.75) < 1e-9) == 9
    assert np.sum(np.abs(energies + 2.25) < 1e-9) == 7


def test_hamiltonian_is_exactly_hermitian_and_traceless(nd_ground):
    h = lab_hamiltonian(nd_ground, (1.0, 2.0, 63.6))
    assert np.array_equal(h, h.conj().T)
    assert abs(np.trace(h)) < 1e-9

    with_quadrupole = SpinParams(**{**ND_GROUND, "P": 17.0})
    h2 = lab_hamiltonian(with_quadrupole, (0.0, 0.0, 63.6))
    assert abs(np.trace(h2)) < 1e-9 * np.max(np.abs(h2))


def test_invalid_spins_rejected():
    with pytest.raises(InvalidParameterError):
        SpinParams(electron_spin=0.3, nuclear_spin=3.5, g_par=1.0, g_perp=1.0, A=1.0, B_hf=1.0)
    with pytest.raises(InvalidParameterError):
        SpinParams(electron_spin=0.5, nuclear_spin=-0.5, g_par=1.0, g_perp=1.0, A=1.0, B_hf=1.0)
    with pytest.raises(InvalidParameterError):
        SpinParams(
            electron_spin=0.5, nuclear_spin=3.5, g_par=1.0, g_perp=1.0, A=1.0, B_hf=1.0, mu_B=0.0
        )
    with pytest.raises(InvalidParameterError, match="mu_B must be finite"):
        SpinParams(electron_spin=0.5, nuclear_spin=3.5, g_par=1.0, g_perp=1.0, A=1.0, B_hf=1.0,
                   mu_B=np.inf)


def test_diagonalize_sorts_and_permutes():
    # with g_perp = B_hf = 0 and B along z the Hamiltonian is diagonal, so
    # the levels are its diagonal in ascending order and the eigenvectors
    # are the unit basis vectors, permuted to match, each with component +1
    params = SpinParams(
        electron_spin=0.5, nuclear_spin=1.5, g_par=1.0, g_perp=0.0, A=10.0, B_hf=0.0
    )
    diagonal = np.diag(lab_hamiltonian(params, (0.0, 0.0, 1.0))).real
    order = np.argsort(diagonal)
    levels = ion_levels(params, (0.0, 0.0, 1.0))
    assert np.array_equal(levels.energies, diagonal[order])
    assert np.array_equal(levels.eigenvectors, np.eye(8)[:, order])


def test_clock_splitting_near_2087(nd_ground):
    levels = ion_levels(nd_ground, (0.0, 0.0, 63.6))
    assert levels.energy(10) - levels.energy(8) == pytest.approx(2087.5, abs=1.0)


def test_zero_field_structure_matches_independent_solver(nd_ground):
    # cross-check the numpy eigensolver against scipy's separate LAPACK
    # driver on the zero-field hyperfine structure
    h = lab_hamiltonian(nd_ground, (0.0, 0.0, 0.0))
    ours = ion_levels(nd_ground, (0.0, 0.0, 0.0)).energies
    reference = scipy.linalg.eigh(h, driver="evr", eigvals_only=True)
    assert np.max(np.abs(ours - reference)) < 1e-9
    spacings = np.diff(ours)
    ref_spacings = np.diff(reference)
    assert np.max(np.abs(spacings - ref_spacings)) < 1e-9


def test_energy_sum_equals_trace(nd_ground):
    h = lab_hamiltonian(nd_ground, (5.0, -3.0, 40.0))
    energies = ion_levels(nd_ground, (5.0, -3.0, 40.0)).energies
    scale = max(1.0, float(np.sum(np.abs(energies))))
    assert abs(np.sum(energies) - np.trace(h).real) < 1e-9 * scale


def test_eigenvectors_unitary_and_gauge_fixed(nd_ground):
    levels = ion_levels(nd_ground, (3.0, 0.0, 63.6))
    v = levels.eigenvectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(16))) < 1e-10
    for k in range(16):
        pivot = v[np.argmax(np.abs(v[:, k])), k]
        assert abs(pivot.imag) < 1e-12
        assert pivot.real >= 0.0


def test_zero_field_degeneracy_structure(nd_ground):
    # time reversal mirrors the M_I + M_S = +M and -M blocks, so at zero
    # field 14 of the 16 levels form exact pairs; the two self-conjugate
    # M = 0 states are split by the transverse hyperfine coupling. Their
    # closed-form energies are -A/4 +- 2*B_hf.
    energies = ion_levels(nd_ground, (0.0, 0.0, 0.0)).energies
    paired = sum(
        1
        for k in range(16)
        if np.min(np.abs(np.delete(energies, k) - energies[k])) < 1e-6
    )
    assert paired == 14
    lone_low, lone_high = energies[0], energies[-1]
    a, b_hf = nd_ground.A, nd_ground.B_hf
    assert lone_low == pytest.approx(-a / 4.0 - 2.0 * abs(b_hf), abs=1e-9)
    assert lone_high == pytest.approx(-a / 4.0 + 2.0 * abs(b_hf), abs=1e-9)
    assert lone_high - lone_low == pytest.approx(4.0 * abs(b_hf), abs=1e-9)


def test_rotational_symmetry_about_z(nd_ground):
    e1 = ion_levels(nd_ground, (7.0, 0.0, 40.0)).energies
    e2 = ion_levels(nd_ground, (0.0, 7.0, 40.0)).energies
    assert np.max(np.abs(e1 - e2)) < 1e-9


def test_longitudinal_block_structure(nd_ground):
    # with zero transverse field, M_I + M_S is conserved: no eigenvector
    # mixes basis states from different blocks
    levels = ion_levels(nd_ground, (0.0, 0.0, 63.6))
    total_m = np.array([mi + ms for mi, ms in levels.basis])
    for k in range(levels.dimension):
        vec = levels.eigenvectors[:, k]
        dominant = total_m[np.argmax(np.abs(vec))]
        off_block = np.abs(vec[total_m != dominant])
        assert off_block.size == 0 or off_block.max() < 1e-10


def test_clock_pair_is_a_closed_two_state_block(nd_ground):
    # {(5/2, +1/2), (7/2, -1/2)} spans levels 8 and 10 exactly
    levels = ion_levels(nd_ground, (0.0, 0.0, 63.6))
    members = {(2.5, 0.5), (3.5, -0.5)}
    for label in (8, 10):
        comps = state_composition(levels, label, threshold=1e-10)
        assert {(c.m_i, c.m_s) for c in comps} == members


def test_state_composition_at_stationary_field(nd_ground, nd_excited, zefoz_point):
    ground = ion_levels(nd_ground, zefoz_point.field)
    for label in (8, 10):
        comps = state_composition(ground, label, threshold=0.1)
        assert len(comps) == 2
        for c in comps:
            assert abs(c.amplitude) == pytest.approx(2.0**-0.5, abs=1e-3)
    excited = ion_levels(nd_excited, zefoz_point.field)
    comps = state_composition(excited, 9, threshold=0.5)
    assert len(comps) == 1
    assert (comps[0].m_i, comps[0].m_s) == (3.5, 0.5)
    assert abs(comps[0].amplitude) > 0.999


def test_state_composition_normalization_and_threshold(nd_ground):
    levels = ion_levels(nd_ground, (2.0, 1.0, 50.0))
    full = state_composition(levels, 5, threshold=0.0)
    assert sum(abs(c.amplitude) ** 2 for c in full) == pytest.approx(1.0, abs=1e-12)
    mags = [abs(c.amplitude) for c in full]
    assert mags == sorted(mags, reverse=True)
    trimmed = state_composition(levels, 5, threshold=0.2)
    assert all(abs(c.amplitude) > 0.2 for c in trimmed)
    with pytest.raises(InvalidParameterError):
        state_composition(levels, 5, threshold=1.0)


def test_high_field_limit_is_fully_polarized(nd_ground):
    # Zeeman-dominated regime: every eigenstate collapses onto one
    # |M_I, M_S> basis state
    levels = ion_levels(nd_ground, (0.0, 0.0, 1.0e4))
    leading = np.max(np.abs(levels.eigenvectors), axis=0)
    assert np.min(leading) > 0.99


def test_stationary_field_matches_block_formula(nd_ground, zefoz_point):
    assert zefoz_point.field[2] == pytest.approx(analytic_zefoz_bz(nd_ground), abs=1e-6)


@pytest.mark.parametrize("start, stop", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0),
                                         (0.0, np.nan)])
def test_axis_grid_rejects_non_finite_ends(start, stop):
    # AxisGrid(nan, 1, 3) gave [nan, nan, 1] and AxisGrid(0, inf, 3) a
    # RuntimeWarning in linspace
    with pytest.raises(InvalidParameterError, match="must be finite"):
        AxisGrid(start, stop, 3)


@pytest.mark.parametrize("make, message", [
    (lambda levels: AxisGrid(0.0, 1.0, 2.5), "grid count must be an integer"),
    (lambda levels: TransitionSelector("ground", 8.0, 10.0), "level_i must be an integer"),
    (lambda levels: TransitionSelector("ground", 8, 10.0), "level_j must be an integer"),
    (lambda levels: CombModel(spacing=1.0, n_lines=3.0), "n_lines must be an integer"),
    (lambda levels: levels.vector(2.0), "level label must be an integer"),
    (lambda levels: state_composition(levels, 1.5), "level label must be an integer"),
    (lambda levels: boltzmann_weights(levels.energies, 0.0), "temperature must be positive"),
    (lambda levels: boltzmann_weights(levels.energies, np.nan), "temperature must be positive"),
], ids=["grid-count", "level-i", "level-j", "n-lines", "vector", "composition",
        "zero-temperature", "nan-temperature"])
def test_bad_counts_labels_and_temperatures_are_invalid_parameters(nd_ground, make, message):
    # each raised a numpy error (TypeError, IndexError) or, for T = 0,
    # returned nan with RuntimeWarnings; numpy integers and bools still pass
    levels = ion_levels(nd_ground, (0.0, 0.0, 50.0))
    with pytest.raises(InvalidParameterError, match=message):
        make(levels)
    assert AxisGrid(0.0, 1.0, np.int64(3)).values().tolist() == [0.0, 0.5, 1.0]
    assert TransitionSelector("ground", True, np.int32(2)).level_i == 1
    assert np.array_equal(levels.vector(np.int64(2)), levels.eigenvectors[:, 1])
    assert CombModel(spacing=1.0, n_lines=np.int64(3)).shifts().tolist() == [-1.0, 0.0, 1.0]


@pytest.mark.parametrize("message, make", [
    ("temperature must be a real number, got '2'",
     lambda levels: SpectrumParams(temperature="2")),
    ("inhom_fwhm must be a real number, got '35'",
     lambda levels: SpectrumParams(inhom_fwhm="35")),
    ("g_par must be a real number, got '2'",
     lambda levels: SpinParams(**{**ND_GROUND, "g_par": "2"})),
    ("mu_B must be a real number, got '14'",
     lambda levels: SpinParams(**{**ND_GROUND, "mu_B": "14"})),
    ("grid start must be a real number, got '0'", lambda levels: AxisGrid("0", 1, 3)),
    ("temperature must be a real number, got '2'",
     lambda levels: boltzmann_weights(levels.energies, "2")),
    ("max_asymmetry must be a real number, got '0.1'",
     lambda levels: find_lambda_systems([], max_asymmetry="0.1")),
    ("min_strength must be a real number, got '0.1'",
     lambda levels: find_lambda_systems([], min_strength="0.1")),
    ("tol must be a real number, got '1e-06'", lambda levels: zefoz_search(
        SpinParams(**ND_GROUND), TransitionSelector("ground", 8, 10), (0.0, 0.0, 50.0),
        FieldGrid(AxisGrid(0.0, 0.0, 1), AxisGrid(0.0, 0.0, 1), AxisGrid(30.0, 100.0, 36)),
        tol="1e-06")),
    ("threshold must be a real number, got '0.1'",
     lambda levels: state_composition(levels, 1, threshold="0.1")),
], ids=["spectrum-temperature", "inhom-fwhm", "g-par", "mu-b", "grid-start",
        "boltzmann-temperature", "max-asymmetry", "min-strength", "tol", "threshold"])
def test_a_string_for_a_real_number_is_an_invalid_parameter(nd_ground, message, make):
    # each raised TypeError from a comparison or from np.isfinite
    levels = ion_levels(nd_ground, (0.0, 0.0, 50.0))
    with pytest.raises(InvalidParameterError) as err:
        make(levels)
    assert str(err.value) == message


def test_axis_grid_of_several_points_needs_stop_above_start():
    # AxisGrid(5, 5, 3) gave three equal points: a diagram of three equal
    # rows, and a "free" search axis on which zefoz_search returned [];
    # a fixed axis is one point
    with pytest.raises(InvalidParameterError, match="must be above start 5.0 for 3 points"):
        AxisGrid(5.0, 5.0, 3)
    with pytest.raises(InvalidParameterError, match="is below start"):
        AxisGrid(5.0, 4.0, 3)
    assert AxisGrid(5.0, 5.0, 1).values().tolist() == [5.0]
