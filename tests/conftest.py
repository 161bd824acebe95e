"""Shared fixtures: the Nd3+:YLiF4 reference ion and its ZEFOZ point.

Ground-state constants are the published EPR values for 143Nd in YLiF4;
the excited-state set is the optically determined one. The analytic
two-level block formula used as an oracle in several tests follows from
the fact that a purely longitudinal field leaves {(5/2, +1/2), (7/2, -1/2)}
an exactly closed two-dimensional block of the ground Hamiltonian.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from zefoz import (
    AxisGrid,
    FieldGrid,
    InvalidParameterError,
    IonParams,
    LambdaParams,
    LambdaSystem,
    SpinParams,
    SweepPoint,
    TransitionLine,
    TransitionSelector,
    boltzmann_weights,
    ion_levels,
    spin_linewidth,
    transition_frequencies,
    zefoz_search,
)
from zefoz import fieldmap
from zefoz.eit import _WEIDEMAN_COEFFICIENTS, _WEIDEMAN_L, GAUSSIAN_FWHM_TO_SIGMA
from zefoz.fieldmap import (
    DEGENERACY_GAP,
    quadratic_model,
)
from zefoz.spins import _axial_eigensystems, _azimuthal_frames, _azimuthal_phases
from zefoz.transitions import gaussian_profile, lorentzian_profile

ND_GROUND = dict(
    electron_spin=0.5,
    nuclear_spin=3.5,
    g_par=1.987,
    g_perp=2.554,
    A=-590.0,
    B_hf=-789.0,
    P=0.0,
)
ND_EXCITED = dict(
    electron_spin=0.5,
    nuclear_spin=3.5,
    g_par=0.18,
    g_perp=0.0,
    A=-257.0,
    B_hf=-456.0,
    P=0.0,
)


@pytest.fixture(scope="session")
def nd_ground() -> SpinParams:
    return SpinParams(**ND_GROUND)


@pytest.fixture(scope="session")
def nd_excited() -> SpinParams:
    return SpinParams(**ND_EXCITED)


@pytest.fixture(scope="session")
def nd_ion(nd_ground, nd_excited) -> IonParams:
    return IonParams(ground=nd_ground, excited=nd_excited)


@pytest.fixture(scope="session")
def clock_selector() -> TransitionSelector:
    return TransitionSelector("ground", 8, 10)


@pytest.fixture(scope="session")
def search_bounds() -> FieldGrid:
    return FieldGrid(
        x=AxisGrid(0.0, 0.0, 1), y=AxisGrid(0.0, 0.0, 1), z=AxisGrid(30.0, 100.0, 36)
    )


@pytest.fixture(scope="session")
def zefoz_point(nd_ground, clock_selector, search_bounds):
    points = zefoz_search(nd_ground, clock_selector, (0.0, 0.0, 50.0), search_bounds)
    assert points, "reference ion must have a stationary point in bounds"
    return points[0]


@pytest.fixture(scope="session")
def levels_at_zefoz(nd_ground, nd_excited, zefoz_point):
    ground = ion_levels(nd_ground, zefoz_point.field)
    excited = ion_levels(nd_excited, zefoz_point.field)
    return ground, excited


def analytic_clock_frequency(params: SpinParams, bz: float) -> float:
    """Closed-form |10g>-|8g> splitting for a purely longitudinal field.

    The pair lives in the exactly closed two-state block, so
    w12 = sqrt((3A + g_par*mu_B*Bz - 6P)^2 + 7*B_hf^2) with no approximation.
    """
    detuning = 3.0 * params.A + params.g_par * params.mu_B * bz - 6.0 * params.P
    return float(np.sqrt(detuning**2 + 7.0 * params.B_hf**2))


def frequency_at(params, field, sel) -> float:
    """The selected transition frequency (MHz) at one field, as a
    one-field stack."""
    return float(transition_frequencies(params, np.asarray(field, dtype=float)[None], sel)[0])


def central_difference(params, field, sel, step: float) -> np.ndarray:
    """Gradient oracle (MHz/mT): central first differences, one
    ``frequency_at`` call per point."""
    field = np.asarray(field, dtype=float)
    return np.array(
        [
            (frequency_at(params, field + offset, sel)
             - frequency_at(params, field - offset, sel)) / (2.0 * step)
            for offset in step * np.eye(3)
        ]
    )


def analytic_zefoz_bz(params: SpinParams) -> float:
    """Stationary field of the closed-block splitting: -(3A - 6P)/(g_par*mu_B)."""
    return -(3.0 * params.A - 6.0 * params.P) / (params.g_par * params.mu_B)


def local_max_indices(y: np.ndarray) -> list[int]:
    """Strict interior local maxima."""
    return [i for i in range(1, len(y) - 1) if y[i] > y[i - 1] and y[i] > y[i + 1]]


def feature_fwhm(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half prominence of a single feature.

    The baseline is the mean of the two grid-edge values (the feature must
    be well inside the grid); crossings are linearly interpolated.
    """
    base = 0.5 * (y[0] + y[-1])
    shifted = y - base
    half = shifted.max() / 2.0
    above = shifted >= half
    first = int(np.argmax(above))
    last = len(y) - 1 - int(np.argmax(above[::-1]))
    if first == 0 or last == len(y) - 1:
        raise AssertionError("feature touches the grid edge; widen the grid")

    def crossing(i_out: int, i_in: int) -> float:
        return x[i_out] + (half - shifted[i_out]) * (x[i_in] - x[i_out]) / (
            shifted[i_in] - shifted[i_out]
        )

    return crossing(last + 1, last) - crossing(first - 1, first)


def tracked_levels(single: SpinParams, grid: FieldGrid, overlap_threshold: float):
    """Level-tracking oracle: energies and low-overlap flags of a level
    diagram from a full ``linear_sum_assignment`` at every grid step, on
    the eigensystems ``level_diagram`` sees, each mapped to the lab frame."""
    points = grid.points()
    dim = single.dimension
    energies = np.zeros((len(points), dim))
    flags = np.zeros(len(points), dtype=bool)
    b_perp, azimuth = _azimuthal_frames(points)
    all_energies, all_vectors = _axial_eigensystems(single, b_perp, points[:, 2])
    lab = _azimuthal_phases(single, azimuth)[:, :, None] * all_vectors
    energies[0] = all_energies[0]
    prev_vectors = lab[0]
    for k in range(1, len(points)):
        overlap = np.abs(prev_vectors.conj().T @ lab[k])
        rows, cols = linear_sum_assignment(-overlap)
        order = np.empty(dim, dtype=int)
        order[rows] = cols
        energies[k] = all_energies[k][order]
        prev_vectors = lab[k][:, order]
        if float(overlap[rows, cols].min()) < overlap_threshold:
            flags[k] = True
    return energies, flags


def lab_hamiltonian(params: SpinParams, field) -> np.ndarray:
    """Lab-frame oracle H(B) = H0 + sum_i B_i M_i (MHz) of one field (3,)
    or a stack (N, 3), from ``params.linear_terms`` as one matrix product:
    (d, d) or (N, d, d)."""
    b = np.asarray(field, dtype=float)
    terms = params.linear_terms
    d = params.dimension
    return (b @ terms.zeeman.reshape(3, d * d)).reshape(b.shape[:-1] + (d, d)) + terms.h0


def curvature_matrix_at(params, field, sel) -> np.ndarray:
    """C (kHz/mT^2) at one field (3,): the order-2 frame Hessian of
    ``_frame_transition`` at the field's azimuthal frame, turned back to
    the lab as R(phi) H R(phi)^T, then halved and put in kHz as
    ``ZefozPoint.curvature_matrix`` is."""
    fields = np.asarray(field, dtype=float)[None]
    b_perp, azimuth = _azimuthal_frames(fields)
    hessian = fieldmap._frame_transition(params, sel, b_perp, fields[:, 2], 2).hessian
    turn = fieldmap._turns(azimuth)
    return fieldmap._curvature_matrix((turn @ hessian @ turn.swapaxes(1, 2))[0])


def lab_frame_derivatives(params: SpinParams, field):
    """Derivative oracle on the complex lab-frame eigensystem of one field:
    energies (d,), slopes <n|M_a|n> (d, 3) and Hessians (d, 3, 3)
    2 Re sum_m <n|M_a|m><m|M_b|n> / (E_n - E_m) over every m farther than
    ``DEGENERACY_GAP`` from n, as fieldmap took them before it worked in
    each field's azimuthal frame."""
    energies, vectors = np.linalg.eigh(lab_hamiltonian(params, field))
    coupling = np.einsum("in,aij,jm->nam", vectors.conj(), params.linear_terms.zeeman, vectors)
    split = energies[:, None] - energies[None, :]
    weight = np.divide(1.0, split, out=np.zeros_like(split),
                       where=np.abs(split) >= DEGENERACY_GAP)
    hessian = 2.0 * np.einsum("nam,nm,nbm->nab", coupling, weight, coupling.conj()).real
    return energies, np.einsum("nan->na", coupling).real, hessian


def count_diagonalizations(monkeypatch) -> list[int]:
    """Frames per stacked diagonalization made by fieldmap from now on."""
    sizes: list[int] = []
    original = fieldmap._axial_eigensystems

    def counting(params, b_perp, bz):
        sizes.append(len(b_perp))
        return original(params, b_perp, bz)

    monkeypatch.setattr(fieldmap, "_axial_eigensystems", counting)
    return sizes


def newton_step_oracle(jac: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One seed's Newton step as it was taken before the steps were
    stacked: -jac^-1 grad, or coordinate descent on the diagonal where
    ``cond`` or ``solve`` gives up or the condition number exceeds 1e10."""
    try:
        if np.linalg.cond(jac) > 1e10:
            raise np.linalg.LinAlgError("near-singular")
        return np.linalg.solve(jac, -grad)
    except np.linalg.LinAlgError:
        diag = np.diag(jac)
        safe = np.where(np.abs(diag) > 1e-12, diag, np.inf)
        return -grad / safe


def newton_refine_oracle(params, sel, start, region, free, tol, max_iter):
    """Newton oracle: the damped Newton loop of one seed frame (B_perp, 0,
    Bz) as it ran before the seeds went in lockstep, one one-frame
    ``_frame_transition`` call per evaluated frame, each trial clipped into
    the (lower, upper) corners ``region`` coordinate by coordinate. Returns
    the converged endpoint (or None, also where the endpoint's gradient is
    flagged) and whether a trial frame was clipped into the region."""

    def evaluate(point):
        state = fieldmap._frame_transition(params, sel, point[:1], point[2:], 2)
        return state, state.slope[0, free]

    clipped = False
    point = start.copy()
    state, grad = evaluate(point)
    for _ in range(max_iter):
        if np.max(np.abs(grad)) <= tol:
            break
        delta = newton_step_oracle(state.hessian[0][np.ix_(free, free)], grad)
        if not np.all(np.isfinite(delta)):
            return None, clipped
        improved = False
        for damp in (1.0, 0.5, 0.25, 0.125, 0.0625):
            trial = point.copy()
            trial[free] += damp * delta
            for k in free:
                inside = trial[k]
                trial[k] = min(max(trial[k], region[0][k]), region[1][k])
                clipped |= bool(trial[k] != inside)
            trial_state, trial_grad = evaluate(trial)
            if np.max(np.abs(trial_grad)) < np.max(np.abs(grad)):
                point, state, grad = trial, trial_state, trial_grad
                improved = True
                break
        if not improved:
            break
    residual = float(np.max(np.abs(grad)))
    if residual > tol or state.min_gap[0] < DEGENERACY_GAP:
        return None, clipped
    return fieldmap._Endpoint(point, float(state.frequency[0]), residual,
                              state.hessian[0]), clipped


def format_number_oracle(value) -> str:
    """Writer oracle: the per-cell number formatting the writer used before
    it formatted by exact type (isinstance checks and ``np.isfinite``)."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if not np.isfinite(x):
        return "nan" if np.isnan(x) else ("inf" if x > 0 else "-inf")
    return f"{x:.9g}"


def csv_cell_oracle(value) -> str:
    return value if isinstance(value, str) else format_number_oracle(value)


def json_record_oracle(columns, row) -> str:
    cells = [
        f'"{name}": "{value}"' if isinstance(value, str)
        else f'"{name}": {format_number_oracle(value)}'
        for name, value in zip(columns, row)
    ]
    return "{" + ", ".join(cells) + "}"


def transition_table_oracle(ground, excited, op, spectrum):
    """Table oracle: the cell-by-cell loop ``transition_table`` ran before it
    built its columns, one ``float()`` of a numpy scalar per cell."""
    electron_dim = len({b[1] for b in ground.basis})
    full_op = op.full_matrix(ground.dimension // electron_dim, electron_dim)
    strengths = np.abs(excited.eigenvectors.conj().T @ full_op @ ground.eigenvectors) ** 2
    weights = boltzmann_weights(ground.energies, spectrum.temperature)
    return [
        TransitionLine(
            ground_label=g + 1,
            excited_label=e + 1,
            frequency=float(excited.energies[e] - ground.energies[g]),
            strength=float(strengths[e, g]),
            population_weight=float(weights[g]),
        )
        for g in range(ground.dimension)
        for e in range(ground.dimension)
    ]


def absorption_spectrum_oracle(table, spectrum):
    """Spectrum oracle: every line's profile on the whole grid, the loop
    ``absorption_spectrum`` ran before it evaluated a Gaussian line only
    within its reach."""
    freqs = spectrum.grid.values()
    shape = gaussian_profile if spectrum.line_profile == "gaussian" else lorentzian_profile
    depth = np.zeros_like(freqs)
    for line in table:
        amplitude = line.strength * line.population_weight
        if amplitude == 0.0:
            continue
        depth += amplitude * shape(freqs, line.frequency, spectrum.inhom_fwhm)
    return freqs, depth


def wofz_oracle(z):
    """Faddeeva oracle: ``eit.wofz`` over the plain-expression expansion
    below, the form it had before it worked in place."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < 0):
        raise InvalidParameterError("wofz is evaluated only for Im z >= 0")
    finite = np.isfinite(z)
    if finite.all():
        return weideman_oracle(z)
    edge = np.where(np.isnan(z), complex(np.nan, np.nan), 0j)
    return np.where(finite, weideman_oracle(np.where(finite, z, 0j)), edge)[()]


def weideman_oracle(z: np.ndarray):
    """Weideman's expansion as one expression per step, a fresh array each."""
    denominator = _WEIDEMAN_L - 1j * z
    ratio = (_WEIDEMAN_L + 1j * z) / denominator
    p = np.full(ratio.shape, _WEIDEMAN_COEFFICIENTS[0], dtype=complex)
    for c in _WEIDEMAN_COEFFICIENTS[1:]:
        p *= ratio
        p += c
    return (2.0 * p / denominator + 1.0 / np.sqrt(np.pi)) / denominator


def pole_offset_oracle(d2: np.ndarray, p: LambdaParams) -> np.ndarray:
    g_ge = p.optical_dephasing
    if p.rabi_coupling == 0.0:
        return np.broadcast_to(g_ge + 0.0j, d2.shape).copy()
    z = p.spin_dephasing + 1j * d2
    return g_ge + (p.rabi_coupling / 2.0) ** 2 / z


def averaged_susceptibility_oracle(detuning, two_photon_detuning, p: LambdaParams):
    """The "exact" average as plain expressions, over the oracles above."""
    f = np.asarray(detuning, dtype=float)
    d2 = np.asarray(two_photon_detuning, dtype=float)
    f, d2 = np.broadcast_arrays(f, d2)
    sigma = p.optical_inhom_fwhm * GAUSSIAN_FWHM_TO_SIGMA
    with np.errstate(divide="ignore", invalid="ignore"):
        pole = pole_offset_oracle(d2, p)
        zeta = (-f + 1j * pole) / (sigma * np.sqrt(2.0))
    out = p.optical_dephasing * np.sqrt(np.pi) / (sigma * np.sqrt(2.0)) * 1j * wofz_oracle(zeta)
    bad = ~np.isfinite(pole)
    if np.any(bad):
        out = np.where(bad, 0.0 + 0.0j, out)
    return out[()]


def assert_same_bits(got, expected):
    """Same type (numpy scalar or array), dtype, shape and every bit."""
    assert type(got) is type(expected)
    assert got.dtype == expected.dtype and np.shape(got) == np.shape(expected)
    assert np.array_equal(
        np.atleast_1d(got).view(np.int64), np.atleast_1d(expected).view(np.int64)
    )


def sweep_oracle(params, z, noise, p: LambdaParams, comb, sweep) -> list[SweepPoint]:
    """Sweep oracle: ``amplitude_vs_field`` as it ran before it evaluated
    the profiles as one stack, one ``replace``d LambdaParams and one
    profile per sweep point, over the plain-expression average above. Its
    window is the sweep's, centred on the comb shifted by the two-photon
    offset (with no offset, the window the per-point loop used)."""
    half = float(np.max(np.abs(comb.shifts()))) + 10.0
    grid = p.two_photon_offset + np.arange(-half, half + 1e-9, 0.05)
    points = sweep.points()
    offsets = [point - z.field for point in points]
    per_line = [replace(p, spin_dephasing=spin_linewidth(noise, offset) / 2.0)
                for offset in offsets]
    off = averaged_susceptibility_oracle(
        np.append(grid, 0.0), 0.0, replace(per_line[0], rabi_coupling=0.0)
    ).imag
    norm = float(off[-1])
    alpha_off = off[:-1] / norm
    amplitudes = []
    for params_k in per_line:
        shifts = comb.shifts() + params_k.two_photon_offset
        lines = averaged_susceptibility_oracle(grid, grid - shifts[:, None], params_k).imag
        alpha_on = np.zeros_like(grid)
        for w, line in zip(comb.weights, lines):
            alpha_on += w * line
        alpha_on = alpha_on / norm
        amplitudes.append(float(((alpha_off - alpha_on) / alpha_off).max()))
    exact = transition_frequencies(params, points, z.selector)
    return [
        SweepPoint(field=point, omega12=quadratic_model(z, offset), amplitude=amplitude,
                   omega12_exact=float(w))
        for point, offset, amplitude, w in zip(points, offsets, amplitudes, exact)
    ]


def find_lambda_systems_oracle(
    table, *, max_asymmetry=0.01, max_leakage_ratio=0.01, min_strength=1e-6
) -> list[LambdaSystem]:
    """Lambda-system oracle: the loop ``find_lambda_systems`` ran before it
    read the strengths from one array, with a dict of the table and one
    per excited level (the threshold checks left out). A pair missing from
    the table that passes every test as a leg of strength 0 raises
    KeyError here."""
    strengths: dict[tuple[int, int], float] = {}
    freqs: dict[tuple[int, int], float] = {}
    ground_labels: set[int] = set()
    excited_labels: set[int] = set()
    for line in table:
        key = (line.ground_label, line.excited_label)
        strengths[key] = line.strength
        freqs[key] = line.frequency
        ground_labels.add(line.ground_label)
        excited_labels.add(line.excited_label)

    systems = []
    grounds = sorted(ground_labels)
    for e in sorted(excited_labels):
        branch = {g: strengths.get((g, e), 0.0) for g in grounds}
        for ai, a in enumerate(grounds):
            sa = branch[a]
            if sa < min_strength:
                continue
            for b in grounds[ai + 1 :]:
                sb = branch[b]
                if sb < min_strength:
                    continue
                total = sa + sb
                if total <= 0.0:
                    continue
                asym = abs(sa - sb) / total
                if asym > max_asymmetry:
                    continue
                leak = max(
                    (branch[g] for g in grounds if g not in (a, b)), default=0.0
                )
                if leak > max_leakage_ratio * min(sa, sb):
                    continue
                systems.append(
                    LambdaSystem(
                        ground_a=a,
                        ground_b=b,
                        excited=e,
                        strength_a=sa,
                        strength_b=sb,
                        leakage=leak,
                        asymmetry=asym,
                        splitting=abs(freqs[(a, e)] - freqs[(b, e)]),
                    )
                )
    systems.sort(
        key=lambda s: (round(s.asymmetry, 12), -round(min(s.strength_a, s.strength_b), 12))
    )
    return systems
