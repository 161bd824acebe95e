"""The field-linear spin core: cached H0 and M, stacked diagonalization and
the field derivatives built on them, each checked against a point-by-point
oracle kept here: bit for bit where the arithmetic is the same, to a
tolerance where finite differences stand in for the analytic sums."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from zefoz import (
    AxisGrid,
    FieldGrid,
    InvalidParameterError,
    IonParams,
    SpinParams,
    TransitionSelector,
    frequency_gradient,
    ion_levels,
    transition_frequencies,
    zefoz_search,
)
from zefoz import fieldmap, spins
from zefoz.fieldmap import BLOCK, DEGENERACY_GAP
from zefoz.operators import (
    electron_operator,
    multiplicity,
    nuclear_operator,
    product_basis,
    spin_matrices,
)

from conftest import (
    ND_EXCITED,
    ND_GROUND,
    count_diagonalizations,
    curvature_matrix_at,
    frequency_at,
    lab_frame_derivatives,
    lab_hamiltonian,
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ------------------------------------------------------------- oracles


def term_by_term_hamiltonian(params: SpinParams, field) -> np.ndarray:
    """Assemble H at one field from fresh spin matrices, term by term."""
    b = np.asarray(field, dtype=float)
    sx, sy, sz = spin_matrices(params.electron_spin)
    ix, iy, iz = spin_matrices(params.nuclear_spin)
    dim_s = multiplicity(params.electron_spin)
    dim_i = multiplicity(params.nuclear_spin)
    h = params.g_par * params.mu_B * b[2] * electron_operator(sz, dim_i)
    h = h + params.g_perp * params.mu_B * (
        b[0] * electron_operator(sx, dim_i) + b[1] * electron_operator(sy, dim_i)
    )
    h = h + params.A * np.kron(iz, sz)
    h = h + params.B_hf * (np.kron(ix, sx) + np.kron(iy, sy))
    if params.P != 0.0:
        i_val = params.nuclear_spin
        quad = iz @ iz - i_val * (i_val + 1.0) / 3.0 * np.eye(dim_i)
        h = h + params.P * nuclear_operator(quad, dim_s)
    return h


def pointwise_curvatures(params, field, sel, step: float = 0.5) -> np.ndarray:
    """Richardson-extrapolated central second differences, one
    ``frequency_at`` call per stencil point."""
    b = np.asarray(field, dtype=float)

    def freq(point):
        return frequency_at(params, point, sel)

    def unit(axis, h):
        e = np.zeros(3)
        e[axis] = h
        return e

    f0 = freq(b)

    def second_diag(axis, h):
        e = unit(axis, h)
        return (freq(b + e) - 2.0 * f0 + freq(b - e)) / h**2

    def second_mixed(a1, a2, h):
        e1, e2 = unit(a1, h), unit(a2, h)
        return (
            freq(b + e1 + e2) - freq(b + e1 - e2) - freq(b - e1 + e2) + freq(b - e1 - e2)
        ) / (4.0 * h**2)

    def richardson(fn, *args):
        return (4.0 * fn(*args, step / 2.0) - fn(*args, step)) / 3.0

    raw = np.zeros((3, 3))
    for k in range(3):
        raw[k, k] = richardson(second_diag, k)
    for a1, a2 in ((0, 1), (0, 2), (1, 2)):
        raw[a1, a2] = raw[a2, a1] = richardson(second_mixed, a1, a2)
    return raw / 2.0 * 1000.0


# ------------------------------------------------------------- inputs


def awkward_params(rng, nuclear_spin=None) -> SpinParams:
    """Random parameters that are often exactly zero where the Nd ions are
    (g_perp, P), since zeros are where assembly order can flip signs."""
    return SpinParams(
        electron_spin=0.5,
        nuclear_spin=float(rng.choice([0.5, 2.5, 3.5])) if nuclear_spin is None else nuclear_spin,
        g_par=float(rng.uniform(0.1, 3.0)),
        g_perp=float(rng.choice([0.0, rng.uniform(0.1, 3.0)])),
        A=float(rng.uniform(-800.0, 800.0)),
        B_hf=float(rng.uniform(-800.0, 800.0)),
        P=float(rng.choice([0.0, rng.uniform(-5.0, 5.0)])),
    )


def awkward_fields(rng, count: int = 12) -> np.ndarray:
    """Random fields plus zero, negative zero and partly zero components."""
    fields = rng.uniform(-100.0, 100.0, size=(count, 3))
    fields[0] = 0.0
    fields[1] = -0.0
    fields[2, :2] = 0.0
    fields[3, :2] = -0.0
    fields[4, 2] = 0.0
    return fields


# ------------------------------------------------------------- Hamiltonian


def test_hamiltonian_matches_term_by_term_assembly():
    # the lab oracle H(B) = H0 + B.M from the cached linear terms as one
    # matrix product: exactly Hermitian, the same bits whatever stack a
    # field sits in, and the term-by-term sum to round-off (a few roundings
    # of terms no larger than the largest entry)
    rng = np.random.default_rng(11)
    for _ in range(40):
        params = awkward_params(rng)
        fields = awkward_fields(rng)
        stacked = lab_hamiltonian(params, fields)
        for k, field in enumerate(fields):
            single = lab_hamiltonian(params, field)
            assert np.array_equal(single, single.conj().T)
            assert same_bits(stacked[k], single)
            oracle = term_by_term_hamiltonian(params, field)
            bound = 8.0 * np.finfo(float).eps * max(1.0, np.max(np.abs(oracle)))
            assert np.max(np.abs(single - oracle)) <= bound


def test_linear_terms_are_cached_and_read_only():
    params = SpinParams(**{**ND_GROUND, "P": 3.0})
    terms = params.linear_terms
    assert params.linear_terms is terms
    assert terms.h0.shape == (16, 16) and terms.h0.dtype == np.float64
    assert terms.zeeman.shape == (3, 16, 16)
    for array in terms:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    # H0 is the zero-field Hamiltonian, M the exact field derivative
    assert np.array_equal(lab_hamiltonian(params, (0.0, 0.0, 0.0)), terms.h0)
    for axis in range(3):
        field = np.zeros(3)
        field[axis] = 1.0
        assert np.allclose(lab_hamiltonian(params, field) - terms.h0, terms.zeeman[axis],
                           atol=1e-12)
    # a changed parameter set builds its own terms
    other = replace(params, P=0.0).linear_terms
    assert not np.array_equal(other.h0, terms.h0)
    assert np.array_equal(other.zeeman, terms.zeeman)


def test_spin_operators_are_built_once_per_spin_pair(monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return spin_matrices(value)

    monkeypatch.setattr(spins, "spin_matrices", counted)
    spins._spin_basis.cache_clear()
    first = SpinParams(**{**ND_GROUND, "P": 3.0})
    assert first.linear_terms.h0.shape == (16, 16)
    assert calls == [0.5, 3.5]
    second = SpinParams(**{**ND_GROUND, "A": -257.0, "B_hf": -456.0, "P": -1.5,
                           "g_par": 0.18, "g_perp": 0.7})
    assert ion_levels(second, (1.0, 2.0, 3.0)).dimension == 16
    assert calls == [0.5, 3.5]
    for array in spins._spin_basis(0.5, 3.5):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    # another spin pair gets its own operators
    other = SpinParams(**{**ND_GROUND, "nuclear_spin": 2.5})
    assert other.linear_terms.zeeman.shape == (3, 12, 12)
    assert calls == [0.5, 3.5, 0.5, 2.5]


# ------------------------------------------------------------- eigen kernel


def frame_eigensystems(params: SpinParams, fields: np.ndarray):
    """Energies (N, d), real vectors (N, d, d) and azimuths (N, 2) of a
    field stack, each field diagonalized in its azimuthal frame."""
    b_perp, azimuth = spins._azimuthal_frames(fields)
    return (*spins._axial_eigensystems(params, b_perp, fields[:, 2]), azimuth)


def test_stacked_eigensystems_match_per_matrix_solves_bit_for_bit():
    # lockstep Newton solves the trial points of every seed in one stack,
    # so a field's energies, vectors and azimuth must not depend on it
    rng = np.random.default_rng(5)
    saw_cluster = False
    for _ in range(30):
        params = awkward_params(rng, nuclear_spin=3.5)
        fields = awkward_fields(rng)
        stacked = frame_eigensystems(params, fields)
        for k in range(len(fields)):
            single = frame_eigensystems(params, fields[k][None])
            for whole, alone in zip(stacked, single):
                assert same_bits(whole[k], alone[0])
            saw_cluster |= bool(np.any(np.diff(stacked[0][k]) < 1e-6))
    # zero field leaves Kramers pairs, so degenerate clusters were exercised
    assert saw_cluster


@pytest.mark.parametrize("nuclear_spin", [0.5, 2.5, 3.5])
@pytest.mark.parametrize("state", [ND_GROUND, ND_EXCITED], ids=["ground", "excited"])
def test_zero_field_clusters_are_orthonormal_and_stack_independent(state, nuclear_spin):
    params = SpinParams(**{**state, "nuclear_spin": nuclear_spin})
    dim = params.dimension
    energies, vectors = spins._axial_eigensystems(params, np.zeros(3), np.zeros(3))
    # every |m_F| > 0 pair is degenerate, two m_F = 0 levels are not:
    # seven exact pairs at I = 7/2
    assert np.sum(np.diff(energies[0]) < 1e-6) == dim // 2 - 1
    single_e, single_v = spins._axial_eigensystems(params, np.zeros(1), np.zeros(1))
    for k in range(3):
        assert same_bits(energies[k], single_e[0]) and same_bits(vectors[k], single_v[0])
        assert np.max(np.abs(vectors[k].T @ vectors[k] - np.eye(dim))) < 1e-12


def full_frame_matrix(params: SpinParams, b_perp: float, bz: float) -> np.ndarray:
    terms = params.linear_terms
    return terms.h0 + b_perp * terms.zeeman[0].real + bz * terms.zeeman[2].real


@pytest.mark.parametrize("electron_spin, nuclear_spin",
                         [(0.5, 0.5), (0.5, 2.5), (0.5, 3.5), (1.5, 2.5)])
def test_in_plane_blocks_match_the_full_frame_eigensystem(electron_spin, nuclear_spin):
    # an in-plane frame (Bz == 0, B_perp > 0) is solved as the two blocks
    # of a centrosymmetric matrix. Against eigh of the full d x d frame
    # matrix: energies to 1e-12 relative; each cluster of levels closer
    # than DEGENERACY_GAP spans the same subspace, its projector to the
    # round-off of two eigensolvers, ~eps |H| / gap; and the vectors are
    # orthonormal eigenvectors to round-off
    eps = np.finfo(float).eps
    rng = np.random.default_rng(int(4 * electron_spin + 2 * nuclear_spin))
    clusters = 0
    for state in [ND_GROUND, ND_EXCITED] * 4:
        scaled = {key: state[key] * rng.uniform(0.8, 1.2)
                  for key in ("g_par", "g_perp", "A", "B_hf")}
        params = SpinParams(**{**state, **scaled, "P": rng.uniform(-5.0, 5.0),
                               "electron_spin": electron_spin, "nuclear_spin": nuclear_spin})
        terms = params.linear_terms
        h0, mx, mz = terms.h0, terms.zeeman[0].real, terms.zeeman[2].real
        # the premise: H0 and M_x equal their reversal J X J bit for bit,
        # and M_z equals minus its reversal
        assert np.array_equal(h0, h0[::-1, ::-1]) and np.array_equal(mx, mx[::-1, ::-1])
        assert np.array_equal(mz, -mz[::-1, ::-1])
        b_perp = np.concatenate([rng.uniform(0.1, 200.0, 7), [1e-9]])
        energies, vectors = spins._axial_eigensystems(params, b_perp, np.zeros(len(b_perp)))
        for k, field in enumerate(b_perp):
            h = full_frame_matrix(params, field, 0.0)
            oracle_energies, oracle_vectors = np.linalg.eigh(h)
            scale = max(1.0, np.max(np.abs(oracle_energies)))
            assert np.max(np.abs(energies[k] - oracle_energies)) <= 1e-12 * scale
            own = vectors[k]
            assert np.max(np.abs(own.T @ own - np.eye(params.dimension))) <= 1e-14
            assert np.max(np.abs(h @ own - own * energies[k])) <= 64.0 * eps * scale
            edges = np.flatnonzero(np.diff(oracle_energies) >= DEGENERACY_GAP) + 1
            bounds = np.concatenate([[0], edges, [params.dimension]])
            for first, last in zip(bounds[:-1], bounds[1:]):
                cluster = slice(first, last)
                outside = np.delete(oracle_energies, np.arange(first, last))
                gap = np.min(np.abs(outside[:, None] - oracle_energies[cluster]))
                projector = own[:, cluster] @ own[:, cluster].T
                oracle = oracle_vectors[:, cluster] @ oracle_vectors[:, cluster].T
                assert np.max(np.abs(projector - oracle)) <= 64.0 * eps * (1.0 + scale / gap)
                clusters += last - first > 1
    # g_perp = 0 leaves the excited Kramers pairs degenerate in the plane
    assert clusters > 0


def test_every_other_frame_keeps_the_full_frame_eigensystem():
    # B = 0, the z axis, a field off the plane, and every frame of an odd
    # dimension (integer S and I) are eigh of the full frame matrix, bit for
    # bit, in a stack that also holds in-plane frames
    rng = np.random.default_rng(29)
    for spins_pair in [(0.5, 3.5), (0.5, 2.5), (1.0, 1.0)]:
        params = replace(awkward_params(rng), electron_spin=spins_pair[0],
                         nuclear_spin=spins_pair[1])
        b_perp = np.array([30.0, 0.0, 0.0, 0.0, 45.0, 12.0, 80.0])
        bz = np.array([0.0, 0.0, -0.0, 25.0, -3.0, 0.0, 1e-12])
        energies, vectors = spins._axial_eigensystems(params, b_perp, bz)
        split = (bz == 0.0) & (b_perp > 0.0) & (params.dimension % 2 == 0)
        assert split.sum() == (2 if params.dimension % 2 == 0 else 0)
        for k in np.flatnonzero(~split):
            full = np.linalg.eigh(full_frame_matrix(params, b_perp[k], bz[k])[None])
            assert same_bits(energies[k], full[0][0]) and same_bits(vectors[k], full[1][0])


def axis_fields(rng) -> np.ndarray:
    """Fields on +-x, +-y and +-z, where the azimuth is a multiple of pi/2,
    then the awkward ones: zero, signed zeros, random."""
    magnitudes = rng.uniform(0.5, 100.0, 6)
    on_axes = np.concatenate([np.diag(magnitudes[:3]), -np.diag(magnitudes[3:])])
    return np.concatenate([on_axes, awkward_fields(rng)])


def test_ion_levels_is_the_matching_row_of_a_stacked_solve():
    rng = np.random.default_rng(11)
    for _ in range(5):
        params = awkward_params(rng)
        fields = axis_fields(rng)
        energies, vectors, azimuth = frame_eigensystems(params, fields)
        lab = spins._azimuthal_phases(params, azimuth)[:, :, None] * vectors
        basis = product_basis(params.nuclear_spin, params.electron_spin)
        for k, field in enumerate(fields):
            levels = ion_levels(params, field)
            assert same_bits(levels.energies, energies[k])
            assert levels.basis == basis
            # the lab-frame vectors, each times the unit phase that puts its
            # largest component on the non-negative real axis; where mirror
            # components tie exactly (in-plane fields), the first of them
            lab_vectors = levels.eigenvectors
            phase = np.sum(lab[k].conj() * lab_vectors, axis=0)
            assert np.allclose(np.abs(phase), 1.0, rtol=0.0, atol=1e-14)
            assert np.max(np.abs(lab_vectors - lab[k] * phase)) < 1e-14
            columns = np.arange(len(lab_vectors))
            pivot = lab_vectors[np.argmax(np.abs(vectors[k]), axis=0), columns]
            largest = np.max(np.abs(lab_vectors), axis=0)
            assert np.all(np.abs(pivot) >= largest * (1.0 - 4.0 * np.finfo(float).eps))
            assert np.all(pivot.real > 0.0) and np.max(np.abs(pivot.imag)) < 1e-15


def test_azimuthal_frame_matrix_is_exactly_real_symmetric(monkeypatch):
    # what eigh sees: real, equal to its transpose bit for bit, the same
    # bits in any stack, and U^dagger H(B) U of the lab-frame matrix with
    # U = exp(-i phi F_z), to the round-off of a product with two phases.
    # An in-plane frame (Bz == 0, B_perp > 0) is seen as the two blocks
    # A +- B J of that matrix (A, B its top n = d/2 rows, J the reversal
    # of n states), solved after the stack's other frames
    seen = []
    eigh = np.linalg.eigh

    def capture(h):
        seen.append(h)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", capture)
    rng = np.random.default_rng(17)
    for _ in range(20):
        params = awkward_params(rng)
        fields = axis_fields(rng)
        n = params.dimension // 2
        in_plane = (fields[:, 2] == 0.0) & (np.hypot(fields[:, 0], fields[:, 1]) > 0.0)
        _, _, azimuth = frame_eigensystems(params, fields)
        blocks = seen.pop().reshape(2, -1, n, n)  # [+, -], one per in-plane frame
        full = seen.pop()
        assert not seen
        assert (len(full), blocks.shape[1]) == ((~in_plane).sum(), in_plane.sum())
        for stacked in (full, blocks):
            assert stacked.dtype == np.float64
            assert np.array_equal(stacked, np.swapaxes(stacked, -1, -2))
        phases = spins._azimuthal_phases(params, azimuth)
        for k, field in enumerate(fields):
            frame_eigensystems(params, field[None])
            alone = seen.pop()
            lab = lab_hamiltonian(params, field)
            turned = phases[k].conj()[:, None] * lab * phases[k][None, :]
            bound = 8.0 * np.finfo(float).eps * max(1.0, np.max(np.abs(lab)))
            if in_plane[k]:
                stacked = blocks[:, np.count_nonzero(in_plane[:k])]
                assert same_bits(alone, stacked)
                top, mirrored = turned[:n, :n], turned[:n, n:][:, ::-1]
                assert np.max(np.abs(top + mirrored - stacked[0])) <= bound
                assert np.max(np.abs(top - mirrored - stacked[1])) <= bound
            else:
                stacked = full[np.count_nonzero(~in_plane[:k])]
                assert same_bits(alone[0], stacked)
                assert np.max(np.abs(turned - stacked)) <= bound
    # the turned field is (B_perp, 0, Bz): the azimuth is exact on the axes
    assert np.array_equal(spins._azimuthal_frames(np.eye(3))[1],
                          [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


def test_azimuthal_frame_matches_the_lab_frame_eigensystem():
    # energies to 1e-12 relative, and the derivatives of every level clear
    # of its neighbours to the round-off of two eigensolvers: an
    # eigenvector moves by ~eps |H| / gap, so a slope by |M| times that
    # and a Hessian by |M|^2 / gap times that
    eps = np.finfo(float).eps
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(30):
        params = awkward_params(rng)
        fields = axis_fields(rng)
        b_perp, azimuth = spins._azimuthal_frames(fields)
        energy, own, gap, frame, _ = fieldmap._frame_derivatives(
            params, b_perp, fields[:, 2], np.arange(params.dimension), 2
        )
        zeeman = max(np.linalg.norm(m, 2) for m in params.linear_terms.zeeman)
        for k, field in enumerate(fields):
            # R(phi) turns the frame's slopes and Hessians back to the lab
            cos, sin = azimuth[k]
            turn = np.array([[cos, -sin, 0.0], [sin, cos, 0.0], [0.0, 0.0, 1.0]])
            slope, hessian = own[k] @ turn.T, turn @ frame[k] @ turn.T
            lab_energy, lab_slope, lab_hessian = lab_frame_derivatives(params, field)
            scale = max(1.0, np.max(np.abs(lab_energy)))
            assert np.max(np.abs(energy[k] - lab_energy)) <= 1e-12 * scale
            clear = gap[k] >= DEGENERACY_GAP
            growth = 64.0 * eps * (1.0 + scale / gap[k][clear])
            assert np.all(np.abs(slope[clear] - lab_slope[clear])
                          <= (zeeman * growth)[:, None])
            assert np.all(np.abs(hessian[clear] - lab_hessian[clear])
                          <= (zeeman**2 / gap[k][clear] * growth)[:, None, None])
            checked += int(clear.sum())
    assert checked > 1000


def test_ion_levels_takes_one_field_not_a_stack(nd_ground):
    with pytest.raises(InvalidParameterError, match="3 components"):
        ion_levels(nd_ground, np.zeros((2, 3)))


# ------------------------------------------------------------- field derivatives


def test_stacked_frequencies_match_single_fields_across_blocks(nd_ion):
    rng = np.random.default_rng(3)
    fields = rng.uniform(-80.0, 80.0, size=(2 * BLOCK + 5, 3))
    for sel in (TransitionSelector("ground", 8, 10), TransitionSelector("optical", 3, 9)):
        stacked = transition_frequencies(nd_ion, fields, sel)
        pointwise = np.array([frequency_at(nd_ion, f, sel) for f in fields])
        assert same_bits(stacked, pointwise)
        # an empty stack has no blocks to diagonalize, and no frequencies
        assert same_bits(transition_frequencies(nd_ion, fields[:0], sel), np.zeros(0))


def slope_roundoff(params: SpinParams) -> np.ndarray:
    """Bound (3,) on the rounding error of a computed slope <n|M_a|n> for a
    unit vector |n>: a matrix-vector product and an inner product, each of
    length d, give gamma_(2d+4) * || |M_a| ||_2 with gamma_k = k u / (1 - k u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sections 3.1 and 3.6; the +4 covers the complex products)."""
    k = (2 * params.dimension + 4) * np.finfo(float).eps / 2.0
    gamma = k / (1.0 - k)
    return gamma * np.array([np.linalg.norm(np.abs(m), 2) for m in params.linear_terms.zeeman])


def test_gradient_stencil_matches_pointwise_differences(nd_ion):
    rng = np.random.default_rng(8)
    saw_flag = False
    for sel in (TransitionSelector("ground", 8, 10), TransitionSelector("optical", 8, 9)):
        for field in awkward_fields(rng, 6):
            result = frequency_gradient(nd_ion, field, sel)
            assert result.flagged == (result.min_gap < DEGENERACY_GAP)
            # a flagged field (a degenerate cluster) takes the same check:
            # both sides read the slope of the vector the eigensolver picked
            saw_flag |= result.flagged

            def slope(params, label):
                vec = ion_levels(params, field).vector(label)
                return np.array(
                    [float((vec.conj() @ m @ vec).real) for m in params.linear_terms.zeeman]
                )

            if sel.manifold == "optical":
                upper, lower = nd_ion.excited, nd_ion.ground
            else:
                upper = lower = nd_ion.ground
            hf = slope(upper, sel.level_j) - slope(lower, sel.level_i)
            # the stacked products may sum in another order than the dot
            # products above: each of the four slopes is off by round-off
            bound = 2.0 * (slope_roundoff(upper) + slope_roundoff(lower))
            assert np.all(np.abs(result.vector - hf) <= bound)
    # the zero fields of awkward_fields sit on Kramers pairs
    assert saw_flag


def test_curvatures_match_pointwise_differences(nd_ion, zefoz_point):
    rng = np.random.default_rng(9)
    fields = [zefoz_point.field, *rng.uniform(-60.0, 60.0, size=(3, 3))]
    for sel in (TransitionSelector("ground", 8, 10), TransitionSelector("optical", 8, 9)):
        for field in fields:
            analytic = curvature_matrix_at(nd_ion, field, sel)
            oracle = pointwise_curvatures(nd_ion, field, sel)
            # every entry, mixed terms included, against the largest
            assert np.max(np.abs(analytic - oracle)) <= 1e-6 * np.max(np.abs(oracle))


def test_curvatures_match_pointwise_differences_on_awkward_parameters():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 40:
        params = awkward_params(rng)
        field = rng.uniform(-100.0, 100.0, 3)
        labels = sorted(int(k) for k in rng.choice(params.dimension, 2, replace=False) + 1)
        spacing = np.diff(ion_levels(params, field).energies, prepend=-np.inf, append=np.inf)
        # second differences need both levels clear of their neighbours
        if min(min(spacing[k - 1], spacing[k]) for k in labels) < 1.0:
            continue
        checked += 1
        sel = TransitionSelector("ground", *labels)
        analytic = curvature_matrix_at(params, field, sel)
        oracle = pointwise_curvatures(params, field, sel, step=0.01)
        assert np.max(np.abs(analytic - oracle)) < 1e-3


def test_each_field_costs_one_diagonalization(nd_ground, zefoz_point, monkeypatch):
    sel = TransitionSelector("ground", 8, 10)
    sizes = count_diagonalizations(monkeypatch)
    curvature_matrix_at(nd_ground, zefoz_point.field, sel)
    assert sizes == [1]
    sizes.clear()
    assert not frequency_gradient(nd_ground, zefoz_point.field, sel).flagged
    assert sizes == [1]
    sizes.clear()
    bounds = FieldGrid(AxisGrid(0.0, 0.0, 1), AxisGrid(0.0, 0.0, 1), AxisGrid(30.0, 100.0, 36))
    points = zefoz_search(nd_ground, sel, (0.0, 0.0, 50.0), bounds)
    assert len(points) == 1
    assert sum(sizes) <= 52  # the 36-field grid, then one field per Newton evaluation


def frame_images(fields: np.ndarray) -> np.ndarray:
    """Each field with the images of its (Bx, By) under sign flips and
    swaps, each at its own Bz and at Bz = +0.0 and -0.0: the images share
    the field's (B_perp, Bz) frame, the zeros are frames of their own."""
    images = [(sx * x, sy * y, z)
              for bx, by, bz in fields
              for z in (bz, 0.0, -0.0)
              for x, y in ((bx, by), (by, bx))
              for sx in (1.0, -1.0)
              for sy in (1.0, -1.0)]
    return np.array(images)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_level_derivatives_of_a_field_do_not_depend_on_its_stack(order):
    # lockstep Newton evaluates each seed in stacks of every size and
    # relies on each frame getting the bits of a one-frame call, also in
    # stacks of mirrored fields and of Bz = +0.0 and -0.0: each frame's
    # level derivatives, each field's frequency and its gradient, the
    # slope its frame gets in the whole stack turned back to the lab
    rng = np.random.default_rng(12)
    for sel in (TransitionSelector("ground", 8, 10), TransitionSelector("optical", 3, 12),
                TransitionSelector("ground", 1, 16)):
        params = ground = awkward_params(rng, nuclear_spin=3.5)
        if sel.manifold == "optical":
            params = IonParams(ground, awkward_params(rng, nuclear_spin=3.5))
        levels = np.array([sel.level_i, sel.level_j]) - 1
        fields = np.concatenate([axis_fields(rng), rng.uniform(-100.0, 100.0, (BLOCK, 3))])
        mirrored = frame_images(fields[:28])
        for stack in (fields, mirrored):
            b_perp, azimuth = spins._azimuthal_frames(stack)
            bz = stack[:, 2]
            frequencies = transition_frequencies(params, stack, sel)
            framed = fieldmap._frame_derivatives(ground, b_perp, bz, levels, order)
            if order == 1:
                state = fieldmap._frame_transition(params, sel, b_perp, bz, 1)
                turned = (fieldmap._turns(azimuth) @ state.slope[..., None])[..., 0]
            for k in range(len(stack)):
                assert same_bits(frequencies[k:k + 1],
                                 transition_frequencies(params, stack[k:k + 1], sel))
                alone = fieldmap._frame_derivatives(ground, b_perp[k:k + 1], bz[k:k + 1],
                                                    levels, order)
                for whole, part in zip(framed, alone):
                    if whole is None:
                        assert part is None
                    else:
                        assert same_bits(whole[k:k + 1], part)
                if order == 1:
                    gradient = frequency_gradient(params, stack[k], sel)
                    assert same_bits(gradient.vector, turned[k])
                    assert gradient.min_gap == state.min_gap[k]


def test_an_optical_stack_takes_its_frames_once(nd_ion, monkeypatch):
    # both manifolds diagonalize the same frames: the stack's azimuthal
    # frames are computed once per call, and each manifold diagonalizes
    # the whole stack in one call
    calls = []
    frames = fieldmap._azimuthal_frames

    def counting_frames(fields):
        calls.append(len(fields))
        return frames(fields)

    monkeypatch.setattr(fieldmap, "_azimuthal_frames", counting_frames)
    sizes = count_diagonalizations(monkeypatch)
    fields = frame_images(np.array([[1.0, 2.0, 60.0], [0.5, -3.0, 40.0]]))
    sel = TransitionSelector("optical", 8, 9)
    stacked = transition_frequencies(nd_ion, fields, sel)
    assert calls == [len(fields)]
    assert sizes == [len(fields), len(fields)]
    assert same_bits(stacked, np.array([frequency_at(nd_ion, f, sel) for f in fields]))


def test_search_diagonalizes_each_newton_step_of_every_seed_at_once(nd_ground, monkeypatch):
    # the 3x3x26 box of the field-study search: its 234 grid fields have
    # 3 distinct B_perp, so the frame scan takes 78 frames in 2 stacks, then
    # one stack per damping level of each Newton iteration on the seed
    # frames; seeding and refining lab fields took 93 matrices, one
    # diagonalization per field 273, and one seed at a time 43 calls
    sel = TransitionSelector("ground", 8, 10)
    bounds = FieldGrid(AxisGrid(-2.0, 2.0, 3), AxisGrid(-2.0, 2.0, 3), AxisGrid(45.0, 80.0, 26))
    sizes = count_diagonalizations(monkeypatch)
    points = zefoz_search(nd_ground, sel, (0.0, 0.0, 50.0), bounds)
    assert len(points) == 1
    assert sum(sizes) == 91
    assert len(sizes) <= 10


def test_zero_field_curvature_leaves_out_the_degenerate_cluster(nd_ground):
    sel = TransitionSelector("ground", 8, 10)
    curvature = curvature_matrix_at(nd_ground, (0.0, 0.0, 0.0), sel)
    assert np.all(np.isfinite(curvature))
    levels = ion_levels(nd_ground, (0.0, 0.0, 0.0))
    zeeman = nd_ground.linear_terms.zeeman

    def hessian(label):
        n = label - 1
        out = np.zeros((3, 3))
        for m in range(levels.dimension):
            split = levels.energies[n] - levels.energies[m]
            if abs(split) < DEGENERACY_GAP:  # n itself and its Kramers partner
                continue
            bra, ket = levels.eigenvectors[:, n].conj(), levels.eigenvectors[:, m]
            for a in range(3):
                for b in range(3):
                    term = (bra @ zeeman[a] @ ket) * (ket.conj() @ zeeman[b] @ bra.conj())
                    out[a, b] += 2.0 * term.real / split
        return out

    expected = (hessian(10) - hessian(8)) / 2.0 * 1000.0
    assert np.allclose(curvature, expected, rtol=1e-9, atol=1e-9)
