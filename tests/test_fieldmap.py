"""Field maps: transition frequencies, gradients, curvatures, the
stationary-point search and level tracking."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import zefoz.fieldmap as fieldmap
from zefoz import (
    AxisGrid,
    FieldGrid,
    InvalidParameterError,
    IonParams,
    SpinParams,
    TransitionSelector,
    ZefozPoint,
    frequency_gradient,
    ion_levels,
    level_diagram,
    quadratic_model,
    zefoz_search,
)

from zefoz.fieldmap import DEGENERACY_GAP
from zefoz.operators import spin_matrices

from conftest import (
    ND_EXCITED,
    ND_GROUND,
    analytic_clock_frequency,
    central_difference,
    count_diagonalizations,
    curvature_matrix_at,
    frequency_at,
    newton_refine_oracle,
    newton_step_oracle,
    tracked_levels,
)


def test_transition_frequency_matches_block_formula(nd_ground, clock_selector):
    for bz in (40.0, 55.0, 63.6, 80.0, 100.0):
        exact = frequency_at(nd_ground, (0.0, 0.0, bz), clock_selector)
        assert exact == pytest.approx(analytic_clock_frequency(nd_ground, bz), abs=1e-9)


def test_same_level_selector_rejected():
    with pytest.raises(InvalidParameterError):
        TransitionSelector("ground", 8, 8)


def test_label_out_of_range(nd_ground):
    sel = TransitionSelector("ground", 1, 17)
    with pytest.raises(InvalidParameterError):
        frequency_at(nd_ground, (0.0, 0.0, 10.0), sel)


def test_optical_selector_needs_ion_params(nd_ground, nd_ion):
    sel = TransitionSelector("optical", 8, 9)
    with pytest.raises(InvalidParameterError):
        frequency_at(nd_ground, (0.0, 0.0, 10.0), sel)
    freq = frequency_at(nd_ion, (0.0, 0.0, 63.6), sel)
    assert np.isfinite(freq)


def test_gradient_agreement_and_axial_symmetry(nd_ground, clock_selector):
    field = (0.0, 0.0, 55.0)
    result = frequency_gradient(nd_ground, field, clock_selector)
    assert not result.flagged
    fd = central_difference(nd_ground, field, clock_selector, step=0.01)
    assert np.max(np.abs(result.vector - fd)) < 1e-4
    # purely longitudinal field: transverse gradient components vanish
    assert abs(result.vector[0]) < 1e-6
    assert abs(result.vector[1]) < 1e-6


def test_gradient_vanishes_at_stationary_point(nd_ground, clock_selector, zefoz_point):
    result = frequency_gradient(nd_ground, zefoz_point.field, clock_selector)
    assert np.linalg.norm(result.vector) < 1e-3


def test_gradient_flags_degenerate_levels():
    # pure electron Zeeman: massive degeneracy within each branch
    params = SpinParams(
        electron_spin=0.5, nuclear_spin=3.5, g_par=2.0, g_perp=2.0, A=0.0, B_hf=0.0
    )
    sel = TransitionSelector("ground", 8, 10)
    result = frequency_gradient(params, (0.0, 0.0, 50.0), sel)
    assert result.flagged
    # every vector of a cluster has the same electron spin, so the
    # Hellmann-Feynman slope is the linear Zeeman one whatever the basis
    assert result.vector[2] == pytest.approx(2.0 * 14.0, rel=1e-6)


def test_optical_gradient_near_stationary_point(nd_ion, zefoz_point):
    # the excited sublevel 9 is an exact single basis state, so its slope
    # is exactly g_par*mu_B/2; the ground pair is stationary
    expected = 0.18 * 14.0 / 2.0
    for g_label in (8, 10):
        sel = TransitionSelector("optical", g_label, 9)
        grad = frequency_gradient(nd_ion, zefoz_point.field, sel)
        assert grad.vector[2] == pytest.approx(expected, abs=1e-3)


def test_derivatives_at_a_degenerate_field_take_one_eigensystem(
    nd_ground, clock_selector, monkeypatch
):
    # B = 0: the clock pair's levels sit in Kramers doublets, so the gradient
    # is flagged; it and C come from the one eigensystem, and C keeps the
    # value the Newton path computes
    field = np.zeros((1, 3))
    expected = fieldmap._curvature_matrix(
        fieldmap._frame_transition(nd_ground, clock_selector, field[:, 0], field[:, 2],
                                   True).hessian[0]
    )
    sizes = count_diagonalizations(monkeypatch)
    matrix = curvature_matrix_at(nd_ground, field[0], clock_selector)
    assert sizes == [1]
    assert np.array_equal(matrix, expected)
    sizes.clear()
    assert frequency_gradient(nd_ground, field[0], clock_selector).flagged
    assert sizes == [1]


def test_curvatures_at_stationary_point(nd_ground, clock_selector, zefoz_point):
    matrix = curvature_matrix_at(nd_ground, zefoz_point.field, clock_selector)
    diag = np.diag(matrix)
    assert diag[0] == pytest.approx(-52.7, rel=0.02)
    assert diag[1] == pytest.approx(-52.7, rel=0.02)
    assert diag[2] == pytest.approx(185.3, rel=0.02)
    assert tuple(np.sign(diag)) == (-1.0, -1.0, 1.0)
    # axial symmetry and vanishing mixed terms at a longitudinal point
    assert diag[0] == pytest.approx(diag[1], rel=0.01)
    assert abs(matrix[0, 2]) < 0.5
    assert abs(matrix[1, 2]) < 0.5


def test_curvature_analytic_value(nd_ground, zefoz_point):
    # closed-block result: S2z = (g_par*mu_B)^2 / (2 * w0), in kHz/mT^2
    scale = nd_ground.g_par * nd_ground.mu_B
    expected = scale**2 / (2.0 * zefoz_point.omega0) * 1000.0
    assert zefoz_point.curvatures[2] == pytest.approx(expected, rel=1e-4)


def test_curvatures_match_quadratic_fit(nd_ground, clock_selector, zefoz_point):
    # least-squares quadratic fit of the exact frequency over a 2 mT ball
    # must reproduce the curvature matrix to 2%
    rng = np.random.default_rng(7)
    center = zefoz_point.field
    w0 = frequency_at(nd_ground, center, clock_selector)
    offsets = rng.normal(size=(80, 3))
    offsets *= (2.0 * rng.uniform(0.3, 1.0, size=(80, 1))) / np.linalg.norm(
        offsets, axis=1, keepdims=True
    )
    values = np.array(
        [
            frequency_at(nd_ground, center + d, clock_selector) - w0
            for d in offsets
        ]
    )
    # design matrix for [dx^2, dy^2, dz^2, dxdy, dxdz, dydz, dx, dy, dz]
    d = offsets
    design = np.column_stack(
        [
            d[:, 0] ** 2,
            d[:, 1] ** 2,
            d[:, 2] ** 2,
            d[:, 0] * d[:, 1],
            d[:, 0] * d[:, 2],
            d[:, 1] * d[:, 2],
            d[:, 0],
            d[:, 1],
            d[:, 2],
        ]
    )
    coeff, *_ = np.linalg.lstsq(design, values, rcond=None)
    fitted_diag_khz = coeff[:3] * 1000.0
    measured = zefoz_point.curvatures
    assert np.allclose(fitted_diag_khz, measured, rtol=0.02)


def test_quadratic_model_values(clock_selector):
    z = ZefozPoint(
        field=np.array([0.0, 0.0, 63.6]),
        omega0=2087.0,
        gradient_residual=0.0,
        hessian_signature=(-1, -1, 1),
        curvature_matrix=np.diag([-52.7, -52.7, 185.3]),
        selector=clock_selector,
    )
    assert quadratic_model(z, (0.0, 0.0, 0.0)) == pytest.approx(2087.0, abs=1e-12)
    assert quadratic_model(z, (0.0, 0.0, 1.0)) == pytest.approx(2087.0 + 0.1853, abs=1e-9)
    assert quadratic_model(z, (1.0, 1.0, 0.0)) == pytest.approx(2087.0 - 0.1054, abs=1e-9)


# the clock pair's ring about the z axis, cut by a box off the axis
RING_CUT = FieldGrid(x=AxisGrid(40.0, 80.0, 9), y=AxisGrid(-20.0, 20.0, 9),
                     z=AxisGrid(-5.0, 5.0, 5))


@pytest.fixture(scope="module")
def ring_point(nd_ground, clock_selector):
    (point,) = zefoz_search(nd_ground, clock_selector, (60.0, 20.0, 0.0), RING_CUT)
    return point


def test_curvatures_are_the_diagonal_of_the_curvature_matrix(zefoz_point, ring_point):
    for z in (zefoz_point, ring_point):
        assert np.array_equal(z.curvatures, np.diag(z.curvature_matrix))
        with pytest.raises(ValueError):
            z.curvatures[0] = 0.0  # a view of C, not a second copy
    # off the axis C has an xy entry that the diagonal alone leaves out
    assert abs(ring_point.curvature_matrix[0, 1]) > 50.0


def test_quadratic_model_reads_the_whole_curvature_matrix(nd_ground, clock_selector, ring_point):
    # at the ring's point (62.21, 20, 0) mT, an in-plane offset along
    # (1, 1, 0) takes the xy entry of C: the diagonal alone gives 0.08578 MHz
    offset = np.array([0.5, 0.5, 0.0])
    exact = frequency_at(nd_ground, ring_point.field + offset, clock_selector)
    model = quadratic_model(ring_point, offset)
    assert exact - ring_point.omega0 == pytest.approx(0.13615, abs=1e-5)
    assert model - ring_point.omega0 == pytest.approx(0.13577, abs=1e-5)
    assert model == pytest.approx(exact, abs=1e-3)


def test_quadratic_model_tracks_exact_frequency(nd_ground, clock_selector, zefoz_point):
    target = frequency_at(nd_ground, (0.0, 0.0, 64.6), clock_selector)
    model = quadratic_model(z=zefoz_point, delta_field=(0.0, 0.0, 64.6) - zefoz_point.field)
    assert model == pytest.approx(target, abs=0.02)


def test_search_finds_the_clock_point(nd_ground, zefoz_point):
    assert zefoz_point.field[0] == pytest.approx(0.0, abs=1e-9)
    assert zefoz_point.field[1] == pytest.approx(0.0, abs=1e-9)
    assert zefoz_point.field[2] == pytest.approx(63.6, abs=1.0)
    assert zefoz_point.omega0 == pytest.approx(2087.0, abs=10.0)
    assert zefoz_point.gradient_residual <= 1e-6
    assert zefoz_point.hessian_signature == (-1, -1, 1)


def test_search_is_deterministic(nd_ground, clock_selector, search_bounds):
    first = zefoz_search(nd_ground, clock_selector, (0.0, 0.0, 50.0), search_bounds)
    second = zefoz_search(nd_ground, clock_selector, (0.0, 0.0, 50.0), search_bounds)
    assert len(first) == len(second) == 1
    assert np.max(np.abs(first[0].field - second[0].field)) < 1e-9


def test_search_merges_near_duplicate_endpoints(nd_ground, clock_selector):
    # two Newton runs in this box used to end 2 uT apart on the same
    # point and both were reported; the merged point keeps the lowest
    # residual, which is the one reported first before
    bounds = FieldGrid(
        x=AxisGrid(-1.0, 1.0, 3), y=AxisGrid(-1.0, 1.0, 3), z=AxisGrid(55.0, 75.0, 26)
    )
    points = zefoz_search(nd_ground, clock_selector, (0.0, 0.0, 63.0), bounds)
    assert len(points) == 1
    z = points[0]
    assert z.field == pytest.approx([0.0, 0.0, 63.62786684880293], abs=1e-9)
    assert z.omega0 == pytest.approx(2087.497784429962, abs=1e-9)
    assert z.gradient_residual <= 1e-12
    assert z.curvatures == pytest.approx(
        [-52.7814520822479, -52.7814520822479, 185.35136413872047], rel=1e-9
    )


def test_search_reports_no_point_for_linear_zeeman():
    params = SpinParams(
        electron_spin=0.5, nuclear_spin=3.5, g_par=2.0, g_perp=2.0, A=0.0, B_hf=0.0
    )
    bounds = FieldGrid(
        x=AxisGrid(0.0, 0.0, 1), y=AxisGrid(0.0, 0.0, 1), z=AxisGrid(30.0, 100.0, 36)
    )
    sel = TransitionSelector("ground", 8, 10)
    points = zefoz_search(params, sel, (0.0, 0.0, 50.0), bounds)
    assert points == []


def test_search_drops_endpoints_inside_a_degenerate_cluster():
    # pure electron Zeeman: levels 1 and 2 lie in one degenerate branch, so
    # their gradient is 0 and flagged at every field; each seed stops at
    # once with residual 0, and lockstep Newton and the oracle drop it alike
    params = SpinParams(
        electron_spin=0.5, nuclear_spin=3.5, g_par=2.0, g_perp=2.0, A=0.0, B_hf=0.0
    )
    sel = TransitionSelector("ground", 1, 2)
    bounds = FieldGrid(AxisGrid(-1.0, 1.0, 3), AxisGrid(0.0, 0.0, 1), AxisGrid(30.0, 100.0, 8))
    oracle = newton_from_search_seeds(params, sel, (0.0, 0.0, 50.0), bounds)
    assert [point for point, _ in oracle] == [None]
    assert frequency_gradient(params, (0.0, 0.0, 50.0), sel).flagged
    assert zefoz_search(params, sel, (0.0, 0.0, 50.0), bounds) == []


def test_search_drops_the_degenerate_zero_field_endpoint(nd_ground, clock_selector):
    # at B = 0 the clock pair's levels are Kramers doublets and the
    # frequency has a kink: the gradient is flagged, as it reads the slope
    # of whichever vector of each doublet the eigensolver picked
    assert frequency_gradient(nd_ground, (0.0, 0.0, 0.0), clock_selector).flagged
    box = FieldGrid(AxisGrid(0.0, 0.0, 1), AxisGrid(0.0, 0.0, 1), AxisGrid(0.0, 10.0, 3))
    oracle = newton_from_search_seeds(nd_ground, clock_selector, (0.0, 0.0, 0.0), box)
    assert oracle[0][0] is None  # the seed at B = 0
    assert zefoz_search(nd_ground, clock_selector, (0.0, 0.0, 0.0), box) == []
    wide = FieldGrid(AxisGrid(0.0, 0.0, 1), AxisGrid(0.0, 0.0, 1), AxisGrid(0.0, 100.0, 51))
    points = zefoz_search(nd_ground, clock_selector, (0.0, 0.0, 0.0), wide)
    assert [z.field[2] for z in points] == [pytest.approx(63.628, abs=1e-3)]
    for z in points:
        assert not frequency_gradient(nd_ground, z.field, clock_selector).flagged


def test_search_skips_kink_brackets(nd_ground, clock_selector, monkeypatch):
    # in the box Bz = 0..10 mT both sign changes of the clock pair's z slope
    # are kinks, not stationary points: at B = 0 an end's gap is 0 (Kramers
    # doublets), and between 5 and 10 mT sorted levels cross at 8.35 mT, so
    # a level of the pair overlaps its vector at the other end by less than
    # 1/sqrt(2); only the start seeds Newton. Seeding both brackets cost 7
    # diagonalizations each, 17 in all
    box = FieldGrid(AxisGrid(0.0, 0.0, 1), AxisGrid(0.0, 0.0, 1), AxisGrid(0.0, 10.0, 3))
    sizes = count_diagonalizations(monkeypatch)
    assert zefoz_search(nd_ground, clock_selector, (0.0, 0.0, 0.0), box) == []
    assert sum(sizes) == 9  # the 3-frame scan, then the start's Newton steps
    scan = fieldmap._frame_transition(nd_ground, clock_selector, np.zeros(3),
                                      np.array([0.0, 5.0, 10.0]), False)
    assert scan.slope[0, 2] * scan.slope[1, 2] < 0 and scan.min_gap[0] < DEGENERACY_GAP
    assert scan.slope[1, 2] * scan.slope[2, 2] < 0 and scan.min_gap[1:].min() >= DEGENERACY_GAP
    assert min(abs(ket[1] @ ket[2]) for ket in scan.kets) < np.sqrt(0.5)
    seeds = fieldmap._search_seeds(nd_ground, clock_selector, np.zeros(3), box, [2])
    assert seeds.tolist() == [[0.0, 0.0, 0.0]]


def test_search_reports_the_foot_of_an_off_axis_segment(nd_ground, clock_selector):
    # a box whose x-y extent is the segment x = 3 mT, |y| <= 2 mT: along y
    # the frequency is stationary at its foot y = 0 by symmetry, where the
    # search along z finds the point the box x = 3, y = 0 finds, bit for bit
    z_axis = AxisGrid(30.0, 100.0, 36)
    plane = FieldGrid(AxisGrid(3.0, 3.0, 1), AxisGrid(-2.0, 2.0, 5), z_axis)
    line = FieldGrid(AxisGrid(3.0, 3.0, 1), AxisGrid(0.0, 0.0, 1), z_axis)
    (point,) = zefoz_search(nd_ground, clock_selector, (3.0, 1.0, 50.0), plane)
    (expected,) = zefoz_search(nd_ground, clock_selector, (3.0, 0.0, 50.0), line)
    assert point.field.tolist() == expected.field.tolist()
    assert point.field[2] == pytest.approx(63.539438, abs=1e-6)
    for name in ("omega0", "gradient_residual", "curvatures", "hessian_signature"):
        assert np.array_equal(getattr(point, name), getattr(expected, name))
    # with z fixed too, the foot itself is the one point, residual 0
    segment = FieldGrid(AxisGrid(-2.0, 2.0, 5), AxisGrid(5.0, 5.0, 1), AxisGrid(60.0, 60.0, 1))
    (foot,) = zefoz_search(nd_ground, clock_selector, (1.0, 5.0, 60.0), segment)
    assert foot.field.tolist() == [0.0, 5.0, 60.0] and foot.gradient_residual == 0.0
    assert frequency_gradient(nd_ground, foot.field, clock_selector).vector[0] == 0.0


@st.composite
def box_cases(draw):
    """An Nd-like ground ion, a level pair, a box whose x, y and z ranges
    may or may not reach the axis or the plane Bz = 0 (some of them one
    point), and a start inside it."""
    scaled = {key: ND_GROUND[key] * draw(st.floats(0.9, 1.1))
              for key in ("g_par", "g_perp", "A", "B_hf")}
    params = SpinParams(**{**ND_GROUND, **scaled, "P": draw(st.floats(-5.0, 5.0))})
    pair = draw(st.sampled_from(((8, 10), (8, 10), (8, 10), (2, 3), None)))
    if pair is None:
        pair = sorted(draw(st.lists(st.integers(1, 16), min_size=2, max_size=2, unique=True)))
    # around the clock pair's ring (B_perp ~ 65 mT, Bz = 0 on the README
    # ion) or around its axis point (Bz ~ 64 mT)
    ring = draw(st.booleans())
    spans = ((30.0, 90.0, 160.0),) * 2 + ((-10.0, -1.0, 12.0),) if ring else \
        ((-20.0, 10.0, 40.0),) * 2 + ((45.0, 62.0, 40.0),)
    axes, start = [], []
    for low, high, widest in spans:
        first = draw(st.floats(low, high)) * (draw(st.sampled_from((1.0, -1.0))) if ring else 1.0)
        count = draw(st.sampled_from((1, 3, 5, 7)))
        last = first + draw(st.floats(2.0, widest)) if count > 1 else first
        axes.append(AxisGrid(first, last, count))
        start.append(draw(st.floats(first, last)))
    bounds = FieldGrid(*axes)
    if not bounds.free_axes():
        bounds = FieldGrid(axes[0], axes[1], AxisGrid(start[2] - 5.0, start[2] + 5.0, 5))
    return params, TransitionSelector("ground", *pair), tuple(start), bounds


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(box_cases())
def test_every_reported_point_is_stationary_along_the_free_axes(case):
    # each point lies in the box, its lab gradient is within tol along the
    # box's free axes, and each stationary ring is reported once: a ring
    # row's C has the azimuth as an eigenvector of eigenvalue
    # (1/B_perp) dw/dB_perp / 2, so at most 500 tol / B_perp kHz/mT^2, and
    # its signature reads 0 there. A box whose x-y extent is a segment off
    # the axis also reports points at the segment's foot, 0 on its free
    # transverse axis, with the diagonal signature
    params, sel, start, bounds = case
    tol = 1e-6
    points = zefoz_search(params, sel, start, bounds, tol)
    free = bounds.free_axes()
    transverse = [k for k in (0, 1) if k in free]
    segment = len(transverse) == 1 and bounds.axis(1 - transverse[0]).start != 0.0
    frames = []
    for z in points:
        assert bounds.contains(z.field)
        assert z.gradient_residual <= tol
        gradient = frequency_gradient(params, z.field, sel)
        assert not gradient.flagged
        assert np.all(np.abs(gradient.vector[free]) <= tol)
        b_perp = np.hypot(*z.field[:2])
        frames.append((b_perp, z.field[2]))
        foot = segment and z.field[transverse[0]] == 0.0
        if transverse and not foot and b_perp >= fieldmap.MERGE_DISTANCE:
            azimuth = np.array([-z.field[1], z.field[0], 0.0]) / b_perp
            flat = 500.0 * tol / b_perp + 1e-6
            assert np.all(np.abs(z.curvature_matrix @ azimuth) <= flat)
            assert 0 in z.hessian_signature
            assert list(z.hessian_signature) == sorted(z.hessian_signature)
        else:
            assert z.hessian_signature == tuple(
                int(np.sign(round(c, 6))) for c in np.diag(z.curvature_matrix))
    for k, one in enumerate(frames):
        for other in frames[k + 1:]:
            assert max(abs(one[0] - other[0]), abs(one[1] - other[1])) >= fieldmap.MERGE_DISTANCE


def test_search_validates_inputs(nd_ground, clock_selector, search_bounds):
    with pytest.raises(InvalidParameterError):
        zefoz_search(nd_ground, clock_selector, (0.0, 0.0, 200.0), search_bounds)
    # a NaN tol would pass no seed, and an infinite one would pass the start
    for tol in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="tol must be positive and finite"):
            zefoz_search(nd_ground, clock_selector, (0.0, 0.0, 50.0), search_bounds, tol=tol)
    # a one-point axis holds its start, whatever its stop
    one_point = FieldGrid(AxisGrid(0.0, 5.0, 1), AxisGrid(0.0, 0.0, 1), AxisGrid(30.0, 100.0, 36))
    assert one_point.contains(np.array([0.0, 0.0, 50.0]))
    with pytest.raises(InvalidParameterError, match="outside the search bounds"):
        zefoz_search(nd_ground, clock_selector, (3.0, 0.0, 50.0), one_point)


def newton_from_search_seeds(params, sel, start, bounds, max_iter=60):
    """Run the lockstep Newton stage from the seed frames ``zefoz_search``
    takes and the per-seed oracle from each of them; check that every
    endpoint matches bit for bit, in seed order, and return the oracle's
    (endpoint or None, clipped) per seed."""
    free = fieldmap._frame_free(bounds)
    seeds = fieldmap._search_seeds(params, sel, fieldmap.as_field(start), bounds, free)
    region = fieldmap._half_plane(bounds)
    got = fieldmap._newton_refine(params, sel, seeds, region, free, 1e-6, max_iter)
    oracle = [newton_refine_oracle(params, sel, seed, region, free, 1e-6, max_iter)
              for seed in seeds]
    assert len(got) == len(oracle)
    for point, (expected, _) in zip(got, oracle):
        if expected is None:
            assert point is None
            continue
        for name in expected._fields:
            assert np.asarray(getattr(point, name)).tobytes() == \
                np.asarray(getattr(expected, name)).tobytes()
    return oracle


@st.composite
def newton_cases(draw):
    """An Nd-like ground ion (each constant scaled by 0.9-1.1), a level
    pair, a 3-D or 1-D box and a start inside it."""
    scaled = {key: ND_GROUND[key] * draw(st.floats(0.9, 1.1))
              for key in ("g_par", "g_perp", "A", "B_hf")}
    params = SpinParams(**{**ND_GROUND, **scaled, "P": draw(st.floats(-5.0, 5.0))})
    pair = draw(st.just((8, 10)) | st.lists(st.integers(1, 16), min_size=2, max_size=2,
                                             unique=True).map(sorted))
    z_lo = draw(st.floats(0.0, 80.0))
    z_hi = z_lo + draw(st.floats(10.0, 60.0))
    if draw(st.booleans()):
        dx, dy = draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0))
        bounds = FieldGrid(AxisGrid(-dx, dx, 3), AxisGrid(-dy, dy, 3), AxisGrid(z_lo, z_hi, 16))
    else:
        bounds = FieldGrid(AxisGrid(0.0, 0.0, 1), AxisGrid(0.0, 0.0, 1), AxisGrid(z_lo, z_hi, 36))
    start = (0.0, 0.0, draw(st.floats(z_lo, z_hi)))
    max_iter = draw(st.sampled_from((60, 60, 2)))
    return params, TransitionSelector("ground", *pair), start, bounds, max_iter


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(newton_cases())
def test_lockstep_newton_matches_the_per_seed_oracle(case):
    newton_from_search_seeds(*case)


def test_lockstep_newton_keeps_failed_and_clipped_seeds_apart(nd_ground):
    # in this box some seeds of the (2, 3) pair converge and others stop
    # short of tol, and trial frames are clipped into its region on the
    # way to both
    bounds = FieldGrid(AxisGrid(-1.2, 1.2, 3), AxisGrid(-1.2, 1.2, 3), AxisGrid(23.0, 38.0, 26))
    oracle = newton_from_search_seeds(
        nd_ground, TransitionSelector("ground", 2, 3), (0.0, 0.0, 34.0), bounds
    )
    assert any(point is None and clipped for point, clipped in oracle)
    assert any(point is not None and clipped for point, clipped in oracle)
    assert any(point is not None and not clipped for point, clipped in oracle)


def test_stacked_newton_steps_match_the_per_seed_step():
    # regular, near-singular, singular, zero, NaN and infinite Jacobians
    # and a NaN gradient in one stack: each seed gets the bits of its own
    # step, the diagonal fallback included
    rng = np.random.default_rng(4)
    for k in (1, 2, 3):
        jac = rng.normal(size=(12, k, k)) * 100.0
        jac = jac + jac.transpose(0, 2, 1)
        grad = rng.normal(size=(12, k))
        jac[1] = np.outer(jac[1, 0], jac[1, 0]) + 1e-12 * np.eye(k)
        jac[2] = np.outer(jac[2, 0], jac[2, 0])
        jac[3] = 0.0
        jac[4, 0, 0] = np.nan
        jac[5, -1, 0] = np.inf
        jac[6] = np.diag(np.arange(1.0, k + 1.0))
        grad[7, 0] = np.nan
        steps = fieldmap._newton_steps(jac, grad)
        for j, g, step in zip(jac, grad, steps):
            assert step.tobytes() == newton_step_oracle(j, g).tobytes()
        assert fieldmap._newton_steps(jac[:0], grad[:0]).shape == (0, k)


def test_quadratic_model_verified_on_probe_grid(nd_ground, clock_selector, zefoz_point):
    # the returned curvatures must reproduce the exact frequency within
    # 0.05 MHz everywhere inside a 2 mT ball, probed on a 5x5x5 lattice
    axis = np.linspace(-2.0, 2.0, 5)
    worst = 0.0
    for dx in axis:
        for dy in axis:
            for dz in axis:
                offset = np.array([dx, dy, dz])
                if np.linalg.norm(offset) > 2.0:
                    continue
                exact = frequency_at(
                    nd_ground, zefoz_point.field + offset, clock_selector
                )
                worst = max(worst, abs(quadratic_model(zefoz_point, offset) - exact))
    assert worst < 0.05


def test_level_diagram_single_point_matches_diagonalize(nd_ground):
    grid = FieldGrid(
        x=AxisGrid(0.0, 0.0, 1), y=AxisGrid(0.0, 0.0, 1), z=AxisGrid(63.6, 63.6, 1)
    )
    diagram = level_diagram(nd_ground, grid)
    direct = ion_levels(nd_ground, (0.0, 0.0, 63.6)).energies
    assert np.allclose(diagram.energies[0], direct, atol=1e-12)


def test_level_diagram_tracking_is_grid_stable(nd_ground):
    # identity tracking on a coarse grid must agree with a 10x denser one
    coarse_grid = FieldGrid(
        x=AxisGrid(0.0, 0.0, 1), y=AxisGrid(0.0, 0.0, 1), z=AxisGrid(0.0, 100.0, 201)
    )
    dense_grid = FieldGrid(
        x=AxisGrid(0.0, 0.0, 1), y=AxisGrid(0.0, 0.0, 1), z=AxisGrid(0.0, 100.0, 2001)
    )
    coarse = level_diagram(nd_ground, coarse_grid)
    dense = level_diagram(nd_ground, dense_grid)
    assert not coarse.low_overlap.any()
    assert np.allclose(coarse.energies, dense.energies[::10], atol=1e-9)


def test_level_diagram_excited_slope_bound(nd_ion):
    # every excited-level slope is bounded by |g_par|*mu_B/2
    grid = FieldGrid(
        x=AxisGrid(0.0, 0.0, 1), y=AxisGrid(0.0, 0.0, 1), z=AxisGrid(0.0, 100.0, 201)
    )
    diagram = level_diagram(nd_ion.excited, grid)
    step = 100.0 / 200
    slopes = np.abs(np.diff(diagram.energies, axis=0)) / step
    assert slopes.max() <= 0.18 * 14.0 / 2.0 + 1e-9


def test_level_diagram_requires_one_axis(nd_ground):
    grid = FieldGrid(
        x=AxisGrid(0.0, 1.0, 5), y=AxisGrid(0.0, 0.0, 1), z=AxisGrid(0.0, 1.0, 5)
    )
    with pytest.raises(InvalidParameterError):
        level_diagram(nd_ground, grid)


def _scan(axis: str, start: float, stop: float, count: int) -> FieldGrid:
    axes = {name: AxisGrid(0.0, 0.0, 1) for name in "xyz"}
    axes[axis] = AxisGrid(start, stop, count)
    return FieldGrid(**axes)


def _perturbed_case(seed: int):
    """A seeded Nd-like ion (each constant scaled within 10%, |P| <= 5 MHz)
    scanned along a seeded axis."""
    rng = np.random.default_rng(seed)

    def manifold(base: dict) -> SpinParams:
        values = dict(base)
        for key in ("g_par", "g_perp", "A", "B_hf"):
            values[key] *= rng.uniform(0.9, 1.1)
        values["P"] = rng.uniform(-5.0, 5.0)
        return SpinParams(**values)

    ion = IonParams(ground=manifold(ND_GROUND), excited=manifold(ND_EXCITED))
    axis = "xyz"[rng.integers(3)]
    return ion.ground, _scan(axis, 0.0, 100.0, 201), 0.6


_GROUND, _EXCITED = SpinParams(**ND_GROUND), SpinParams(**ND_EXCITED)
# (manifold parameters, grid, low-overlap threshold); the 0.99 cases run
# with fieldmap.OVERLAP_THRESHOLD patched, the others with its value 0.6
TRACKING_CASES = {
    "readme-x": lambda: (_GROUND, _scan("x", 0.0, 100.0, 201), 0.6),
    "readme-y": lambda: (_GROUND, _scan("y", 0.0, 100.0, 201), 0.6),
    "readme-z": lambda: (_GROUND, _scan("z", 0.0, 100.0, 201), 0.6),
    "readme-z-1001": lambda: (_GROUND, _scan("z", 0.0, 100.0, 1001), 0.6),
    "excited": lambda: (_EXCITED, _scan("z", 0.0, 100.0, 201), 0.6),
    "spin-half": lambda: (
        SpinParams(**{**ND_GROUND, "nuclear_spin": 0.5}), _scan("x", 0.0, 100.0, 201), 0.6,
    ),
    "quadrupole": lambda: (
        SpinParams(**{**ND_GROUND, "P": 3.0}), _scan("y", 0.0, 100.0, 201), 0.6,
    ),
    "coarse-x": lambda: (_GROUND, _scan("x", 0.0, 100.0, 11), 0.6),
    "perturbed-1": lambda: _perturbed_case(1),
    "perturbed-2": lambda: _perturbed_case(2),
    "perturbed-3": lambda: _perturbed_case(3),
    "threshold-0.99-z": lambda: (_GROUND, _scan("z", 0.0, 100.0, 201), 0.99),
    "threshold-0.99-x": lambda: (_GROUND, _scan("x", 0.0, 100.0, 201), 0.99),
    # the field's azimuth jumps where a scan passes through zero, and
    # turns at every step of a line that misses the z axis
    "through-zero-x": lambda: (_GROUND, _scan("x", -50.0, 50.0, 201), 0.6),
    "through-zero-y": lambda: (_GROUND, _scan("y", -50.0, 50.0, 201), 0.6),
    "offset-x": lambda: (_GROUND, FieldGrid(AxisGrid(-50.0, 50.0, 11), AxisGrid(5.0, 5.0, 1),
                                            AxisGrid(0.0, 0.0, 1)), 0.6),
    "offset-y": lambda: (_GROUND, FieldGrid(AxisGrid(3.0, 3.0, 1), AxisGrid(-50.0, 50.0, 101),
                                            AxisGrid(0.0, 0.0, 1)), 0.6),
}


@pytest.mark.parametrize("case", TRACKING_CASES)
def test_level_tracking_matches_full_assignment_oracle(case, monkeypatch):
    params, grid, threshold = TRACKING_CASES[case]()
    if threshold != 0.6:
        monkeypatch.setattr(fieldmap, "OVERLAP_THRESHOLD", threshold)
    diagram = level_diagram(params, grid)
    energies, flags = tracked_levels(params, grid, threshold)
    assert np.array_equal(diagram.energies, energies)
    assert np.array_equal(diagram.low_overlap, flags)


def test_level_tracking_solves_the_assignment_only_without_a_clear_argmax(nd_ion, monkeypatch):
    calls = []
    original = fieldmap._min_cost_assignment

    def counting(cost):
        calls.append(cost.shape)
        return original(cost)

    monkeypatch.setattr(fieldmap, "_min_cost_assignment", counting)
    level_diagram(nd_ion.ground, _scan("z", 0.0, 100.0, 201))
    assert calls == []
    # a transverse field from zero starts inside the degenerate doublets
    level_diagram(nd_ion.ground, _scan("x", 0.0, 100.0, 201))
    assert calls


def _assignment_cases(d: int, rng):
    """Cost matrices: minus the overlaps |<a|b>| of two nearby orthonormal
    bases, uniform non-negative numbers, and small integers, which tie."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    first, _ = np.linalg.qr(a)
    second, _ = np.linalg.qr(a + 0.5 * rng.normal(size=(d, d)))
    yield "overlap", -np.abs(first.conj().T @ second)
    yield "uniform", rng.uniform(0.0, 1.0, size=(d, d))
    yield "integer", rng.integers(0, 3, size=(d, d)).astype(float)


@pytest.mark.parametrize("d", [2, 16, 64])
def test_min_cost_assignment_matches_linear_sum_assignment(d):
    rng = np.random.default_rng(d)
    for _ in range(5):
        for kind, cost in _assignment_cases(d, rng):
            rows, cols = scipy.optimize.linear_sum_assignment(cost)
            order = fieldmap._min_cost_assignment(cost)
            assert sorted(order) == list(range(d))
            assert cost[rows, order].sum() == pytest.approx(cost[rows, cols].sum(), abs=1e-12)
            if kind != "integer":  # continuous entries: the optimum is unique
                assert np.array_equal(order, cols)


@st.composite
def symmetry_scans(draw):
    """An Nd-like ground ion (each constant scaled by 0.9-1.1, I from 1/2 to
    7/2) and a scan along one axis that does not pass through zero."""
    scaled = {key: ND_GROUND[key] * draw(st.floats(0.9, 1.1))
              for key in ("g_par", "g_perp", "A", "B_hf")}
    params = SpinParams(**{**ND_GROUND, **scaled, "P": draw(st.floats(-5.0, 5.0)),
                           "nuclear_spin": draw(st.sampled_from([0.5, 1.5, 2.5, 3.5]))})
    start = draw(st.sampled_from([0.0, 5.0, 20.0]))
    stop = start + draw(st.floats(20.0, 80.0))
    axis = draw(st.sampled_from("xyz"))
    return params, axis, _scan(axis, start, stop, draw(st.integers(21, 61)))


def _symmetry_operator(params: SpinParams, axis: str) -> np.ndarray:
    """F_z for a z scan, else the rotation exp(i pi F_axis), which commutes
    with H for a field along that axis; F = I + S."""
    def total(a):
        nuclear = spin_matrices(params.nuclear_spin)[a]
        electron = spin_matrices(params.electron_spin)[a]
        return np.kron(nuclear, np.eye(len(electron))) + np.kron(np.eye(len(nuclear)), electron)

    k = "xyz".index(axis)
    return total(2) if axis == "z" else scipy.linalg.expm(1j * np.pi * total(k))


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(symmetry_scans())
def test_tracked_levels_keep_their_symmetry_label(case):
    # F_z commutes with H on the z axis, and exp(i pi F_x) with H on the
    # x axis: tracking must keep each level in its symmetry sector. A
    # level within DEGENERACY_GAP of another has no label and is skipped.
    params, axis, grid = case
    operator = _symmetry_operator(params, axis)
    diagram = level_diagram(params, grid)
    labels = np.full(diagram.energies.shape, np.nan, dtype=complex)
    for k, (field, row) in enumerate(zip(diagram.field_points, diagram.energies)):
        levels = ion_levels(params, field)
        for column, energy in enumerate(row):
            distance = np.abs(levels.energies - energy)
            n = int(np.argmin(distance))
            if np.partition(distance, 1)[1] < DEGENERACY_GAP:
                continue
            vector = levels.eigenvectors[:, n]
            labels[k, column] = vector.conj() @ operator @ vector
    checked = ~np.isnan(labels)
    assert checked.sum() >= labels.shape[1]
    for column in range(labels.shape[1]):
        track = labels[checked[:, column], column]
        if len(track):
            # an eigenvalue of the symmetry (an integer m_F, or a unit-modulus
            # phase), the same all along the track
            assert np.allclose(track, track[0], atol=1e-6)
            if axis == "z":
                assert abs(track[0] - round(track[0].real)) < 1e-6
            else:
                assert abs(abs(track[0]) - 1.0) < 1e-6
