"""Transition frequencies versus magnetic field: gradients, curvatures,
stationary-point (ZEFOZ) search and the quadratic field model.

Conventions
-----------
* Frequencies in MHz, fields in mT.
* ``frequency_gradient`` returns MHz/mT.
* ``ZefozPoint.curvature_matrix`` is the coefficient matrix C (kHz/mT^2)
  of the quadratic expansion  w(B0+d) ~= w(B0) + grad.d + d^T C d at a
  stationary point, i.e. HALF the plain second-derivative matrix, and the
  one copy of it: ``ZefozPoint.curvatures`` (S2x, S2y, S2z) is its
  diagonal, and ``quadratic_model`` reads C whole.

Derivatives
-----------
H(B) = H0 + sum_i B_i M_i is linear in the field, so one eigensystem
{E_m, |m>} at B gives every derivative of a level n exactly:

    dE_n/dB_a          = <n|M_a|n>                      (Hellmann-Feynman)
    d2E_n/dB_a dB_b    = 2 Re sum_m <n|M_a|m><m|M_b|n> / (E_n - E_m)

The sum leaves out every m with |E_n - E_m| < ``DEGENERACY_GAP``, n
itself included. A transition's gradient and C follow as the differences
of its two levels' values; C is half that Hessian, in kHz. A gradient
is flagged where a connected level lies within ``DEGENERACY_GAP`` of a
neighbour (its slope then depends on the eigensolver's basis, e.g. at a
Kramers doublet at B = 0), and the search drops a flagged endpoint.

Each eigensystem is taken in its field's azimuthal frame (``spins``),
where the field is (B_perp, 0, Bz), the vectors, M_x and M_z are real and
M_y is imaginary, so the y slope and the xy and yz Hessian entries vanish.
A transition's frame slope and Hessian turn back to the lab as a vector
and as R(phi) H R(phi)^T.

H is axial, so the frame matrix H(B_perp, 0, Bz) does not depend on the
azimuth. ``_frame_transition`` is the one route from a stack of frames
to transition derivatives: each manifold diagonalizes each frame once,
equal bit for bit in any stack, at most ``BLOCK`` frames per call. A
level diagram takes one eigensystem per field, ``BLOCK`` fields per call.

Stationary points
-----------------
The frequency depends on (B_perp, Bz) only, and is even in Bz, so each
stationary point lies on the z axis or on a ring about it, where it is
stationary in B_perp and Bz and flat along the azimuth: the azimuthal
curvature is (1/B_perp) dw/dB_perp. ``zefoz_search`` works in those
frame coordinates. It scans the box's distinct frames, seeds Newton at
the sign changes of the frame slopes, refines every seed in lockstep on
the 1 x 1 or 2 x 2 frame Hessian, clipped into the box's half-plane
region, merges the endpoints in (B_perp, Bz) and turns each kept one into
the lab once: an axis point, or a ring reported once at its point in the
box nearest the start, with a signature from C's eigenvalues whose flat
azimuthal direction reads 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .spins import (  # noqa: F401 - perfbench reads fieldmap.ion_levels
    AxisGrid,
    FieldGrid,
    IonParams,
    SpinParams,
    _axial_eigensystems,
    _azimuthal_frames,
    _azimuthal_phases,
    as_field,
    as_fields,
    as_integer,
    ion_levels,
)

MANIFOLDS = ("ground", "excited", "optical")
# Frames (or level-diagram fields) per stacked diagonalization: enough to
# amortize the per-call overhead, few enough that the eigensolver's
# temporaries (tens of kB per 16x16 frame) stay small on a large grid.
BLOCK = 64
# Newton endpoints closer than this (mT, in every component) are one point.
MERGE_DISTANCE = 1e-3
# Newton iterations a search seed takes at most before it is given up.
NEWTON_ITERATIONS = 60
# Levels closer than this (MHz) form one degenerate cluster: the Hessian sum
# leaves them out and a gradient with a connected level there is flagged.
DEGENERACY_GAP = 1e-3
# A level-tracking step whose every row has an overlap above this follows
# the row argmaxes; any value above 1/sqrt(2) ~ 0.7071 makes them the
# unique best assignment, and the margin absorbs round-off in the overlaps.
ARGMAX_OVERLAP = 0.75
# A level-diagram step whose smallest assigned overlap falls below this is
# flagged in ``LevelDiagram.low_overlap``.
OVERLAP_THRESHOLD = 0.6


@dataclass(frozen=True)
class TransitionSelector:
    """Pick a level pair: within one manifold, or one optical line.

    For ``manifold="optical"``, ``level_i`` is the ground label and
    ``level_j`` the excited label.
    """

    manifold: str
    level_i: int
    level_j: int

    def __post_init__(self):
        if self.manifold not in MANIFOLDS:
            raise InvalidParameterError(
                f"manifold must be one of {MANIFOLDS}, got {self.manifold!r}"
            )
        if min(as_integer(self.level_i, "level_i"), as_integer(self.level_j, "level_j")) < 1:
            raise InvalidParameterError("level labels are 1-based positive integers")
        if self.manifold != "optical" and self.level_i == self.level_j:
            raise InvalidParameterError("same-manifold selector needs two distinct levels")


@dataclass(frozen=True)
class GradientResult:
    """Field gradient of a transition frequency (MHz/mT).

    ``vector`` is the Hellmann-Feynman value. ``min_gap`` (MHz) is the
    smallest gap from either level of the pair to its nearer neighbour;
    ``flagged`` reads whether it is below ``DEGENERACY_GAP``: ``vector`` then
    depends on the basis the eigensolver picked inside a degenerate cluster.
    """

    vector: np.ndarray
    min_gap: float

    @property
    def flagged(self) -> bool:
        return self.min_gap < DEGENERACY_GAP


@dataclass(frozen=True)
class ZefozPoint:
    """A stationary point of a transition frequency in field space, or one
    point of a stationary ring about the z axis (see ``zefoz_search``).

    ``curvature_matrix`` is the 3x3 quadratic coefficient matrix C in
    kHz/mT^2; ``curvatures`` reads its diagonal (S2x, S2y, S2z).
    ``hessian_signature`` is a sign triple (-1, 0, +1): of the diagonal for
    a point, of the eigenvalues in ascending order for a ring, whose flat
    azimuthal direction reads 0. ``gradient_residual`` (MHz/mT) is the
    largest free frame slope, dw/dB_perp or dw/dBz, at the endpoint.
    """

    field: np.ndarray
    omega0: float
    gradient_residual: float
    hessian_signature: tuple[int, int, int]
    curvature_matrix: np.ndarray
    selector: TransitionSelector

    @property
    def curvatures(self) -> np.ndarray:
        return np.diag(self.curvature_matrix)

    @property
    def signature_string(self) -> str:
        return ",".join({1: "+", 0: "0", -1: "-"}[s] for s in self.hessian_signature)


def _split_params(params, sel: TransitionSelector):
    """Resolve which SpinParams serve the selector's manifold(s)."""
    if sel.manifold == "optical":
        if not isinstance(params, IonParams):
            raise InvalidParameterError("optical selector requires IonParams")
        return params.ground, params.excited
    if isinstance(params, IonParams):
        params = getattr(params, sel.manifold)
    return params, None


def _check_labels(sel: TransitionSelector, dim_i: int, dim_j: int):
    if sel.level_i > dim_i or sel.level_j > dim_j:
        raise InvalidParameterError(
            f"selector labels ({sel.level_i}, {sel.level_j}) exceed manifold "
            f"dimensions ({dim_i}, {dim_j})"
        )


def _frame_derivatives(params: SpinParams, b_perp: np.ndarray, bz: np.ndarray,
                       idx: np.ndarray, hessian: bool):
    """Energies (U, L) of the levels ``idx`` (0-based) in each frame
    (B_perp, 0, Bz) of 1-D stacks ``b_perp`` and ``bz`` (U,), diagonalized
    ``BLOCK`` frames per call, their frame slopes <n|M_i|n> (U, L, 3), the
    gap (U, L) from each level to its nearer neighbour, with ``hessian``
    the frame Hessians (U, L, 3, 3) of the perturbation sum, which leaves
    out every level m closer than ``DEGENERACY_GAP`` to n, else None, and
    the real frame vectors (U, L, d) of the levels. The couplings come from
    stacked products with one small matrix product per frame, level and
    axis, so every frame gets the same bits whatever stack it sits in."""
    zeeman = params.linear_terms.zeeman
    # M_x and M_z are real and M_y imaginary: (M_x, M_y / i, M_z)
    real_zeeman = zeeman.real + zeeman.imag
    blocks = []
    for start in range(0, len(b_perp) or 1, BLOCK):  # an empty stack is one empty block
        block = slice(start, start + BLOCK)
        energies, vectors = _axial_eigensystems(params, b_perp[block], bz[block])
        spacing = np.full((len(energies), energies.shape[1] + 1), np.inf)  # E_k - E_(k-1)
        np.subtract(energies[:, 1:], energies[:, :-1], out=spacing[:, 1:-1])
        gap = np.minimum(spacing[:, idx], spacing[:, idx + 1])
        kets = vectors.transpose(0, 2, 1)[:, idx]  # |n>, (U, L, d)
        bras = (kets[:, :, None, None, :] @ real_zeeman)[:, :, :, 0]  # (U, L, 3, d)
        coupling = bras @ vectors[:, None]  # <n|M_x|m>, <n|M_y|m>/i, <n|M_z|m>, (U, L, 3, d)
        own = coupling[:, np.arange(len(idx)), :, idx].transpose(1, 0, 2)  # (U, L, 3)
        own[..., 1] = 0.0  # <n|M_y|n> of a real |n>: i times an antisymmetric form
        frame = None
        if hessian:
            split = energies[:, idx, None] - energies[:, None, :]  # E_n - E_m, (U, L, d)
            weight = np.divide(
                1.0, split, out=np.zeros_like(split), where=np.abs(split) >= DEGENERACY_GAP
            )
            weighted = coupling * weight[:, :, None, :]
            frame = 2.0 * (weighted @ coupling.swapaxes(2, 3))
            frame[..., 1, ::2] = frame[..., ::2, 1] = 0.0  # real times imaginary
        blocks.append((energies[:, idx], own, gap, frame, kets))
    if len(blocks) == 1:
        return blocks[0]
    return [None if parts[0] is None else np.concatenate(parts) for parts in zip(*blocks)]


class _Transition(NamedTuple):
    """Frequency (N,) in MHz of the selected transition in each frame of a
    stack, its Hellmann-Feynman slope (N, 3) in MHz/mT, the smallest gap
    (N,) in MHz from either level to its nearer neighbour, its Hessian
    (N, 3, 3) in MHz/mT^2 or None, and the real frame vectors (N, d) of its
    lower and upper level."""

    frequency: np.ndarray
    slope: np.ndarray
    min_gap: np.ndarray
    hessian: np.ndarray | None
    kets: tuple[np.ndarray, np.ndarray]


def _frame_transition(params, sel: TransitionSelector, b_perp: np.ndarray, bz: np.ndarray,
                      hessian: bool) -> _Transition:
    """E_j - E_i and its slopes, with ``hessian`` also its Hessians, in each
    frame (B_perp, 0, Bz) of 1-D stacks ``b_perp`` and ``bz`` (U,): slopes
    and Hessians in frame axes, the differences of the two levels' values
    from ``_frame_derivatives``, so every frame gets the same bits whatever
    stack it sits in. The frame x axis is the B_perp direction: on the z
    axis (B_perp = 0) it is the lab x axis and these are the lab values."""
    p_i, p_j = _split_params(params, sel)
    _check_labels(sel, p_i.dimension, (p_j or p_i).dimension)
    if p_j is None:
        pair = _frame_derivatives(p_i, b_perp, bz, np.array([sel.level_i, sel.level_j]) - 1,
                                  hessian)
        lower, upper = ([None if part is None else part[:, k] for part in pair] for k in (0, 1))
    else:
        lower, upper = ([None if part is None else part[:, 0]
                         for part in _frame_derivatives(p, b_perp, bz, np.array([label - 1]),
                                                        hessian)]
                        for p, label in ((p_i, sel.level_i), (p_j, sel.level_j)))
    return _Transition(upper[0] - lower[0], upper[1] - lower[1], np.minimum(lower[2], upper[2]),
                       upper[3] - lower[3] if hessian else None, (lower[4], upper[4]))


def _turns(azimuth: np.ndarray) -> np.ndarray:
    """Rotations R(phi) about z (N, 3, 3) of azimuths (N, 2) = (cos, sin):
    R turns frame slopes (R s) and Hessians (R H R^T) back to the lab."""
    cos, sin = azimuth[:, 0], azimuth[:, 1]
    turn = np.zeros((len(azimuth), 3, 3))
    turn[:, 0, 0] = turn[:, 1, 1] = cos
    turn[:, 1, 0], turn[:, 0, 1], turn[:, 2, 2] = sin, -sin, 1.0
    return turn


def transition_frequencies(params, fields, sel: TransitionSelector) -> np.ndarray:
    """Frequencies E_j - E_i (MHz) at each field of a stack (N, 3), each
    the same bits as in a one-field stack.

    Optical selectors return E_excited - E_ground. ``params`` may be a
    SpinParams (same-manifold selectors) or an IonParams (required for
    optical).
    """
    fields = as_fields(fields)
    b_perp, _ = _azimuthal_frames(fields)
    return _frame_transition(params, sel, b_perp, fields[:, 2], False).frequency


def frequency_gradient(params, field, sel: TransitionSelector) -> GradientResult:
    """Gradient of the selected transition frequency (MHz/mT).

    The Hellmann-Feynman difference <j|M|j> - <i|M|i> on the eigenstates at
    ``field``, one diagonalization per manifold. Flagged where a connected
    level lies closer than ``DEGENERACY_GAP`` MHz to a neighbour: the value
    then depends on the eigensolver's basis inside the degenerate cluster.
    """
    fields = as_field(field)[None]
    b_perp, azimuth = _azimuthal_frames(fields)
    state = _frame_transition(params, sel, b_perp, fields[:, 2], False)
    min_gap = float(state.min_gap[0])
    vector = (_turns(azimuth) @ state.slope[..., None])[..., 0]  # back to the lab
    return GradientResult(vector=vector[0], min_gap=min_gap)


def _curvature_matrix(hessian: np.ndarray) -> np.ndarray:
    return hessian / 2.0 * 1000.0  # half-convention, MHz -> kHz


def quadratic_model(z: ZefozPoint, delta_field) -> float:
    """w0 + d^T C d, C converted from kHz to MHz."""
    d = np.asarray(delta_field, dtype=float)
    return float(z.omega0 + np.sum(z.curvature_matrix * 1e-3 * np.outer(d, d)))


def _newton_steps(jac: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton steps -jac^-1 grad of stacks jac (N, k, k) and grad (N, k), or
    coordinate descent on the diagonal curvature where a ``jac`` is not
    finite, singular or near it (condition number above 1e10; an LU zero
    pivot needs one of order 1/eps, so ``solve`` sees only what it factors)."""
    diag = np.diagonal(jac, axis1=1, axis2=2)
    steps = -grad / np.where(np.abs(diag) > 1e-12, diag, np.inf)
    solvable = np.all(np.isfinite(jac), axis=(1, 2))
    solvable[solvable] = np.linalg.cond(jac[solvable]) <= 1e10
    steps[solvable] = np.linalg.solve(jac[solvable], -grad[solvable, :, None])[..., 0]
    return steps


class _Endpoint(NamedTuple):
    """Where one search seed's Newton run ended, in frame coordinates: the
    frame (B_perp, 0, Bz), its frequency (MHz), gradient residual (MHz/mT)
    and frame Hessian (3, 3) in MHz/mT^2."""

    frame: np.ndarray
    frequency: float
    residual: float
    hessian: np.ndarray


def _newton_refine(
    params,
    sel: TransitionSelector,
    seeds: np.ndarray,
    region: tuple[np.ndarray, np.ndarray],
    free: list[int],
    tol: float,
    max_iter: int,
) -> list[_Endpoint | None]:
    """Damped Newton root-finding on the free frame slopes (``free`` holds
    0 for B_perp and 2 for Bz) from every seed frame (N, 3) in lockstep.
    With no free coordinate (a box's foot at a fixed Bz) each seed is its
    own endpoint, with residual 0.

    Each evaluation gives the slope, the next Jacobian (the frame Hessian's
    free entries) and, at the endpoint, the frequency and the Hessian. An
    iteration evaluates the trial frames of all live seeds in one
    ``_frame_transition`` stack; a damping retry re-evaluates, again as one
    stack, only the seeds whose slope did not shrink. Every trial frame is
    clipped into ``region``, the (lower, upper) frame corners. A seed stops
    once its slope is within ``tol``, when no damped step shrinks it, or
    after ``max_iter`` iterations. A frame's result does not depend on the
    stack it sits in, so every seed takes the steps it would take alone.
    Returns, in seed order, each converged endpoint or None, also where its
    gradient is flagged (a degenerate level, e.g. the kink at B = 0).
    """
    points = np.array(seeds, dtype=float)
    start, stop = region[0][free], region[1][free]
    state = _frame_transition(params, sel, points[:, 0], points[:, 2], True)
    frequency, hessian = state.frequency, state.hessian
    grad = state.slope[:, free]
    norm = np.max(np.abs(grad), axis=1, initial=0.0)  # 0 with no free coordinate
    flagged = state.min_gap < DEGENERACY_GAP
    failed = np.zeros(len(points), dtype=bool)
    live = np.arange(len(points))
    for _ in range(max_iter):
        live = live[~(norm[live] <= tol)]  # a NaN norm goes on, to fail at its step
        if len(live) == 0:
            break
        jac = hessian[np.ix_(live, free, free)]  # MHz/mT^2
        delta = _newton_steps(jac, grad[live])
        finite = np.all(np.isfinite(delta), axis=1)
        failed[live[~finite]] = True
        live, delta = live[finite], delta[finite]
        # damping: each seed takes the first step that shrinks its gradient norm
        pending = np.ones(len(live), dtype=bool)
        for damp in (1.0, 0.5, 0.25, 0.125, 0.0625):
            trying = live[pending]
            if len(trying) == 0:
                break
            trial = points[trying]
            moved = trial[:, free] + damp * delta[pending]
            moved = np.where(start > moved, start, moved)  # clip into the region
            trial[:, free] = np.where(stop < moved, stop, moved)
            trial_state = _frame_transition(params, sel, trial[:, 0], trial[:, 2], True)
            trial_grad = trial_state.slope[:, free]
            trial_norm = np.max(np.abs(trial_grad), axis=1)
            better = trial_norm < norm[trying]
            took = trying[better]
            points[took] = trial[better]
            frequency[took] = trial_state.frequency[better]
            hessian[took] = trial_state.hessian[better]
            grad[took] = trial_grad[better]
            norm[took] = trial_norm[better]
            flagged[took] = trial_state.min_gap[better] < DEGENERACY_GAP
            pending[pending] = ~better
        live = live[~pending]  # no damped step helped: the seed stops
    keep = ~(failed | flagged) & (norm <= tol)
    return [_Endpoint(points[s], float(frequency[s]), float(norm[s]), hessian[s])
            if keep[s] else None for s in range(len(points))]


def _half_plane(bounds: FieldGrid) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper frame corners (B_perp, 0, Bz) of the region a box
    covers: B_perp from the box's nearest to its farthest distance from the
    z axis (a circle about the axis meets the box exactly when its radius
    lies between them), Bz over the box's z range."""
    spans = (bounds.x.span, bounds.y.span)
    near = [0.0 if low <= 0.0 <= high else min(abs(low), abs(high)) for low, high in spans]
    far = [max(abs(low), abs(high)) for low, high in spans]
    z_low, z_high = bounds.z.span
    return np.array([np.hypot(*near), 0.0, z_low]), np.array([np.hypot(*far), 0.0, z_high])


def _line_foot(bounds: FieldGrid) -> FieldGrid | None:
    """The sub-box at the foot of the perpendicular from the z axis to a
    box whose x-y extent is a segment off the axis: one of x, y free with
    its range through 0, the other fixed at c != 0. There, at B_perp = |c|,
    the slope along the segment vanishes by symmetry whatever dw/dB_perp,
    so the foot (the free axis held at 0) is searched along z on its own.
    None for any other box."""
    axes = [bounds.x, bounds.y]
    free = [k for k in (0, 1) if axes[k].count > 1]
    if len(free) != 1:
        return None
    low, high = axes[free[0]].span
    if not low <= 0.0 <= high or axes[1 - free[0]].start == 0.0:
        return None
    axes[free[0]] = AxisGrid(0.0, 0.0, 1)
    return FieldGrid(*axes, bounds.z)


def _frame_free(bounds: FieldGrid) -> list[int]:
    """The free frame coordinates of a box: 0 (B_perp) when x or y is a free
    axis, 2 (Bz) when z is."""
    lab = bounds.free_axes()
    return [k for k, axes in ((0, (0, 1)), (2, (2,))) if any(axis in lab for axis in axes)]


def _search_seeds(params, sel: TransitionSelector, start: np.ndarray, bounds: FieldGrid,
                  free: list[int]) -> np.ndarray:
    """Seed frames (N, 3): the frame of the lab field ``start``, then the
    midpoint of every bracket of the frame scan where a free frame slope
    changes sign.

    The scan takes the distinct frames of the ``bounds`` grid, its
    distinct radii hypot(x, y) times its z values. The B_perp slope is
    bracketed between neighbouring radii, the Bz slope between neighbouring
    z values. A bracket is skipped where either end's gap is below
    ``DEGENERACY_GAP`` (its slope depends on the eigensolver's basis), or
    where a level of the pair overlaps its vector at the other end by less
    than 1/sqrt(2): a crossing of sorted levels lies between the ends, and
    the sign change is the slope's jump there, not a stationary point."""
    radii = np.sort(np.hypot.outer(bounds.x.values(), bounds.y.values()), axis=None)
    # distinct: numpy's unique without indices would import numpy.ma (~20 ms per CLI process)
    radii = radii[np.append(True, radii[1:] != radii[:-1])]
    z = bounds.z.values()
    frames = np.zeros((len(radii), len(z), 3))
    frames[..., 0], frames[..., 2] = radii[:, None], z
    flat = frames.reshape(-1, 3)
    scan = _frame_transition(params, sel, flat[:, 0], flat[:, 2], False)
    shape = frames.shape[:2]
    slope = scan.slope.reshape(shape + (3,))
    clear = scan.min_gap.reshape(shape) >= DEGENERACY_GAP
    kets = [ket.reshape(shape + ket.shape[-1:]) for ket in scan.kets]
    seeds = [np.array([[np.hypot(*start[:2]), 0.0, start[2]]])]
    ends = {0: (np.s_[:-1], np.s_[1:]), 2: (np.s_[:, :-1], np.s_[:, 1:])}  # radii, z values
    for component in free:
        low, high = ends[component]
        g = slope[..., component]
        bracket = (g[low] * g[high] < 0) & clear[low] & clear[high]
        for ket in kets:
            bracket &= np.abs(np.sum(ket[low] * ket[high], axis=-1)) >= np.sqrt(0.5)
        seeds.append((frames[low][bracket] + frames[high][bracket]) / 2.0)
    return np.concatenate(seeds)


def _ring_point(b_perp: float, bounds: FieldGrid, start: np.ndarray) -> tuple[float, float]:
    """(Bx, By) of the box's point at distance ``b_perp`` from the z axis
    nearest to ``start``: the radial projection of ``start`` (along x where
    it lies on the axis) if the box holds it, else where the circle crosses
    an edge of the box. Clipped into the box, so a one-point axis keeps its
    value exactly."""
    (x0, x1), (y0, y1) = bounds.x.span, bounds.y.span
    sx, sy = float(start[0]), float(start[1])
    s = math.hypot(sx, sy)
    candidates = [(b_perp * sx / s, b_perp * sy / s) if s > 0.0 else (b_perp, 0.0)]
    for k, edges in ((0, (x0, x1)), (1, (y0, y1))):
        for edge in edges:
            if abs(edge) <= b_perp:
                across = math.sqrt(b_perp**2 - edge**2)
                for side in (across, -across):
                    candidates.append((edge, side) if k == 0 else (side, edge))
    inside = [(x, y) for x, y in candidates
              if x0 - 1e-9 <= x <= x1 + 1e-9 and y0 - 1e-9 <= y <= y1 + 1e-9]
    # none only where round-off moves an edge crossing at a tangency outside
    x, y = min(inside or candidates, key=lambda point: math.hypot(point[0] - sx, point[1] - sy))
    return min(max(x, x0), x1), min(max(y, y0), y1)


def _zefoz_point(end: _Endpoint, sel: TransitionSelector, bounds: FieldGrid,
                 start: np.ndarray, ring: bool) -> ZefozPoint:
    """The lab ``ZefozPoint`` of one endpoint: at its ring's point nearest
    ``start`` (``_ring_point``), with its frame Hessian turned by that
    point's azimuth. The signature is the sign of C's diagonal or, for a
    ring, the signs of C's eigenvalues in ascending order: those of its
    (B_perp, Bz) block and, for the azimuth, 0: the azimuthal curvature
    is (1/B_perp) dw/dB_perp / 2, 0 on a ring. C itself keeps the computed
    one, which the endpoint's B_perp slope bounds by 500 tol / B_perp
    kHz/mT^2."""
    field = np.array([*_ring_point(float(end.frame[0]), bounds, start), end.frame[2]])
    turn = _turns(_azimuthal_frames(field[None])[1])[0]
    curv = _curvature_matrix(turn @ end.hessian @ turn.T)
    if ring:
        plane = _curvature_matrix(end.hessian[np.ix_((0, 2), (0, 2))])
        signs = np.sort(np.append(np.linalg.eigvalsh(plane), 0.0))
    else:
        signs = np.diag(curv)
    return ZefozPoint(
        field=field,
        omega0=end.frequency,
        gradient_residual=end.residual,
        hessian_signature=tuple(int(np.sign(round(c, 6))) for c in signs),
        curvature_matrix=curv,
        selector=sel,
    )


def zefoz_search(
    params,
    sel: TransitionSelector,
    initial_field,
    bounds: FieldGrid,
    tol: float = 1e-6,
) -> list[ZefozPoint]:
    """Locate stationary points of the selected transition frequency.

    H is axial, so the frequency depends on (B_perp, Bz) only, and the
    search works in those frame coordinates over the half-plane region the
    box covers (``_half_plane``): B_perp is free when x or y is, Bz when z
    is. A scan of the box's distinct frames brackets sign changes of the
    free frame slopes (``_search_seeds``, which skips brackets across a
    degenerate level or a level crossing); each bracket, plus the frame of
    ``initial_field``, seeds a damped Newton refinement of the free slopes
    to zero, all seeds in lockstep: each damping level of an iteration
    diagonalizes the trial frames of the live seeds as one stack. Newton
    clips every step into the region. An endpoint whose gradient is
    flagged (a degenerate level) is dropped. Endpoints closer than
    ``MERGE_DISTANCE`` mT in both B_perp and Bz are one point, kept with
    the lowest gradient residual, the largest |free frame slope|.

    Each kept endpoint is reported once, at one lab field:
    - with B_perp below ``MERGE_DISTANCE``, or B_perp fixed (x and y both
      one-point axes), it is a point, at the box's field of that B_perp
      nearest ``initial_field``, and its signature is the sign of C's
      diagonal;
    - any other endpoint is a ring of stationary points about the z axis,
      flat along the azimuth. It is reported at its point inside the box
      nearest ``initial_field`` (the radial projection of the start, or a
      crossing of the ring with an edge of the box), and its signature is
      the signs of C's eigenvalues in ascending order, which do not depend
      on the azimuth: the flat direction reads 0.
    A box whose x-y extent is a segment off the axis (one of x, y free
    through 0, the other fixed at c != 0) also holds the points where only
    the slope along the segment vanishes: at its foot (0, c) or (c, 0),
    nearest the axis, by symmetry. The foot is searched along z as a box
    of its own (``_line_foot``), and its endpoints join the merge as
    points. Stationary points of any signature are reported
    (field-insensitive transitions are generically saddle points). Returns
    the distinct points, sorted by gradient residual; an empty list means
    none.
    """
    if not 0 < tol < math.inf:
        raise InvalidParameterError(f"tol must be positive and finite, got {tol}")
    start = as_field(initial_field)
    if not bounds.contains(start):
        raise InvalidParameterError("initial field lies outside the search bounds")
    free = _frame_free(bounds)
    if not free:
        raise InvalidParameterError("search bounds leave no free axis to vary")

    searches = [(bounds, start, free)]
    foot = _line_foot(bounds)
    if foot is not None:  # start projected onto the foot
        searches.append((foot, np.array([foot.x.start, foot.y.start, start[2]]),
                         _frame_free(foot)))
    endpoints = []  # (endpoint, the box it is reported in, whether it is a ring)
    for box, begin, axes in searches:
        seeds = _search_seeds(params, sel, begin, box, axes)
        refined = _newton_refine(params, sel, seeds, _half_plane(box), axes, tol,
                                 NEWTON_ITERATIONS)
        endpoints += [(end, box, 0 in axes and end.frame[0] >= MERGE_DISTANCE)
                      for end in refined if end is not None]
    endpoints.sort(key=lambda found: found[0].residual)  # stable: ties keep seed order
    kept: list[tuple[_Endpoint, FieldGrid, bool]] = []
    for found in endpoints:
        if all(np.max(np.abs(found[0].frame - other[0].frame)) >= MERGE_DISTANCE
               for other in kept):
            kept.append(found)
    return [_zefoz_point(end, sel, box, start, ring) for end, box, ring in kept]


@dataclass
class LevelDiagram:
    """Energies of every level of one electronic state across a 1-D field
    grid, identity-tracked.

    Rows of ``energies`` follow the grid; columns follow the level labels
    assigned at the first grid point (ascending there). Tracking assigns
    the levels at each point to the labels at the previous one so that
    the summed eigenvector overlap |<a|b>| is largest, and curves keep
    their identity through crossings. Both sets of eigenvectors are
    orthonormal, so every row and column of the overlap matrix has unit
    norm: an entry above 1/sqrt(2) is the only one of its row and of its
    column above 1/sqrt(2), and where every row has one, those entries are
    the unique best assignment. Any other step is solved by shortest
    augmenting paths (Jonker-Volgenant, ``_min_cost_assignment``).
    ``low_overlap[k]`` is set when the
    smallest assigned overlap at step k fell below ``OVERLAP_THRESHOLD``.
    """

    field_points: np.ndarray
    energies: np.ndarray
    low_overlap: np.ndarray


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a square, finite ``cost`` matrix with
    the smallest summed cost.

    Shortest augmenting paths with dual potentials (Jonker-Volgenant), in
    the form of D. F. Crouse, IEEE TAES 52, 1679 (2016), which
    ``scipy.optimize.linear_sum_assignment`` also implements; the scan over
    the unvisited columns, and the order that breaks ties in it, follow
    that implementation, with the scan as array operations.
    """
    n = len(cost)
    u = np.zeros(n)
    v = np.zeros(n)
    path = np.full(n, -1)
    col4row = np.full(n, -1)
    row4col = np.full(n, -1)
    for current in range(n):
        shortest = np.full(n, np.inf)
        seen_rows = np.zeros(n, dtype=bool)
        seen_cols = np.zeros(n, dtype=bool)
        remaining = np.arange(n - 1, -1, -1)  # a constant matrix gives the identity
        min_val = 0.0
        i = current
        while True:
            seen_rows[i] = True
            reduced = min_val + cost[i, remaining] - u[i] - v[remaining]
            better = reduced < shortest[remaining]
            path[remaining[better]] = i
            shortest[remaining[better]] = reduced[better]
            candidates = shortest[remaining]
            min_val = candidates.min()
            # among equal lowest costs the last unassigned column, else the first
            ties = np.flatnonzero(candidates == min_val)
            free = ties[row4col[remaining[ties]] == -1]
            index = free[-1] if len(free) else ties[0]
            j = remaining[index]
            seen_cols[j] = True
            remaining[index] = remaining[-1]
            remaining = remaining[:-1]
            if row4col[j] == -1:
                break
            i = row4col[j]
        u[current] += min_val
        rows = np.flatnonzero(seen_rows)
        rows = rows[rows != current]
        u[rows] += min_val - shortest[col4row[rows]]
        v[seen_cols] -= min_val - shortest[seen_cols]
        while True:  # augment along the path back to the current row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == current:
                break
    return col4row


def level_diagram(params: SpinParams, grid: FieldGrid) -> LevelDiagram:
    """Track every level of one electronic state along a single-axis field
    grid.

    The overlaps of each block of eigensystems with the point before come
    from one stacked product. A step where the largest overlap of every
    row exceeds ``ARGMAX_OVERLAP`` (above 1/sqrt(2), see ``LevelDiagram``)
    follows the row argmaxes, which are the best assignment; any other
    step solves the assignment with ``_min_cost_assignment``.
    """
    if len(grid.free_axes()) > 1:
        raise InvalidParameterError("level diagram requires a 1-D field grid")
    points = grid.points()
    energies = np.zeros((len(points), params.dimension))
    flags = np.zeros(len(points), dtype=bool)
    order = np.arange(params.dimension)  # eigensolver column of each label
    b_perp, azimuths = _azimuthal_frames(points)
    for start in range(0, len(points), BLOCK):
        block = slice(start, min(start + BLOCK, len(points)))
        block_energies, block_vectors = _axial_eigensystems(params, b_perp[block],
                                                            points[block, 2])
        block_azimuth = azimuths[block]
        if start == 0:
            energies[0] = block_energies[0]
            chain, azimuth = block_vectors, block_azimuth
        else:
            chain = np.concatenate([last_vectors[None], block_vectors])
            azimuth = np.concatenate([last_azimuth, block_azimuth])
        # overlaps[s] = |<a at one point|b at the next>| in eigensolver order
        overlaps = np.abs(chain[:-1].transpose(0, 2, 1) @ chain[1:])
        turns = np.flatnonzero(np.any(azimuth[1:] != azimuth[:-1], axis=1))
        if len(turns):  # the azimuthal frame changed: compare in the lab frame
            phases = _azimuthal_phases(params, azimuth)
            for s in turns:
                turned = (phases[s].conj() * phases[s + 1])[:, None] * chain[s + 1]
                overlaps[s] = np.abs(chain[s].T @ turned)
        lowest = overlaps.max(axis=2).min(axis=1)  # smallest row maximum
        first = block.stop - len(overlaps)  # grid index of the first step
        for s, (overlap, worst) in enumerate(zip(overlaps, lowest)):
            if worst > ARGMAX_OVERLAP:
                order = overlap.argmax(axis=1)[order]
            else:
                tracked = overlap[order]  # a row per label
                order = _min_cost_assignment(-tracked)
                worst = tracked[np.arange(len(order)), order].min()
            k = first + s
            energies[k] = block_energies[k - start][order]
            flags[k] = worst < OVERLAP_THRESHOLD
        last_vectors, last_azimuth = block_vectors[-1], block_azimuth[-1:]
    return LevelDiagram(field_points=points, energies=energies, low_overlap=flags)
