"""Transition frequencies versus magnetic field: gradients, curvatures,
stationary-point (ZEFOZ) search and the quadratic field model.

Conventions
-----------
* Frequencies in MHz, fields in mT.
* ``frequency_gradient`` returns MHz/mT.
* ``frequency_curvatures`` returns the coefficient matrix C (kHz/mT^2) of
  the quadratic expansion  w(B0+d) ~= w(B0) + grad.d + d^T C d,
  i.e. HALF the plain second-derivative matrix. The diagonal of C at a
  stationary point gives the curvatures S2i used throughout.

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
Slopes turn back to the lab as vectors, Hessians as R(phi) H R(phi)^T.

H is axial, so the frame matrix H(B_perp, 0, Bz) does not depend on the
azimuth: a stack of fields (the search grid, the Newton steps of all
search seeds, stacked frequencies) is diagonalized once per distinct
(B_perp, Bz) frame, equal bit for bit, at most ``BLOCK`` frames per call,
and each field turns its frame's slopes and Hessians by its own azimuth.
A level diagram takes one eigensystem per field, ``BLOCK`` fields per call
(``_eigensystems``): its frames along a scan are distinct unless the scan
crosses zero on x or y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .spins import (  # noqa: F401 - perfbench reads fieldmap.ion_levels
    FieldGrid,
    IonParams,
    SpinParams,
    _axial_eigensystems,
    _azimuthal_frames,
    _azimuthal_phases,
    as_field,
    as_fields,
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
        if self.level_i < 1 or self.level_j < 1:
            raise InvalidParameterError("level labels are 1-based positive integers")
        if self.manifold != "optical" and self.level_i == self.level_j:
            raise InvalidParameterError("same-manifold selector needs two distinct levels")


@dataclass(frozen=True)
class GradientResult:
    """Field gradient of a transition frequency (MHz/mT).

    ``vector`` is the Hellmann-Feynman value. ``min_gap`` (MHz) is the
    smallest gap from either level of the pair to its nearer neighbour;
    ``flagged`` is set when it is below ``DEGENERACY_GAP``: ``vector`` then
    depends on the basis the eigensolver picked inside a degenerate cluster.
    """

    vector: np.ndarray
    flagged: bool
    min_gap: float


@dataclass(frozen=True)
class ZefozPoint:
    """A stationary point of a transition frequency in field space.

    ``curvatures`` holds the diagonal quadratic coefficients (S2x, S2y, S2z)
    in kHz/mT^2; ``curvature_matrix`` is the full 3x3 coefficient matrix.
    ``hessian_signature`` is the sign triple of the diagonal (-1, 0, +1).
    """

    field: np.ndarray
    omega0: float
    gradient_residual: float
    curvatures: np.ndarray
    hessian_signature: tuple[int, int, int]
    curvature_matrix: np.ndarray
    selector: TransitionSelector

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
        single = params.ground if sel.manifold == "ground" else params.excited
    else:
        single = params
    return single, None


def _check_labels(sel: TransitionSelector, dim_i: int, dim_j: int):
    if sel.level_i > dim_i or sel.level_j > dim_j:
        raise InvalidParameterError(
            f"selector labels ({sel.level_i}, {sel.level_j}) exceed manifold "
            f"dimensions ({dim_i}, {dim_j})"
        )


def _eigensystems(params: SpinParams, fields: np.ndarray):
    """Yield (block slice, energies, real eigenvectors, azimuths) over
    ``fields`` in blocks; each block is diagonalized in the azimuthal
    frames of its fields (``spins._axial_eigensystems``)."""
    for start in range(0, len(fields), BLOCK):
        block = slice(start, min(start + BLOCK, len(fields)))
        yield (block, *_axial_eigensystems(params, fields[block]))


def _frame_derivatives(params: SpinParams, energies: np.ndarray, vectors: np.ndarray,
                       idx: np.ndarray, order: int):
    """``_level_derivatives`` of the levels ``idx`` (0-based) from a stack of
    frame eigensystems, energies (U, d) and real vectors (U, d, d): energies
    (U, L), by order the frame slopes <n|M_i|n> (U, L, 3), gaps (U, L) and
    frame Hessians (U, L, 3, 3). The couplings come from stacked products
    with one small matrix product per frame, level and axis, so every frame
    gets the same bits whatever stack it sits in."""
    energy = energies[:, idx]
    if order == 0:
        return energy, None, None, None
    edge = np.full((len(energies), 1), np.inf)
    spacing = np.hstack([edge, np.diff(energies, axis=1), edge])
    gap = np.minimum(spacing[:, idx], spacing[:, idx + 1])
    zeeman = params.linear_terms.zeeman
    # M_x and M_z are real and M_y imaginary: (M_x, M_y / i, M_z)
    real_zeeman = zeeman.real + zeeman.imag
    kets = vectors.transpose(0, 2, 1)[:, idx]  # |n>, (U, L, d)
    bras = (kets[:, :, None, None, :] @ real_zeeman)[:, :, :, 0]  # (U, L, 3, d)
    coupling = bras @ vectors[:, None]  # <n|M_x|m>, <n|M_y|m>/i, <n|M_z|m>, (U, L, 3, d)
    own = coupling[:, np.arange(len(idx)), :, idx].transpose(1, 0, 2)  # (U, L, 3)
    own[..., 1] = 0.0  # <n|M_y|n> of a real |n>: i times an antisymmetric form
    frame = None
    if order == 2:
        split = energies[:, idx, None] - energies[:, None, :]  # E_n - E_m, (U, L, d)
        weight = np.divide(
            1.0, split, out=np.zeros_like(split), where=np.abs(split) >= DEGENERACY_GAP
        )
        weighted = coupling * weight[:, :, None, :]
        frame = 2.0 * (weighted @ coupling.swapaxes(2, 3))
        frame[..., 1, [0, 2]] = frame[..., [0, 2], 1] = 0.0  # real times imaginary
    return energy, own, gap, frame


def _level_derivatives(
    params: SpinParams, fields: np.ndarray, labels: tuple[int, ...], order: int
):
    """Energies (N, L) of the labelled levels at each field of a stack.

    ``order`` 1 adds the Hellmann-Feynman slopes <n|M_i|n> (N, L, 3) and
    the gap (N, L) from each level to its nearer neighbour; ``order`` 2
    adds the Hessians (N, L, 3, 3) of the perturbation sum, which leaves
    out every level m closer than ``DEGENERACY_GAP`` to n. Parts above
    ``order`` are None.

    Fields whose B_perp and Bz are equal bit for bit share one azimuthal
    frame. Each distinct frame is diagonalized once, ``BLOCK`` frames per
    call (``_eigensystems``), and ``_frame_derivatives`` takes its
    derivatives. Each field then turns its frame's slopes and Hessians back
    to the lab by its own azimuth (see the module docstring), one small
    matrix product per field, so every field gets the same bits whatever
    stack it sits in.
    """
    idx = np.array(labels) - 1
    if len(fields) < 2:  # one field is its own frame
        energies, vectors, azimuth = _axial_eigensystems(params, fields)
        energy, own, gap, frame = _frame_derivatives(params, energies, vectors, idx, order)
    else:
        b_perp, azimuth = _azimuthal_frames(fields)
        bits = np.stack([b_perp, fields[:, 2]], axis=1).view("V16")[:, 0]  # compared bytewise
        _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
        blocks = [_frame_derivatives(params, energies, vectors, idx, order)
                  for _, energies, vectors, _ in _eigensystems(params, fields[first])]
        energy, own, gap, frame = (None if parts[0] is None else np.concatenate(parts)[inverse]
                                   for parts in zip(*blocks))
    if order == 0:
        return energy, None, None, None
    cos, sin = azimuth[:, 0], azimuth[:, 1]
    turn = np.zeros((len(azimuth), 1, 3, 3))  # the rotation by phi about z
    turn[:, 0, 0, 0] = turn[:, 0, 1, 1] = cos
    turn[:, 0, 1, 0], turn[:, 0, 0, 1], turn[:, 0, 2, 2] = sin, -sin, 1.0
    slope = (turn @ own[..., None])[..., 0]
    hessian = None if frame is None else turn @ frame @ turn.swapaxes(2, 3)
    return energy, slope, gap, hessian


class _Transition(NamedTuple):
    """Frequency (N,) in MHz of the selected transition at each field of a
    stack and, by order, its GradientResult and Hessian (N, 3, 3) in
    MHz/mT^2."""

    frequency: np.ndarray
    gradient: GradientResult | None
    hessian: np.ndarray | None


def _transition(params, fields: np.ndarray, sel: TransitionSelector, order: int) -> _Transition:
    """E_j - E_i and its derivatives up to ``order`` at each field of a stack
    (N, 3), from one stacked diagonalization per manifold.

    The gradient is the Hellmann-Feynman difference everywhere. It is
    flagged where a connected level lies closer than ``DEGENERACY_GAP`` to
    a neighbour: inside a degenerate cluster the slope depends on the basis
    the eigensolver picked.
    """
    p_i, p_j = _split_params(params, sel)
    if sel.manifold == "optical":
        _check_labels(sel, p_i.dimension, p_j.dimension)
        lower = _level_derivatives(p_i, fields, (sel.level_i,), order)
        upper = _level_derivatives(p_j, fields, (sel.level_j,), order)
        parts = [
            None if a is None else np.concatenate([a, b], axis=1) for a, b in zip(lower, upper)
        ]
    else:
        _check_labels(sel, p_i.dimension, p_i.dimension)
        parts = _level_derivatives(p_i, fields, (sel.level_i, sel.level_j), order)
    energy, slope, gap, hessian = parts
    frequency = energy[:, 1] - energy[:, 0]
    if order == 0:
        return _Transition(frequency, None, None)
    min_gap = np.min(gap, axis=1)
    return _Transition(
        frequency,
        GradientResult(
            vector=slope[:, 1] - slope[:, 0], flagged=min_gap < DEGENERACY_GAP, min_gap=min_gap
        ),
        None if hessian is None else hessian[:, 1] - hessian[:, 0],
    )


def transition_frequencies(params, fields, sel: TransitionSelector) -> np.ndarray:
    """Frequencies E_j - E_i (MHz) at each field of a stack (N, 3).

    The stacked form of ``transition_frequency``, with the same result
    bit for bit at every field.
    """
    return _transition(params, as_fields(fields), sel, 0).frequency


def transition_frequency(params, field, sel: TransitionSelector) -> float:
    """Frequency E_j - E_i (MHz) from fresh diagonalization at ``field``.

    Optical selectors return E_excited - E_ground. ``params`` may be a
    SpinParams (same-manifold selectors) or an IonParams (required for
    optical).
    """
    return float(transition_frequencies(params, as_field(field)[None], sel)[0])


def frequency_gradient(params, field, sel: TransitionSelector) -> GradientResult:
    """Gradient of the selected transition frequency (MHz/mT).

    The Hellmann-Feynman difference <j|M|j> - <i|M|i> on the eigenstates at
    ``field``, one diagonalization per manifold. Flagged where a connected
    level lies closer than ``DEGENERACY_GAP`` MHz to a neighbour: the value
    then depends on the eigensolver's basis inside the degenerate cluster.
    """
    g = _transition(params, as_field(field)[None], sel, 1).gradient
    return GradientResult(
        vector=g.vector[0], flagged=bool(g.flagged[0]), min_gap=float(g.min_gap[0])
    )


def _curvature_matrix(hessian: np.ndarray) -> np.ndarray:
    return hessian / 2.0 * 1000.0  # half-convention, MHz -> kHz


def frequency_curvatures(params, field, sel: TransitionSelector) -> np.ndarray:
    """Quadratic-expansion coefficient matrix C in kHz/mT^2.

    C is half the Hessian of E_j - E_i from the second-order perturbation
    sum on one diagonalization per manifold (see the module docstring). Its
    diagonal at a stationary point gives the curvatures S2i directly.
    Levels closer than ``DEGENERACY_GAP`` MHz to the level differentiated
    (its degenerate cluster, e.g. a Kramers partner at zero field) are left
    out of the sum, so C stays finite at a level crossing, where it
    describes only the branch the eigensolver picked.
    """
    hessian = _transition(params, as_field(field)[None], sel, 2).hessian
    return _curvature_matrix(hessian[0])


def quadratic_model(z: ZefozPoint, delta_field) -> float:
    """w0 + sum_i S2i * dBi^2, curvatures converted from kHz to MHz."""
    d = np.asarray(delta_field, dtype=float)
    return float(z.omega0 + np.sum(z.curvatures * 1e-3 * d**2))


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


def _newton_refine(
    params,
    sel: TransitionSelector,
    seeds: list[np.ndarray],
    bounds: FieldGrid,
    free: list[int],
    tol: float,
    max_iter: int,
) -> list[ZefozPoint | None]:
    """Damped Newton root-finding on the free gradient components from
    every seed in lockstep.

    Each evaluation gives the gradient, the next Jacobian (the analytic
    Hessian) and, at the endpoint, the reported frequency and curvatures.
    An iteration evaluates the trial points of all live seeds in one
    ``_transition`` stack; a damping retry re-evaluates, again as one
    stack, only the seeds whose gradient did not shrink. A seed stops once
    its gradient is within ``tol``, when no damped step shrinks it, or
    after ``max_iter`` iterations. A field's result does not depend on the
    stack it sits in, so every seed takes the steps it would take alone.
    Returns, in seed order, each converged point or None, also where the
    endpoint's gradient is flagged (a degenerate level, e.g. the kink at B = 0).
    """
    points = np.array(seeds, dtype=float)
    start = np.array([bounds.axis(k).start for k in free])
    stop = np.array([bounds.axis(k).stop for k in free])
    state = _transition(params, points, sel, 2)
    frequency, hessian = state.frequency, state.hessian
    grad = state.gradient.vector[:, free]
    norm = np.max(np.abs(grad), axis=1)
    flagged = state.gradient.flagged
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
            moved = np.where(start > moved, start, moved)  # clip into bounds
            trial[:, free] = np.where(stop < moved, stop, moved)
            trial_state = _transition(params, trial, sel, 2)
            trial_grad = trial_state.gradient.vector[:, free]
            trial_norm = np.max(np.abs(trial_grad), axis=1)
            better = trial_norm < norm[trying]
            took = trying[better]
            points[took] = trial[better]
            frequency[took] = trial_state.frequency[better]
            hessian[took] = trial_state.hessian[better]
            grad[took] = trial_grad[better]
            norm[took] = trial_norm[better]
            flagged[took] = trial_state.gradient.flagged[better]
            pending[pending] = ~better
        live = live[~pending]  # no damped step helped: the seed stops
    found: list[ZefozPoint | None] = []
    for s in range(len(points)):
        residual = float(norm[s])
        if failed[s] or flagged[s] or residual > tol:
            found.append(None)
            continue
        curv = _curvature_matrix(hessian[s])
        diag = np.diag(curv).copy()
        found.append(
            ZefozPoint(
                field=points[s].copy(),
                omega0=float(frequency[s]),
                gradient_residual=residual,
                curvatures=diag,
                hessian_signature=tuple(int(np.sign(round(c, 6))) for c in diag),
                curvature_matrix=curv,
                selector=sel,
            )
        )
    return found


def _search_seeds(params, sel: TransitionSelector, start: np.ndarray, bounds: FieldGrid,
                  free: list[int]) -> list[np.ndarray]:
    """``start``, then the midpoint of every bracket where a free gradient
    component changes sign between neighbours of the ``bounds`` grid."""
    grid_points = bounds.points()
    grads = _transition(params, grid_points, sel, 1).gradient.vector[:, free]
    seeds = [start]
    shape = tuple(bounds.axis(k).count for k in range(3))
    grads_nd = grads.reshape(shape + (len(free),))
    points_nd = grid_points.reshape(shape + (3,))
    for fi, axis in enumerate(free):
        g_ax = np.moveaxis(grads_nd[..., fi], axis, 0)
        p_ax = np.moveaxis(points_nd, axis, 0)
        sign_change = g_ax[:-1] * g_ax[1:] < 0
        for idx in np.argwhere(sign_change):
            lead = tuple(idx)
            lo = p_ax[lead]
            hi = p_ax[(idx[0] + 1,) + lead[1:]]
            seeds.append((lo + hi) / 2.0)
    return seeds


def zefoz_search(
    params,
    sel: TransitionSelector,
    initial_field,
    bounds: FieldGrid,
    tol: float = 1e-6,
) -> list[ZefozPoint]:
    """Locate stationary points of the selected transition frequency.

    A coarse scan over ``bounds`` brackets sign changes of the gradient
    along every free axis; each bracket (plus ``initial_field``) seeds a
    damped Newton refinement of grad w = 0, all seeds in lockstep: each
    damping level of an iteration diagonalizes the trial points of the
    live seeds as one stack. Stationary points of any Hessian signature
    are reported (field-insensitive transitions are generically saddle
    points), but not an endpoint at a degenerate level, whose gradient is
    flagged. Newton clips every step into ``bounds``. Endpoints closer than
    ``MERGE_DISTANCE`` mT are one point, reported once with the lowest
    gradient residual. Returns the distinct points, sorted by gradient
    residual; an empty list means none.
    """
    if tol <= 0:
        raise InvalidParameterError(f"tol must be positive, got {tol}")
    start = as_field(initial_field)
    if not bounds.contains(start):
        raise InvalidParameterError("initial field lies outside the search bounds")
    free = bounds.free_axes()
    if not free:
        raise InvalidParameterError("search bounds leave no free axis to vary")

    seeds = _search_seeds(params, sel, start, bounds, free)
    refined = _newton_refine(params, sel, seeds, bounds, free, tol, NEWTON_ITERATIONS)
    endpoints = [z for z in refined if z is not None]
    endpoints.sort(key=lambda z: z.gradient_residual)  # stable: ties keep seed order
    found: list[ZefozPoint] = []
    for z in endpoints:
        if all(np.max(np.abs(z.field - kept.field)) >= MERGE_DISTANCE for kept in found):
            found.append(z)
    return found


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
    for block, block_energies, block_vectors, block_azimuth in _eigensystems(params, points):
        if block.start == 0:
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
            energies[k] = block_energies[k - block.start][order]
            flags[k] = worst < OVERLAP_THRESHOLD
        last_vectors, last_azimuth = block_vectors[-1], block_azimuth[-1:]
    return LevelDiagram(field_points=points, energies=energies, low_overlap=flags)
