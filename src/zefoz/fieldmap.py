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
of its two levels' values; C is half that Hessian, in kHz. Only a
gradient at a field where a connected level lies within
``DEGENERACY_GAP`` of a neighbour falls back to central differences.

Every multi-field evaluation (the search grid, level diagrams, stacked
frequencies) goes through ``_eigensystems``, which diagonalizes stacks of
at most ``BLOCK`` fields per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .spins import (  # noqa: F401 - ion_levels: perfbench reads zefoz.fieldmap.ion_levels
    IonParams,
    SpinParams,
    as_field,
    as_fields,
    build_hamiltonian,
    diagonalize_stack,
    ion_levels,
)

MANIFOLDS = ("ground", "excited", "optical")
# Fields per stacked diagonalization: enough to amortize the per-call
# overhead, few enough that the temporaries (tens of kB per 16x16 field)
# keep the peak memory of a large grid near that of a single field.
BLOCK = 64
# Newton endpoints closer than this (mT, in every component) are one point.
MERGE_DISTANCE = 1e-3
# Levels closer than this (MHz) form one degenerate cluster: the Hessian sum
# leaves them out and a gradient with a connected level there is flagged.
DEGENERACY_GAP = 1e-3


@dataclass(frozen=True)
class AxisGrid:
    """Inclusive 1-D grid specification along one field axis (mT)."""

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise InvalidParameterError(f"grid count must be >= 1, got {self.count}")
        if self.stop < self.start:
            raise InvalidParameterError(
                f"grid stop {self.stop} is below start {self.start}"
            )

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.start], dtype=float)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class FieldGrid:
    """Cartesian product of three axis grids."""

    x: AxisGrid
    y: AxisGrid
    z: AxisGrid

    def axis(self, index: int) -> AxisGrid:
        return (self.x, self.y, self.z)[index]

    def free_axes(self) -> list[int]:
        """Axes with more than one grid point (searchable directions)."""
        return [k for k in range(3) if self.axis(k).count > 1]

    def points(self) -> np.ndarray:
        """All grid points, shape (N, 3), x varying slowest."""
        vx, vy, vz = self.x.values(), self.y.values(), self.z.values()
        gx, gy, gz = np.meshgrid(vx, vy, vz, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    def contains(self, point: np.ndarray, margin: float = 1e-9) -> bool:
        for k in range(3):
            ax = self.axis(k)
            if not (ax.start - margin <= point[k] <= ax.stop + margin):
                return False
        return True


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
    ``flagged`` is set when it is below ``DEGENERACY_GAP``, and ``vector``
    is then a central finite difference instead.
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
        return params.ground, params.excited, params.optical_origin
    if isinstance(params, IonParams):
        single = params.ground if sel.manifold == "ground" else params.excited
    else:
        single = params
    return single, None, 0.0


def _check_labels(sel: TransitionSelector, dim_i: int, dim_j: int):
    if sel.level_i > dim_i or sel.level_j > dim_j:
        raise InvalidParameterError(
            f"selector labels ({sel.level_i}, {sel.level_j}) exceed manifold "
            f"dimensions ({dim_i}, {dim_j})"
        )


def _eigensystems(params: SpinParams, fields: np.ndarray):
    """Yield (block slice, energies, eigenvectors) over ``fields`` in blocks."""
    for start in range(0, len(fields), BLOCK):
        block = slice(start, min(start + BLOCK, len(fields)))
        yield (block, *diagonalize_stack(build_hamiltonian(params, fields[block])))


def _level_derivatives(
    params: SpinParams, fields: np.ndarray, labels: tuple[int, ...], order: int
):
    """Energies (N, L) of the labelled levels at each field of a stack.

    ``order`` 1 adds the Hellmann-Feynman slopes <n|M_i|n> (N, L, 3) and
    the gap (N, L) from each level to its nearer neighbour; ``order`` 2
    adds the Hessians (N, L, 3, 3) of the perturbation sum, which leaves
    out every level m closer than ``DEGENERACY_GAP`` to n. Parts above
    ``order`` are None.
    """
    idx = np.array(labels) - 1
    shape = (len(fields), len(labels))
    energy = np.empty(shape)
    slope = np.empty(shape + (3,)) if order >= 1 else None
    gap = np.empty(shape) if order >= 1 else None
    hessian = np.empty(shape + (3, 3)) if order >= 2 else None
    zeeman = params.linear_terms.zeeman
    for block, energies, vectors in _eigensystems(params, fields):
        energy[block] = energies[:, idx]
        if order == 0:
            continue
        edge = np.full((len(energies), 1), np.inf)
        spacing = np.hstack([edge, np.diff(energies, axis=1), edge])
        gap[block] = np.minimum(spacing[:, idx], spacing[:, idx + 1])
        for row, (level_energies, levels) in enumerate(zip(energies, vectors), start=block.start):
            for k, column in enumerate(idx):
                vec = levels[:, column]
                bras = [vec.conj() @ m for m in zeeman]  # <n|M_i
                slope[row, k] = [float((bra @ vec).real) for bra in bras]
                if order == 2:
                    split = level_energies[column] - level_energies
                    weight = np.divide(
                        1.0, split, out=np.zeros_like(split),
                        where=np.abs(split) >= DEGENERACY_GAP,
                    )
                    coupling = np.array(bras) @ levels  # <n|M_i|m>, (3, d)
                    hessian[row, k] = 2.0 * ((coupling * weight) @ coupling.conj().T).real
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

    Where a connected level lies closer than ``DEGENERACY_GAP`` to a
    neighbour the gradient is flagged and taken from central differences
    (step 0.01 mT): inside a degenerate cluster the Hellmann-Feynman slope
    depends on the basis the eigensolver picked.
    """
    p_i, p_j, origin = _split_params(params, sel)
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
    frequency = energy[:, 1] - energy[:, 0] + origin
    if order == 0:
        return _Transition(frequency, None, None)
    vector = slope[:, 1] - slope[:, 0]
    min_gap = np.min(gap, axis=1)
    flagged = min_gap < DEGENERACY_GAP
    if np.any(flagged):
        step = 0.01
        # per field the order is +x, -x, +y, -y, +z, -z
        offsets = step * np.eye(3)
        near = fields[flagged][:, None, :]
        stencil = np.stack([near + offsets, near - offsets], axis=2).reshape(-1, 3)
        f = _transition(params, stencil, sel, 0).frequency.reshape(-1, 3, 2)
        vector[flagged] = (f[..., 0] - f[..., 1]) / (2.0 * step)
    return _Transition(
        frequency,
        GradientResult(vector=vector, flagged=flagged, min_gap=min_gap),
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

    Optical selectors return E_excited - E_ground plus the ion's optical
    origin. ``params`` may be a SpinParams (same-manifold selectors) or an
    IonParams (required for optical).
    """
    return float(transition_frequencies(params, as_field(field)[None], sel)[0])


def frequency_gradient(params, field, sel: TransitionSelector) -> GradientResult:
    """Gradient of the selected transition frequency (MHz/mT).

    The Hellmann-Feynman difference <j|M|j> - <i|M|i> on the eigenstates at
    ``field``, one diagonalization per manifold. Flagged, and replaced by
    a central difference, where a connected level lies closer than
    ``DEGENERACY_GAP`` MHz to a neighbour.
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
    return _curvature_matrix(_transition(params, as_field(field)[None], sel, 2).hessian[0])


def quadratic_model(z: ZefozPoint, delta_field) -> float:
    """w0 + sum_i S2i * dBi^2, curvatures converted from kHz to MHz."""
    d = np.asarray(delta_field, dtype=float)
    return float(z.omega0 + np.sum(z.curvatures * 1e-3 * d**2))


def _newton_refine(
    params,
    sel: TransitionSelector,
    start: np.ndarray,
    bounds: FieldGrid,
    free: list[int],
    tol: float,
    max_iter: int,
) -> ZefozPoint | None:
    """Damped Newton root-finding on the free gradient components.

    Each evaluation gives the gradient, the next Jacobian (the analytic
    Hessian) and, at the endpoint, the reported frequency and curvatures.
    Returns the converged point, or None."""

    def evaluate(point: np.ndarray):
        state = _transition(params, point[None], sel, 2)
        return state, state.gradient.vector[0, free]

    point = start.copy()
    state, grad = evaluate(point)
    for _ in range(max_iter):
        if np.max(np.abs(grad)) <= tol:
            break
        jac = state.hessian[0][np.ix_(free, free)]  # MHz/mT^2
        try:
            if np.linalg.cond(jac) > 1e10:
                raise np.linalg.LinAlgError("near-singular")
            delta = np.linalg.solve(jac, -grad)
        except np.linalg.LinAlgError:
            # coordinate-descent fallback on the diagonal curvature
            diag = np.diag(jac)
            safe = np.where(np.abs(diag) > 1e-12, diag, np.inf)
            delta = -grad / safe
        if not np.all(np.isfinite(delta)):
            return None
        # damping: accept the first step that shrinks the gradient norm
        improved = False
        for damp in (1.0, 0.5, 0.25, 0.125, 0.0625):
            trial = point.copy()
            trial[free] += damp * delta
            for k in free:  # clip into bounds
                ax = bounds.axis(k)
                trial[k] = min(max(trial[k], ax.start), ax.stop)
            trial_state, trial_grad = evaluate(trial)
            if np.max(np.abs(trial_grad)) < np.max(np.abs(grad)):
                point, state, grad = trial, trial_state, trial_grad
                improved = True
                break
        if not improved:
            break
    residual = float(np.max(np.abs(grad)))
    if residual > tol:
        return None
    curv = _curvature_matrix(state.hessian[0])
    diag = np.diag(curv).copy()
    return ZefozPoint(
        field=point,
        omega0=float(state.frequency[0]),
        gradient_residual=residual,
        curvatures=diag,
        hessian_signature=tuple(int(np.sign(round(c, 6))) for c in diag),
        curvature_matrix=curv,
        selector=sel,
    )


def zefoz_search(
    params,
    sel: TransitionSelector,
    initial_field,
    bounds: FieldGrid,
    tol: float = 1e-6,
    *,
    max_iter: int = 60,
) -> list[ZefozPoint]:
    """Locate stationary points of the selected transition frequency.

    A coarse scan over ``bounds`` brackets sign changes of the gradient
    along every free axis; each bracket (plus ``initial_field``) seeds a
    damped Newton refinement of grad w = 0. Stationary points of any
    Hessian signature are reported (field-insensitive transitions are
    generically saddle points). Newton endpoints closer than
    ``MERGE_DISTANCE`` mT are one point, reported once with the lowest
    gradient residual. Returns the distinct points found inside the bounds,
    sorted by gradient residual; an empty list means none.
    """
    if tol <= 0:
        raise InvalidParameterError(f"tol must be positive, got {tol}")
    start = as_field(initial_field)
    if not bounds.contains(start):
        raise InvalidParameterError("initial field lies outside the search bounds")
    free = bounds.free_axes()
    if not free:
        raise InvalidParameterError("search bounds leave no free axis to vary")

    grid_points = bounds.points()
    grads = _transition(params, grid_points, sel, 1).gradient.vector[:, free]

    seeds = [start]
    # bracket sign changes along each free axis of the rectangular grid
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

    endpoints = []
    for seed in seeds:
        z = _newton_refine(params, sel, seed, bounds, free, tol, max_iter)
        if z is not None and bounds.contains(z.field, margin=1e-6):
            endpoints.append(z)
    endpoints.sort(key=lambda z: z.gradient_residual)  # stable: ties keep seed order
    found: list[ZefozPoint] = []
    for z in endpoints:
        if all(np.max(np.abs(z.field - kept.field)) >= MERGE_DISTANCE for kept in found):
            found.append(z)
    return found


@dataclass
class LevelDiagram:
    """Energies of every level across a 1-D field grid, identity-tracked.

    Rows of ``energies`` follow the grid; columns follow the level labels
    assigned at the first grid point (ascending there). Tracking maximizes
    eigenvector overlap between adjacent points so curves keep their
    identity through crossings. ``low_overlap[k]`` is set when the best
    overlap at step k fell below the tracking threshold.
    """

    field_points: np.ndarray
    energies: np.ndarray
    low_overlap: np.ndarray


def level_diagram(
    params,
    grid: FieldGrid,
    manifold: str = "ground",
    *,
    overlap_threshold: float = 0.6,
) -> LevelDiagram:
    """Track the full level structure along a single-axis field grid."""
    if manifold not in ("ground", "excited"):
        raise InvalidParameterError("level_diagram maps one manifold: ground or excited")
    free = grid.free_axes()
    if len(free) > 1:
        raise InvalidParameterError("level diagram requires a 1-D field grid")
    single = params
    if isinstance(params, IonParams):
        single = params.ground if manifold == "ground" else params.excited

    # only level tracking needs scipy.optimize; importing it costs every
    # other command a noticeable share of its start-up
    from scipy.optimize import linear_sum_assignment

    points = grid.points()
    dim = single.dimension
    energies = np.zeros((len(points), dim))
    flags = np.zeros(len(points), dtype=bool)
    prev_vectors = None
    for block, block_energies, block_vectors in _eigensystems(single, points):
        for k, (level_energies, vectors) in enumerate(
            zip(block_energies, block_vectors), start=block.start
        ):
            if prev_vectors is None:
                energies[0] = level_energies
                prev_vectors = vectors
                continue
            overlap = np.abs(prev_vectors.conj().T @ vectors)
            rows, cols = linear_sum_assignment(-overlap)
            order = np.empty(dim, dtype=int)
            order[rows] = cols
            energies[k] = level_energies[order]
            prev_vectors = vectors[:, order]
            if float(overlap[rows, cols].min()) < overlap_threshold:
                flags[k] = True
    return LevelDiagram(field_points=points, energies=energies, low_overlap=flags)
