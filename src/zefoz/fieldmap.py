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

Every multi-field evaluation (the gradient and curvature stencils, the
search grid, level diagrams) goes through ``transition_frequencies`` or
``_eigensystems``, which diagonalize stacks of at most ``BLOCK`` fields
per call.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    ``vector`` is the Hellmann-Feynman estimate unless the computation was
    flagged (near-degeneracy, or disagreement between the two estimates),
    in which case the central finite-difference value is returned there.
    """

    vector: np.ndarray
    hellmann_feynman: np.ndarray
    finite_difference: np.ndarray
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


def _energies(params: SpinParams, fields: np.ndarray) -> np.ndarray:
    out = np.empty((len(fields), params.dimension))
    for block, energies, _ in _eigensystems(params, fields):
        out[block] = energies
    return out


def transition_frequencies(params, fields, sel: TransitionSelector) -> np.ndarray:
    """Frequencies E_j - E_i (MHz) at each field of a stack (N, 3).

    The stacked form of ``transition_frequency``, with the same result
    bit for bit at every field.
    """
    fields = as_fields(fields)
    p_i, p_j, origin = _split_params(params, sel)
    if sel.manifold == "optical":
        _check_labels(sel, p_i.dimension, p_j.dimension)
        ground = _energies(p_i, fields)
        excited = _energies(p_j, fields)
        return excited[:, sel.level_j - 1] - ground[:, sel.level_i - 1] + origin
    _check_labels(sel, p_i.dimension, p_i.dimension)
    energies = _energies(p_i, fields)
    return energies[:, sel.level_j - 1] - energies[:, sel.level_i - 1]


def transition_frequency(params, field, sel: TransitionSelector) -> float:
    """Frequency E_j - E_i (MHz) from fresh diagonalization at ``field``.

    Optical selectors return E_excited - E_ground plus the ion's optical
    origin. ``params`` may be a SpinParams (same-manifold selectors) or an
    IonParams (required for optical).
    """
    return float(transition_frequencies(params, as_field(field)[None], sel)[0])


def _slopes_and_gaps(params: SpinParams, fields: np.ndarray, labels: tuple[int, ...]):
    """Hellmann-Feynman slopes dE/dB (N, L, 3) of the labelled levels at each
    field, and the gap (N, L) from each to its nearer neighbour."""
    zeeman = params.linear_terms.zeeman
    idx = np.array(labels) - 1
    slopes = np.empty((len(fields), len(labels), 3))
    gaps = np.empty((len(fields), len(labels)))
    for block, energies, vectors in _eigensystems(params, fields):
        edge = np.full((len(energies), 1), np.inf)
        spacing = np.hstack([edge, np.diff(energies, axis=1), edge])
        gaps[block] = np.minimum(spacing[:, idx], spacing[:, idx + 1])
        for n, levels in enumerate(vectors, start=block.start):
            for k, column in enumerate(idx):
                vec = levels[:, column]
                slopes[n, k] = [float((vec.conj() @ m @ vec).real) for m in zeeman]
    return slopes, gaps


def _gradients(
    params,
    fields: np.ndarray,
    sel: TransitionSelector,
    step: float = 0.01,
    degeneracy_gap: float = 1e-3,
    consistency_tol: float = 1e-4,
) -> GradientResult:
    """``frequency_gradient`` at each field of a stack (N, 3); every field of
    the returned GradientResult carries that leading stack axis."""
    p_i, p_j, _ = _split_params(params, sel)
    if sel.manifold == "optical":
        _check_labels(sel, p_i.dimension, p_j.dimension)
        slope_i, gap_i = _slopes_and_gaps(p_i, fields, (sel.level_i,))
        slope_j, gap_j = _slopes_and_gaps(p_j, fields, (sel.level_j,))
        slopes = np.concatenate([slope_i, slope_j], axis=1)
        gaps = np.concatenate([gap_i, gap_j], axis=1)
    else:
        _check_labels(sel, p_i.dimension, p_i.dimension)
        slopes, gaps = _slopes_and_gaps(p_i, fields, (sel.level_i, sel.level_j))
    hf = slopes[:, 1] - slopes[:, 0]
    min_gap = np.minimum(gaps[:, 0], gaps[:, 1])

    # central differences: per field the order is +x, -x, +y, -y, +z, -z
    offsets = step * np.eye(3)
    stencil = np.stack(
        [fields[:, None, :] + offsets, fields[:, None, :] - offsets], axis=2
    ).reshape(-1, 3)
    f = transition_frequencies(params, stencil, sel).reshape(-1, 3, 2)
    fd = (f[..., 0] - f[..., 1]) / (2.0 * step)

    flagged = (min_gap < degeneracy_gap) | (np.max(np.abs(hf - fd), axis=1) > consistency_tol)
    return GradientResult(
        vector=np.where(flagged[:, None], fd, hf),
        hellmann_feynman=hf,
        finite_difference=fd,
        flagged=flagged,
        min_gap=min_gap,
    )


def frequency_gradient(
    params,
    field,
    sel: TransitionSelector,
    *,
    step: float = 0.01,
    degeneracy_gap: float = 1e-3,
    consistency_tol: float = 1e-4,
) -> GradientResult:
    """Gradient of the selected transition frequency, cross-checked two ways.

    Computes Hellmann-Feynman expectation values on the eigenstates and
    central finite differences with the given ``step`` (mT). Away from
    level crossings the two must agree to ``consistency_tol`` MHz/mT; if
    they do not, or a connected level sits closer than ``degeneracy_gap``
    MHz to a neighbor, the result is flagged and the finite-difference
    estimate is used.
    """
    if step <= 0:
        raise InvalidParameterError(f"step must be positive, got {step}")
    g = _gradients(
        params, as_field(field)[None], sel, step, degeneracy_gap, consistency_tol
    )
    return GradientResult(
        vector=g.vector[0],
        hellmann_feynman=g.hellmann_feynman[0],
        finite_difference=g.finite_difference[0],
        flagged=bool(g.flagged[0]),
        min_gap=float(g.min_gap[0]),
    )


_PAIRS = ((0, 1), (0, 2), (1, 2))


def frequency_curvatures(
    params, field, sel: TransitionSelector, *, step: float = 0.5
) -> np.ndarray:
    """Quadratic-expansion coefficient matrix C in kHz/mT^2.

    Central second differences with one Richardson extrapolation level
    (steps ``step`` and ``step/2``). C equals half the plain Hessian, so
    its diagonal at a stationary point reproduces the curvatures S2i of
    the quadratic model directly. All 37 stencil fields are diagonalized
    as one stack.
    """
    if step < 1e-4:
        raise InvalidParameterError(
            f"curvature step collapsed below 1e-4 mT (got {step})"
        )
    b = as_field(field)
    steps = (step, step / 2.0)

    def unit(axis: int, h: float) -> np.ndarray:
        e = np.zeros(3)
        e[axis] = h
        return e

    # The stencil fields are formed exactly as b + e1 - e2 etc., so that
    # zero components keep the signs of a point-by-point evaluation.
    stencil = [b]
    for axis in range(3):
        for h in steps:
            e = unit(axis, h)
            stencil += [b + e, b - e]
    for a1, a2 in _PAIRS:
        for h in steps:
            e1, e2 = unit(a1, h), unit(a2, h)
            stencil += [b + e1 + e2, b + e1 - e2, b - e1 + e2, b - e1 - e2]
    f = transition_frequencies(params, np.array(stencil), sel)
    f0 = f[0]
    h2 = np.array([h**2 for h in steps])
    d = f[1:13].reshape(3, 2, 2)  # axis, step, sign
    m = f[13:].reshape(3, 2, 4)  # pair, step, (++, +-, -+, --)
    second_diag = (d[..., 0] - 2.0 * f0 + d[..., 1]) / h2
    second_mixed = (m[..., 0] - m[..., 1] - m[..., 2] + m[..., 3]) / (4.0 * h2)

    def richardson(values: np.ndarray) -> np.ndarray:
        coarse, fine = values[:, 0], values[:, 1]
        return (4.0 * fine - coarse) / 3.0

    raw = np.diag(richardson(second_diag))
    for (a1, a2), value in zip(_PAIRS, richardson(second_mixed)):
        raw[a1, a2] = raw[a2, a1] = value
    return raw / 2.0 * 1000.0  # half-convention, MHz -> kHz


def quadratic_model(z: ZefozPoint, delta_field) -> float:
    """w0 + sum_i S2i * dBi^2, curvatures converted from kHz to MHz."""
    d = np.asarray(delta_field, dtype=float)
    return float(z.omega0 + np.sum(z.curvatures * 1e-3 * d**2))


def _free_gradient(params, point, sel, free: list[int]) -> np.ndarray:
    return _gradients(params, point[None], sel).vector[0, free]


def _newton_refine(
    params,
    sel: TransitionSelector,
    start: np.ndarray,
    bounds: FieldGrid,
    free: list[int],
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float] | None:
    """Damped Newton root-finding on the free gradient components.

    Returns the converged point and its gradient residual, or None."""
    point = start.copy()
    grad = _free_gradient(params, point, sel, free)
    for _ in range(max_iter):
        if np.max(np.abs(grad)) <= tol:
            return point, float(np.max(np.abs(grad)))
        curv = frequency_curvatures(params, point, sel)
        jac = 2.0 * curv[np.ix_(free, free)] * 1e-3  # raw Hessian, MHz/mT^2
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
            trial_grad = _free_gradient(params, trial, sel, free)
            if np.max(np.abs(trial_grad)) < np.max(np.abs(grad)):
                point, grad = trial, trial_grad
                improved = True
                break
        if not improved:
            break
    residual = float(np.max(np.abs(grad)))
    return (point, residual) if residual <= tol else None


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
    grads = _gradients(params, grid_points, sel).vector[:, free]

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
        refined = _newton_refine(params, sel, seed, bounds, free, tol, max_iter)
        if refined is not None and bounds.contains(refined[0], margin=1e-6):
            endpoints.append(refined)
    endpoints.sort(key=lambda e: e[1])  # stable: equal residuals keep seed order
    distinct: list[tuple[np.ndarray, float]] = []
    for solution, residual in endpoints:
        if all(np.max(np.abs(solution - kept)) >= MERGE_DISTANCE for kept, _ in distinct):
            distinct.append((solution, residual))

    found: list[ZefozPoint] = []
    for solution, residual in distinct:
        curv = frequency_curvatures(params, solution, sel)
        diag = np.diag(curv).copy()
        signature = tuple(int(np.sign(round(c, 6))) for c in diag)
        found.append(
            ZefozPoint(
                field=solution,
                omega0=transition_frequency(params, solution, sel),
                gradient_residual=residual,
                curvatures=diag,
                hessian_signature=signature,
                curvature_matrix=curv,
                selector=sel,
            )
        )
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
