"""Effective spin Hamiltonian of a Kramers doublet coupled to its nucleus.

The model for one electronic state is

    H = g_par*mu_B*Bz*Sz + g_perp*mu_B*(Bx*Sx + By*Sy)
        + A*Iz*Sz + B_hf*(Ix*Sx + Iy*Sy)
        + P*(Iz^2 - I(I+1)/3)

with energies in MHz, magnetic fields in mT and mu_B in MHz/mT. The z axis
is the crystal symmetry axis. Eigenstates are expressed in the |M_I, M_S>
product basis (M_I outer descending, M_S inner descending).

H is linear in the field, H(B) = H0 + sum_i B_i M_i. The angular-momentum
operators depend on (S, I) alone: they are built once per spin pair and
shared read-only by every ``SpinParams`` with those spins, in a small
module-level cache. Each ``SpinParams`` caches its real H0, summed once,
and the Zeeman operators M_i = dH/dB_i, read-only (``linear_terms``).
H is axial, so every eigensystem is solved in the field's azimuthal
frame, where the field is (B_perp, 0, Bz) and H is real symmetric: the
package has one eigensolver, ``_axial_eigensystems``, on the (B_perp, Bz)
frames that ``_azimuthal_frames`` gives (``fieldmap`` feeds it blocks of
frames). An in-plane frame (Bz = 0, B_perp > 0) is centrosymmetric in
the product basis, as H commutes with the pi rotation about x, so the
eigensolver splits it into two half-size blocks, from H0 and M_x blocks
cached per ``SpinParams``; every other frame is solved whole.
``ion_levels``, the one route from a
``SpinParams`` and one field to a labelled ``LevelSet``, maps its vectors
to the lab frame and is the one place that fixes their gauge. The field
grids ``AxisGrid`` and ``FieldGrid`` live here, next to ``as_field``, so
that a module that only takes a grid (``transitions``) does not load
``fieldmap``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Real
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .operators import (
    electron_operator,
    is_half_integer,
    multiplicity,
    nuclear_operator,
    product_basis,
    spin_matrices,
)

# Rounded frequency-unit Bohr magneton conventionally used for this ion
# family; the CODATA value is 13.996245 MHz/mT.
BOHR_MAGNETON_MHZ_PER_MT = 14.0
# Largest Hilbert dimension (2S+1)(2I+1) accepted: S and I up to 15/2. The
# Hamiltonian is a dense matrix of this size, built once per field.
MAX_DIMENSION = 256
# Spin pairs whose parameter-free operators stay cached; the largest entry
# (S = I = 15/2) holds about 6 MB.
BASIS_CACHE_SIZE = 4
# a Gaussian's FWHM over its standard deviation (``transitions``, ``eit``)
FWHM_PER_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))


@dataclass(frozen=True)
class SpinParams:
    """Parameter set of the effective Hamiltonian for one electronic state.

    ``A`` and ``B_hf`` are the axial and transverse hyperfine constants in
    MHz, ``P`` the quadrupole constant in MHz, ``g_par``/``g_perp`` the
    g-factor components along/perpendicular to z, and ``mu_B`` the Bohr
    magneton in MHz/mT.
    """

    electron_spin: float
    nuclear_spin: float
    g_par: float
    g_perp: float
    A: float
    B_hf: float
    P: float = 0.0
    mu_B: float = BOHR_MAGNETON_MHZ_PER_MT

    def __post_init__(self):
        for name in ("electron_spin", "nuclear_spin", "g_par", "g_perp", "A", "B_hf", "P", "mu_B"):
            if not math.isfinite(as_real(getattr(self, name), name)):
                raise InvalidParameterError(f"{name} must be finite")
        if not is_half_integer(self.electron_spin) or self.electron_spin < 0.5:
            raise InvalidParameterError(
                f"electron_spin must be a half-integer >= 1/2, got {self.electron_spin!r}"
            )
        if not is_half_integer(self.nuclear_spin) or self.nuclear_spin < 0.0:
            raise InvalidParameterError(
                f"nuclear_spin must be a non-negative half-integer, got {self.nuclear_spin!r}"
            )
        if self.dimension > MAX_DIMENSION:
            raise InvalidParameterError(
                f"Hilbert dimension (2S+1)(2I+1) must not exceed {MAX_DIMENSION}, "
                f"got S = {self.electron_spin!r}, I = {self.nuclear_spin!r}"
            )
        if not (self.mu_B > 0.0):
            raise InvalidParameterError(f"mu_B must be positive, got {self.mu_B!r}")

    @property
    def dimension(self) -> int:
        return multiplicity(self.electron_spin) * multiplicity(self.nuclear_spin)

    @cached_property
    def linear_terms(self) -> LinearTerms:
        """H0 and the Zeeman operators of this parameter set, built once."""
        spin, axial, transverse, quadrupole, _ = _spin_basis(self.electron_spin, self.nuclear_spin)
        h0 = self.A * axial + self.B_hf * transverse + self.P * quadrupole
        scale = np.array([self.g_perp, self.g_perp, self.g_par]) * self.mu_B
        terms = LinearTerms(h0=h0, zeeman=scale[:, None, None] * spin)
        for array in terms:
            array.flags.writeable = False
        return terms

    @cached_property
    def _in_plane_blocks(self) -> np.ndarray:
        """H0 and M_x of an even dimension d = 2n split into their
        centrosymmetric blocks, built once on first use: (2, 2, n, n),
        [H0, M_x][+, -] = A +- B J, where A = X[:n, :n], B = X[:n, n:] and
        J reverses the order of n states."""
        n = self.dimension // 2
        terms = self.linear_terms
        pair = np.stack([terms.h0, terms.zeeman[0].real])
        corner, mirrored = pair[:, :n, :n], pair[:, :n, n:][..., ::-1]
        blocks = np.stack([corner + mirrored, corner - mirrored], axis=1)
        blocks.flags.writeable = False
        return blocks


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _spin_basis(electron_spin: float, nuclear_spin: float) -> tuple[np.ndarray, ...]:
    """The parameter-free operators of one spin pair, shared read-only.

    Returns the lifted electron operators (Sx, Sy, Sz) stacked (3, d, d),
    the real matrices Iz Sz, Ix Sx + Iy Sy and the lifted quadrupole
    Iz^2 - I(I+1)/3, and m_F = M_I + M_S of each basis state (d,).
    """
    sx, sy, sz = spin_matrices(electron_spin)
    ix, iy, iz = spin_matrices(nuclear_spin)
    dim_s = multiplicity(electron_spin)
    dim_i = multiplicity(nuclear_spin)
    quad = iz @ iz - nuclear_spin * (nuclear_spin + 1.0) / 3.0 * np.eye(dim_i)
    spin = np.stack([electron_operator(s, dim_i) for s in (sx, sy, sz)])
    basis = (
        spin,
        np.kron(iz, sz).real,
        (np.kron(ix, sx) + np.kron(iy, sy)).real,
        nuclear_operator(quad, dim_s).real,
        np.diagonal(nuclear_operator(iz, dim_s) + spin[2]).real,
    )
    for array in basis:
        array.flags.writeable = False
    return basis


class LinearTerms(NamedTuple):
    """The field-linear form H(B) = H0 + sum_i B_i M_i of one parameter set.

    ``h0`` is the real (d, d) zero-field Hamiltonian, hyperfine plus
    quadrupole, summed once. ``zeeman`` is M = dH/dB, shape (3, d, d) in
    MHz/mT: M_i is g_i mu_B times the lifted electron spin operator, so
    M_x and M_z are real and M_y is i times a real antisymmetric matrix.
    """

    h0: np.ndarray
    zeeman: np.ndarray


def as_integer(value, name: str) -> int:
    """A count or label as an int: ints, bools and numpy integers pass, a
    float (2.0 included) does not."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None


def as_real(value, name: str):
    """``value`` unchanged if it is a real number (numpy reals too), else an error."""
    if not isinstance(value, Real):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    return value


def as_field(field) -> np.ndarray:
    """Coerce a length-3 sequence into a float array (mT)."""
    arr = np.asarray(field, dtype=float)
    if arr.shape != (3,):
        raise InvalidParameterError(f"field must have 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError("field components must be finite")
    return arr


def as_fields(fields) -> np.ndarray:
    """Coerce a stack of fields into a float array of shape (N, 3) (mT)."""
    arr = np.asarray(fields, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InvalidParameterError(
            f"field stack must have shape (N, 3), got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError("field components must be finite")
    return arr


@dataclass(frozen=True)
class AxisGrid:
    """Inclusive 1-D grid specification along one field axis (mT): stop
    must not be below start, and must be above it for two or more points.
    The run-config parser reports these errors with their line."""

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if as_integer(self.count, "grid count") < 1:
            raise InvalidParameterError(f"grid count must be >= 1, got {self.count}")
        for name in ("start", "stop"):
            if not np.isfinite(as_real(getattr(self, name), f"grid {name}")):
                raise InvalidParameterError(f"grid {name} must be finite")
        if self.stop < self.start:
            raise InvalidParameterError(
                f"grid stop {self.stop} is below start {self.start}"
            )
        if self.count > 1 and self.stop == self.start:
            raise InvalidParameterError(
                f"grid stop {self.stop} must be above start {self.start} for {self.count} points"
            )

    @property
    def span(self) -> tuple[float, float]:
        """The first and last grid values (a one-point grid: its start twice)."""
        return (self.start, self.stop if self.count > 1 else self.start)

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

    def contains(self, point: np.ndarray) -> bool:
        """Whether ``point`` lies between the first and last grid values of
        every axis (on a one-point axis, at its value), to within 1e-9 mT."""
        for k in range(3):
            low, high = self.axis(k).span
            if not (low - 1e-9 <= point[k] <= high + 1e-9):
                return False
        return True


@dataclass(frozen=True)
class IonParams:
    """Ground and excited parameter sets of one ion.

    Optical frequencies are E_excited - E_ground, relative to the optical
    origin; absolute optical frequencies are not modelled.
    """

    ground: SpinParams
    excited: SpinParams


class StateComponent(NamedTuple):
    m_i: float
    m_s: float
    amplitude: complex


@dataclass
class LevelSet:
    """Sorted eigenenergies (MHz) and gauge-fixed eigenvectors of one
    electronic state at one field, as built by ``ion_levels``.

    ``eigenvectors[:, k]`` belongs to ``energies[k]``, which is level
    ``k + 1``: labels are 1-based and ascend with energy. Each column's
    largest component is real and >= 0 (the gauge); at an in-plane field,
    where mirror components |M_I, M_S> and |-M_I, -M_S> have equal
    magnitudes, the first of them. ``basis`` lists (M_I, M_S) per
    product-basis index.
    """

    energies: np.ndarray
    eigenvectors: np.ndarray
    basis: list[tuple[float, float]]

    @property
    def dimension(self) -> int:
        return self.energies.size

    def energy(self, label: int) -> float:
        return float(self.energies[self._index(label)])

    def vector(self, label: int) -> np.ndarray:
        return self.eigenvectors[:, self._index(label)]

    def _index(self, label: int) -> int:
        label = as_integer(label, "level label")
        if not 1 <= label <= self.dimension:
            raise InvalidParameterError(
                f"level label {label} outside 1..{self.dimension}"
            )
        return label - 1


def _azimuthal_frames(fields: np.ndarray):
    """B_perp (N,) and azimuths (N, 2) of a stack of fields (N, 3):
    (cos phi, sin phi) = (Bx, By) / B_perp, or (1, 0) on the z axis."""
    b_perp = np.hypot(fields[:, 0], fields[:, 1])
    azimuth = np.zeros((len(fields), 2))
    azimuth[:, 0] = 1.0
    np.divide(fields[:, :2], b_perp[:, None], out=azimuth, where=b_perp[:, None] > 0.0)
    return b_perp, azimuth


def _axial_eigensystems(params: SpinParams, b_perp: np.ndarray, bz: np.ndarray):
    """Energies (N, d) and real eigenvectors (N, d, d) of the frame matrices
    H(B_perp, 0, Bz) of 1-D stacks ``b_perp`` and ``bz`` (N,). A field B
    with the B_perp and azimuth phi of ``_azimuthal_frames`` has H(B) =
    U H(B_perp, 0, Bz) U^dagger with U = exp(-i phi F_z). The frame matrix
    is summed element by element from real terms, so it is exactly
    symmetric and a frame gets the same bits in any stack.

    An in-plane frame (Bz == 0, B_perp > 0) of an even dimension d = 2n
    is split in two. H0 and M_x commute with the pi rotation about x,
    which in the product basis is +-J, the reversal k <-> d-1-k of the
    states, so the frame matrix is centrosymmetric, J H J = H, and splits
    by indexing alone into the n x n blocks h+- = A +- B J of its top rows
    [A B]. They are assembled as h0+- + B_perp Mx+- from
    ``SpinParams._in_plane_blocks``, and one stacked ``eigh`` solves both
    blocks of every in-plane frame. An eigenvector a of h+- is the
    product-basis vector (a, +-J a)/sqrt(2); the energies of the two
    blocks are merged by a stable sort. Every other frame (B = 0, on the
    axis, Bz != 0, or an odd dimension) is solved whole. The route is
    chosen per frame, so a frame gets the same bits in a mixed stack too."""
    # count_nonzero first: the cheapest test that no frame is in the plane
    if np.count_nonzero(bz) < len(bz) and params.dimension % 2 == 0:
        in_plane = (bz == 0.0) & (b_perp > 0.0)
        if in_plane.all():
            return _in_plane_eigensystems(params._in_plane_blocks, b_perp)
        if in_plane.any():
            dim, rest = params.dimension, ~in_plane
            energies, vectors = np.empty((len(bz), dim)), np.empty((len(bz), dim, dim))
            energies[rest], vectors[rest] = _axial_eigensystems(params, b_perp[rest], bz[rest])
            energies[in_plane], vectors[in_plane] = _in_plane_eigensystems(
                params._in_plane_blocks, b_perp[in_plane])
            return energies, vectors
    terms = params.linear_terms
    # (H0 + B_perp M_x) + Bz M_z, summed in place
    h = np.multiply(b_perp[:, None, None], terms.zeeman[0].real)
    h += terms.h0
    h += np.multiply(bz[:, None, None], terms.zeeman[2].real)
    return np.linalg.eigh(h)


def _in_plane_eigensystems(blocks: np.ndarray, b_perp: np.ndarray):
    """``_axial_eigensystems`` of in-plane frames: ``eigh`` of the blocks
    h+- = h0+- + B_perp Mx+-, mapped back to sorted energies (N, 2n) and
    product-basis vectors (N, 2n, 2n)."""
    count, n = len(b_perp), blocks.shape[-1]
    h = blocks[0][:, None] + b_perp[:, None, None] * blocks[1][:, None]  # (2, N, n, n)
    energies, vectors = np.linalg.eigh(h.reshape(2 * count, n, n))
    energies = energies.reshape(2, count, n).transpose(1, 0, 2).reshape(count, 2 * n)
    # one row per level: (a, J a) of h+ levels, then (a, -J a) of h- levels
    kets = vectors.reshape(2, count, n, n).transpose(0, 1, 3, 2)
    rows = np.empty((count, 2 * n, 2 * n))
    rows[:, :n, :n], rows[:, n:, :n] = kets
    rows[:, :n, n:] = kets[0, ..., ::-1]
    np.negative(kets[1, ..., ::-1], out=rows[:, n:, n:])
    order = np.argsort(energies, axis=1, kind="stable")
    frames = np.arange(count)[:, None]
    return (energies[frames, order],
            np.multiply(rows[frames, order].transpose(0, 2, 1), np.sqrt(0.5), order="C"))


def _azimuthal_phases(params: SpinParams, azimuth: np.ndarray) -> np.ndarray:
    """exp(-i phi m_F) per basis state for azimuths (..., 2), shape
    (..., d): the diagonal of U = exp(-i phi F_z), which maps vectors of
    the azimuthal frame to the lab frame."""
    m_f = _spin_basis(params.electron_spin, params.nuclear_spin)[-1]
    phi = np.arctan2(azimuth[..., 1], azimuth[..., 0])
    return np.exp(-1j * np.multiply.outer(phi, m_f))


def ion_levels(params: SpinParams, field) -> LevelSet:
    """Diagonalize one electronic state at one field (3,), with the
    product-basis labels of its spin pair.

    The real eigensystem of the field's azimuthal frame, mapped to the lab
    frame and gauge-fixed: each column is turned by the unit phase that
    makes its largest component real and >= 0. Within a degenerate
    cluster only the spanned subspace should be relied on.
    """
    fields = as_field(field)[None]
    b_perp, azimuth = _azimuthal_frames(fields)
    energies, vectors = _axial_eigensystems(params, b_perp, fields[:, 2])
    vectors, phases = vectors[0], _azimuthal_phases(params, azimuth[0])
    # the lab-frame pivot is phases[pivot] * vectors[pivot]: undo its phase
    pivot = np.argmax(np.abs(vectors), axis=0)
    gauge = np.sign(vectors[pivot, np.arange(len(pivot))]) * phases[pivot].conj()
    basis = product_basis(params.nuclear_spin, params.electron_spin)
    return LevelSet(energies=energies[0], eigenvectors=phases[:, None] * vectors * gauge,
                    basis=basis)


def state_composition(
    levels: LevelSet, label: int, threshold: float = 0.0
) -> list[StateComponent]:
    """Product-basis components of one eigenstate, sorted by |amplitude|.

    Returns every component with magnitude strictly above ``threshold``.
    With ``threshold=0`` the squared magnitudes of the returned list sum
    to one.
    """
    if not 0.0 <= as_real(threshold, "threshold") < 1.0:
        raise InvalidParameterError(f"threshold must lie in [0, 1), got {threshold!r}")
    vec = levels.vector(label)
    order = np.argsort(-np.abs(vec), kind="stable")
    out = []
    for idx in order:
        amp = vec[idx]
        if abs(amp) > threshold:
            m_i, m_s = levels.basis[idx]
            out.append(StateComponent(m_i=m_i, m_s=m_s, amplitude=complex(amp)))
    return out
