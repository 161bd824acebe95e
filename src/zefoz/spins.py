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
package has one eigensolver, ``_axial_eigensystems`` (``fieldmap`` feeds
it fixed-size blocks). ``ion_levels``, the one route from a
``SpinParams`` and one field to a labelled ``LevelSet``, maps its vectors
to the lab frame and is the one place that fixes their gauge.
``build_hamiltonian`` assembles the lab-frame matrix H(B). The field
grids ``AxisGrid`` and ``FieldGrid`` live here, next to ``as_field``, so
that a module that only takes a grid (``transitions``) does not load
``fieldmap``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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
        for name in ("g_par", "g_perp", "A", "B_hf", "P"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite")

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
    """Inclusive 1-D grid specification along one field axis (mT)."""

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise InvalidParameterError(f"grid count must be >= 1, got {self.count}")
        for name in ("start", "stop"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"grid {name} must be finite")
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

    def contains(self, point: np.ndarray) -> bool:
        """Whether ``point`` lies in the box, to within 1e-9 mT of its edges."""
        for k in range(3):
            ax = self.axis(k)
            if not (ax.start - 1e-9 <= point[k] <= ax.stop + 1e-9):
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
    largest component is real and >= 0 (the gauge). ``basis`` lists
    (M_I, M_S) per product-basis index.
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
        if not 1 <= label <= self.dimension:
            raise InvalidParameterError(
                f"level label {label} outside 1..{self.dimension}"
            )
        return label - 1


def build_hamiltonian(params: SpinParams, field) -> np.ndarray:
    """Assemble the effective Hamiltonian matrix (MHz) at the given field.

    ``field`` is one field (3,) or a stack (N, 3); the result is (d, d) or
    (N, d, d), H(B) = H0 + sum_i B_i M_i from ``params.linear_terms`` as
    one matrix product. The result is exactly Hermitian and traceless
    whenever the quadrupole term enters through its traceless form.
    """
    b = as_fields(field) if np.ndim(field) == 2 else as_field(field)
    terms = params.linear_terms
    d = params.dimension
    return (b @ terms.zeeman.reshape(3, d * d)).reshape(b.shape[:-1] + (d, d)) + terms.h0


def _azimuthal_frames(fields: np.ndarray):
    """B_perp (N,) and azimuths (N, 2) of a stack of fields (N, 3):
    (cos phi, sin phi) = (Bx, By) / B_perp, or (1, 0) on the z axis."""
    b_perp = np.hypot(fields[:, 0], fields[:, 1])
    azimuth = np.zeros((len(fields), 2))
    azimuth[:, 0] = 1.0
    np.divide(fields[:, :2], b_perp[:, None], out=azimuth, where=b_perp[:, None] > 0.0)
    return b_perp, azimuth


def _axial_eigensystems(params: SpinParams, fields: np.ndarray):
    """Energies (N, d), real eigenvectors (N, d, d) and azimuths (N, 2) of
    a stack of fields (N, 3), each in its field's azimuthal frame: H(B) =
    U H(B') U^dagger with U = exp(-i phi F_z), the azimuth phi of
    ``_azimuthal_frames`` and B' = (B_perp, 0, Bz). H(B') is summed element
    by element from real terms, so it is exactly symmetric and a field
    gets the same bits in any stack."""
    terms = params.linear_terms
    b_perp, azimuth = _azimuthal_frames(fields)
    h = (terms.h0 + b_perp[:, None, None] * terms.zeeman[0].real
         + fields[:, 2, None, None] * terms.zeeman[2].real)
    energies, vectors = np.linalg.eigh(h)
    return energies, vectors, azimuth


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
    energies, vectors, azimuth = _axial_eigensystems(params, as_field(field)[None])
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
    if not 0.0 <= threshold < 1.0:
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
