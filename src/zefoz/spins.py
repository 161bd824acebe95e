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
module-level cache. Each ``SpinParams`` caches only its scaled terms, the
field-free terms of H0 and the Zeeman operators M_i = dH/dB_i, read-only
(``SpinParams.linear_terms``).
``build_hamiltonian`` takes one field or a stack of fields, and
``diagonalize_stack`` decomposes a stack in one LAPACK call; callers that
evaluate many fields (``fieldmap``) feed it fixed-size blocks so that
temporaries stay small. ``ion_levels`` is the one route from a
``SpinParams`` and one field to a labelled ``LevelSet``. The field grids
``AxisGrid`` and ``FieldGrid`` live here, next to ``as_field``, so that a
module that only takes a grid (``transitions``) does not load ``fieldmap``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ComputationError, InvalidParameterError
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
# Largest anti-Hermitian residual accepted by the eigensolver, relative to
# the matrix's largest entry (or 1 MHz, whichever is more).
HERMITICITY_TOL = 1e-12


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
        """H0 terms and Zeeman operators of this parameter set, built once."""
        spin, axial, transverse, quadrupole = _spin_basis(self.electron_spin, self.nuclear_spin)
        scale = np.array([self.g_perp, self.g_perp, self.g_par]) * self.mu_B
        zero_field = [self.A * axial + self.B_hf * transverse]
        if self.P != 0.0:
            zero_field.append(self.P * quadrupole)
        terms = LinearTerms(
            zero_field=tuple(zero_field), spin=spin, zeeman=scale[:, None, None] * spin
        )
        for array in (*terms.zero_field, terms.zeeman):
            array.flags.writeable = False
        return terms


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _spin_basis(electron_spin: float, nuclear_spin: float) -> tuple[np.ndarray, ...]:
    """The parameter-free operators of one spin pair, shared read-only.

    Returns the lifted electron operators (Sx, Sy, Sz) stacked (3, d, d),
    Iz Sz, Ix Sx + Iy Sy, and the lifted quadrupole Iz^2 - I(I+1)/3.
    """
    sx, sy, sz = spin_matrices(electron_spin)
    ix, iy, iz = spin_matrices(nuclear_spin)
    dim_s = multiplicity(electron_spin)
    dim_i = multiplicity(nuclear_spin)
    quad = iz @ iz - nuclear_spin * (nuclear_spin + 1.0) / 3.0 * np.eye(dim_i)
    basis = (
        np.stack([electron_operator(s, dim_i) for s in (sx, sy, sz)]),
        np.kron(iz, sz),
        np.kron(ix, sx) + np.kron(iy, sy),
        nuclear_operator(quad, dim_s),
    )
    for array in basis:
        array.flags.writeable = False
    return basis


class LinearTerms(NamedTuple):
    """The field-linear form H(B) = H0 + sum_i B_i M_i of one parameter set.

    ``zeeman`` is M = dH/dB, shape (3, d, d) in MHz/mT, with M_i the
    lifted electron spin operator ``spin[i]`` times g_i mu_B; ``spin`` is
    the one array shared by every parameter set with the same (S, I).
    ``zero_field`` holds the terms of H0 in the order they are added:
    hyperfine, then the quadrupole term when P != 0. ``build_hamiltonian``
    multiplies g_i mu_B B_i into ``spin[i]`` and adds the H0 terms one by
    one after the Zeeman terms; that association keeps every matrix, signed
    zeros included, bit-identical to term-by-term assembly.
    """

    zero_field: tuple[np.ndarray, ...]
    spin: np.ndarray
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

    def contains(self, point: np.ndarray, margin: float = 1e-9) -> bool:
        for k in range(3):
            ax = self.axis(k)
            if not (ax.start - margin <= point[k] <= ax.stop + margin):
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
    ``k + 1``: labels are 1-based and ascend with energy. ``basis`` lists
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
    (N, d, d). H(B) = H0 + sum_i B_i M_i is summed from the cached terms of
    ``params.linear_terms`` in a fixed order (z-Zeeman, transverse Zeeman,
    hyperfine, quadrupole), so a stack of fields gives bit for bit the
    matrices of one field at a time. The result is exactly Hermitian by
    construction and traceless whenever the quadrupole term enters through
    its traceless form.
    """
    b = (as_fields(field) if np.ndim(field) == 2 else as_field(field))[..., None, None]
    terms = params.linear_terms
    bx, by, bz = b[..., 0, :, :], b[..., 1, :, :], b[..., 2, :, :]
    h = params.g_par * params.mu_B * bz * terms.spin[2]
    h = h + params.g_perp * params.mu_B * (bx * terms.spin[0] + by * terms.spin[1])
    for term in terms.zero_field:
        h = h + term
    return h


def diagonalize_stack(hamiltonians: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompose a stack (N, d, d) of Hermitian matrices in one call.

    Returns energies (N, d), ascending per matrix, and eigenvectors
    (N, d, d) with ``vectors[n, :, k]`` belonging to ``energies[n, k]``.
    Every matrix is checked for Hermiticity first (``HERMITICITY_TOL``
    relative); every vector is then gauge-fixed so that its largest
    component is real and non-negative. LAPACK returns orthonormal vectors
    in every case; inside a degenerate cluster (the level pairs at zero
    field) only the subspace they span is meaningful, not the individual
    vectors.
    """
    h = np.asarray(hamiltonians, dtype=complex)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise InvalidParameterError(
            f"expected a stack of square matrices, got shape {h.shape}"
        )
    scale = np.maximum(1.0, np.max(np.abs(h), axis=(1, 2)))
    residual = np.max(np.abs(h - h.conj().transpose(0, 2, 1)), axis=(1, 2))
    bad = residual > HERMITICITY_TOL * scale
    if np.any(bad):
        worst = float(residual[np.argmax(bad)])
        raise ComputationError(
            f"matrix is not Hermitian: residual {worst:.3e} exceeds "
            f"{HERMITICITY_TOL:.1e} relative"
        )
    energies, vectors = np.linalg.eigh(h)
    return energies, _gauge_fix(vectors)


def _gauge_fix(vectors: np.ndarray) -> np.ndarray:
    """Rotate each unit column's phase so its largest component is real >= 0.

    The pivot modulus is taken with ``hypot``, as the scalar ``abs`` does,
    so the phases match a column-by-column fix bit for bit.
    """
    idx = np.argmax(np.abs(vectors), axis=-2)
    pivot = np.take_along_axis(vectors, idx[..., None, :], axis=-2)
    return vectors * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def ion_levels(params: SpinParams, field) -> LevelSet:
    """Diagonalize one electronic state at one field (3,), with the
    product-basis labels of its spin pair.

    One matrix through ``diagonalize_stack``: the same Hermiticity check
    and gauge fix, and within a degenerate cluster only the spanned
    subspace should be relied on.
    """
    h = build_hamiltonian(params, as_field(field))
    energies, vectors = diagonalize_stack(h[None])
    basis = product_basis(params.nuclear_spin, params.electron_spin)
    return LevelSet(energies=energies[0], eigenvectors=vectors[0], basis=basis)


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
