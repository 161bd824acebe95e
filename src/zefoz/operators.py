"""Angular-momentum matrices and the |M_I, M_S> product basis.

All matrices use the descending-m convention: the first basis state carries
the largest magnetic quantum number. Product-space operators are ordered
with the nuclear index outermost, so basis state ``k`` is
``|M_I, M_S>`` with ``M_I`` varying slowest.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError


def is_half_integer(x: float) -> bool:
    """True when ``2*x`` is a finite integer to within floating-point tolerance."""
    y = 2.0 * x
    return math.isfinite(y) and abs(y - round(y)) < 1e-12


def multiplicity(spin: float) -> int:
    return int(round(2.0 * spin + 1.0))


def spin_matrices(spin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Sx, Sy, Sz) for a single spin.

    Built from the ladder operators so that Sx and Sy are exactly Hermitian
    element-by-element. ``spin`` must be a non-negative half-integer.
    """
    if spin < 0 or not is_half_integer(spin):
        raise InvalidParameterError(
            f"spin must be a non-negative half-integer, got {spin!r}"
        )
    dim = multiplicity(spin)
    m = spin - np.arange(dim)
    s_plus = np.zeros((dim, dim), dtype=complex)
    if dim > 1:
        amp = np.sqrt(spin * (spin + 1.0) - m[1:] * (m[1:] + 1.0))
        s_plus[np.arange(dim - 1), np.arange(1, dim)] = amp
    s_minus = s_plus.conj().T
    sx = (s_plus + s_minus) / 2.0
    sy = (s_plus - s_minus) / 2.0j
    sz = np.diag(m).astype(complex)
    return sx, sy, sz


def product_basis(nuclear_spin: float, electron_spin: float) -> list[tuple[float, float]]:
    """Labels (M_I, M_S) of the product basis, both descending, M_I outer."""
    mi = [nuclear_spin - k for k in range(multiplicity(nuclear_spin))]
    ms = [electron_spin - k for k in range(multiplicity(electron_spin))]
    return [(a, b) for a in mi for b in ms]


def electron_operator(op: np.ndarray, nuclear_dim: int) -> np.ndarray:
    """Lift an electron-spin operator into the product space."""
    return np.kron(np.eye(nuclear_dim), op)


def nuclear_operator(op: np.ndarray, electron_dim: int) -> np.ndarray:
    """Lift a nuclear-spin operator into the product space."""
    return np.kron(op, np.eye(electron_dim))
