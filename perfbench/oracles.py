"""Independent checks of each op's result.

Nothing here calls into ``zefoz`` except ``averaged_susceptibility`` and
``susceptibility`` in the quadrature check, which compares the two. The
Hamiltonian is rebuilt from its definition with numpy alone, and the
stationary point comes from the closed-block formula.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


class CheckFailed(Exception):
    """An op returned a result that its oracle rejects."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _spin(s: float):
    m = s - np.arange(int(round(2 * s + 1)))
    plus = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    return (plus + plus.T) / 2, (plus - plus.T) / 2j, np.diag(m).astype(complex)


def hamiltonian(p: dict, field) -> np.ndarray:
    """The effective spin Hamiltonian, |M_I, M_S> basis with M_I outer."""
    sx, sy, sz = _spin(p["electron_spin"])
    ix, iy, iz = _spin(p["nuclear_spin"])
    one_i, one_s = np.eye(len(iz)), np.eye(len(sz))
    bx, by, bz = field
    mu = p.get("mu_B", 14.0)
    quad_i = iz @ iz - p["nuclear_spin"] * (p["nuclear_spin"] + 1) / 3 * one_i
    return (
        mu * p["g_perp"] * (bx * np.kron(one_i, sx) + by * np.kron(one_i, sy))
        + mu * p["g_par"] * bz * np.kron(one_i, sz)
        + p["A"] * np.kron(iz, sz)
        + p["B_hf"] * (np.kron(ix, sx) + np.kron(iy, sy))
        + p["P"] * np.kron(quad_i, one_s)
    )


def check_search(points, case: dict) -> None:
    """Every returned point is the closed-block clock point, to 1e-6
    relative, with gradient residual <= tol. Duplicates are accepted."""
    bz, omega0 = case["expected"]
    require(len(points) >= 1, "no stationary point returned")
    for z in points:
        bx, by, bz_found = (float(v) for v in z.field)
        require(abs(bz_found / bz - 1) <= 1e-6, f"Bz {bz_found!r} != {bz!r}")
        require(math.hypot(bx, by) <= 1e-6 * abs(bz), f"transverse field {bx!r}, {by!r}")
        require(abs(z.omega0 / omega0 - 1) <= 1e-6, f"omega0 {z.omega0!r} != {omega0!r}")
        require(z.gradient_residual <= case["tol"], f"residual {z.gradient_residual!r}")


def check_levels(levels, params: dict, field) -> None:
    """Eigen-residual, orthonormality and trace against an independent H."""
    h = hamiltonian(params, field)
    scale = max(1.0, float(np.max(np.abs(h))))
    e, v = np.asarray(levels.energies), np.asarray(levels.eigenvectors)
    require(e.shape == (h.shape[0],), f"{e.size} energies for dimension {h.shape[0]}")
    require(np.all(np.diff(e) >= 0), "energies not ascending")
    residual = float(np.max(np.abs(h @ v - v * e)))
    require(residual <= 1e-9 * scale, f"eigen-residual {residual:.3e}")
    require(np.allclose(v.conj().T @ v, np.eye(e.size), atol=1e-10), "vectors not orthonormal")
    trace = float(np.trace(h).real)
    require(abs(e.sum() - trace) <= 1e-9 * scale * e.size, f"trace {e.sum()!r} != {trace!r}")


def check_point(result, case: dict) -> None:
    levels, gradient = result
    check_levels(levels, case["ground"], case["field"])
    require(np.all(np.isfinite(gradient.vector)), "gradient not finite")


def check_diagram(diagram, case: dict) -> None:
    """Row traces everywhere; sorted rows against eigvalsh at three points."""
    energies = np.asarray(diagram.energies)
    points = np.asarray(diagram.field_points)
    require(energies.shape[0] == case["scan"][2], "wrong number of diagram rows")
    trace = float(np.trace(hamiltonian(case["ground"], points[0])).real)  # field-independent
    for k in range(len(points)):
        require(abs(energies[k].sum() - trace) <= 1e-6, f"row {k} trace {energies[k].sum()!r}")
    for k in (0, len(points) // 2, len(points) - 1):
        exact = np.linalg.eigvalsh(hamiltonian(case["ground"], points[k]))
        require(np.allclose(np.sort(energies[k]), exact, atol=1e-8), f"row {k} energies")


def check_table(table, dim: int) -> None:
    """S_x sum rule: sum over excited levels of the strength is 1/4."""
    require(len(table) == dim * dim, f"{len(table)} lines for dimension {dim}")
    totals: dict[int, float] = {}
    for line in table:
        totals[line.ground_label] = totals.get(line.ground_label, 0.0) + line.strength
    for g, total in totals.items():
        require(abs(total - 0.25) <= 1e-9, f"sum rule for ground level {g}: {total!r}")


def check_spectrum(result, dim: int, grid_count: int) -> None:
    table, systems, (freqs, depth) = result
    check_table(table, dim)
    for s in systems:
        require(s.strength_a > 0 and s.strength_b > 0, "lambda system with a dark branch")
    require(len(freqs) == grid_count and len(depth) == grid_count, "spectrum grid size")
    require(np.all(np.isfinite(depth)) and np.all(depth >= 0), "negative or non-finite depth")


def check_profile(profile) -> None:
    require(np.all(profile.alpha_off > 0), "alpha_off not positive")
    require(np.all(np.isfinite(profile.transmission)), "transmission not finite")
    require(np.all(profile.transmission <= 1 + 1e-12), "transmission above 1")


def check_sweep(rows, count: int) -> None:
    require(len(rows) == count, f"{len(rows)} sweep rows, expected {count}")
    for row in rows:
        require(math.isfinite(row.amplitude) and row.amplitude <= 1 + 1e-12,
                f"amplitude {row.amplitude!r}")
        require(math.isfinite(row.omega12) and math.isfinite(row.omega12_exact), "omega12")


def check_faddeeva(averaged, single, lam, detunings) -> None:
    """The Faddeeva closed form of <chi> against direct quadrature of chi
    over the Gaussian inhomogeneous distribution, at each (f, d2)."""
    sigma = lam.optical_inhom_fwhm / (2 * math.sqrt(2 * math.log(2)))
    norm = 1 / (sigma * math.sqrt(2 * math.pi))
    for f, d2 in detunings:
        def integrand(d, part):
            chi = complex(single(f - d, d2, lam))
            return (chi.real, chi.imag)[part] * norm * math.exp(-d * d / (2 * sigma * sigma))
        expected = complex(*(
            quad(integrand, -12 * sigma, 12 * sigma, args=(part,), points=[f],
                 limit=400, epsabs=1e-13, epsrel=1e-10)[0]
            for part in (0, 1)
        ))
        got = complex(averaged(f, d2, lam))
        require(abs(got - expected) <= 1e-7 * max(abs(expected), 1e-3),
                f"Faddeeva {got!r} != quadrature {expected!r} at f={f!r}, d2={d2!r}")
