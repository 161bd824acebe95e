"""Shared fixtures: the Nd3+:YLiF4 reference ion and its ZEFOZ point.

Ground-state constants are the published EPR values for 143Nd in YLiF4;
the excited-state set is the optically determined one. The analytic
two-level block formula used as an oracle in several tests follows from
the fact that a purely longitudinal field leaves {(5/2, +1/2), (7/2, -1/2)}
an exactly closed two-dimensional block of the ground Hamiltonian.
"""

from __future__ import annotations

import numpy as np
import pytest

from zefoz import (
    AxisGrid,
    FieldGrid,
    IonParams,
    SpinParams,
    TransitionSelector,
    ion_levels,
    transition_frequency,
    zefoz_search,
)

ND_GROUND = dict(
    electron_spin=0.5,
    nuclear_spin=3.5,
    g_par=1.987,
    g_perp=2.554,
    A=-590.0,
    B_hf=-789.0,
    P=0.0,
)
ND_EXCITED = dict(
    electron_spin=0.5,
    nuclear_spin=3.5,
    g_par=0.18,
    g_perp=0.0,
    A=-257.0,
    B_hf=-456.0,
    P=0.0,
)


@pytest.fixture(scope="session")
def nd_ground() -> SpinParams:
    return SpinParams(**ND_GROUND)


@pytest.fixture(scope="session")
def nd_excited() -> SpinParams:
    return SpinParams(**ND_EXCITED)


@pytest.fixture(scope="session")
def nd_ion(nd_ground, nd_excited) -> IonParams:
    return IonParams(ground=nd_ground, excited=nd_excited)


@pytest.fixture(scope="session")
def clock_selector() -> TransitionSelector:
    return TransitionSelector("ground", 8, 10)


@pytest.fixture(scope="session")
def search_bounds() -> FieldGrid:
    return FieldGrid(
        x=AxisGrid(0.0, 0.0, 1), y=AxisGrid(0.0, 0.0, 1), z=AxisGrid(30.0, 100.0, 36)
    )


@pytest.fixture(scope="session")
def zefoz_point(nd_ground, clock_selector, search_bounds):
    points = zefoz_search(nd_ground, clock_selector, (0.0, 0.0, 50.0), search_bounds)
    assert points, "reference ion must have a stationary point in bounds"
    return points[0]


@pytest.fixture(scope="session")
def levels_at_zefoz(nd_ground, nd_excited, zefoz_point):
    ground = ion_levels(nd_ground, zefoz_point.field)
    excited = ion_levels(nd_excited, zefoz_point.field)
    return ground, excited


def analytic_clock_frequency(params: SpinParams, bz: float) -> float:
    """Closed-form |10g>-|8g> splitting for a purely longitudinal field.

    The pair lives in the exactly closed two-state block, so
    w12 = sqrt((3A + g_par*mu_B*Bz - 6P)^2 + 7*B_hf^2) with no approximation.
    """
    detuning = 3.0 * params.A + params.g_par * params.mu_B * bz - 6.0 * params.P
    return float(np.sqrt(detuning**2 + 7.0 * params.B_hf**2))


def central_difference(params, field, sel, step: float) -> np.ndarray:
    """Gradient oracle (MHz/mT): central first differences, one
    transition_frequency call per point."""
    field = np.asarray(field, dtype=float)
    return np.array(
        [
            (transition_frequency(params, field + offset, sel)
             - transition_frequency(params, field - offset, sel)) / (2.0 * step)
            for offset in step * np.eye(3)
        ]
    )


def analytic_zefoz_bz(params: SpinParams) -> float:
    """Stationary field of the closed-block splitting: -(3A - 6P)/(g_par*mu_B)."""
    return -(3.0 * params.A - 6.0 * params.P) / (params.g_par * params.mu_B)


def local_max_indices(y: np.ndarray) -> list[int]:
    """Strict interior local maxima."""
    return [i for i in range(1, len(y) - 1) if y[i] > y[i - 1] and y[i] > y[i + 1]]


def feature_fwhm(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half prominence of a single feature.

    The baseline is the mean of the two grid-edge values (the feature must
    be well inside the grid); crossings are linearly interpolated.
    """
    base = 0.5 * (y[0] + y[-1])
    shifted = y - base
    half = shifted.max() / 2.0
    above = shifted >= half
    first = int(np.argmax(above))
    last = len(y) - 1 - int(np.argmax(above[::-1]))
    if first == 0 or last == len(y) - 1:
        raise AssertionError("feature touches the grid edge; widen the grid")

    def crossing(i_out: int, i_in: int) -> float:
        return x[i_out] + (half - shifted[i_out]) * (x[i_in] - x[i_out]) / (
            shifted[i_in] - shifted[i_out]
        )

    return crossing(last + 1, last) - crossing(first - 1, first)
