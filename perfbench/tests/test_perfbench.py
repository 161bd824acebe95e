"""Tests of the benchmark itself: inputs, oracles, tracer arithmetic, counts."""

import copy

import numpy as np
import pytest

import zefoz

import inputs
import oracles
import study
from hostspeed import REFERENCE_S, HostSpeed
from run import check_zefoz_rows
from tracer import Profile, Tracer, distinct_count

GENERATORS = [
    lambda seed: inputs.search_case(seed, 3),
    lambda seed: inputs.point_case(seed, 7),
    lambda seed: inputs.diagram_case(seed, 1),
    lambda seed: inputs.eit_ion(seed),
    lambda seed: inputs.profile_case(seed, 5),
    lambda seed: inputs.sweep_case(seed, 2),
    lambda seed: inputs.cli_case(seed),
]


@pytest.mark.parametrize("generate", GENERATORS)
def test_inputs_are_deterministic_per_seed(generate):
    assert generate(4) == generate(4)
    assert generate(4) != generate(5)


def test_clock_point_formula_gives_the_reference_ion_clock_point():
    ground = dict(inputs.ND_GROUND, P=0.0)
    bz, omega0 = inputs.clock_point(ground)
    assert bz == pytest.approx(63.6278668, abs=1e-6)
    assert omega0 == pytest.approx(2087.49778, abs=1e-4)


def _point_op(corrupt=None):
    case = inputs.point_case(1, 0)

    def run():
        params = zefoz.SpinParams(**case["ground"])
        sel = zefoz.TransitionSelector("ground", *case["pair"])
        result = (zefoz.ion_levels(params, case["field"]),
                  zefoz.frequency_gradient(params, case["field"], sel))
        if corrupt is not None:
            corrupt(result[0])
        return result

    return study.Op("point", 0, run, lambda r: oracles.check_point(r, case))


def _shift_energy(levels):
    levels.energies[0] += 1e-3


def _swap_vectors(levels):
    levels.eigenvectors[:, [0, 1]] = levels.eigenvectors[:, [1, 0]]


def _fail(levels):
    raise zefoz.ComputationError("injected")


@pytest.mark.parametrize("corrupt", [_shift_energy, _swap_vectors, _fail])
def test_a_corrupted_or_raising_op_counts_as_failed(corrupt):
    run = study.Run()
    assert run.execute(_point_op()) is not None
    assert run.execute(_point_op(corrupt)) is None
    assert (run.attempted, run.failed) == (2, 1)


def test_corrupted_stationary_point_fails_the_search_oracle():
    case = inputs.eit_ion(2)
    ground = zefoz.SpinParams(**case["ion"]["ground"])
    points = zefoz.zefoz_search(ground, zefoz.TransitionSelector("ground", 8, 10),
                                case["start"], study._grid(case["bounds"]))
    check = dict(case, tol=1e-6)
    oracles.check_search(points, check)
    oracles.check_search(points + points, check)  # duplicates are accepted
    bad = copy.copy(points[0])
    object.__setattr__(bad, "field", points[0].field + np.array([0.0, 0.0, 1e-3]))
    with pytest.raises(oracles.CheckFailed):
        oracles.check_search(points + [bad], check)


def test_corrupted_cli_zefoz_row_is_rejected():
    expected = (63.6278668, 2087.49778)
    row = ('{"Bx_mT": 0, "By_mT": 0, "Bz_mT": 63.6278668, "omega0_MHz": 2087.49778, '
           '"gradient_residual_MHz_per_mT": 0}')
    check_zefoz_rows("# header\n" + row + "\n", expected)
    with pytest.raises(ValueError):
        check_zefoz_rows(row.replace("63.6278668", "63.63"), expected)
    with pytest.raises(ValueError):
        check_zefoz_rows("# header only\n", expected)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ("root", 0, 100, None, "op", None),
        ("a", 10, 30, 0, "op", None),
        ("b", 25, 50, 0, "op", None),  # overlaps a: union of children is 10..50
        ("eigh", 12, 20, 1, "op", {"matrices": 3}),
        ("root", 60, 70, 0, "op", None),  # re-entrant: inside the outer root span
        ("eigh", 80, 90, None, "op", {"matrices": 2}),
    ]
    p = Profile(spans)
    assert p.self_ns == {"root": 100 - 40 - 10 + 10, "a": 12, "b": 25, "eigh": 18}
    assert p.total_ns == {"root": 100, "a": 20, "b": 25, "eigh": 18}
    assert p.calls == {"root": 2, "a": 1, "b": 1, "eigh": 2}
    assert p.work == {"eigh.matrices": 5}
    assert p.work_under == {("root", "eigh.matrices"): 3, ("a", "eigh.matrices"): 3}


def test_scaled_times_divide_by_the_kernel_time_around_each_op():
    speed = HostSpeed()
    # kernel twice as slow from t = 10 s on; (midpoint, seconds)
    speed.samples = [(9.8, REFERENCE_S), (10.2, 2 * REFERENCE_S), (11.5, 2 * REFERENCE_S)]
    cycles = [[("a", (9.9, 0.1)), ("b", (11.0, 0.4))], [("a", None)]]
    scaled, raw = speed.op_times(cycles)
    assert raw == {"pass": [pytest.approx(0.5)], "a": [0.1], "b": [0.4]}
    # a: both neighbours (median 1.5x); b: only the slow ones (2x)
    assert scaled["a"] == [pytest.approx(0.1 / 1.5)]
    assert scaled["b"] == [pytest.approx(0.2)]
    assert scaled["pass"] == [pytest.approx(0.1 / 1.5 + 0.2)]
    assert speed.scale(100.0, 101.0) == pytest.approx(0.5)  # nearest sample


def test_duplicate_stationary_points_count_once():
    fields = [(0, 0, 63.62786), (0, 0, 63.62787), (0, 2e-6, 63.62786), (0, 0, 70.0)]
    assert distinct_count(fields) == 2


def test_tracer_restores_every_binding():
    originals = (zefoz.ion_levels, zefoz.fieldmap.ion_levels, np.linalg.eigh, zefoz.eit.wofz)
    tracer = Tracer()
    tracer.install()
    try:
        assert zefoz.fieldmap.ion_levels is not originals[1]
        assert np.linalg.eigh is not originals[2]
    finally:
        tracer.uninstall()
    assert (zefoz.ion_levels, zefoz.fieldmap.ion_levels, np.linalg.eigh,
            zefoz.eit.wofz) == originals


def test_counts_repeat_exactly_across_two_traced_runs():
    state = study.eit_setup(6)
    first = study.measure_traced("eit-study", 6, 0.0, state, None)
    second = study.measure_traced("eit-study", 6, 0.0, state, None)
    assert first["failed"] == second["failed"] == 0
    assert first["counts"] == second["counts"]
    assert first["counts"]["work"]["eit.wofz.points"] > 0
    field = study.measure_traced("field-study", 6, 0.0, None, None)
    assert field["failed"] == 0  # its traced passes are compared inside the run
    assert field["counts"]["calls"]["fieldmap.zefoz_search"] == 1
