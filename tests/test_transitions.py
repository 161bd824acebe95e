"""Transition strengths, Lambda-system discovery and absorption spectra."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zefoz import (
    AxisGrid,
    InvalidParameterError,
    SpectrumParams,
    SpinParams,
    TransitionLine,
    TransitionOperator,
    absorption_spectrum,
    boltzmann_weights,
    find_lambda_systems,
    ion_levels,
    transition_table,
)
from zefoz.transitions import GAUSSIAN_UNDERFLOW_Q, LINE_PROFILES

from conftest import (
    ND_EXCITED,
    ND_GROUND,
    absorption_spectrum_oracle,
    find_lambda_systems_oracle,
    local_max_indices,
    transition_table_oracle,
)


@pytest.fixture(scope="module")
def zefoz_table(levels_at_zefoz):
    ground, excited = levels_at_zefoz
    return transition_table(
        ground, excited, TransitionOperator("S_x"), SpectrumParams()
    )


def _strength(table, g, e):
    for line in table:
        if line.ground_label == g and line.excited_label == e:
            return line.strength
    raise AssertionError(f"line ({g},{e}) missing")


def test_clock_branches_are_equal_eighths(zefoz_table):
    # hand evaluation: <7/2,1/2| Sx |8g> = -1/(2 sqrt 2) and likewise for
    # |10g> up to sign, so both strengths are exactly 1/8
    assert _strength(zefoz_table, 8, 9) == pytest.approx(0.125, abs=1e-6)
    assert _strength(zefoz_table, 10, 9) == pytest.approx(0.125, abs=1e-6)


def test_excited_nine_couples_only_to_the_pair(zefoz_table):
    for g in range(1, 17):
        if g in (8, 10):
            continue
        assert _strength(zefoz_table, g, 9) < 1e-10


def test_identity_operator_gives_no_clock_coupling(levels_at_zefoz):
    ground, excited = levels_at_zefoz
    table = transition_table(
        ground, excited, TransitionOperator("identity"), SpectrumParams()
    )
    assert _strength(table, 8, 9) < 1e-12
    assert _strength(table, 10, 9) < 1e-12


def test_strength_sum_rule(levels_at_zefoz):
    # completeness: sum over excited levels of |<e|O|g>|^2 = <g|O^dag O|g>
    ground, excited = levels_at_zefoz
    for op in (TransitionOperator("S_x"), TransitionOperator("S_plus"),
               TransitionOperator("custom", matrix=[[0.3, 0.1 + 0.2j], [0.7, -0.4j]])):
        table = transition_table(ground, excited, op, SpectrumParams())
        full = op.full_matrix(8, 2)
        gram = full.conj().T @ full
        for g in range(1, 17):
            total = sum(
                line.strength for line in table if line.ground_label == g
            )
            vec = ground.vector(g)
            expected = float((vec.conj() @ gram @ vec).real)
            assert total == pytest.approx(expected, abs=1e-10)


def test_strength_hermiticity(levels_at_zefoz):
    # |<e|O|g>|^2 computed forward equals |<g|O^dag|e>|^2 computed backward
    ground, excited = levels_at_zefoz
    op = TransitionOperator("custom", matrix=[[0.2, 0.5 - 0.1j], [0.3 + 0.4j, -0.6]])
    forward = transition_table(ground, excited, op, SpectrumParams())
    dagger = TransitionOperator(
        "custom", matrix=np.asarray([[0.2, 0.5 - 0.1j], [0.3 + 0.4j, -0.6]]).conj().T
    )
    backward = transition_table(excited, ground, dagger, SpectrumParams())
    for g in (1, 5, 8, 13):
        for e in (2, 9, 16):
            assert _strength(forward, g, e) == pytest.approx(
                _strength(backward, e, g), abs=1e-12
            )


def test_population_weights(levels_at_zefoz, zefoz_table):
    ground, _ = levels_at_zefoz
    weights = {}
    for line in zefoz_table:
        weights[line.ground_label] = line.population_weight
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
    # colder levels are more populated
    assert weights[1] > weights[16]
    # infinite-temperature limit: uniform populations
    flat = boltzmann_weights(ground.energies, temperature=1e12)
    assert np.max(np.abs(flat - 1.0 / 16.0)) < 1e-6


def test_lambda_discovery_at_the_clock_point(zefoz_table):
    systems = find_lambda_systems(zefoz_table, max_asymmetry=0.01, max_leakage_ratio=0.01)
    match = [
        s for s in systems if (s.ground_a, s.ground_b, s.excited) == (8, 10, 9)
    ]
    assert match, "expected the symmetric 8-10-9 Lambda-system"
    best = match[0]
    assert best.strength_a == pytest.approx(0.125, abs=1e-6)
    assert best.strength_b == pytest.approx(0.125, abs=1e-6)
    assert best.asymmetry < 1e-6
    assert best.splitting == pytest.approx(2087.0, abs=10.0)


def test_lambda_discovery_edge_cases(zefoz_table):
    assert find_lambda_systems([]) == []
    # a floor above 1/8 excludes the clock system
    strict = find_lambda_systems(zefoz_table, min_strength=0.13)
    assert all((s.ground_a, s.ground_b, s.excited) != (8, 10, 9) for s in strict)
    with pytest.raises(InvalidParameterError):
        find_lambda_systems(zefoz_table, max_asymmetry=1.5)


def _lambda_table(branches):
    """Lines from ground levels 1 and 2 to each excited level e, with the
    strengths ``branches[e] = (s1, s2)``."""
    return [
        TransitionLine(g, e, frequency=100.0 * g - 10.0 * e, strength=s, population_weight=0.5)
        for e, pair in branches.items()
        for g, s in zip((1, 2), pair)
    ]


@pytest.mark.parametrize(
    "first, second",
    [
        ((0.25 + np.spacing(0.25), 0.25), (0.25, 0.25)),  # asymmetry ~1e-16 against 0
        ((0.25, 0.25), (0.25 + np.spacing(0.25),) * 2),  # weaker strength one ulp apart
    ],
)
def test_lambda_systems_equal_up_to_round_off_keep_label_order(first, second):
    # the full-precision key would put excited 2 first in both cases
    systems = find_lambda_systems(_lambda_table({1: first, 2: second}))
    assert [s.excited for s in systems] == [1, 2]
    # a difference above round-off still sorts best-first
    systems = find_lambda_systems(_lambda_table({1: (0.251, 0.25), 2: second}))
    assert [s.excited for s in systems] == [2, 1]


def _system_bits(system):
    values = (system.strength_a, system.strength_b, system.leakage, system.asymmetry,
              system.splitting)
    assert all(type(v) is float for v in values)
    return (system.ground_a, system.ground_b, system.excited, *np.array(values).view(np.int64))


def _random_tables(rng):
    """Tables of random Nd-like ions, at B = 0 (Kramers doublets: ties
    between systems) and at random fields, for four operators: each
    complete, with a third of its lines left out, and shuffled with
    repeated pairs of new strengths appended."""
    for case in range(24):
        spins = [
            SpinParams(**{**base, **{key: base[key] * rng.uniform(0.9, 1.1)
                                     for key in ("g_par", "g_perp", "A", "B_hf")},
                          "P": rng.uniform(-5.0, 5.0)})
            for base in (ND_GROUND, ND_EXCITED)
        ]
        field = (0.0, 0.0, 0.0) if case % 3 == 0 else rng.uniform(-80.0, 80.0, 3)
        op = TransitionOperator(("S_x", "S_y", "S_plus", "identity")[case % 4])
        table = transition_table(*(ion_levels(s, field) for s in spins), op, SpectrumParams())
        yield "complete", table
        yield "partial", [line for line in table if rng.random() < 2 / 3]
        repeated = [dataclasses.replace(table[k], strength=float(rng.uniform(0.0, 0.3)))
                    for k in rng.integers(0, len(table), 20)]
        yield "complete", [table[k] for k in rng.permutation(len(table))] + repeated


LAMBDA_THRESHOLDS = (
    {},
    dict(max_asymmetry=0.3, max_leakage_ratio=1.0),
    dict(max_asymmetry=1.0, max_leakage_ratio=0.5, min_strength=1e-3),
    dict(max_asymmetry=0.0, max_leakage_ratio=0.0, min_strength=0.0),
)


def test_lambda_systems_match_the_per_level_loop_on_random_tables():
    # the same systems in the same order with the same Python floats as
    # the dict-per-level loop; a partial table with min_strength = 0 can
    # make that loop raise KeyError (next test)
    found = 0
    for kind, table in _random_tables(np.random.default_rng(23)):
        for thresholds in LAMBDA_THRESHOLDS:
            if kind == "partial" and thresholds.get("min_strength", 1.0) == 0.0:
                continue
            systems = find_lambda_systems(table, **thresholds)
            oracle = find_lambda_systems_oracle(table, **thresholds)
            assert [_system_bits(s) for s in systems] == [_system_bits(s) for s in oracle]
            found += len(systems)
    assert found > 1000


def test_a_pair_missing_from_the_table_is_no_leg():
    # with min_strength = 0 a listed line of strength 0 is a leg; a pair
    # the table does not list is not (the per-level loop raised KeyError)
    lines = [TransitionLine(1, 1, 10.0, 0.3, 0.5), TransitionLine(1, 2, 20.0, 0.3, 0.5),
             TransitionLine(2, 2, 25.0, 0.3, 0.5)]
    loose = dict(max_asymmetry=1.0, max_leakage_ratio=1.0, min_strength=0.0)
    assert [(s.ground_a, s.ground_b, s.excited) for s in find_lambda_systems(lines, **loose)] \
        == [(1, 2, 2)]
    with pytest.raises(KeyError):
        find_lambda_systems_oracle(lines, **loose)
    listed = lines + [TransitionLine(2, 1, 12.0, 0.0, 0.5)]
    assert [(s.ground_a, s.ground_b, s.excited, s.asymmetry)
            for s in find_lambda_systems(listed, **loose)] == [(1, 2, 2, 0.0), (1, 2, 1, 1.0)]


def test_single_line_spectrum_normalization():
    from zefoz import TransitionLine

    line = TransitionLine(
        ground_label=1, excited_label=1, frequency=0.0, strength=0.4,
        population_weight=0.5,
    )
    for profile in ("gaussian", "lorentzian"):
        width = 1200.0 if profile == "lorentzian" else 200.0
        params = SpectrumParams(
            inhom_fwhm=35.0,
            line_profile=profile,
            grid=AxisGrid(-width, width, 80001),
        )
        freqs, depth = absorption_spectrum([line], params)
        area = np.trapezoid(depth, freqs)
        expected = 0.4 * 0.5
        tolerance = 1e-3 if profile == "gaussian" else 0.02  # lorentzian tails
        assert area == pytest.approx(expected, rel=tolerance)


def test_area_conserved_when_width_doubles(zefoz_table):
    grid = AxisGrid(-4000.0, 4000.0, 16001)
    narrow = SpectrumParams(inhom_fwhm=35.0, grid=grid)
    wide = SpectrumParams(inhom_fwhm=70.0, grid=grid)
    f1, d1 = absorption_spectrum(zefoz_table, narrow)
    f2, d2 = absorption_spectrum(zefoz_table, wide)
    a1 = np.trapezoid(d1, f1)
    a2 = np.trapezoid(d2, f2)
    assert a2 == pytest.approx(a1, rel=1e-3)
    # peak height of an isolated line halves; probe the strongest peak
    assert d2.max() < 0.75 * d1.max()


def test_two_resolved_lines_at_60p5_mT(nd_ground, nd_excited):
    # in a longitudinal bias field the two clock branches appear as two
    # well-resolved optical lines separated by the ground splitting
    field = (0.0, 0.0, 60.5)
    ground = ion_levels(nd_ground, field)
    excited = ion_levels(nd_excited, field)
    table = transition_table(ground, excited, TransitionOperator("S_x"), SpectrumParams())
    line1 = excited.energy(9) - ground.energy(10)
    line2 = excited.energy(9) - ground.energy(8)
    separation = line2 - line1
    assert separation == pytest.approx(2090.0, abs=10.0)

    params = SpectrumParams(inhom_fwhm=35.0, grid=AxisGrid(-1700.0, 700.0, 9601))
    freqs, depth = absorption_spectrum(table, params)
    step = freqs[1] - freqs[0]
    maxima = freqs[local_max_indices(depth)]
    for center in (line1, line2):
        assert np.min(np.abs(maxima - center)) < 2.0 * step
        # measure the width of the peak against its own height
        window = (freqs > center - 80.0) & (freqs < center + 80.0)
        local = depth[window]
        half = local.max() / 2.0
        above = local >= half
        width = step * np.count_nonzero(above)
        assert width == pytest.approx(35.0, abs=3.0)


def test_table_requires_matching_dimensions(nd_ground):
    small = ion_levels(
        # spin-1/2 nucleus gives a 4-dimensional space
        nd_ground.__class__(
            electron_spin=0.5, nuclear_spin=0.5, g_par=1.0, g_perp=1.0, A=1.0, B_hf=1.0
        ),
        (0.0, 0.0, 10.0),
    )
    big = ion_levels(nd_ground, (0.0, 0.0, 10.0))
    with pytest.raises(InvalidParameterError):
        transition_table(small, big, TransitionOperator("S_x"), SpectrumParams())


def test_table_rejects_equal_dimensions_from_different_spins(nd_ground):
    # S = 3/2, I = 3/2 spans 16 states, as the ground's S = 1/2, I = 7/2 does
    other = dataclasses.replace(nd_ground, electron_spin=1.5, nuclear_spin=1.5)
    ground = ion_levels(nd_ground, (0.0, 0.0, 10.0))
    excited = ion_levels(other, (0.0, 0.0, 10.0))
    assert ground.dimension == excited.dimension == 16
    with pytest.raises(InvalidParameterError, match="different product bases"):
        transition_table(ground, excited, TransitionOperator("S_x"), SpectrumParams())


def test_spectrum_requires_grid(zefoz_table):
    with pytest.raises(InvalidParameterError):
        absorption_spectrum(zefoz_table, SpectrumParams())


def _line_bits(line):
    values = (line.frequency, line.strength, line.population_weight)
    assert all(type(v) is float for v in values)
    return (line.ground_label, line.excited_label, *np.array(values).view(np.int64))


@pytest.mark.parametrize("op", ["S_x", "S_plus", "identity"])
def test_table_matches_the_cell_oracle_bit_for_bit(levels_at_zefoz, op):
    ground, excited = levels_at_zefoz
    args = (ground, excited, TransitionOperator(op), SpectrumParams(temperature=0.7))
    table = transition_table(*args)
    oracle = transition_table_oracle(*args)
    assert [_line_bits(line) for line in table] == [_line_bits(line) for line in oracle]


def test_gaussian_underflow_bound():
    # the reach of a Gaussian line rests on exp(-q) being exactly 0.0 past it
    assert np.exp(-GAUSSIAN_UNDERFLOW_Q) == 0.0
    assert np.exp(-745.0) > 0.0


def _log_uniform(low: float, high: float):
    return st.floats(np.log10(low), np.log10(high)).map(lambda p: 10.0**p)


@st.composite
def spectrum_cases(draw):
    """A grid (one point included) and up to 40 lines, each centered on a
    grid end, on a grid point or anywhere within 3 GHz of the grid, with
    zero or tiny amplitudes among them."""
    start = draw(st.floats(-3000.0, 3000.0))
    count = draw(st.integers(1, 3) | st.integers(4, 400))
    span = 0.0 if count == 1 else draw(_log_uniform(1e-2, 5e3))
    grid = AxisGrid(start, start + span, count)
    params = SpectrumParams(
        inhom_fwhm=draw(_log_uniform(1e-3, 3e3)),
        line_profile=draw(st.sampled_from(LINE_PROFILES)),
        grid=grid,
    )
    # the lines come from a drawn seed: one draw per line field is ~10x slower
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    centers = np.choose(
        rng.integers(0, 4, n),
        [
            np.full(n, start),
            np.full(n, start + span),
            grid.values()[rng.integers(0, count, n)],
            rng.uniform(start - 3000.0, start + span + 3000.0, n),
        ],
    )
    strengths = np.where(rng.random(n) < 0.2, 0.0, 10.0 ** rng.uniform(-40.0, 0.0, n))
    weights = 10.0 ** rng.uniform(-6.0, 0.0, n)
    lines = [
        TransitionLine(k + 1, k + 2, center, strength, weight)
        for k, (center, strength, weight) in enumerate(
            zip(centers.tolist(), strengths.tolist(), weights.tolist())
        )
    ]
    return lines, params


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(spectrum_cases())
def test_windowed_spectrum_matches_the_full_grid_oracle(case):
    table, params = case
    freqs, depth = absorption_spectrum(table, params)
    oracle_freqs, oracle_depth = absorption_spectrum_oracle(table, params)
    assert np.array_equal(freqs.view(np.int64), oracle_freqs.view(np.int64))
    assert np.array_equal(depth.view(np.int64), oracle_depth.view(np.int64))


@pytest.mark.parametrize(
    "field, value",
    [
        # a nan center used to fill the spectrum with nan
        ("frequency", float("nan")),
        # an infinite center used to vanish, leaving the line out silently
        ("frequency", float("inf")),
        ("strength", float("nan")),
        ("population_weight", float("-inf")),
    ],
)
@pytest.mark.parametrize("profile", LINE_PROFILES)
def test_spectrum_rejects_non_finite_lines(field, value, profile):
    good = TransitionLine(1, 2, 10.0, 0.5, 0.25)
    bad = dataclasses.replace(good, ground_label=3, excited_label=7, **{field: value})
    params = SpectrumParams(line_profile=profile, grid=AxisGrid(-100.0, 100.0, 201))
    with pytest.raises(InvalidParameterError, match="3->7"):
        absorption_spectrum([good, bad, good], params)


@pytest.mark.parametrize("value", [float("nan"), complex(0.0, float("inf"))])
def test_custom_operator_rejects_non_finite_matrix(value):
    # a nan entry gave nan strengths, which pass every Lambda-system filter
    with pytest.raises(InvalidParameterError, match="finite"):
        TransitionOperator("custom", matrix=[[0.0, value], [1.0, 0.0]])


def test_spectrum_params_reject_an_infinite_width_and_keep_infinite_temperature():
    # an infinite width gave all zeros (Gaussian) or all nan (Lorentzian)
    for profile in LINE_PROFILES:
        with pytest.raises(InvalidParameterError, match="inhom_fwhm must be positive and finite"):
            SpectrumParams(inhom_fwhm=np.inf, line_profile=profile)
    with pytest.raises(InvalidParameterError, match="inhom_fwhm"):
        SpectrumParams(inhom_fwhm=np.nan)
    # infinite temperature is the uniform-population limit, still allowed
    hot = SpectrumParams(temperature=np.inf)
    weights = boltzmann_weights(np.array([0.0, 100.0, 2000.0]), hot.temperature)
    assert np.array_equal(weights, np.full(3, 1.0 / 3.0))
