"""Config parsing, ion files, output rendering and the CLI end to end."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zefoz import (
    ConfigError,
    config_echo,
    format_ion_file,
    parse_config,
    parse_ion_file,
    render_csv,
    render_json_records,
    write_table,
)
import zefoz
from zefoz import config
from zefoz.cli import main
from zefoz.output import format_cell
from zefoz.spins import AxisGrid, FieldGrid

from conftest import csv_cell_oracle, json_record_oracle, local_max_indices

ION_TEXT = """# reference ion parameters (143Nd in YLiF4)
[ground]
S = 0.5
I = 3.5
g_par = 1.987
g_perp = 2.554
A = -590.0
B_hf = -789.0
P = 0.0
mu_B = 14.0

[excited]
S = 0.5
I = 3.5
g_par = 0.18
g_perp = 0.0
A = -257.0
B_hf = -456.0
P = 0.0
mu_B = 14.0
"""


@pytest.fixture()
def ion_file(tmp_path):
    path = tmp_path / "nd.ion"
    path.write_text(ION_TEXT, encoding="utf-8")
    return str(path)


def _config(tmp_path, body: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(body, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- parsing


def run_config_defaults() -> dict[str, object]:
    """Default of every optional key, by dotted key, read off ``RunConfig``."""
    return {f.metadata["key"]: f.default for f in dataclasses.fields(config.RunConfig)
            if f.default is not dataclasses.MISSING}


def test_minimal_config_gets_module_defaults(ion_file):
    cfg = parse_config(f"command = levels\nion_file = {ion_file}\nfield = 0 0 63.6\n")
    assert cfg.command == "levels"
    assert cfg.field == (0.0, 0.0, 63.6)
    defaults = run_config_defaults()
    assert cfg.noise_gamma0 == defaults["noise.gamma0"]
    assert cfg.eit_rabi == defaults["eit.rabi"]
    assert cfg.eit_gamma_ge == defaults["eit.gamma_ge"]
    assert cfg.spectrum_temperature == defaults["spectrum.temperature"]
    assert cfg.lambda_max_asymmetry == defaults["lambda.max_asymmetry"]
    assert cfg.comb_n_lines == defaults["comb.n_lines"]
    assert cfg.out_format == "csv"
    assert cfg.output == "levels.csv"
    # auto-resolved values stay symbolic until run time
    assert cfg.spectrum_inhom_fwhm is None
    assert cfg.noise_curvatures is None
    assert cfg.comb_spacing is None


def test_echo_round_trip(ion_file):
    cfg = parse_config(
        f"command = eit\nion_file = {ion_file}\n"
        "comb.spacing = 2.8\nnoise.delta_b = 1.0 0.5 2.0\neit.rabi = 1.75\n"
    )
    echoed = "\n".join(config_echo(cfg))
    assert parse_config(echoed) == cfg


def test_all_errors_reported_with_lines(ion_file):
    text = (
        "command = warp\n"          # line 1: bad choice
        "speed = 3\n"               # line 2: unknown key
        "zefoz.tol = -1\n"          # line 3: range
        "field = 1 2\n"             # line 4: arity
        f"ion_file = {ion_file}\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    lines = [problem[0] for problem in err.value.problems]
    assert set(lines) >= {1, 2, 3, 4}


def test_missing_required_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("field = 0 0 1\n")
    messages = " ".join(m for _, m in err.value.problems)
    assert "command" in messages and "ion_file" in messages


def test_duplicate_key_rejected(ion_file):
    with pytest.raises(ConfigError):
        parse_config(f"command = levels\ncommand = zefoz\nion_file = {ion_file}\n")


def test_library_defaults_restated_in_the_config_table_match_their_owners():
    # config states these as literals so that parsing a config loads
    # neither eit nor transitions; each must equal the value its owner uses
    from zefoz.eit import CombModel, LambdaParams, NoiseModel
    from zefoz.transitions import (
        LINE_PROFILES,
        OPERATOR_KINDS,
        SpectrumParams,
        find_lambda_systems,
    )

    def field_defaults(cls):
        return {f.name: f.default for f in dataclasses.fields(cls)}

    lam, noise = field_defaults(LambdaParams), field_defaults(NoiseModel)
    spectrum, kw = field_defaults(SpectrumParams), find_lambda_systems.__kwdefaults__
    owners = {
        "spectrum.temperature": spectrum["temperature"],
        "spectrum.profile": spectrum["line_profile"],
        "lambda.max_asymmetry": kw["max_asymmetry"],
        "lambda.max_leakage_ratio": kw["max_leakage_ratio"],
        "lambda.min_strength": kw["min_strength"],
        "noise.gamma0": noise["gamma0"],
        "noise.delta_b": noise["delta_b"],
        "comb.n_lines": field_defaults(CombModel)["n_lines"],
        "eit.rabi": lam["rabi_coupling"],
        "eit.gamma_ge": lam["optical_dephasing"],
        "eit.inhom_fwhm": lam["optical_inhom_fwhm"],
        "eit.two_photon_offset": lam["two_photon_offset"],
    }
    defaults = run_config_defaults()
    # repr tells 2 from 2.0, which would change the echoed header
    assert {key: repr(defaults[key]) for key in owners} == {
        key: repr(value) for key, value in owners.items()
    }
    assert config._PROFILES == LINE_PROFILES
    assert config._OPERATORS == tuple(kind for kind in OPERATOR_KINDS if kind != "custom")


def test_inverted_scan_range_reports_the_line_of_the_key_given(ion_file):
    body = f"command = diagram\nion_file = {ion_file}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(body + "diagram.axis = x\ndiagram.grid = 150 100 201\n")
    assert err.value.problems == [
        (4, "diagram.grid: grid stop 100.0 is below start 150.0")
    ]
    with pytest.raises(ConfigError) as err:
        parse_config(body + "sweep.grid = 74 54 41\ndiagram.axis = x\n")
    assert err.value.problems == [(3, "sweep.grid: grid stop 54.0 is below start 74.0")]
    with pytest.raises(ConfigError) as err:
        parse_config(body + "diagram.grid = nan -5 3\n")
    assert [line for line, _ in err.value.problems] == [3]  # only the bad number


def test_a_scan_of_several_points_needs_stop_above_start(ion_file):
    body = f"command = diagram\nion_file = {ion_file}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(body + "diagram.axis = y\ndiagram.grid = 5 5 3\n")
    assert err.value.problems == [
        (4, "diagram.grid: grid stop 5.0 must be above start 5.0 for 3 points")
    ]
    with pytest.raises(ConfigError) as err:
        parse_config(body + "spectrum.grid = 5 5 3\n")
    assert err.value.problems == [
        (3, "spectrum.grid: grid stop 5.0 must be above start 5.0 for 3 points")
    ]
    # one point: stop may equal start
    one = parse_config(body + "diagram.grid = 5 5 1\nsweep.grid = 60 60 1\n"
                       "spectrum.grid = 5 5 1\nzefoz.bounds.z = 50 50 1\n")
    assert (one.diagram_grid, one.sweep_grid, one.spectrum_grid) == (
        AxisGrid(5.0, 5.0, 1), AxisGrid(60.0, 60.0, 1), AxisGrid(5.0, 5.0, 1))


def test_every_grid_key_parses_to_an_axis_grid(ion_file):
    grids = {"zefoz.bounds.x": AxisGrid(0.0, 0.0, 1), "zefoz.bounds.y": AxisGrid(-1.0, 1.0, 3),
             "zefoz.bounds.z": AxisGrid(30.0, 90.0, 7), "diagram.grid": AxisGrid(0.0, 10.0, 11),
             "spectrum.grid": AxisGrid(-5.0, 5.0, 11), "eit.grid": AxisGrid(-1.0, 1.0, 3),
             "sweep.grid": AxisGrid(54.0, 74.0, 3)}
    given = "".join(f"{key} = {g.start} {g.stop} {g.count}\n" for key, g in grids.items())
    cfg = parse_config(f"command = eit\nion_file = {ion_file}\n{given}")
    parsed = {f.metadata["key"]: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
              if isinstance(getattr(cfg, f.name), AxisGrid)}
    assert parsed == grids
    assert cfg.search_bounds() == FieldGrid(*(grids[f"zefoz.bounds.{a}"] for a in "xyz"))


def test_zefoz_and_lambda_default_to_records(ion_file):
    cfg = parse_config(f"command = zefoz\nion_file = {ion_file}\n")
    assert cfg.out_format == "json-records"
    assert cfg.output == "zefoz.jsonl"


# ---------------------------------------------------------------- ion files


def test_ion_file_round_trip_bit_exact():
    ion = parse_ion_file(ION_TEXT)
    assert ion.ground.A == -590.0
    assert ion.excited.g_par == 0.18
    again = parse_ion_file(format_ion_file(ion))
    assert again == ion


def test_ion_file_round_trip_awkward_floats():
    text = ION_TEXT.replace("-590.0", "-590.00000000017").replace(
        "2.554", "2.5539999999999998"
    )
    ion = parse_ion_file(text)
    again = parse_ion_file(format_ion_file(ion))
    assert again.ground.A == ion.ground.A
    assert again.ground.g_perp == ion.ground.g_perp


def test_ion_file_bad_spin_names_line():
    text = ION_TEXT.replace("S = 0.5\nI = 3.5\ng_par = 1.987", "S = 0.3\nI = 3.5\ng_par = 1.987", 1)
    with pytest.raises(ConfigError) as err:
        parse_ion_file(text)
    spin_problems = [p for p in err.value.problems if "half-integer" in p[1]]
    assert spin_problems and spin_problems[0][0] == 3  # the [ground] S line


def test_ion_file_collects_all_problems():
    broken = "[ground]\nS = 0.5\nwhat = 1\n[excited]\nS = 0.5\nI = 3.5\n"
    with pytest.raises(ConfigError) as err:
        parse_ion_file(broken)
    messages = " ".join(m for _, m in err.value.problems)
    assert "what" in messages            # unknown key
    assert "missing required" in messages  # incomplete sections


def test_ion_key_table_covers_every_spin_param_once():
    fields = dataclasses.fields(zefoz.SpinParams)
    assert sorted(config.ION_KEYS.values()) == sorted(f.name for f in fields)
    required = {f.name for f in fields if f.default is dataclasses.MISSING}
    assert {config.ION_KEYS[key] for key in config.ION_REQUIRED} == required


def test_ion_file_duplicate_and_unknown_keys_name_line_and_section():
    text = ION_TEXT.replace("B_hf = -456.0", "B_hf = -456.0\nwhat = 1\nA = -257.0")
    with pytest.raises(ConfigError) as err:
        parse_ion_file(text)
    assert err.value.problems == [
        (19, "unknown key 'what' in [excited]"),
        (20, "duplicate key 'A' in [excited] (first on line 17)"),
    ]


def test_a_key_spelled_like_a_header_is_an_unknown_key(ion_file):
    # a header is its own record, so the key line '[section] = 3' stays a key
    text = ION_TEXT.replace("I = 3.5\n", "I = 3.5\n[section] = 3\n", 1)
    with pytest.raises(ConfigError) as err:
        parse_ion_file(text)
    assert err.value.problems == [(5, "unknown key '[section]' in [ground]")]
    with pytest.raises(ConfigError) as err:
        parse_config(f"command = levels\nion_file = {ion_file}\n[section] = 3\n")
    assert err.value.problems == [(3, "unknown key '[section]'")]


def test_section_headers_are_read_as_headers(ion_file):
    with pytest.raises(ConfigError) as err:
        parse_config(f"command = levels\n[ground]\nion_file = {ion_file}\n")
    assert err.value.problems == [(2, "sections are not allowed in a run config")]
    with pytest.raises(ConfigError) as err:
        parse_ion_file(ION_TEXT.replace("[excited]", "[other]"))
    problems = err.value.problems
    assert problems[0] == (12, "unknown section [other]")
    assert problems[1] == (13, "key 'S' appears outside any section")
    assert (None, "missing section [excited]") in problems


@pytest.mark.parametrize(
    "old, new, line, words",
    [
        ("S = 0.5", "S = nan", 3, "S: 'nan' is not a finite number"),
        ("S = 0.5", "S = inf", 3, "S: 'inf' is not a finite number"),
        ("g_par = 1.987", "g_par = inf", 5, "g_par: 'inf' is not a finite number"),
        ("mu_B = 14.0", "mu_B = -1", 2, "[ground]: mu_B must be positive"),
        ("S = 0.5", "S = 0", 2, "[ground]: electron_spin must be a half-integer"),
        ("S = 0.5", "S = 1e300", 2, "[ground]: Hilbert dimension (2S+1)(2I+1) must not exceed 256"),
        ("I = 3.5", "I = 1e15", 2, "[ground]: Hilbert dimension (2S+1)(2I+1) must not exceed 256"),
    ],
)
def test_ion_file_bad_values_fail_at_parse_time(
    tmp_path, capsys, monkeypatch, old, new, line, words
):
    def no_matrix(spin):
        raise AssertionError(f"spin matrix of S = {spin!r} requested")

    # a rejected spin must never reach a matrix build
    monkeypatch.setattr("zefoz.spins.spin_matrices", no_matrix)
    text = ION_TEXT.replace(old, new, 1)
    with pytest.raises(ConfigError) as err:
        parse_ion_file(text)
    assert any(ln == line and words in msg for ln, msg in err.value.problems)
    ion = tmp_path / "bad.ion"
    ion.write_text(text, encoding="utf-8")
    body = f"command = levels\nion_file = {ion}\n"
    code = main(["--config", _config(tmp_path, body), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"config error: line {line}: {words}" in capsys.readouterr().err


# ---------------------------------------------------------------- fuzzing

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)
# single tokens the float and int parsers treat specially, and arbitrary text
TOKENS = st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e308", "-0", "0", "auto", "none", ""]
) | st.text(max_size=10)
VALUES = st.lists(TOKENS, min_size=1, max_size=4).map(" ".join)
VALID_CONFIG = "\n".join(config_echo(parse_config("command = eit\nion_file = nd.ion\n")))


def _parses_or_raises_config_error(parse, text: str) -> None:
    try:
        parse(text)
    except ConfigError:
        pass


def _replace_value(text: str, index: int, value: str) -> str:
    lines = text.splitlines()
    slots = [i for i, line in enumerate(lines) if "=" in line]
    i = slots[index % len(slots)]
    lines[i] = f"{lines[i].partition('=')[0]}= {value}"
    return "\n".join(lines) + "\n"


@FUZZ
@given(st.text(max_size=200))
def test_fuzz_arbitrary_text_parses_or_raises_config_error(text):
    _parses_or_raises_config_error(parse_config, text)
    _parses_or_raises_config_error(parse_ion_file, text)


@FUZZ
@given(index=st.integers(0, 100), value=VALUES)
def test_fuzz_one_run_config_value(index, value):
    _parses_or_raises_config_error(parse_config, _replace_value(VALID_CONFIG, index, value))


@FUZZ
@example(index=0, value="nan")  # [ground] S
@example(index=0, value="inf")
@example(index=0, value="1e308")
@given(index=st.integers(0, 100), value=VALUES)
def test_fuzz_one_ion_file_value(index, value):
    _parses_or_raises_config_error(parse_ion_file, _replace_value(ION_TEXT, index, value))


# ---------------------------------------------------------------- output


def test_empty_rows_give_header_only():
    text = render_csv([], ("a", "b"))
    assert text == "a,b\n"


def test_csv_golden_bytes(tmp_path):
    path = str(tmp_path / "golden.csv")
    write_table(
        path,
        [(1234.5678901, 0.000123456789)],
        ("freq_MHz", "optical_depth"),
        header_lines=("zefoz test",),
    )
    with open(path, "rb") as handle:
        data = handle.read()
    assert data == b"# zefoz test\nfreq_MHz,optical_depth\n1234.56789,0.000123456789\n"


def test_json_records_count_matches_rows():
    rows = [(1, 2.5), (3, 4.5), (5, 6.5)]
    text = render_json_records(rows, ("n", "x"), header_lines=("h",))
    records = [line for line in text.splitlines() if not line.startswith("#")]
    assert len(records) == 3
    assert records[0] == '{"n": 1, "x": 2.5}'


FLOATS = st.floats() | st.sampled_from(
    [-0.0, math.inf, -math.inf, math.nan, math.copysign(math.nan, -1.0), 1e-320, -5e-324]
)
CELLS = st.one_of(
    FLOATS,
    st.integers(),
    st.booleans(),
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(CELLS, min_size=1, max_size=6))
def test_writer_formats_every_cell_as_the_isinstance_oracle(row):
    # the writer formats exact float, int and str without numpy; every
    # cell must still read as the isinstance/np.isfinite formatting did
    columns = [f"c{k}" for k in range(len(row))]
    expected = [csv_cell_oracle(value) for value in row]
    assert [format_cell(value) for value in row] == expected
    assert render_csv([row], columns) == ",".join(columns) + "\n" + ",".join(expected) + "\n"
    assert render_json_records([row], columns) == json_record_oracle(columns, row) + "\n"


# ---------------------------------------------------------------- CLI


def _run_cli(tmp_path, ion_file, body: str, out_name: str) -> str:
    out = str(tmp_path / out_name)
    code = main(["--config", _config(tmp_path, body), "--out", out])
    assert code == 0
    return out


def _data_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle if not line.startswith("#")]


def test_cli_zefoz_record(tmp_path, ion_file):
    out = _run_cli(
        tmp_path, ion_file, f"command = zefoz\nion_file = {ion_file}\n", "z.jsonl"
    )
    records = _data_lines(out)
    assert len(records) == 1
    assert '"Bz_mT": 63.62' in records[0]
    assert '"signature": "-,-,+"' in records[0]


RING_BOXES = {
    "centred": "zefoz.bounds.x = -80 80 17\nzefoz.bounds.y = -80 80 17\n"
               "zefoz.bounds.z = -5 5 5\nzefoz.start = 0 0 0\n",
    "off-axis": "zefoz.bounds.x = 40 80 9\nzefoz.bounds.y = -20 20 9\n"
                "zefoz.bounds.z = -5 5 5\nzefoz.start = 60 0 0\n",
}


@pytest.mark.parametrize("box", RING_BOXES.values(), ids=RING_BOXES)
def test_cli_reports_a_stationary_ring_once(tmp_path, ion_file, box):
    # the clock pair is stationary on a whole ring about the z axis,
    # B_perp = 65.34664 mT at Bz = 0, flat along the azimuth: one row, at the
    # ring's point nearest the start (its radial projection, along x from
    # the axis), whose signature reads 0 for the flat direction; the lab
    # search wrote 232 and 69 rows of it with signatures +,+,+, +,0,+ and 0,+,+
    out = _run_cli(tmp_path, ion_file, f"command = zefoz\nion_file = {ion_file}\n{box}",
                   "z.jsonl")
    records = [json.loads(line) for line in _data_lines(out)]
    assert len(records) == 1
    (row,) = records
    assert row["Bx_mT"] == pytest.approx(65.34664, abs=1e-5)
    assert row["By_mT"] == 0.0 and abs(row["Bz_mT"]) < 1e-6
    assert row["omega0_MHz"] == pytest.approx(1807.14970, abs=1e-5)
    assert row["signature"] == "0,+,+"


def test_cli_levels_zero_field(tmp_path, ion_file):
    out = _run_cli(
        tmp_path,
        ion_file,
        f"command = levels\nion_file = {ion_file}\nfield = 0 0 0\n",
        "levels.csv",
    )
    lines = _data_lines(out)
    assert lines[0] == "manifold,level,energy_MHz"
    energies = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert energies.size == 16
    paired = sum(
        1
        for k in range(16)
        if np.min(np.abs(np.delete(energies, k) - energies[k])) < 1e-6
    )
    assert paired == 14  # seven mirror pairs plus the split M = 0 doublet


@pytest.mark.parametrize("n_lines", [1029, 1031])
def test_cli_eit_runs_a_comb_of_a_thousand_lines(tmp_path, ion_file, n_lines):
    # binomial weights of 1029 lines summed to inf (exit 3, "weights must be
    # non-negative"), and those of 1031 raised OverflowError (exit 1)
    body = (f"command = eit\nion_file = {ion_file}\nnoise.curvatures = -52.7 -52.7 185.3\n"
            f"comb.spacing = 2.8\ncomb.n_lines = {n_lines}\neit.grid = -20 20 41\n")
    out = _run_cli(tmp_path, ion_file, body, "eit.csv")
    rows = np.array([[float(cell) for cell in line.split(",")] for line in _data_lines(out)[1:]])
    assert rows.shape == (41, 4) and np.all(np.isfinite(rows))
    assert np.all(rows[:, 1] > 0.0) and 0.0 < rows[:, 3].max() < 1.0


def test_cli_eit_comb_spacing_propagates(tmp_path, ion_file):
    # end-to-end: an overridden comb spacing must shift the transmission
    # maxima it produces
    base = f"command = eit\nion_file = {ion_file}\nnoise.curvatures = -52.7 -52.7 185.3\n"
    out = _run_cli(tmp_path, ion_file, base + "comb.spacing = 2.8\n", "eit28.csv")
    lines = _data_lines(out)
    assert lines[0] == "detuning_MHz,alpha_off,alpha_on,transmission"
    trans = np.array([float(line.split(",")[3]) for line in lines[1:]])
    detuning = np.array([float(line.split(",")[0]) for line in lines[1:]])
    maxima = local_max_indices(trans)
    assert len(maxima) == 9
    spacing = np.mean(np.diff(detuning[maxima]))
    assert spacing == pytest.approx(2.8, abs=0.1)

    out_auto = _run_cli(tmp_path, ion_file, base, "eit_auto.csv")
    lines_auto = _data_lines(out_auto)
    trans_auto = np.array([float(line.split(",")[3]) for line in lines_auto[1:]])
    det_auto = np.array([float(line.split(",")[0]) for line in lines_auto[1:]])
    maxima_auto = local_max_indices(trans_auto)
    spacing_auto = np.mean(np.diff(det_auto[maxima_auto]))
    assert spacing_auto == pytest.approx(0.04006 * 63.628, abs=0.1)


def test_cli_outputs_are_deterministic(tmp_path, ion_file):
    body = f"command = levels\nion_file = {ion_file}\nfield = 0 0 63.6\n"
    out = _run_cli(tmp_path, ion_file, body, "same.csv")
    with open(out, "rb") as handle:
        first = handle.read()
    again = _run_cli(tmp_path, ion_file, body, "same.csv")
    with open(again, "rb") as handle:
        assert handle.read() == first


def test_cli_provenance_echo_reparses(tmp_path, ion_file):
    body = f"command = levels\nion_file = {ion_file}\nfield = 0 0 63.6\n"
    out = _run_cli(tmp_path, ion_file, body, "prov.csv")
    with open(out, "r", encoding="utf-8") as handle:
        header = [line[2:].rstrip("\n") for line in handle if line.startswith("# ")]
    # the tool version, then the config echo, then the ion file
    echo = [line for line in header[1:] if not line.startswith("ion: ")]
    # the echo is the config as run: with the --out path
    assert parse_config("\n".join(echo)) == dataclasses.replace(parse_config(body), output=out)


@pytest.mark.parametrize(
    "out, message",
    [(out, f"path must have no '#', line break or outer whitespace, got {out!r}")
     for out in ("res#2.csv", " res.csv", "res.csv\t", "res\n2.csv")]
    + [("", "path must be non-empty")],
    ids=["hash", "leading-space", "trailing-tab", "line-break", "empty"],
)
def test_cli_rejects_an_out_path_that_its_header_would_not_replay(
    tmp_path, ion_file, capsys, monkeypatch, out, message
):
    # the header echoes `output = <path>`, which must parse back to the path
    monkeypatch.chdir(tmp_path)
    argv = ["--config", _config(tmp_path, f"command = levels\nion_file = {ion_file}\n")]
    assert main([*argv, "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: --out: {message}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["nd.ion", "run.cfg"]


# Lines that older headers echo in place of one line of today's echo. Their
# keys other than eit.two_photon_offset are gone: each is an unknown key.
OLD_ECHO = {
    "eit.two_photon_offset = 0.0": ["eit.two_photon_offset = 0.0", "eit.averaging = exact",
                                    "eit.quadrature_points = 64"],
    "diagram.grid = 0.0 100.0 201": ["diagram.start = 0.0", "diagram.stop = 100.0",
                                     "diagram.count = 201"],
    "sweep.grid = 54.0 74.0 41": ["sweep.start = 54.0", "sweep.stop = 74.0", "sweep.count = 41"],
}
REMOVED_KEYS = {line.partition(" = ")[0] for lines in OLD_ECHO.values() for line in lines}
REMOVED_KEYS.discard("eit.two_photon_offset")


def test_replayed_header_with_a_removed_key_fails_at_parse_time(tmp_path, ion_file, capsys):
    # replaying an older eit header reports each removed key as an unknown
    # key on its line
    echo = config_echo(parse_config(f"command = eit\nion_file = {ion_file}\n"))
    replayed = [old for line in echo for old in OLD_ECHO.get(line, [line])]
    problems = [(no, f"unknown key {key!r}") for no, line in enumerate(replayed, start=1)
                if (key := line.partition(" = ")[0]) in REMOVED_KEYS]
    assert len(problems) == len(REMOVED_KEYS) == 8
    with pytest.raises(ConfigError) as err:
        parse_config("\n".join(replayed))
    assert err.value.problems == problems
    code = main(["--config", _config(tmp_path, "\n".join(replayed)), "--out", str(tmp_path / "x")])
    assert code == 2
    expected = [f"config error: line {no}: {message}" for no, message in problems]
    assert capsys.readouterr().err.splitlines() == expected


def test_cli_spectrum_also_writes_line_table(tmp_path, ion_file):
    table_path = str(tmp_path / "table.csv")
    body = (
        f"command = spectrum\nion_file = {ion_file}\nfield = 0 0 60.5\n"
        f"spectrum.grid = -1700 700 961\nspectrum.table_output = {table_path}\n"
    )
    _run_cli(tmp_path, ion_file, body, "spectrum_out.csv")
    lines = _data_lines(table_path)
    assert lines[0] == "g_label,e_label,freq_MHz,strength,pop_weight"
    assert len(lines) == 1 + 16 * 16
    weights = {}
    for line in lines[1:]:
        g, _, _, _, w = line.split(",")
        weights[int(g)] = float(w)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "command, entry, out, message",
    [
        ("levels", "output = {ion}", None, "output {ion!r} names the same file as ion_file"),
        ("zefoz", "", "{ion}", "output {ion!r} names the same file as ion_file"),
        ("levels", "", "{dir}/./nd.ion",
         "output '{dir}/./nd.ion' names the same file as ion_file {ion!r}"),
        ("spectrum", "spectrum.table_output = {ion}", "{dir}/out.csv",
         "spectrum.table_output {ion!r} names the same file as ion_file"),
        ("spectrum", "spectrum.table_output = {dir}/out.csv", "{dir}/out.csv",
         "spectrum.table_output '{dir}/out.csv' names the same file as output"),
    ],
    ids=["output-key", "out-flag", "other-spelling", "table-on-ion-file", "table-on-output"],
)
def test_cli_rejects_an_output_that_names_another_file_of_the_run(
    tmp_path, ion_file, capsys, command, entry, out, message
):
    # before writing anything: the ion file stays as it was, no table is written
    names = {"ion": ion_file, "dir": str(tmp_path)}
    body = f"command = {command}\nion_file = {ion_file}\n{entry.format(**names)}\n"
    argv = ["--config", _config(tmp_path, body)]
    if out is not None:
        argv += ["--out", out.format(**names)]
    assert main(argv) == 2
    assert f"config error: {message.format(**names)}" in capsys.readouterr().err
    assert open(ion_file, encoding="utf-8").read() == ION_TEXT
    assert sorted(path.name for path in tmp_path.iterdir()) == ["nd.ion", "run.cfg"]


def test_cli_exit_code_config_error(tmp_path, capsys):
    code = main(["--config", _config(tmp_path, "command = levels\nbogus = 1\n")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "ion_file" in err


def test_cli_exit_code_computation_error(tmp_path, ion_file):
    body = (
        f"command = eit\nion_file = {ion_file}\n"
        "noise.curvatures = -52.7 -52.7 185.3\ncomb.spacing = 2.8\neit.gamma_ge = 0\n"
    )
    code = main(["--config", _config(tmp_path, body), "--out", str(tmp_path / "x.csv")])
    assert code == 3


@pytest.mark.parametrize(
    "command, entry",
    [
        ("levels", "field = nan 0 0"),
        ("diagram", "diagram.grid = nan 100 201"),
        ("zefoz", "zefoz.bounds.z = inf inf 3"),
        ("zefoz", "zefoz.tol = 1e400"),
        ("eit", "eit.grid = -1 1 2"),
        ("eit", "noise.delta_b = 1 -0.5 1"),
        ("sweep", "sweep.grid = 54 50 41"),
        ("diagram", "diagram.grid = 5 1 201"),
        # a scan of several points needs stop above start
        ("eit", "eit.grid = 5 5 3"),
        ("spectrum", "spectrum.grid = 5 5 3"),
        ("zefoz", "zefoz.bounds.z = 50 50 3"),
        ("diagram", "diagram.grid = 5 5 201"),
        ("sweep", "sweep.grid = 60 60 41"),
        # a field-valued key beyond MAX_FIELD_MT, whose square would
        # overflow mid-run (exit 3) or whose products with the model's
        # constants would
        ("eit", "eit.delta_b = 0 0 1e200"),
        ("sweep", "sweep.grid = 54 1e200 41"),
        ("eit", "noise.delta_b = 1 1 2e6"),
        ("levels", "field = 0 -1.5e6 0"),
        ("diagram", "diagram.grid = -1e300 100 201"),
        ("zefoz", "zefoz.start = 0 0 1e200"),
        ("zefoz", "zefoz.bounds.x = -1e7 1e7 3"),
        # a removed key fails as an unknown key, still on its line: the
        # start/stop/count keys that diagram.grid and sweep.grid replace
        # too, whatever their value
        ("eit", "eit.quadrature_points = 1"),
        ("diagram", "diagram.start = nan"),
        ("diagram", "diagram.start = -1e300"),
        ("diagram", "diagram.stop = 1\ndiagram.start = 5"),
        ("diagram", "diagram.stop = 5\ndiagram.start = 5"),
        ("sweep", "sweep.stop = 50"),
        ("sweep", "sweep.stop = 1e200"),
        ("sweep", "sweep.stop = 60\nsweep.start = 60"),
    ],
)
def test_cli_rejects_bad_values_at_parse_time(tmp_path, ion_file, capsys, command, entry):
    body = f"command = {command}\nion_file = {ion_file}\n{entry}\n"
    code = main(["--config", _config(tmp_path, body), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    key = entry.split(" = ")[0]
    problem = f"unknown key '{key}'" if key in REMOVED_KEYS else f"{key}: "
    assert f"config error: line 3: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, entry, line, message",
    [
        ("zefoz", "zefoz.start = 0 0 10", 3,
         "zefoz.start: 0.0 0.0 10.0 lies outside zefoz.bounds"),
        ("sweep", "zefoz.bounds.x = 0 0 1\nzefoz.bounds.y = 0 0 1\nzefoz.bounds.z = 60 60 1\n"
         "zefoz.start = 0 0 60", 5, "zefoz.bounds: every axis has count 1, no free axis to search"),
        # the default start: the bound that leaves it out is named
        ("eit", "zefoz.bounds.z = 60 100 36", 3,
         "zefoz.start: 0.0 0.0 50.0 lies outside zefoz.bounds"),
        # a one-point axis holds its start only, not the range up to its stop
        ("zefoz", "zefoz.bounds.x = 0 5 1\nzefoz.start = 3 0 50", 4,
         "zefoz.start: 3.0 0.0 50.0 lies outside zefoz.bounds"),
    ],
)
def test_cli_rejects_an_unsearchable_zefoz_box_at_parse_time(
    tmp_path, ion_file, capsys, command, entry, line, message
):
    body = f"command = {command}\nion_file = {ion_file}\n{entry}\n"
    code = main(["--config", _config(tmp_path, body), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: line {line}: {message}\n"


@pytest.mark.parametrize(
    "command, extra",
    [("levels", ""), ("eit", "noise.curvatures = -52.7 -52.7 185.3\ncomb.spacing = 2.8\n")],
)
def test_a_zefoz_box_is_checked_only_for_a_command_that_searches(ion_file, command, extra):
    text = f"command = {command}\nion_file = {ion_file}\n{extra}zefoz.bounds.z = 60 60 1\n"
    assert parse_config(text).zefoz_bounds_z == AxisGrid(60.0, 60.0, 1)


def test_cli_zefoz_pair_beyond_the_ion_is_a_config_error(tmp_path, ion_file, capsys):
    body = f"command = zefoz\nion_file = {ion_file}\nzefoz.pair = 8 40\n"
    code = main(["--config", _config(tmp_path, body), "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "zefoz.pair: label 40 exceeds the 16 ground levels" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lambda", "spectrum"])
def test_cli_ground_and_excited_spins_must_match(tmp_path, command, capsys):
    # S = 3/2, I = 3/2 is 16-dimensional like the ground's S = 1/2, I = 7/2
    path = tmp_path / "mixed.ion"
    head, excited = ION_TEXT.split("[excited]")
    excited = excited.replace("S = 0.5", "S = 1.5").replace("I = 3.5", "I = 1.5")
    path.write_text(f"{head}[excited]{excited}", encoding="utf-8")
    body = f"command = {command}\nion_file = {path}\n"
    code = main(["--config", _config(tmp_path, body), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "ground (S, I) = (0.5, 3.5) differs from excited (S, I) = (1.5, 1.5)" in err
    assert not (tmp_path / "x.csv").exists()


def test_cli_auto_comb_spacing_at_zero_field_names_the_field(
    tmp_path, ion_file, capsys, zefoz_point
):
    # eit.delta_b cancels the field of the default search's stationary
    # point exactly, so the operating field is B = 0
    offset = " ".join(repr(-float(b)) for b in zefoz_point.field)
    body = f"command = eit\nion_file = {ion_file}\neit.delta_b = {offset}\n"
    code = main(["--config", _config(tmp_path, body), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "comb.spacing = auto needs a nonzero operating field" in err
    assert "got B = 0.0 0.0 0.0 mT" in err


# a box reaching B = 0, where the clock pair's levels are Kramers doublets:
# the gradient there is flagged, so B = 0 is not a stationary point
ZERO_BOX = "zefoz.start = 0 0 0\nzefoz.bounds.z = 0 10 3\n"


def test_cli_zefoz_box_at_zero_field_finds_no_point(tmp_path, ion_file):
    out = tmp_path / "z.jsonl"
    body = f"command = zefoz\nion_file = {ion_file}\n{ZERO_BOX}"
    assert main(["--config", _config(tmp_path, body), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines and all(line.startswith("# ") for line in lines)


def test_cli_eit_with_a_zero_field_box_finds_no_stationary_point(tmp_path, ion_file, capsys):
    out = tmp_path / "x.csv"
    body = f"command = eit\nion_file = {ion_file}\n{ZERO_BOX}"
    assert main(["--config", _config(tmp_path, body), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "eit needs a stationary point, the search found none" in err
    assert not out.exists()


def test_cli_sweep_with_a_zero_field_box_finds_no_stationary_point(tmp_path, ion_file, capsys):
    out = tmp_path / "x.csv"
    body = f"command = sweep\nion_file = {ion_file}\n{ZERO_BOX}"
    assert main(["--config", _config(tmp_path, body), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "sweep needs a stationary point, the search found none" in err
    assert not out.exists()


@pytest.mark.parametrize("field", ["", "field = 0 0 70\n"], ids=["no-field", "field"])
def test_cli_auto_comb_spacing_without_stationary_point_fails(tmp_path, ion_file, capsys,
                                                              field):
    # the box Bz = 80..100 holds no stationary point; `field` is not an
    # operating point for eit and must not stand in for one
    body = (
        f"command = eit\nion_file = {ion_file}\nnoise.curvatures = 1 1 1\n"
        f"zefoz.start = 0 0 90\nzefoz.bounds.z = 80 100 5\n{field}"
    )
    out = tmp_path / "x.csv"
    code = main(["--config", _config(tmp_path, body), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "eit needs a stationary point, the search found none" in err
    assert not out.exists()


def test_cli_missing_config_file(tmp_path):
    assert main(["--config", str(tmp_path / "absent.cfg")]) == 2


# The README's nd.ion and the seven commands with every other key at its
# default. The digests pin each output file byte for byte, so a change in
# any printed digit (9 significant) shows here rather than drifting.
README_ION = """# nd.ion — 143Nd3+ in YLiF4, effective spin parameters
[ground]
S = 0.5
I = 3.5
g_par = 1.987
g_perp = 2.554
A = -590.0
B_hf = -789.0

[excited]
S = 0.5
I = 3.5
g_par = 0.18
g_perp = 0.0
A = -257.0
B_hf = -456.0
"""
GOLDEN_SHA256 = {
    "levels.csv": "d5d97c24d4caa763c189f6e745fce186e5c4acb82345de3f0b6cc81784495d80",
    "diagram.csv": "12e401fe538a0e0f1699523669af95a662850f5732f3ff4d5a66560a0e2022e4",
    "zefoz.jsonl": "f4a893411751d3e30cde59e28d939469cebb343a7b96592decb13f17a04b98e2",
    "lambda.jsonl": "c7b903f078daa0af96bf6dad83f00a8058c7e5efe8ec6ede298c94c831328778",
    "spectrum.csv": "981f4366c8e6078852d15a2da1911f9d4d7520d43d5e060f906c74c237f9335b",
    "eit.csv": "33d08b99195c028740cd01b4d4f6dbfd7b0c06c7fdd895b4a41c59c287588a96",
    "sweep.csv": "5946ed4e9b54fc7f29a2c2be3fff3f3714a5815e93ca1f5cdb8b07c388bd8e3e",
}


def test_cli_default_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nd.ion").write_text(README_ION, encoding="utf-8")
    for output in GOLDEN_SHA256:
        command = output.split(".")[0]
        (tmp_path / f"{command}.cfg").write_text(
            f"command = {command}\nion_file = nd.ion\n", encoding="utf-8"
        )
        assert main(["--config", f"{command}.cfg"]) == 0
    digests = {
        output: hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
        for output in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_blocks() -> list[tuple[str, str]]:
    """(info string, body) of each fenced block of the README."""
    blocks, info, body = [], None, []
    with open(README, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("```"):
                if info is None:
                    info, body = line[3:].strip(), []
                else:
                    blocks.append((info, "".join(body)))
                    info = None
            elif info is not None:
                body.append(line)
    return blocks


def test_readme_ion_file_is_the_golden_ion_file():
    ion_blocks = [body for _, body in _readme_blocks() if body.startswith("# nd.ion")]
    assert ion_blocks == [README_ION]


def test_readme_config_table_is_the_run_config_table():
    # the README's one table of run-config keys lists exactly RunConfig's
    # keys, in its order, each with its default as a default config echoes
    # it: "required" where there is none, "by command" for output and format
    with open(README, encoding="utf-8") as handle:
        section = handle.read().split("### Config keys\n", 1)[1]
    (table,) = [chunk for chunk in section.split("\n\n") if chunk.startswith("| key |")]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in table.splitlines()[2:]]
    echo = dict(line.split(" = ", 1)
                for line in config_echo(parse_config("command = levels\nion_file = nd.ion\n")))
    expected = [
        (f.metadata["key"],
         "required" if f.default is dataclasses.MISSING
         else "by command" if f.metadata["key"] in ("output", "format")
         else echo[f.metadata["key"]])
        for f in dataclasses.fields(config.RunConfig)
    ]
    assert [(key, default) for key, default, _ in rows] == expected


def test_readme_python_example_runs(capsys):
    (example,) = [body for info, body in _readme_blocks() if info == "python"]
    namespace: dict = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["z"].omega0 == pytest.approx(2087.5, abs=0.01)
    assert namespace["z"].field[2] == pytest.approx(63.628, abs=1e-3)
    assert 0.0 < namespace["profile"].amplitude < 1.0
    assert len(capsys.readouterr().out.splitlines()) == 3


# zefoz modules each command needs: cli loads config, errors, output and
# spins (with operators); the runners load fieldmap, transitions and eit
# through the package's names
CLI_BASE = ["zefoz", "zefoz.cli", "zefoz.config", "zefoz.errors", "zefoz.operators",
            "zefoz.output", "zefoz.spins"]
SEARCH = ["zefoz.fieldmap"]
TABLES = ["zefoz.transitions"]
EIT = ["zefoz.eit", "zefoz.fieldmap"]
COMMAND_MODULES = {
    "levels": [], "diagram": SEARCH, "zefoz": SEARCH, "lambda": TABLES, "spectrum": TABLES,
    "eit": EIT, "sweep": EIT, "diagram-x": SEARCH,
}


def test_cli_commands_load_no_scipy_module(tmp_path):
    # scipy is a test-only dependency: no command imports any of it, on
    # the seven README configs or a diagram whose tracking needs the
    # assignment solver. Each command, in a fresh process, loads exactly
    # the zefoz modules it runs, and none loads numpy.ma (about 20 ms of
    # start-up, which np.unique without indices would import).
    (tmp_path / "nd.ion").write_text(README_ION, encoding="utf-8")
    configs = {
        command: f"command = {command}\n"
        for command in ("levels", "diagram", "zefoz", "lambda", "spectrum", "eit", "sweep")
    }
    configs["diagram-x"] = "command = diagram\ndiagram.axis = x\n"
    code = textwrap.dedent(
        """
        import json, sys

        def modules(package):
            return sorted(name for name in sys.modules if name.split(".")[0] == package)

        from zefoz.cli import main

        loaded = {"import": [modules("scipy"), modules("zefoz")]}
        assert main(["--config", sys.argv[1] + ".cfg", "--out", sys.argv[1] + ".out"]) == 0
        loaded["main"] = [modules("scipy"), modules("zefoz"), "numpy.ma" in sys.modules]
        print(json.dumps(loaded))
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for name, body in configs.items():
        (tmp_path / f"{name}.cfg").write_text(body + "ion_file = nd.ion\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-c", code, name], capture_output=True, text=True, check=True,
            env=env, cwd=tmp_path,
        )
        loaded = json.loads(result.stdout.splitlines()[-1])
        assert loaded == {
            "import": [[], CLI_BASE],
            "main": [[], sorted(CLI_BASE + COMMAND_MODULES[name]), False],
        }, name


def test_package_names_resolve_lazily_to_their_modules():
    exports = zefoz._EXPORTS
    assert zefoz.__all__ == ["__version__", *exports]
    for name, module in exports.items():
        obj = getattr(zefoz, name)
        assert obj is getattr(importlib.import_module(module), name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module, name
    # resolved names are not stored on the package, so a name rebound in
    # its module (as the benchmark's tracer does) is what zefoz.name reads
    assert {
        name for name, value in vars(zefoz).items()
        if inspect.isclass(value) or inspect.isfunction(value)
    } == {"__getattr__", "__dir__"}
    namespace = {}
    exec("from zefoz import *", namespace)
    assert set(zefoz.__all__) <= set(namespace)
    assert set(zefoz.__all__) | {"eit", "cli", "operators"} <= set(dir(zefoz))
    with pytest.raises(AttributeError, match="no_such_name"):
        zefoz.no_such_name
    assert not hasattr(zefoz, "scipy")


def test_package_import_loads_no_submodule():
    code = (
        "import sys, zefoz; before = sorted(m for m in sys.modules if m.startswith('zefoz'));"
        "print(before, zefoz.eit.__name__, zefoz.AxisGrid.__module__)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.split() == ["['zefoz']", "zefoz.eit", "zefoz.spins"]
