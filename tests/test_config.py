"""Config parsing, ion files, output rendering and the CLI end to end."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zefoz import (
    ConfigError,
    config_echo,
    format_ion_file,
    module_defaults,
    parse_config,
    parse_ion_file,
    render_csv,
    render_json_records,
    write_table,
)
from zefoz.cli import main

from conftest import local_max_indices

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


def test_minimal_config_gets_module_defaults(ion_file):
    cfg = parse_config(f"command = levels\nion_file = {ion_file}\nfield = 0 0 63.6\n")
    assert cfg.command == "levels"
    assert cfg.field == (0.0, 0.0, 63.6)
    defaults = module_defaults()
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
    echo = [line for line in header if "=" in line and not line.startswith(("zefoz", "ion:"))]
    reparsed = parse_config("\n".join(echo))
    original = parse_config(body)
    # the echo pins the resolved output path; everything else must match
    assert reparsed == original.__class__(**{**original.__dict__, "output": reparsed.output})


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
        ("diagram", "diagram.start = nan"),
        ("zefoz", "zefoz.bounds.z = inf inf 3"),
        ("zefoz", "zefoz.tol = 1e400"),
        ("eit", "eit.grid = -1 1 2"),
        ("eit", "eit.quadrature_points = 1"),
    ],
)
def test_cli_rejects_bad_values_at_parse_time(tmp_path, ion_file, capsys, command, entry):
    body = f"command = {command}\nion_file = {ion_file}\n{entry}\n"
    code = main(["--config", _config(tmp_path, body), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"config error: line 3: {entry.split(' = ')[0]}: " in capsys.readouterr().err


def test_cli_zefoz_pair_beyond_the_ion_is_a_config_error(tmp_path, ion_file, capsys):
    body = f"command = zefoz\nion_file = {ion_file}\nzefoz.pair = 8 40\n"
    code = main(["--config", _config(tmp_path, body), "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "zefoz.pair: label 40 exceeds the 16 ground levels" in capsys.readouterr().err


def test_cli_auto_comb_spacing_at_zero_field_names_the_field(tmp_path, ion_file, capsys):
    # the search over Bz = 0..10 finds the trivial stationary point at B = 0
    body = (
        f"command = eit\nion_file = {ion_file}\n"
        "zefoz.start = 0 0 0\nzefoz.bounds.z = 0 10 3\n"
    )
    code = main(["--config", _config(tmp_path, body), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "comb.spacing = auto needs a nonzero operating field" in err
    assert "got B = 0.0 0.0 0.0 mT" in err


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
    "levels.csv": "8854f883b4fe64d894dc21e08d96b6dccac8b9d20e9f01ee2e23a9738cf4f591",
    "diagram.csv": "b2ba12a092b42eabfc9c66d2386859672511c2c6749c2745b59c1318dd3476cf",
    "zefoz.jsonl": "b07033e35e728aeeabb96e67298883e5a130e998823f7752d37401b36b9e61f8",
    "lambda.jsonl": "1ffd3eef8e74551dfad48d3b7c8ee82cd8dd0578cf2eb28b998ff120f6e0489c",
    "spectrum.csv": "2d2a22bdfa648ea2e71ee5277c991ea3048da31abd992f61ebd6fcaa08c3b21f",
    "eit.csv": "5b5f52a81bb553b444a490567e528c90b3d8447045a66d7da5db228d6fcc36cb",
    "sweep.csv": "7d16fa99a7e6ebc11a51943d9e1b118b03c41b49022c6395aba5ff581f6e45c6",
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


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize serves only level tracking and costs every other
    # command a share of its start-up, so it loads on first use
    code = "import sys, zefoz.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.strip() == "False"
