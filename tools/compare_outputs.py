"""Compare the CLI outputs of a parent commit and of the working tree byte
for byte.

    python3 tools/compare_outputs.py --parent HEAD

Run it from the root of a checkout. Both sides are snapshotted as
``tools/bench_pairs.py`` does it, before the first run. For each of the
cli-suite seeds 1-5, ``perfbench/inputs.cli_case`` gives an ion file and
the seven README configs, and ``EDGE_CONFIGS`` adds twenty-one edge
cases on the same ion file: 29 outputs per seed with the one line table,
145 in all. Each side runs ``python -m zefoz.cli`` on every config from
its own ``src`` in a directory of its own. Each config's ``output`` is
compared and, where the config sets one, its ``spectrum.table_output``.
Every output that differs is printed with the parts that differ, its
header (the ``# `` lines) and its data rows, and the first differing
line of each; so is a command whose exit code differs or that writes no
output on a side. The summary counts the outputs that differ and, of
those, the ones that differ beyond the header. Exits 0 when all outputs
are identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

from bench_pairs import snapshot_parent, snapshot_worktree

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import inputs  # noqa: E402  (perfbench/inputs.py, read only)

SEEDS = range(1, 6)
# Edge cases, {output: config}: a search box reaching the Kramers doublets
# at B = 0, a 3-D box symmetric in Bx and By (its mirrored fields share
# azimuthal frames), lambda at B = 0, the excited diagram along x
# (g_perp = 0, so degenerate at every field), an EIT grid far coarser
# than the comb, and two ground outputs in the crystal plane (Bz = 0,
# where each frame is solved as two centrosymmetric blocks): the diagram
# along x, which starts inside the Kramers doublets at B = 0, and the
# levels at one in-plane field; and a sweep whose flat comb a 40 MHz
# two-photon offset moves wholly beyond a window centred on 0 (at 15 MHz
# the amplitude is read at the comb line nearest the optical line centre,
# inside such a window); two boxes in which the clock pair is stationary
# on a ring about the z axis (B_perp ~ 65 mT at Bz = 0 on the README
# ion), one centred on the axis and one off it; a spectrum that also
# writes its line table; the ground diagram along y (the azimuth turns of
# the level diagram); a box whose x-y extent is a segment off the axis,
# searched also at its foot; a Lorentzian spectrum; a spectrum for each
# transition operator other than the default S_x; an eit run with its
# curvatures and comb spacing given, so without a search; and a sweep with
# both given, which still searches for its stationary point.
EDGE_CONFIGS = {
    "zefoz-zero-box.jsonl": "command = zefoz\nzefoz.start = 0 0 0\nzefoz.bounds.z = 0 10 3\n",
    "zefoz-3d-box.jsonl": "command = zefoz\nzefoz.bounds.x = -2 2 5\nzefoz.bounds.y = -1.5 1.5 5\n",
    "lambda-zero-field.jsonl": "command = lambda\nfield = 0 0 0\n",
    "diagram-excited-x.csv": "command = diagram\nmanifold = excited\ndiagram.axis = x\n",
    "eit-coarse-grid.csv": "command = eit\neit.grid = -1000 1000 5\n",
    "diagram-ground-x.csv": "command = diagram\ndiagram.axis = x\n",
    "levels-in-plane.csv": "command = levels\nfield = 30 0 0\n",
    "sweep-offset.csv": "command = sweep\neit.two_photon_offset = 40\ncomb.weights = flat\n",
    "zefoz-ring-box.jsonl": "command = zefoz\nzefoz.bounds.x = -80 80 17\n"
                            "zefoz.bounds.y = -80 80 17\nzefoz.bounds.z = -5 5 5\n"
                            "zefoz.start = 0 0 0\n",
    "zefoz-ring-off-axis.jsonl": "command = zefoz\nzefoz.bounds.x = 40 80 9\n"
                                 "zefoz.bounds.y = -20 20 9\nzefoz.bounds.z = -5 5 5\n"
                                 "zefoz.start = 60 0 0\n",
    "spectrum-line-table.csv": "command = spectrum\n"
                               "spectrum.table_output = spectrum-lines.csv\n",
    "diagram-ground-y.csv": "command = diagram\ndiagram.axis = y\n",
    "zefoz-line-foot.jsonl": "command = zefoz\nzefoz.bounds.x = -5 5 11\n"
                             "zefoz.bounds.y = 3 3 1\nzefoz.start = 0 3 50\n",
    "spectrum-lorentzian.csv": "command = spectrum\nspectrum.profile = lorentzian\n",
    **{f"spectrum-{kind}.csv": f"command = spectrum\noperator = {kind}\n"
       for kind in ("identity", "S_y", "S_z", "S_plus", "S_minus")},
    "eit-no-search.csv": "command = eit\nnoise.curvatures = -52.7 -52.7 185.3\n"
                         "comb.spacing = 2.55\n",
    "sweep-given-noise.csv": "command = sweep\nnoise.curvatures = -52.7 -52.7 185.3\n"
                             "comb.spacing = 2.55\n",
}


def seed_case(seed: int) -> tuple[dict, dict]:
    """One seed's files and its {config: outputs} runs: the seven README
    configs, then the edge configs on the same ion file, each with its
    line table where it writes one."""
    files = dict(inputs.cli_case(seed)["files"])
    runs = {f"{command}.cfg": (inputs.OUTPUTS[command],) for command in inputs.COMMANDS}
    for output, body in EDGE_CONFIGS.items():
        config = output.rsplit(".", 1)[0] + ".cfg"
        files[config] = f"{body}ion_file = ion.ion\noutput = {output}\n"
        table = dict(line.split(" = ", 1) for line in body.splitlines()).get(
            "spectrum.table_output")
        runs[config] = (output, table) if table else (output,)
    return files, runs


def run_case(root: str, case_dir: str, files: dict, runs: dict) -> dict:
    """Write one case's files, run each config; {output: (exit, bytes)} of
    every file a config writes."""
    os.makedirs(case_dir)
    for name, text in files.items():
        with open(os.path.join(case_dir, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    results = {}
    for config, outputs in runs.items():
        done = subprocess.run([sys.executable, "-m", "zefoz.cli", "--config", config],
                              cwd=case_dir, env=env, capture_output=True)
        for output in outputs:
            path = os.path.join(case_dir, output)
            data = None
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    data = handle.read()
            results[output] = (done.returncode, data)
    return results


def _parts(data: bytes) -> dict[str, list[tuple[int, bytes]]]:
    """(line number, line) of an output's header (its ``# `` lines) and of
    its data rows."""
    parts = {"header": [], "rows": []}
    for number, line in enumerate(data.splitlines(), start=1):
        parts["header" if line.startswith(b"# ") else "rows"].append((number, line))
    return parts


def _first_difference(old: list, new: list) -> str | None:
    for (n_old, a), (n_new, b) in zip(old, new):
        if a != b:
            return (f"\n  parent line {n_old}: {a.decode()}"
                    f"\n  change line {n_new}: {b.decode()}")
    if len(old) != len(new):
        return f" {len(old)} lines at the parent, {len(new)} here"
    return None


def differences(parent: tuple, change: tuple) -> dict[str, str]:
    """{part: its first difference} of one output's (exit, bytes) on each
    side: "exit" where the exit codes differ, "output" where a side writes
    none, else "header" and "rows" where each differs."""
    if parent[0] != change[0]:
        return {"exit": f" {parent[0]} at the parent, {change[0]} here"}
    if parent[1] is None or change[1] is None:
        where = {(True, False): "at the parent", (False, True): "here"}.get(
            (parent[1] is None, change[1] is None), "on either side")
        return {"output": f" none {where} (exit {parent[0]})"}
    old, new = _parts(parent[1]), _parts(change[1])
    found = {part: _first_difference(old[part], new[part]) for part in old}
    return {part: text for part, text in found.items() if text is not None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    args = parser.parse_args(argv)
    differ = rows_differ = compared = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        roots = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        snapshot_parent(args.parent, roots["parent"])
        snapshot_worktree(roots["change"])
        for seed in SEEDS:
            files, runs = seed_case(seed)
            parent, change = (run_case(roots[side], os.path.join(tmp, f"{side}-{seed}"), files,
                                       runs)
                              for side in ("parent", "change"))
            for output in parent:
                compared += 1
                found = differences(parent[output], change[output])
                if found:
                    differ += 1
                    rows_differ += found.keys() != {"header"}
                    print(f"seed {seed} {output}: {' and '.join(found)} differ")
                    for part, text in found.items():
                        print(f" {part}:{text}")
    print(f"{compared} outputs compared, {differ} differ, {rows_differ} of them in more than "
          "the header")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
