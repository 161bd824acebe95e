"""Compare the CLI outputs of a parent commit and of the working tree byte
for byte.

    python3 tools/compare_outputs.py --parent HEAD

Run it from the root of a checkout. Both sides are snapshotted as
``tools/bench_pairs.py`` does it, before the first run. For each of the
cli-suite seeds 1-5, ``perfbench/inputs.cli_case`` gives an ion file and
the seven README configs, and ``EDGE_CONFIGS`` adds eight edge cases on
the same ion file; each side runs ``python -m zefoz.cli`` on every
config from its own ``src`` in a directory of its own. Every output that
differs is printed with its first differing line, and so is a command
whose exit code differs or that writes no output on either side. Exits 0
when all outputs are identical, 1 otherwise.
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
# inside such a window).
EDGE_CONFIGS = {
    "zefoz-zero-box.jsonl": "command = zefoz\nzefoz.start = 0 0 0\nzefoz.bounds.z = 0 10 3\n",
    "zefoz-3d-box.jsonl": "command = zefoz\nzefoz.bounds.x = -2 2 5\nzefoz.bounds.y = -1.5 1.5 5\n",
    "lambda-zero-field.jsonl": "command = lambda\nfield = 0 0 0\n",
    "diagram-excited-x.csv": "command = diagram\nmanifold = excited\ndiagram.axis = x\n",
    "eit-coarse-grid.csv": "command = eit\neit.grid = -1000 1000 5\n",
    "diagram-ground-x.csv": "command = diagram\ndiagram.axis = x\n",
    "levels-in-plane.csv": "command = levels\nfield = 30 0 0\n",
    "sweep-offset.csv": "command = sweep\neit.two_photon_offset = 40\ncomb.weights = flat\n",
}


def seed_case(seed: int) -> tuple[dict, dict]:
    """One seed's files and its {config: output} runs: the seven README
    configs, then the edge configs on the same ion file."""
    files = dict(inputs.cli_case(seed)["files"])
    runs = {f"{command}.cfg": inputs.OUTPUTS[command] for command in inputs.COMMANDS}
    for output, body in EDGE_CONFIGS.items():
        config = output.rsplit(".", 1)[0] + ".cfg"
        files[config] = f"{body}ion_file = ion.ion\noutput = {output}\n"
        runs[config] = output
    return files, runs


def run_case(root: str, case_dir: str, files: dict, runs: dict) -> dict:
    """Write one case's files, run each config; {output: (exit, bytes)}."""
    os.makedirs(case_dir)
    for name, text in files.items():
        with open(os.path.join(case_dir, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    results = {}
    for config, output in runs.items():
        done = subprocess.run([sys.executable, "-m", "zefoz.cli", "--config", config],
                              cwd=case_dir, env=env, capture_output=True)
        path = os.path.join(case_dir, output)
        data = None
        if os.path.exists(path):
            with open(path, "rb") as handle:
                data = handle.read()
        results[output] = (done.returncode, data)
    return results


def first_difference(parent: tuple, change: tuple) -> str | None:
    if parent[0] != change[0]:
        return f"exit {parent[0]} at the parent, {change[0]} here"
    if parent[1] is None:
        return f"no output on either side (exit {parent[0]})"
    if parent[1] == change[1]:
        return None
    old = parent[1].splitlines()
    new = (change[1] or b"").splitlines()
    for number, (a, b) in enumerate(zip(old, new), start=1):
        if a != b:
            return f"line {number}\n  parent: {a.decode()}\n  change: {b.decode()}"
    return f"{len(old)} lines at the parent, {len(new)} here"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    args = parser.parse_args(argv)
    differ = compared = 0
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
                difference = first_difference(parent[output], change[output])
                if difference is not None:
                    differ += 1
                    print(f"seed {seed} {output}: {difference}")
    print(f"{compared} outputs compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
