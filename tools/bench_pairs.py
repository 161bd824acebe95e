"""Run perfbench on a parent commit and on the working tree in alternating
pairs, and write the pairs and their summary as one JSON file.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_<n>.json \\
        --workload field-study --pairs 10 --seconds 30 --first-seed 101

Run it from the root of a checkout. Both sides run ``perfbench/run.py``
of their own snapshot, unchanged, with the same arguments: the parent is
``git archive`` of ``--parent`` and the change is a copy of the working
tree's tracked and untracked, not ignored, files, both taken before the
first run, so edits made while it runs are not measured. Pair i runs
seed ``--first-seed + i`` on both sides; even pairs run the parent
first, odd pairs the change. For every end-to-end metric the file gives
each side's median and quartiles, the parent's quartile distance, the
number of pairs in which the change read lower, and whether the medians
differ by more than the parent's quartile distance. After the pairs,
each side makes one traced run of seed ``--first-seed`` (``--trace 1``),
whose per-layer metrics, such as call and diagonalization counts per
cycle, are recorded under ``traced``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def snapshot_parent(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def snapshot_worktree(dest: str) -> None:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            check=True, capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        if os.path.isfile(name):
            os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(name, os.path.join(dest, name))


def run(root: str, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """One perfbench run: its env line and the result line's fields, the
    end-to-end metrics or, traced, the per-layer ones."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(int(trace))],
                          cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {root}: exit {done.returncode}: "
                           f"{done.stderr.strip()[-300:]}")
    result = json.loads(lines[-1])
    env = next((line[4:] for line in lines if line.startswith("env ")), "")
    return {"env": env, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        if None in parent or None in change:
            out[name] = {"unresolved": "a run gave no value"}
            continue
        pq, cq = quartiles(parent), quartiles(change)
        spread = pq[2] - pq[0]
        out[name] = {
            "parent_median": pq[1], "parent_quartiles": [pq[0], pq[2]],
            "change_median": cq[1], "change_quartiles": [cq[0], cq[2]],
            "change_over_parent": cq[1] / pq[1] if pq[1] else None,
            "parent_quartile_distance": spread,
            "pairs_change_lower": sum(c < p for p, c in zip(parent, change)),
            "medians_differ_beyond_parent_spread": abs(cq[1] - pq[1]) > spread,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")
    parent_rev = subprocess.run(["git", "rev-parse", args.parent], check=True,
                                capture_output=True, text=True).stdout.strip()
    record = {"parent": parent_rev, "seconds": args.seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        snapshot_parent(parent_rev, roots["parent"])
        snapshot_worktree(roots["change"])
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(roots[side], workload, seed, args.seconds)
                    print(f"{workload} pair {i + 1} seed {seed} {side}: "
                          f"{pair[side]['metrics']}", file=sys.stderr, flush=True)
                pairs.append(pair)
            traced = {side: run(roots[side], workload, args.first_seed, args.seconds, trace=True)
                      for side in ("parent", "change")}
            record["workloads"][workload] = {
                "env": pairs[0]["parent"]["env"],
                "seeds": [p["seed"] for p in pairs],
                "summary": summarize(pairs),
                "pairs": pairs,
                "traced": traced,
            }
            with open(args.out, "w", encoding="utf-8") as handle:  # after every workload
                json.dump(record, handle, indent=1)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
