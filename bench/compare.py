"""Run the benchmark on a parent and a change, and compare the two.

    python3 bench/compare.py run --parent DIR [--change DIR] --out OUT [--seeds 1-10]
    python3 bench/compare.py report OUT

``run`` runs ``bench/run.py`` of each checkout once per workload of
BENCHMARK.json and seed, for ``run_seconds`` as the benchmark sets it,
alternating which side goes first from one seed to the next, and keeps
each run's record under ``OUT/parent`` and ``OUT/change``.  Pairs are the
two sides' runs of one workload and seed.

``report`` prints, per workload and end-to-end metric, each side's median
and quartiles, the change's win rate over the pairs (ties count for
neither side), the ratio change/parent with its base, and a verdict
against the metric's bound in BENCHMARK.json:

* ``regressed`` -- the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` -- a side's quartile spread, as a share of its median, is
  wider than the bound, unless every change run beats every parent run;
* ``improved`` -- the change wins at least nine pairs in ten and the
  medians differ by more than the parent's quartile spread;
* ``same`` -- otherwise.

It also lists every op whose output hash differs between the sides on the
same seed; the behaviour of a change must not differ from its parent's.
With only a parent side it prints the spreads, as the benchmark's own
steadiness check uses them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_benchmark(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def run_one(root: Path, workload: str, seed: int, seconds: int, dest: Path) -> None:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    record = root / ".bench_out" / "runs" / f"{workload}-seed{seed}-trace0.json"
    dest.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(record, dest / record.name)
    print(f"{dest.name:6s} {workload} seed {seed}: {proc.stdout.strip().splitlines()[-1]}",
          flush=True)


def cmd_run(args) -> int:
    roots = {"parent": Path(args.parent).resolve()}
    if args.change:
        roots["change"] = Path(args.change).resolve()
    bench = load_benchmark(roots.get("change", roots["parent"]))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out = Path(args.out)
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = list(roots.items())
        if i % 2:
            order.reverse()
        for workload in workloads:
            for side, root in order:
                run_one(root, workload, seed, seconds, out / side)
    return 0


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def load_side(path: Path) -> dict:
    """{(workload, seed): record} of one side."""
    records = {}
    for f in sorted(path.glob("*-trace0.json")):
        r = json.loads(f.read_text())
        records[(r["workload"], r["seed"])] = r
    return records


def verdict(parent, change, better, bound, win_rate) -> str:
    lower = better == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if worse > bound:
        return "regressed"
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    improved = win_rate >= 0.9 and -worse > spread(parent)
    return "improved" if improved else "same"


def cmd_report(args) -> int:
    out = Path(args.out)
    sides = {s: load_side(out / s) for s in SIDES if (out / s).is_dir()}
    bench = load_benchmark(HERE.parent)
    metrics = bench["end_to_end"]
    parent = sides["parent"]
    change = sides.get("change")
    status = 0
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload)
        n_change = sum(1 for w, _ in change or () if w == workload)
        print(f"\n{workload}: {len(seeds)} parent runs"
              + (f", {n_change} change runs" if change else ""))
        for m in metrics:
            name, better, bound = m["name"], m["better"], m["bound"]
            pv = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            q1, q2, q3 = quartiles(pv)
            line = (f"  {name:14s} parent {q2:11.4f} [{q1:.4f}, {q3:.4f}] "
                    f"spread {spread(pv):6.1%} (bound {bound:.0%})")
            if change:
                pairs = [(parent[(workload, s)], change[(workload, s)])
                         for s in seeds if (workload, s) in change]
                cv = [c["metrics"][name]["value"] for _, c in pairs]
                pp = [p["metrics"][name]["value"] for p, _ in pairs]
                wins = sum((c < p) if better == "lower" else (c > p)
                           for p, c in zip(pp, cv))
                c1, c2, c3 = quartiles(cv)
                v = verdict(pp, cv, better, bound, wins / len(pairs))
                status |= v == "regressed"
                line += (f"\n  {'':14s} change {c2:11.4f} [{c1:.4f}, {c3:.4f}] "
                         f"spread {spread(cv):6.1%}  ratio {c2 / q2:.3f} of {q2:.4f}  "
                         f"wins {wins}/{len(pairs)}  {v}")
            print(line)
        if change:
            for s in seeds:
                p, c = parent[(workload, s)], change.get((workload, s))
                if c is None:
                    continue
                diff = sorted(k for k in p["digests"] if c["digests"].get(k) != p["digests"][k])
                if diff:
                    status = 1
                    print(f"  seed {s}: {len(diff)} op outputs differ, first {diff[0]}")
        bad = [s for s in seeds if not parent[(workload, s)]["correct"]
               or (change and (workload, s) in change and not change[(workload, s)]["correct"])]
        if bad:
            status = 1
            print(f"  runs with failed ops: seeds {bad}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change")
    r.add_argument("--out", required=True)
    r.add_argument("--seeds", default="1-10")
    p = sub.add_parser("report")
    p.add_argument("out")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
