#!/usr/bin/env python3
"""Checks that the benchmark is steady: two interleaved sets of runs of one
build must agree within the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py                      # 10 seeds x 2 sets
    python3 perfbench/steadiness.py --workloads serve-hotspot --runs 5

For each workload, set A and set B each run every seed once (seeds
--first-seed .. --first-seed + runs - 1), A and B alternating which goes
first. For every end-to-end metric it prints each set's median and
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median.
The sets agree when every spread except setup_s's is within the metric's
bound, neither set's median is worse than the other's by more than the
bound (each set taken in turn as the baseline), and the share of failed
ops is the same in both. Raw results are written to
.bench_build/steadiness.json. Exits 1 when the sets disagree.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         cwd=ROOT)
    if out.returncode != 0:
        sys.exit(f"steadiness: {workload} seed {seed} failed "
                 f"(exit {out.returncode})")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(base, other, better):
    """How much worse `other` is than `base`, as a share of `base`."""
    if better == "lower":
        return (other - base) / base
    return (base - other) / base


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("steadiness: --runs must be at least 2")
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]
    sets = "AB"

    results = {w: {s: [] for s in sets} for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = sets if i % 2 == 0 else sets[::-1]
        for workload in workloads:
            for s in order:
                r = run_once(workload, seed, args.seconds)
                results[workload][s].append(r)
                values = " ".join(
                    f"{m['name']}={r['metrics'][m['name']]['value']:.6g}"
                    for m in metrics)
                print(f"[{workload} set {s} seed {seed}] correct="
                      f"{r['correct']} failed={r['failed']}/{r['attempted']}"
                      f" {values}", flush=True)

    out_dir = ROOT / ".bench_build"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steadiness.json").write_text(json.dumps(results, indent=1))

    agree = True
    for workload in workloads:
        print(f"\n{workload}")
        shares = {}
        for s in sets:
            runs = results[workload][s]
            shares[s] = (sum(r["failed"] for r in runs),
                         sum(r["attempted"] for r in runs))
            if not all(r["correct"] for r in runs):
                print(f"  set {s}: a run reported correct=false")
                agree = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = {s: summary([r["metrics"][name]["value"]
                                 for r in results[workload][s]])
                     for s in sets}
            line = f"  {name:12s} bound {bound:4.2f}"
            for s in sets:
                st = stats[s]
                ok = name == "setup_s" or st["spread"] <= bound
                agree &= ok
                line += (f" | {s}: median {st['median']:.6g} "
                         f"[{st['q1']:.6g}, {st['q3']:.6g}] "
                         f"spread {st['spread']:.3f}{'' if ok else ' WIDE'}")
            gap = max(worse_by(stats[x]["median"], stats[y]["median"],
                               m["better"]) for x, y in ("AB", "BA"))
            ok = gap <= bound
            agree &= ok
            line += f" | gap {gap:.3f}{'' if ok else ' FAIL'}"
            print(line)
        fa, aa = shares["A"]
        fb, ab = shares["B"]
        same = fa * ab == fb * aa
        agree &= same
        print(f"  failed share: A {fa}/{aa}, B {fb}/{ab}"
              f"{'' if same else ' DIFFER'}")
    print("\nsteadiness:", "sets agree" if agree else "sets DISAGREE")
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
