"""Run-to-run spread of the end-to-end metrics, and agreement between sets.

Runs the benchmark once per seed on each workload and reports, for every
end-to-end metric, the median and the interquartile range as a share of
the median (quartiles as statistics.quantiles(values, n=4) gives them):

    python3 nvkvbench/steadiness.py --seeds 101-110 --out nvkvbench/steadiness/a.json

Compares two such files in both directions: how much worse each median
would be if either set were the baseline, against the metric's bound.
Exits 1 if any metric is out of its bound either way:

    python3 nvkvbench/steadiness.py --compare A.json B.json

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def measure(bench, seeds, out):
    seconds = str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        values = {}
        for seed in seeds_of(seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", seconds, "--trace", "0"]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 3) for k, v in values.items()}, flush=True)
        rows = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            print(f"  {workload:9} {name:22} median {med:12.3f} spread {spread:.4f} "
                  f"(bound {bounds[name]})", flush=True)
        report["workloads"][workload] = rows
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")


def compare(bench, path_a, path_b):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    a, b = json.load(open(path_a))["workloads"], json.load(open(path_b))["workloads"]

    def worse(base, new, better):
        return (new - base) / base if better == "lower" else (base - new) / base

    ok = True
    for workload, rows in a.items():
        for name, row in rows.items():
            m = metrics[name]
            ma, mb = row["median"], b[workload][name]["median"]
            ab, ba = worse(ma, mb, m["better"]), worse(mb, ma, m["better"])
            fine = max(ab, ba) <= m["bound"]
            ok = ok and fine
            print(f"{workload:9} {name:22} {ma:12.4f} {mb:12.4f} worse A->B {ab:+.3f} "
                  f"B->A {ba:+.3f} bound {m['bound']} {'ok' if fine else 'OUT'}")
    return ok


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seeds", help="first-last, e.g. 101-110")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.compare:
        sys.exit(0 if compare(bench, *args.compare) else 1)
    if not args.out:
        ap.error("--seeds needs --out")
    measure(bench, args.seeds, args.out)


if __name__ == "__main__":
    main()
