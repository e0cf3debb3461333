#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

    python3 bench/e2e/compare.py A/ B/

A/ and B/ hold <workload>.jsonl files of result lines, as written by
`bench/e2e/run.sh --results DIR`. For every workload and metric this prints
each set's median and quartiles (statistics.quantiles, n=4), each set's
spread (interquartile range over median), and whether B's median is within
the metric's bound of A's: no worse by more than the share BENCHMARK.json
gives. Exits 1 when any pair disagrees or a set is missing runs.
"""

import json
import pathlib
import statistics
import sys


def load_runs(directory):
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.jsonl")):
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        runs[path.stem] = [json.loads(line) for line in lines]
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec_path = pathlib.Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load_runs(argv[1]), load_runs(argv[2])
    ok = True
    header = (f"{'workload':<12} {'metric':<17} {'A q1':>11} {'A median':>11} {'A q3':>11} "
              f"{'A sprd':>7} {'B q1':>11} {'B median':>11} {'B q3':>11} {'B sprd':>7} "
              f"{'B/A':>7} {'bound':>6}  verdict")
    print(header)
    for workload in sorted(set(a) | set(b)):
        runs_a, runs_b = a.get(workload, []), b.get(workload, [])
        if not runs_a or not runs_b:
            print(f"{workload:<12} missing from {'A' if not runs_a else 'B'}")
            ok = False
            continue
        for run in runs_a + runs_b:
            if not run["correct"] or run["failed"] != 0:
                print(f"{workload:<12} has a run with failed outputs")
                ok = False
        for name, m in metrics.items():
            va = [r["metrics"][name]["value"] for r in runs_a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in runs_b if name in r["metrics"]]
            if not va or not vb:
                print(f"{workload:<12} {name:<17} missing")
                ok = False
                continue
            qa, qb = summary(va), summary(vb)
            ratio = qb[1] / qa[1]
            worse = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            agree = worse <= m["bound"]
            ok = ok and agree
            print(f"{workload:<12} {name:<17} {qa[0]:>11.5g} {qa[1]:>11.5g} {qa[2]:>11.5g} "
                  f"{(qa[2] - qa[0]) / qa[1]:>7.2%} {qb[0]:>11.5g} {qb[1]:>11.5g} "
                  f"{qb[2]:>11.5g} {(qb[2] - qb[0]) / qb[1]:>7.2%} {ratio:>7.4f} "
                  f"{m['bound']:>6.0%}  {'agree' if agree else 'DISAGREE'}")
    print(f"runs: A {sum(len(v) for v in a.values())}, B {sum(len(v) for v in b.values())}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
