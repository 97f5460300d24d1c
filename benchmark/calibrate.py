#!/usr/bin/env python3
"""Noise calibration of the repository benchmark.

Runs each workload back to back, untraced, and prints a Markdown report:
the run stamp, then for every end-to-end metric of BENCHMARK.json its
median, quartiles and relative spread (Q3 - Q1) / median over the runs,
next to the metric's bound, and the same statistics for the entries the
report gives without a bound. Run i of a workload uses seed i + 1.

With --sets 2 the runs of a workload alternate between two sets (A1 B1
A2 B2 ...), each set using the same seeds. The report then also gives,
per metric, how far set B's median moved from set A's in the worse
direction, and checks that iterations.mean repeated exactly for every
seed. Quartiles are those of statistics.quantiles(values, n=4).

Run from the repository root:

    python3 benchmark/calibrate.py
    python3 benchmark/calibrate.py --runs 10 --sets 2 > benchmark/CALIBRATION.md
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode} without a report:\n{p.stderr}")
    doc = json.loads("\n".join(lines[:-1]))
    return doc, json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    out = ["# Benchmark noise calibration", ""]
    stamp_done = False
    problems = []
    for name in names:
        results = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for s in range(args.sets):
                print(f"{name} set {'AB'[s]} run {i + 1} seed {i + 1}", file=sys.stderr)
                doc, last = run_once(name, i + 1, seconds)
                results[s].append((doc, last))
                if not last["correct"] or last["failed"]:
                    problems.append(f"{name} seed {i + 1}: correct={last['correct']} failed={last['failed']}")
        if not stamp_done:
            st = results[0][0][0]["stamp"]
            out += [f"Command: `python3 benchmark/calibrate.py --runs {args.runs} --sets {args.sets}`, "
                    f"{seconds} s per run.", "",
                    f"Host: {st['goos']}/{st['goarch']}, NumCPU {st['num_cpu']}, GOMAXPROCS {st['gomaxprocs']}, "
                    f"CPU features `{st['cpu_features']}`, kernel variant `{st['kernel_variant']}`, "
                    f"{st['go_version']}, commit `{st['commit']}`.", ""]
            stamp_done = True
        doc0 = results[0][0][0]
        out += [f"## {name}", "",
                f"Input matrix fnv64 `{doc0['stamp']['matrix_fnv64']}`, n={doc0['stamp']['matrix_n']}, "
                f"nnz={doc0['stamp']['matrix_nnz']}; operations per run {doc0['stamp']['ops']}.", ""]
        head = "| metric | unit | bound | median | Q1 | Q3 | spread | spread / bound |"
        rule = "|---|---|---|---|---|---|---|---|"
        if args.sets == 2:
            head += " B vs A (worse) |"
            rule += "---|"
        out += [head, rule]
        for m in spec["end_to_end"]:
            vals = [r[1]["metrics"][m["name"]]["value"] for r in results[0]]
            med, q1, q3, sp = spread(vals)
            row = (f"| {m['name']} | {m['unit']} | {m['bound']:.2f} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                   f"| {sp:.4f} | {sp / m['bound']:.2f} |")
            if sp > m["bound"] / 3:
                problems.append(f"{name} {m['name']}: spread {sp:.4f} above a third of bound {m['bound']}")
            if args.sets == 2:
                med_b = statistics.median(r[1]["metrics"][m["name"]]["value"] for r in results[1])
                worse = (med_b - med) / med if m["better"] == "lower" else (med - med_b) / med
                row += f" {worse:+.4f} |"
                if worse > m["bound"]:
                    problems.append(f"{name} {m['name']}: set B median {worse:+.4f} worse than A, bound {m['bound']}")
            out.append(row)
        if args.sets == 2:
            for i, (a, b) in enumerate(zip(results[0], results[1])):
                ia, ib = (r[1]["metrics"]["iterations.mean"]["value"] for r in (a, b))
                if ia != ib:
                    problems.append(f"{name} seed {i + 1}: iterations.mean {ia} then {ib}")
        out += ["", "Reported without a bound (the report's `detail`, set A):", "",
                "| entry | unit | median | Q1 | Q3 | spread |", "|---|---|---|---|---|---|"]
        for k in sorted(doc0["detail"]):
            med, q1, q3, sp = spread([r[0]["detail"][k]["value"] for r in results[0]])
            out.append(f"| {k} | {doc0['detail'][k]['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {sp:.4f} |")
        out.append("")
    out += ["## Checks", ""]
    out += [f"- {p}" for p in problems] or ["- every run correct with no failed operation; every spread "
                                            "within a third of its bound"
                                            + ("; set B within bound of set A and iterations.mean repeated exactly "
                                               "for every seed" if args.sets == 2 else "") + "."]
    print("\n".join(out))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
