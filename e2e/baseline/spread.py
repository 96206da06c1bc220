"""Summarizes the baseline runs into spread.md.

For every workload and end-to-end metric of BENCHMARK.json it reports the
interquartile range as a share of the median (Python's
statistics.quantiles, n=4) over each set of runs and over all ten, and how
far the second set's median moved from the first's, next to the metric's
bound. It also tabulates the traced runs' layer shares.

Run from the repository root: python3 e2e/baseline/spread.py
"""

import json
import pathlib
import statistics

ROOT = pathlib.Path(__file__).resolve().parent
BENCH = json.loads((ROOT.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def load(directory):
    runs = {}
    for path in sorted((ROOT / directory).glob("*.json")):
        doc = json.loads(path.read_text())
        runs.setdefault(doc["workload"], []).append(doc)
    return runs


def spread(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main():
    sets = [load("set1"), load("set2")]
    lines = [
        "# Baseline spreads",
        "",
        "Two sets of five untraced runs per workload (`set1`: seeds 1-5,",
        "`set2`: seeds 6-10, at `run_seconds`), run one set after the other.",
        "Spread is (Q3 - Q1) / median; `moved` is how much worse set 2's",
        "median reads than set 1's (negative: better).",
        "",
        "| workload | metric | bound | set 1 median | set 1 spread | set 2 spread | all 10 spread | moved |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for w in WORKLOADS:
        for m in BENCH["end_to_end"]:
            name = m["name"]
            per_set = [[r["result"]["metrics"][name]["value"] for r in s.get(w, [])] for s in sets]
            if not all(per_set):
                continue
            both = per_set[0] + per_set[1]
            m1, m2 = statistics.median(per_set[0]), statistics.median(per_set[1])
            moved = (m2 - m1) / m1 if m1 else 0.0
            if m["better"] == "higher":
                moved = -moved
            lines.append(
                f"| {w} | {name} | {m['bound']} | {m1:.6g} | {100 * spread(per_set[0]):.1f}% "
                f"| {100 * spread(per_set[1]):.1f}% | {100 * spread(both):.1f}% | {100 * moved:+.1f}% |"
            )
    traced = load("traced")
    layers = [n["name"] for n in BENCH["per_layer"] if n["name"].endswith(".share")
              and not n["name"].startswith("genlib.")]
    lines += ["", "## Layer shares of the traced runs", "",
              "| layer | " + " | ".join(WORKLOADS) + " |",
              "|---|" + "---|" * len(WORKLOADS)]
    for layer in layers:
        cells = []
        for w in WORKLOADS:
            run = traced.get(w, [None])[0]
            value = run["result"]["metrics"][layer]["value"] if run else float("nan")
            cells.append(f"{100 * value:.1f}%")
        lines.append(f"| {layer.removesuffix('.share')} | " + " | ".join(cells) + " |")
    for extra in ["trace.overhead_pct", "core.label.threads_used"]:
        cells = []
        for w in WORKLOADS:
            run = traced.get(w, [None])[0]
            cells.append(f"{run['result']['metrics'][extra]['value']:.2f}" if run else "-")
        lines.append(f"| {extra} | " + " | ".join(cells) + " |")
    (ROOT / "spread.md").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
