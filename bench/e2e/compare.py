#!/usr/bin/env python3
"""Compares two sets of xh_bench result documents metric by metric.

    python3 bench/e2e/compare.py --base base/*.json --head head/*.json

Each argument is an xh-bench-e2e/1 document written by `xh_bench --json`.
Documents are grouped by workload; for every end-to-end metric of
BENCHMARK.json the tool prints one verdict per (workload, metric):

  better      each side has at least ten runs, head wins at least nine
              tenths of the run pairs, and its median is better by more
              than the parent's own spread (the distance between its
              quartiles, as a share of its median);
  worse       head's median is worse than base's by more than the bound;
  unchanged   neither of the above;
  unresolved  the run-to-run spread of either side is wider than the
              bound, unless ten or more head runs each beat all of ten or
              more base runs; or a side has fewer than two runs.

Runs are paired seed for seed when both sides ran the same seeds, each
once; otherwise every base run is paired with every head run. Metrics the
documents mark exact (bits, counts, test time: deterministic for a seed)
must be identical seed for seed, so run both sides on the same seeds: any
difference is better or worse by the metric's direction, whatever the
bound. A head document that failed a check makes the `correct` row worse.
wall_s is shown with its medians only. --per-layer adds the traced
per-layer metrics (no bound: exact ones get a verdict, the others only
their medians). Directions and bounds come from the repository's
BENCHMARK.json. Documents from machines with different fingerprints (ISA,
core count, compiler, build type) are never compared: the tool exits 2.
Otherwise the exit code is 1 when any end-to-end verdict is worse or
unresolved.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
FINGERPRINT_KEYS = ("isa", "nproc", "compiler", "build_type")
# End-to-end metrics of the documents that BENCHMARK.json does not gate
# (README.md says why); shown with their medians only.
UNGATED = ("wall_s",)
MIN_RUNS_FOR_GAIN = 10


def load(paths):
    docs = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if doc.get("schema") != "xh-bench-e2e/1":
            sys.exit(f"compare.py: {path} is not an xh-bench-e2e/1 document")
        docs.append(doc)
    return docs


def spread(values):
    """Interquartile distance as a share of the median (None if n < 2)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def pairs(base, head):
    """(base, head) value pairs: by seed when both sides ran the same
    seeds, each once; otherwise every base run against every head run."""
    base_seeds = [seed for seed, _ in base]
    head_seeds = [seed for seed, _ in head]
    if (len(set(base_seeds)) == len(base_seeds) and
            sorted(base_seeds) == sorted(head_seeds)):
        by_seed = dict(base)
        return [(by_seed[seed], value) for seed, value in head]
    return [(b, h) for _, b in base for _, h in head]


def verdict(base, head, lower_is_better, bound, exact):
    """base/head: lists of (seed, value). Returns (verdict, detail)."""
    sign = 1.0 if lower_is_better else -1.0
    b = [v for _, v in base]
    h = [v for _, v in head]
    bm, hm = statistics.median(b), statistics.median(h)
    # Positive `worse` means head is worse, as a share of base's median.
    worse = sign * (hm - bm) / abs(bm) if bm else sign * (hm - bm)
    if exact:
        # Deterministic per seed: the (seed, value) sets must be identical.
        if sorted(base) == sorted(head):
            return "unchanged", worse
        return ("better" if worse < 0 else "worse"), worse
    run_pairs = pairs(base, head)
    sb, sh = spread(b), spread(h)
    if sb is None or sh is None:
        return "unresolved", worse
    # With fewer runs a side, chance alone often wins every pair.
    may_gain = min(len(b), len(h)) >= MIN_RUNS_FOR_GAIN
    if max(sb, sh) > bound:
        beats = all(sign * (y - x) < 0 for x in b for y in h)
        return ("better" if beats and may_gain else "unresolved"), worse
    if worse > bound:
        return "worse", worse
    wins = sum(1 for x, y in run_pairs if sign * (y - x) < 0)
    if may_gain and -worse > sb and wins >= 0.9 * len(run_pairs):
        return "better", worse
    return "unchanged", worse


def series(docs, section, name):
    out = []
    for doc in docs:
        metric = doc[section].get(name)
        if metric is not None:
            out.append((doc["seed"], metric["value"], metric["exact"]))
    return out


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args()

    spec = json.loads(BENCHMARK.read_text())
    base, head = load(args.base), load(args.head)

    prints = {tuple(d["fingerprint"][k] for k in FINGERPRINT_KEYS)
              for d in base + head}
    if len(prints) > 1:
        print("compare.py: documents come from different machines:",
              file=sys.stderr)
        for p in sorted(prints, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in
                                   zip(FINGERPRINT_KEYS, p)), file=sys.stderr)
        sys.exit(2)

    rows = []
    failing = False
    workloads = sorted({d["workload"] for d in base} &
                       {d["workload"] for d in head})
    for workload in workloads:
        wb = [d for d in base if d["workload"] == workload]
        wh = [d for d in head if d["workload"] == workload]
        if not all(d["correct"] for d in wh):
            rows.append((workload, "correct", "", "", "", "", "worse"))
            failing = True
        sections = [("end_to_end", m) for m in spec["end_to_end"]]
        sections += [("end_to_end", {"name": name}) for name in UNGATED]
        if args.per_layer:
            sections += [("per_layer", m) for m in spec["per_layer"]]
        for section, m in sections:
            sb, sh = series(wb, section, m["name"]), series(wh, section,
                                                             m["name"])
            if not sb or not sh:
                continue
            exact = all(e for _, _, e in sb + sh)
            bm = statistics.median(v for _, v, _ in sb)
            hm = statistics.median(v for _, v, _ in sh)
            if "better" not in m or (section == "per_layer" and not exact):
                rows.append((workload, m["name"], f"{bm:.6g}", f"{hm:.6g}",
                             "", "", "info"))
                continue
            bound = m.get("bound", 0.0)
            v, worse = verdict([(s, x) for s, x, _ in sb],
                               [(s, x) for s, x, _ in sh],
                               m["better"] == "lower", bound, exact)
            spreads = [spread([x for _, x, _ in side]) for side in (sb, sh)]
            spread_text = ("exact" if exact else
                           "n/a" if None in spreads else
                           f"{100 * max(spreads):.2f}%")
            rows.append((workload, m["name"], f"{bm:.6g}", f"{hm:.6g}",
                         f"{-100 * worse:+.2f}%", spread_text, v))
            if section == "end_to_end" and v in ("worse", "unresolved"):
                failing = True

    header = ("workload", "metric", "base", "head", "gain", "spread",
              "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    sys.exit(1 if failing else 0)


if __name__ == "__main__":
    main()
