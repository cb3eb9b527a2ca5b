"""Summarize run records from `bench/out/` into one baseline document.

    python3 bench/summarize.py bench/out/*.json > bench/baseline.json

Per workload: each end-to-end metric as median, quartiles and run count over
the untraced records (one value per run), and each per-layer metric as the
median over the traced records, with the traced functions' self seconds.  Counts are listed with every value seen, so a
count that does not repeat exactly shows.
"""

import json
import statistics
import sys

from run import COUNT_METRICS, END_TO_END, PER_LAYER


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main(paths):
    # A run with a failed job (the self-check makes one) measures nothing.
    records = [rec for rec in (json.loads(open(p).read()) for p in paths) if not rec["failed"]]
    machine = {}
    workloads = {}
    for rec in records:
        machine.setdefault(json.dumps(rec["machine"], sort_keys=True), rec["machine"])
        entry = workloads.setdefault(rec["workload"], {"untraced": [], "traced": []})
        entry["traced" if rec["trace"] else "untraced"].append(rec)
    doc = {"machines": list(machine.values()), "workloads": {}}
    for name, entry in sorted(workloads.items()):
        out = {}
        if entry["untraced"]:
            out["end_to_end"] = {
                key: {**spread([r["metrics"][key] for r in entry["untraced"]]), "unit": unit}
                for key, unit in END_TO_END.items()
            }
            out["seeds"] = sorted(r["seed"] for r in entry["untraced"])
            out["samples_per_run"] = {
                key: sorted({r["samples"][key] for r in entry["untraced"]}) for key in entry["untraced"][0]["samples"]
            }
        if entry["traced"]:
            traced = entry["traced"]
            out["per_layer"] = {}
            for key, unit in PER_LAYER.items():
                values = [r["metrics"][key] for r in traced]
                if key in COUNT_METRICS:
                    out["per_layer"][key] = {"values": sorted(set(values)), "unit": unit}
                else:
                    out["per_layer"][key] = {"median": statistics.median(values), "unit": unit}
            out["self_s"] = {
                key: statistics.median(r["self_s"][key] for r in traced) for key in traced[0]["self_s"]
            }
            out["traced_seeds"] = sorted(r["seed"] for r in traced)
        doc["workloads"][name] = out
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
