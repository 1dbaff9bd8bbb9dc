"""Summarize benchmark records into one BENCH file: median and spread.

    python3 perfbench/summarize.py [--records DIR] [--out PATH]

Reads every ``<workload>-<seed>-trace<0|1>.json`` record that ``run.py``
wrote to ``DIR`` (default ``.bench_out``), and for each workload and
metric gives the median, the quartiles (``statistics.quantiles(values,
n=4)``), the spread (quartile distance over median) and the sample count.
Provenance comes from the records.  Without ``--out`` it only prints the
table.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def summarize(records):
    values = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(set)
    units = {}
    for rec in records:
        seeds[rec["workload"]].add(rec["provenance"]["seed"])
        for name, m in rec["result"]["metrics"].items():
            values[rec["workload"]][name].append(m["value"])
            units[name] = m["unit"]
    table = {}
    for workload, metrics in sorted(values.items()):
        table[workload] = {"seeds": sorted(seeds[workload]), "metrics": {}}
        for name, vals in metrics.items():
            entry = {"unit": units[name], "n": len(vals),
                     "median": statistics.median(vals)}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / entry["median"]
                             if entry["median"] else None)
            table[workload]["metrics"][name] = entry
    return table


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--records", type=Path, default=OUT,
                   help="directory of run records")
    p.add_argument("--out", default=None, help="write the summary here")
    args = p.parse_args(argv)
    records = [json.loads(path.read_text())
               for path in sorted(args.records.glob("*-trace[01].json"))]
    if not records:
        print(f"no records under {args.records}", file=sys.stderr)
        return 1
    table = summarize(records)
    for workload, entry in table.items():
        for name, m in entry["metrics"].items():
            spread = m.get("spread")
            print(f"{workload:13s} {name:42s} median {m['median']:<12.6g} "
                  f"{m['unit']:6s} n={m['n']:<3d} spread "
                  + (f"{spread:.3f}" if spread is not None else "-"))
    if args.out:
        provenance = {k: v for k, v in records[0]["provenance"].items()
                      if k != "seed"}
        failed = sum(rec["result"]["failed"] for rec in records)
        attempted = sum(rec["result"]["attempted"] for rec in records)
        Path(args.out).write_text(json.dumps(
            {"provenance": provenance, "attempted": attempted,
             "failed": failed, "workloads": table},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
