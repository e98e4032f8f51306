"""Collect benchmark results into one committed record, BENCH_<pr>.json.

Usage (from the repository root, after untraced benchmark runs):

    python3 perfbench/run.py --workload lexicon-2x2 --seed 1 --seconds 55 --trace 0
    ...
    python3 tools/bench_record.py --pr <n>    # writes BENCH_<n>.json

It reads every untraced result file, .perfbench-results/<workload>-s<seed>-t0.json,
and writes, per workload, the median of each end-to-end metric over the
seeds run, each seed's values, rounds and output hashes, and the Python
version and CPU count the runs had.  A result whose output checks failed,
or results from more than one Python version or CPU count, are refused:
such a record would compare unlike runs.  It then prints, per workload
and metric, the ratio of each new median to the same median in the newest
earlier record, the BENCH_<n>.json in the output directory with the
highest n below <pr>.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def collect(results):
    """The record of the untraced result files in the directory results."""
    paths = sorted(results.glob("*-t0.json"))
    if not paths:
        raise ValueError(f"no untraced results (*-t0.json) in {results}")
    records = [json.loads(path.read_text(encoding="utf-8")) for path in paths]
    failed = [path.name for path, r in zip(paths, records) if r["problems"]]
    if failed:
        raise ValueError(f"results with failed checks: {', '.join(failed)}")
    machine = {(r["python"], r["nproc"]) for r in records}
    if len(machine) != 1:
        raise ValueError(f"results from more than one (python, nproc): {sorted(machine)}")
    (python, nproc), = machine
    workloads = {}
    for r in sorted(records, key=lambda r: (r["workload"], r["seed"])):
        entry = workloads.setdefault(r["workload"], {"seeds": [], "per_seed": {}})
        entry["seeds"].append(r["seed"])
        entry["per_seed"][str(r["seed"])] = {
            "metrics": {k: m["value"] for k, m in r["metrics"].items()},
            "rounds": len(r["rounds"]),
            "hashes": r["hashes"],
        }
    for entry in workloads.values():
        per_seed = [s["metrics"] for s in entry["per_seed"].values()]
        entry["median"] = {
            k: statistics.median(m[k] for m in per_seed) for k in per_seed[0]
        }
    units = {k: m["unit"] for r in records for k, m in r["metrics"].items()}
    return {"python": python, "nproc": nproc, "units": units, "workloads": workloads}


def earlier_record(out_dir, pr):
    """The path of the BENCH_<n>.json in out_dir with the highest n < pr,
    or None."""
    found = []
    for path in out_dir.glob("BENCH_*.json"):
        n = path.stem[len("BENCH_"):]
        if n.isdigit() and int(n) < pr:
            found.append((int(n), path))
    return max(found)[1] if found else None


def ratio_lines(record, earlier):
    """One line per workload and metric that both records hold: the new
    median, the earlier one and their ratio."""
    lines = []
    for name, entry in sorted(record["workloads"].items()):
        old = earlier["workloads"].get(name, {}).get("median", {})
        for metric, new in sorted(entry["median"].items()):
            if metric not in old:
                continue
            ratio = f"{new / old[metric]:.3f}" if old[metric] else "n/a"
            lines.append(f"{name} {metric}: {new:.6g} / {old[metric]:.6g} = {ratio}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output name, BENCH_<pr>.json")
    parser.add_argument("--results", type=Path, default=ROOT / ".perfbench-results")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    try:
        record = collect(args.results)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.out_dir / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({"pr": args.pr, **record}, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    earlier = earlier_record(args.out_dir, args.pr)
    if earlier is not None:
        print(f"medians against {earlier.name} (new / earlier = ratio):")
        for line in ratio_lines(record, json.loads(earlier.read_text(encoding="utf-8"))):
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
