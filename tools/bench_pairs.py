"""Alternating parent/change benchmark pairs, each side run from its own commit.

Usage (from the repository root):

    python3 tools/bench_pairs.py --base HEAD~1 [--change HEAD] \\
        --workload lexicon-2x2 --seeds 1 4 --pairs 10 --seconds 55

Each side is exported with git archive, the committed files of its commit
alone, into a directory of its own under --scratch.  For each seed the tool
then runs N pairs: both sides' own perfbench/run.py (untraced), one after
the other, the side that runs first alternating from pair to pair.  It
stops with exit status 1 as soon as either side of a pair reports that its
output checks failed, or when the two sides of a pair wrote different
output hashes (unless --outputs-change).  Every run's result record is
copied to <scratch>/runs/, so none is overwritten by the next run.

Per seed it prints each run's peak_rss_mb beside its round count, and per
end-to-end metric of BENCHMARK.json each pair's ratio (change / base), the
pairs the change won (better by the metric's direction), the base median
with its quartiles, the change median, and whether the medians differ, in
the better direction, by more than the base's quartile distance.  With
more than one seed, it then prints the same figures pooled over every pair
of every seed.  The same figures go to <scratch>/pairs.json, rewritten
after each seed, the pooled ones under "pooled".
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True).stdout


def export(ref, directory, repo=ROOT):
    """Write the committed files of ref into directory; returns the commit."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}", cwd=repo).decode().strip()
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit, cwd=repo))) as tar:
        tar.extractall(directory, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return commit


def run_side(directory, workload, seed, seconds):
    """Run directory's perfbench/run.py once; returns (its printed summary,
    its result record)."""
    path = directory / ".perfbench-results" / f"{workload}-s{seed}-t0.json"
    path.unlink(missing_ok=True)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=directory, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if done.returncode == 0 and lines else {"correct": False}
    record = json.loads(path.read_text(encoding="utf-8")) if path.exists() else None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return summary, record


def quartiles(values):
    """(first quartile, third quartile) of values, by the inclusive method."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def pair_stats(pairs, better):
    """Figures of one metric over pairs of (base value, change value), where
    better is "higher" or "lower"."""
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1 if better == "higher" else -1
    q1, q3 = quartiles(base)
    base_median, change_median = statistics.median(base), statistics.median(change)
    return {
        "ratios": [c / b if b else None for b, c in pairs],
        "wins": sum(sign * (c - b) > 0 for b, c in pairs),
        "pairs": len(pairs),
        "base_median": base_median,
        "base_quartiles": [q1, q3],
        "change_median": change_median,
        "beyond_quartiles": sign * (change_median - base_median) > q3 - q1,
    }


def metric_stats(runs, better):
    """pair_stats of each end-to-end metric that runs (pair records of
    base and change metrics) report, by name; better maps each name to
    "higher" or "lower"."""
    return {
        name: pair_stats([(r["base"]["metrics"][name], r["change"]["metrics"][name])
                          for r in runs], better[name])
        for name in better if name in runs[0]["base"]["metrics"]
    }


def metric_lines(stats):
    """Printed lines of pair_stats results, by metric name."""
    lines = []
    for name, s in stats.items():
        ratios = " ".join("-" if r is None else f"{r:.3f}" for r in s["ratios"])
        q1, q3 = s["base_quartiles"]
        lines.append(
            f"  {name}: base {s['base_median']:.6g} [{q1:.6g}, {q3:.6g}] -> change "
            f"{s['change_median']:.6g}, better in {s['wins']} of {s['pairs']}, "
            f"beyond the base quartiles: {'yes' if s['beyond_quartiles'] else 'no'}; "
            f"ratios {ratios}"
        )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the parent side")
    parser.add_argument("--change", default="HEAD", help="git ref of the change side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--outputs-change", action="store_true",
                        help="allow the two sides' output hashes to differ")
    parser.add_argument("--scratch", type=Path, default=ROOT / ".bench-pairs")
    parser.add_argument("--repo", type=Path, default=ROOT, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    better = {m["name"]: m["better"] for m in
              json.loads((args.repo / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = {}
    for side in ("base", "change"):
        directory = args.scratch / side
        sides[side] = directory, export(getattr(args, side), directory, args.repo)
    print(f"base {sides['base'][1][:12]}, change {sides['change'][1][:12]}: "
          f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s per seed")
    runs_dir = args.scratch / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    out = {"base": sides["base"][1], "change": sides["change"][1],
           "workload": args.workload, "seconds": args.seconds, "seeds": {}}
    turn = 0
    for seed in args.seeds:
        runs = []
        for pair in range(args.pairs):
            order = ("base", "change") if turn % 2 == 0 else ("change", "base")
            turn += 1
            records = {}
            for side in order:
                summary, record = run_side(sides[side][0], args.workload, seed, args.seconds)
                if not summary["correct"] or record is None:
                    print(f"error: seed {seed} pair {pair + 1}: the {side} side's "
                          "output checks failed", file=sys.stderr)
                    return 1
                name = f"{args.workload}-s{seed}-p{pair + 1:02d}-{side}.json"
                (runs_dir / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
                records[side] = record
            if (records["base"]["hashes"] != records["change"]["hashes"]
                    and not args.outputs_change):
                print(f"error: seed {seed} pair {pair + 1}: the two sides wrote "
                      "different outputs", file=sys.stderr)
                return 1
            runs.append({"first": order[0], **{
                side: {"metrics": {k: m["value"] for k, m in r["metrics"].items()},
                       "rounds": len(r["rounds"])}
                for side, r in records.items()}})
        stats = metric_stats(runs, better)
        out["seeds"][str(seed)] = {"runs": runs, "metrics": stats}
        print(f"seed {seed}: peak_rss_mb (rounds), base | change, first side")
        for i, r in enumerate(runs, start=1):
            b, c = r["base"], r["change"]
            print(f"  pair {i}: {b['metrics']['peak_rss_mb']:.2f} ({b['rounds']}) | "
                  f"{c['metrics']['peak_rss_mb']:.2f} ({c['rounds']}), {r['first']} first")
        print("\n".join(metric_lines(stats)))
        (args.scratch / "pairs.json").write_text(json.dumps(out, indent=1), encoding="utf-8")
    if len(out["seeds"]) > 1:
        runs = [r for entry in out["seeds"].values() for r in entry["runs"]]
        out["pooled"] = metric_stats(runs, better)
        print(f"pooled over seeds {' '.join(out['seeds'])}, {len(runs)} pairs:")
        print("\n".join(metric_lines(out["pooled"])))
        (args.scratch / "pairs.json").write_text(json.dumps(out, indent=1), encoding="utf-8")
    print(f"wrote {args.scratch / 'pairs.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
