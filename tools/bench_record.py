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
highest n below <pr>.  The record also holds src_lines, the total lines of
src/chartrans/*.py in this checkout, src_code_lines, those of its lines
that are not blank, not comments and not docstrings, and
src_code_lines_by_file, that count per file, each printed beside the
earlier record's when that has it too.
"""

import argparse
import ast
import io
import json
import statistics
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "chartrans"
# Tokens that are no code of their own: a line holding only these is blank
# or a comment.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


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


def src_lines():
    """The total lines of src/chartrans/*.py, as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))


def src_code_lines(folder=SRC):
    """The lines of folder/*.py that hold code, as src_code_lines_by_file
    counts them."""
    return sum(src_code_lines_by_file(folder).values())


def src_code_lines_by_file(folder=SRC):
    """File name -> the lines of that file of folder/*.py that hold code:
    every line a token other than a comment spans, less the lines of each
    module, class and function docstring."""
    counts = {}
    for path in sorted(folder.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = set()
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
                doc = node.body[0]
                lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
        counts[path.name] = len(lines)
    return counts


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
    by_file = src_code_lines_by_file()
    record = {"pr": args.pr, "src_lines": src_lines(),
              "src_code_lines": sum(by_file.values()),
              "src_code_lines_by_file": by_file, **record}
    out = args.out_dir / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    earlier = earlier_record(args.out_dir, args.pr)
    if earlier is not None:
        old = json.loads(earlier.read_text(encoding="utf-8"))
        print(f"medians against {earlier.name} (new / earlier = ratio):")
        for line in ratio_lines(record, old):
            print(f"  {line}")
        for key in ("src_lines", "src_code_lines"):
            if key in old:
                print(f"{key}: {record[key]} ({earlier.name}: {old[key]})")
        old_by_file = old.get("src_code_lines_by_file")
        if old_by_file is not None:
            for name in sorted(by_file.keys() | old_by_file.keys()):
                print(f"  {name}: {by_file.get(name, 0)} "
                      f"({earlier.name}: {old_by_file.get(name, 0)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
