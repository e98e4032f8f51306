"""Benchmark of the chartrans pipeline: align -> train -> decode -> evaluate.

Usage (from the repository root):

    python3 perfbench/run.py --workload lexicon-full --seed 1 --seconds 55 --trace 0

The benchmark makes the workload's inputs from the seed with the
generators in tests/toytask.py, writes them to a fresh work directory, and
starts perfbench/pipeline.py, which runs the pipeline in rounds in one
process through chartrans.cli.main.  It then checks the outputs and prints
one JSON object as its last line: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench-work"
RESULTS = ROOT / ".perfbench-results"
COMMANDS = ("align", "train", "decode", "evaluate")
# Every reported time is scaled to the machine speed at which the speed
# probe's task takes REFERENCE_PROBE_S, its time on an idle core of the
# 2-core reference machine.  Under load the probe slows more than the
# pipeline: on that machine log(pipeline time) rose 0.81-0.88 times as
# fast as log(probe time), hence the exponent.  The results file keeps the
# wall times and probe times.
REFERENCE_PROBE_S = 1.6e-4
PROBE_EXPONENT = 0.8


@dataclass(frozen=True)
class Workload:
    seed_offset: int
    words: int
    pairs: int
    held: int
    settings: dict = field(default_factory=dict)
    max_span: int = None
    align_repeats: int = 0
    setup_repeats: int = 0

    @property
    def nbest(self):
        return int(self.settings["decode_nbest"])

    @property
    def epochs(self):
        return int(self.settings["epochs"])


WORKLOADS = {
    # The paper's full system: precision alignment, LM and frequency
    # features, 10-best decoding.  LM scoring dominates train and decode.
    "lexicon-full": Workload(
        seed_offset=0, words=20000, pairs=200, held=300,
        settings={"epochs": 2, "decode_nbest": 10},
        align_repeats=2, setup_repeats=2,
    ),
    # 2-2 alignment over three times the pairs, no LM features, 1-best:
    # the EM dominates align and decoding makes no LM lookups.
    "lexicon-2x2": Workload(
        seed_offset=1_000_000, words=30000, pairs=600, held=1500,
        settings={"epochs": 2, "decode_nbest": 1,
                  "disable_precision": "true", "disable_lm": "true"},
        max_span=2, setup_repeats=1,
    ),
}

END_TO_END = {
    "pipeline_s": "s", "setup_s": "s", "align_pairs_per_s": "pairs/s",
    "train_pair_steps_per_s": "pair-steps/s", "decode_words_per_s": "words/s",
    "accuracy": "fraction", "oracle_accuracy": "fraction", "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    return "s" if name.endswith("_s") else "count"


def seq_text(seq):
    return " ".join(seq)


def write_inputs(directory, workload, seed, toytask):
    """Generate the workload from the seed and write the pipeline's inputs;
    returns (training pairs, held-out sources, reference sets)."""
    lexicon, pairs, held = toytask.lexicon_task(
        seed + workload.seed_offset, workload.words, workload.pairs, workload.held
    )
    directory.mkdir(parents=True)
    (directory / "words.txt").write_text(
        "".join(f"{''.join(w)}\t{c}\n" for w, c in lexicon.counts.items()),
        encoding="utf-8",
    )
    (directory / "train.txt").write_text(
        "".join(f"{seq_text(p.source)}\t{seq_text(p.target)}\n" for p in pairs),
        encoding="utf-8",
    )
    (directory / "test.txt").write_text(
        "".join(
            f"{seq_text(h.source)}\t{'|'.join(sorted(map(seq_text, h.references)))}\n"
            for h in held
        ),
        encoding="utf-8",
    )
    settings = {"pairs": "train.txt", "test": "test.txt", "wordlist": "words.txt",
                "outdir": "out", **workload.settings}
    (directory / "run.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8"
    )
    return (
        [(p.source, p.target) for p in pairs],
        [h.source for h in held],
        [h.references for h in held],
    )


def check_outputs(kept, workload, pairs, held, references):
    """Checks on the kept round's files; returns (problems, left-out pairs,
    empty n-best lists, accuracy, oracle accuracy)."""
    def read(name):
        path = kept / name
        return path.read_text(encoding="utf-8") if path.exists() else ""

    problems, left_out = checks.check_alignments(
        read("alignments.txt"), pairs, workload.max_span
    )
    nbest_problems, blocks, empty = checks.check_nbest(
        read("nbest.txt"), held, workload.nbest
    )
    problems += nbest_problems
    accuracy, oracle = checks.accuracies(blocks, references)
    problems += checks.check_report(read("report.txt"), accuracy, oracle)
    problems += checks.check_accuracy(
        accuracy, oracle, checks.spelling_rule_accuracy(held, references)
    )
    return problems, left_out, empty, accuracy, oracle


def model_counts(text):
    """(non-zero weights, rules) written in a model file."""
    rules = weights = 0
    for line in text.splitlines():
        if line.startswith("#rule\t"):
            rules += 1
        elif line and not line.startswith("#"):
            weights += 1
    return weights, rules


def scaled(timed):
    """Seconds at the reference speed, from [seconds, probe seconds]."""
    seconds, probe = timed
    return seconds * (REFERENCE_PROBE_S / probe) ** PROBE_EXPONENT


def pipeline_s(record):
    """Scaled time of the round's align, train, decode and evaluate."""
    return sum(scaled(entry[1:3]) for entry in record["commands"][:len(COMMANDS)])


def end_to_end(rounds, workload, n_aligned, accuracy, oracle, peak_rss_mb):
    """Medians over the rounds; align and set-up over every sample taken."""
    def command(record, name):
        return next(entry[1:3] for entry in record["commands"] if entry[0] == name)

    def setups(record):
        coarse = record["coarse"]
        yield scaled(coarse["load_resources"]) + scaled(coarse["load_model"])
        for load_resources, load_model in record["setups"]:
            yield scaled(load_resources) + scaled(load_model)

    def decode_s(record):
        seconds, probe = command(record, "decode")
        return scaled([seconds - record["coarse"]["load_model"][0], probe])

    metrics = {
        "pipeline_s": statistics.median(pipeline_s(r) for r in rounds),
        "setup_s": statistics.median(s for r in rounds for s in setups(r)),
        "align_pairs_per_s": statistics.median(
            workload.pairs / scaled(entry[1:3]) for r in rounds
            for entry in r["commands"] if entry[0] == "align"
        ),
        "train_pair_steps_per_s": statistics.median(
            n_aligned * workload.epochs / scaled(r["coarse"]["train"]) for r in rounds
        ),
        "decode_words_per_s": statistics.median(workload.held / decode_s(r) for r in rounds),
        "accuracy": accuracy,
        "oracle_accuracy": oracle,
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": metrics[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer(rounds, model_text):
    """Per-layer figures: the lower median over the traced rounds, so that
    counts stay whole.  Layer times are wall seconds.  trace.overhead_s is
    the median over each untraced round and the traced round after it of
    the difference of their scaled pipeline times."""
    traced = [r for r in rounds if r["traced"]]
    metrics = {
        k: statistics.median_low(r["layers"][k] for r in traced)
        for k in traced[0]["layers"]
    }
    metrics["transducer.weights"], metrics["transducer.rules"] = model_counts(model_text)
    metrics["trace.overhead_s"] = statistics.median(
        pipeline_s(after) - pipeline_s(before)
        for before, after in zip(rounds[::2], rounds[1::2])
    )
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(metrics.items())}


def self_time_problems(rounds):
    """The self times of every traced call must add up to the duration of
    the four traced commands."""
    return [
        f"traced self times add up to {r['self_sum_s']} s, commands took {r['traced_s']} s"
        for r in rounds
        if r["traced"] and abs(r["self_sum_s"] - r["traced_s"]) > 1e-6 * r["traced_s"]
    ]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in ("src/chartrans/cli.py", "tests/toytask.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import toytask

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = WORK / f"{tag}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    pairs, held, references = write_inputs(
        workdir / "inputs", workload, args.seed, toytask
    )
    (workdir / "plan.json").write_text(
        json.dumps({"seconds": args.seconds, "trace": args.trace,
                    "align_repeats": workload.align_repeats,
                    "setup_repeats": workload.setup_repeats})
    )
    child = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("pipeline.py")), str(workdir)],
        timeout=args.seconds + 110, check=False,
    )
    if child.returncode != 0:
        print(f"error: pipeline exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads((workdir / "result.json").read_text())
    rounds = result["rounds"]
    kept = workdir / "kept"
    problems, left_out, empty, accuracy, oracle = check_outputs(
        kept, workload, pairs, held, references
    )
    hashes = {json.dumps(r["hashes"], sort_keys=True) for r in rounds}
    if len(hashes) != 1:
        problems.append("rounds of one run wrote different outputs")
    commands = [entry[3] for r in rounds for entry in r["commands"]]
    attempted = len(rounds) * (len(pairs) + len(held)) + len(commands)
    failed = len(rounds) * (left_out + empty) + sum(code != 0 for code in commands)
    if args.trace:
        problems += self_time_problems(rounds)
        model_text = (kept / "model.txt").read_text(encoding="utf-8")
        metrics = per_layer(rounds, model_text)
    else:
        metrics = end_to_end(
            rounds, workload, len(pairs) - left_out, accuracy, oracle,
            result["peak_rss_mb"],
        )
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "problems": problems, "hashes": rounds[0]["hashes"],
        "rounds": rounds, "metrics": metrics,
    }
    if "calltree" in result:
        record["calltree"] = result["calltree"]
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))
    # The work directory stays for inspection when a check failed.
    if not problems:
        shutil.rmtree(workdir)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted,
        "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
