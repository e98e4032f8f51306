"""Runs the chartrans pipeline in rounds; the process the benchmark measures.

Usage: python3 perfbench/pipeline.py WORKDIR

WORKDIR holds ``inputs/`` (run.cfg, train.txt, test.txt, words.txt) and
``plan.json`` ({"seconds": S, "trace": 0 or 1, "align_repeats": A,
"setup_repeats": R}).  Each round copies the inputs into ``WORKDIR/round``,
makes it the working directory and runs align, train, decode and evaluate
there through ``chartrans.cli.main``, one command after another in this
one process.  An untraced round then runs align A more times and times the
set-up of train and decode R more times.  A speed probe runs alongside.
Rounds repeat until the next one would end after S seconds.  With trace 1
the rounds alternate between untraced and traced.

The first round's outputs are kept in ``WORKDIR/kept``.  The per-round
figures and the first traced round's spans and call tree go to
``WORKDIR/result.json``.  Only chartrans and the standard library are
imported, so the peak RSS reported is the pipeline's own.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chartrans import aligner, charlm, cli, core, freqtrie, transducer  # noqa: E402

from calltree import Tracer, walk  # noqa: E402
from speedprobe import SpeedProbe  # noqa: E402

COMMANDS = ("align", "train", "decode", "evaluate")
OUTPUTS = ("alignments.txt", "model.txt", "nbest.txt", "report.txt")

# The calls timed in untraced rounds; they carry the end-to-end metrics.
COARSE = (
    (cli, "load_resources"),
    (cli, "load_model"),
    (transducer, "train"),
)

# (owner, attribute looked up by the caller, traced name, kept as spans).
TRACED = (
    (cli, "load_resources", "cli.load_resources", True),
    (cli, "load_model", "cli.load_model", True),
    (core, "parse_pairs", "core.parse_pairs", True),
    (core, "parse_eval", "core.parse_eval", True),
    (aligner, "precision_align", "aligner.precision_align", True),
    (aligner, "baseline_align", "aligner.baseline_align", True),
    (aligner, "viterbi_nbest", "aligner.viterbi_nbest", False),
    (charlm, "train_charlm", "charlm.train_charlm", True),
    (charlm, "make_bins", "charlm.make_bins", True),
    (charlm, "save_charlm", "charlm.save_charlm", True),
    (charlm, "load_charlm", "charlm.load_charlm", True),
    (charlm.CharLM, "logprob", "charlm.logprob", False),
    (freqtrie, "parse_lexicon", "freqtrie.parse_lexicon", True),
    (freqtrie, "build_trie", "freqtrie.build_trie", True),
    (transducer, "train", "transducer.train", True),
    (transducer, "save_model", "transducer.save_model", True),
    (transducer, "load_model", "transducer.load_model", True),
    (transducer, "decode_nbest", "transducer.decode_nbest", False),
    (transducer, "derivation_features", "transducer.derivation_features", False),
    (transducer, "gold_candidate", "transducer.gold_candidate", False),
    (transducer, "mira_update", "transducer.mira_update", False),
    (transducer, "extend_score", "charlm.extend_score", False),
    (transducer, "lm_bin_features", "charlm.lm_bin_features", False),
    (transducer, "walk", "freqtrie.walk", False),
    (transducer, "freq_bin_features", "freqtrie.freq_bin_features", False),
)


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute) to its replacement, restoring on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, fn in replacements:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def coarse_timers(intervals):
    """Replacements that record the (start, end) of each COARSE call."""
    def timed(name, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                intervals[name] = (start, time.perf_counter())
        return call

    return [(owner, attr, timed(attr, getattr(owner, attr))) for owner, attr in COARSE]


def tracing(tracer):
    """Replacements that wrap each TRACED function for tracer; em_train
    also counts its iterations and the entries of the δ it returns."""
    replacements = []
    for owner, attr, name, span in TRACED:
        replacements.append((owner, attr, tracer.wrap(name, owner.__dict__[attr], span)))
    em_train = aligner.em_train

    def counted_em_train(pairs, params, history=None):
        history = [] if history is None else history
        delta = em_train(pairs, params, history)
        tracer.count("aligner.em_iterations", len(history))
        tracer.count("aligner.delta_entries", len(delta))
        return delta

    replacements.append(
        (aligner, "em_train", tracer.wrap("aligner.em_train", counted_em_train, True))
    )
    return replacements


def run_commands(commands, call):
    """Run each command through call(command, argv); returns a
    (command, start, end, exit code) entry per command."""
    entries = []
    for command in commands:
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = call(command, [command, "--config", "run.cfg"])
        except Exception:
            traceback.print_exc()
            code = -1
        entries.append((command, start, time.perf_counter(), code))
    return entries


def sha256(path):
    with open(path, "rb") as src:
        return hashlib.sha256(src.read()).hexdigest()


def repeat_setup(repeats):
    """Set up train and decode again, each time from an empty LM cache as
    train met it; returns the (start, end) of load_resources and of
    load_model per set-up."""
    cfg = cli.load_config("run.cfg")
    intervals = []
    for _ in range(repeats):
        for cache in Path(".").glob("*.lm"):
            cache.unlink()
        gc.collect()
        start = time.perf_counter()
        cli.load_resources(cfg)
        middle = time.perf_counter()
        gc.collect()
        resumed = time.perf_counter()
        cli.load_model(cfg)
        intervals.append(((start, middle), (resumed, time.perf_counter())))
    return intervals


def run_round(workdir, plan, tracer=None):
    """One pass of the pipeline in a fresh copy of the inputs; untraced,
    followed by the repeated align commands and set-ups.  Every time is
    recorded as [seconds, median probe time around it]."""
    round_dir = workdir / "round"
    shutil.rmtree(round_dir, ignore_errors=True)
    shutil.copytree(workdir / "inputs", round_dir)
    os.chdir(round_dir)
    coarse, setups = {}, []
    try:
        with SpeedProbe() as probe:
            if tracer is None:
                with patched(coarse_timers(coarse)):
                    commands = run_commands(
                        COMMANDS + ("align",) * plan["align_repeats"],
                        lambda _, argv: cli.main(argv),
                    )
                setups = repeat_setup(plan["setup_repeats"])
            else:
                with patched(tracing(tracer)):
                    commands = run_commands(
                        COMMANDS,
                        lambda command, argv: tracer.wrap(
                            "cli." + command, cli.main, True
                        )(argv),
                    )
        out = round_dir / "out"
        hashes = {
            name: sha256(out / name) for name in OUTPUTS if (out / name).exists()
        }
    finally:
        os.chdir(workdir)
    record = {
        "traced": tracer is not None,
        "commands": [
            [name, *probe.interval(start, end), code]
            for name, start, end, code in commands
        ],
        "coarse": {name: probe.interval(*span) for name, span in coarse.items()},
        "setups": [[probe.interval(*lr), probe.interval(*lm)] for lr, lm in setups],
        "hashes": hashes,
    }
    if not (workdir / "kept").exists() and out.exists():
        shutil.copytree(out, workdir / "kept")
    shutil.rmtree(round_dir)
    gc.collect()
    return record


def layer_metrics(tracer):
    """Per-layer figures of one traced round, from its call tree."""
    nodes = list(walk(tracer.root))

    def total(names, field="total", parent=None, under=None):
        return sum(
            getattr(node, field) for path, node in nodes
            if node.name in names
            and (parent is None or (len(path) > 1 and path[-2] == parent))
            and (under is None or under in path[:-1])
        )

    search = "transducer.decode_nbest"
    lm_steps = ("charlm.extend_score", "charlm.lm_bin_features", "charlm.logprob")
    trie_steps = ("freqtrie.walk", "freqtrie.freq_bin_features")
    return {
        "aligner.em_train_s": total({"aligner.em_train"}),
        "aligner.em_iterations": tracer.counters.get("aligner.em_iterations", 0),
        "aligner.pass2_s": total({"aligner.precision_align"}, "self_time"),
        "aligner.viterbi_nbest_s": total({"aligner.viterbi_nbest"}),
        "aligner.delta_entries": tracer.counters.get("aligner.delta_entries", 0),
        "charlm.train_charlm_s": total({"charlm.train_charlm"}),
        "charlm.make_bins_s": total({"charlm.make_bins"}),
        "charlm.cache_io_s": total({"charlm.save_charlm", "charlm.load_charlm"}),
        "charlm.logprob_calls": total({"charlm.logprob"}, "count"),
        "charlm.decode_lm_s": total(lm_steps, parent=search),
        "freqtrie.parse_lexicon_s": total({"freqtrie.parse_lexicon"}),
        "freqtrie.build_trie_s": total({"freqtrie.build_trie"}),
        "freqtrie.walk_calls": total({"freqtrie.walk"}, "count"),
        "freqtrie.decode_trie_s": total(trie_steps, parent=search),
        "transducer.train_search_s": total({search}, "self_time", under="transducer.train"),
        "transducer.derivation_features_s": total({"transducer.derivation_features"}),
        "transducer.derivation_features_calls": total(
            {"transducer.derivation_features"}, "count"
        ),
        "transducer.mira_update_s": total({"transducer.mira_update"}),
        "transducer.decode_search_s": total({search}, "self_time", under="cli.decode"),
        "transducer.save_model_s": total({"transducer.save_model"}),
        "transducer.load_model_s": total({"transducer.load_model"}),
        "core.parse_s": total({"core.parse_pairs", "core.parse_eval"}),
        "cli.align_self_s": total({"cli.align"}, "self_time"),
        "cli.train_self_s": total({"cli.train"}, "self_time"),
        "cli.decode_self_s": total({"cli.decode"}, "self_time"),
        "cli.evaluate_s": total({"cli.evaluate"}),
        "cli.load_resources_self_s": total({"cli.load_resources"}, "self_time"),
    }


def main(argv):
    workdir = Path(argv[0]).resolve()
    plan = json.loads((workdir / "plan.json").read_text())
    rounds = []
    dump = None
    began = time.perf_counter()
    while True:
        tracer = Tracer() if plan["trace"] and len(rounds) % 2 == 1 else None
        record = run_round(workdir, plan, tracer)
        if tracer is not None:
            record["layers"] = layer_metrics(tracer)
            record["traced_s"] = tracer.top_level_s()
            record["self_sum_s"] = sum(node.self_time for _, node in walk(tracer.root))
            if dump is None:
                dump = tracer.dump()
        rounds.append(record)
        elapsed = time.perf_counter() - began
        mean_round = elapsed / len(rounds)
        whole = not plan["trace"] or len(rounds) % 2 == 0
        if whole and elapsed + mean_round > plan["seconds"]:
            break
    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if dump is not None:
        result["calltree"] = dump
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
