"""Fast self-test of the benchmark at toy size.

Usage (from the repository root): python3 perfbench/selftest.py

Runs the real pipeline once per workload on a toy-sized version of its
inputs, checks that the output checks accept those outputs and reject
corrupted copies of them, and checks the tracer's self-time arithmetic on
a hand-built call tree and the speed probe's interval arithmetic on
hand-set probes.  Exits 1 and names each failed expectation.
"""

import contextlib
import dataclasses
import io
import os
import shutil
import sys
import time

import checks
import run
from calltree import Tracer, walk
from speedprobe import SpeedProbe

FAILURES = []


def expect(condition, message):
    if not condition:
        FAILURES.append(message)


def toy_outputs(name, directory, toytask, cli):
    """Run align/train/decode/evaluate on a toy version of the workload;
    returns (workload, pairs, held, references, output directory)."""
    full = run.WORKLOADS[name]
    workload = dataclasses.replace(
        full, words=400, pairs=30, held=20,
        settings={**full.settings, "epochs": 1, "beam": 10},
    )
    pairs, held, references = run.write_inputs(directory, workload, 3, toytask)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for command in run.COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", "run.cfg"])
            expect(code == 0, f"{name}: toy {command} exited with {code}")
    finally:
        os.chdir(cwd)
    return workload, pairs, held, references, directory / "out"


def check_workload(name, directory, toytask, cli):
    workload, pairs, held, references, out = toy_outputs(name, directory, toytask, cli)
    alignments = (out / "alignments.txt").read_text(encoding="utf-8")
    nbest = (out / "nbest.txt").read_text(encoding="utf-8")
    report = (out / "report.txt").read_text(encoding="utf-8")

    def align_problems(text):
        return checks.check_alignments(text, pairs, workload.max_span)[0]

    def nbest_problems(text):
        return checks.check_nbest(text, held, workload.nbest)[0]

    expect(not align_problems(alignments), f"{name}: genuine alignments rejected")
    expect(not nbest_problems(nbest), f"{name}: genuine n-best list rejected")
    _, blocks, _ = checks.check_nbest(nbest, held, workload.nbest)
    accuracy, oracle = checks.accuracies(blocks, references)
    expect(not checks.check_report(report, accuracy, oracle),
           f"{name}: genuine report rejected")

    lines = alignments.splitlines()
    links = checks.parse_alignment_line(lines[0])
    k = next(i for i, (_, tgt) in enumerate(links) if tgt)
    split = links[:k] + [(links[k][0], ()), ((), links[k][1])] + links[k + 1:]
    merged = [(sum((s for s, _ in links), ()), sum((t for _, t in links), ()))]
    corrupt = {
        "swapped lines": [lines[1], lines[0]] + lines[2:],
        "a misspelt target": [lines[0].replace("}", "}q", 1)] + lines[1:],
        "an empty source span": [_format(split)] + lines[1:],
    }
    if workload.max_span is not None:
        corrupt["a span over the limit"] = [_format(merged)] + lines[1:]
    for what, bad in corrupt.items():
        expect(align_problems("\n".join(bad) + "\n"),
               f"{name}: alignments with {what} accepted")

    blocks = _blocks(nbest)
    source, _, output, score = blocks[0].splitlines()[0].split("\t")
    corrupt = {
        "reordered blocks": [blocks[1], blocks[0]] + blocks[2:],
        "a missing block": blocks[1:],
        "a repeated output": [f"{source}\t1\t{output}\t{score}\n"
                              f"{source}\t2\t{output}\t{score}\n"] + blocks[1:],
        "rising scores": [f"{source}\t1\t{output}\t{score}\n"
                          f"{source}\t2\t{output} x\t{float(score) + 1}\n"] + blocks[1:],
    }
    for what, bad in corrupt.items():
        expect(nbest_problems("".join(bad)), f"{name}: n-best list with {what} accepted")

    expect(checks.check_report(f"accuracy={accuracy + 0.5:.6f}\noracle={oracle:.6f}\n",
                               accuracy, oracle),
           f"{name}: wrong report.txt accepted")


def _format(links):
    return " ".join(
        f"{'|'.join(src) or '_'}}}{'|'.join(tgt) or '_'}" for src, tgt in links
    )


def _blocks(nbest):
    """n-best text split into one string per block."""
    blocks = []
    for line in nbest.splitlines(keepends=True):
        if line.split("\t")[1] in ("0", "1"):
            blocks.append("")
        blocks[-1] += line
    return blocks


def check_accuracy_rules():
    expect(checks.check_accuracy(0.5, 0.4, 0.1), "oracle below accuracy accepted")
    expect(checks.check_accuracy(0.3, 0.9, 0.3), "accuracy equal to the rules accepted")
    expect(not checks.check_accuracy(0.7, 0.9, 0.3), "sound accuracies rejected")
    held = [("K", "A", "T"), ("B", "I", "K"), ("M", "O")]
    refs = [{("c", "a", "t")}, {("b", "i", "k")}, {("m", "o", "e")}]
    expect(checks.spelling_rule_accuracy(held, refs) == 1 / 3,
           "spelling rules scored wrongly")


def check_self_times():
    """Hand-built tree: a(0..10) calls b(1..6) and c(7..9); b calls c(2..3)
    and c(4..5); so a's self time is 3, b's 3 and c's 4."""
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def c():
        pass

    traced_c = tracer.wrap("c", c)

    def b():
        traced_c()
        traced_c()

    traced_b = tracer.wrap("b", b, span=True)

    def a():
        traced_b()
        traced_c()

    tracer.wrap("a", a, span=True)()
    selfs = {path: (node.count, node.total, node.self_time)
             for path, node in walk(tracer.root)}
    expect(selfs == {
        ("a",): (1, 10.0, 3.0),
        ("a", "b"): (1, 5.0, 3.0),
        ("a", "b", "c"): (2, 2.0, 2.0),
        ("a", "c"): (1, 2.0, 2.0),
    }, f"call tree wrong: {selfs}")
    expect(sum(s for _, _, s in selfs.values()) == tracer.top_level_s() == 10.0,
           "self times do not add up to the top-level duration")
    spans = {s["name"]: (s["start"], s["end"], s["parent"], s["self"])
             for s in tracer.dump()["spans"]}
    expect(spans == {"a": (0.0, 10.0, None, 3.0), "b": (1.0, 6.0, 0, 3.0)},
           f"spans wrong: {spans}")


def check_speed_probe():
    probe = SpeedProbe()
    probe.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    probe.durations = [0.1, 0.2, 0.1, 0.3, 0.1, 0.2, 0.4]
    # Three probes fall inside 0.5..3.5; the median widens to the five
    # nearest.
    expect(probe.interval(0.5, 3.5) == [3.0 - 0.6, 0.1],
           f"probe interval wrong: {probe.interval(0.5, 3.5)}")
    expect(probe.interval(0.0, 7.0) == [7.0 - 1.4, 0.2],
           f"probe interval wrong: {probe.interval(0.0, 7.0)}")
    with SpeedProbe(period=0.01) as live:
        stop = time.perf_counter() + 0.2
        while time.perf_counter() < stop:
            pass
    expect(len(live.durations) >= 5, f"probe ticked {len(live.durations)} times in 0.2 s")


def main():
    sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]
    import toytask
    from chartrans import cli

    check_self_times()
    check_speed_probe()
    check_accuracy_rules()
    workdir = run.WORK / f"selftest-p{os.getpid()}"
    try:
        for name in run.WORKLOADS:
            check_workload(name, workdir / name, toytask, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in FAILURES:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
