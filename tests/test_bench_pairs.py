"""tools/bench_pairs.py: the pair statistics on fixed values, and a toy run
over a throwaway git repository whose perfbench/run.py only reports set
figures."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_statistics_on_fixed_pairs():
    tool = _tool()
    pairs = [(100.0, 110.0), (90.0, 99.0), (110.0, 105.0), (100.0, 120.0), (120.0, 126.0)]
    higher = tool.pair_stats(pairs, "higher")
    assert higher["ratios"] == [1.1, 1.1, 105 / 110, 1.2, 1.05]
    assert (higher["wins"], higher["pairs"]) == (4, 5)
    assert (higher["base_median"], higher["change_median"]) == (100.0, 110.0)
    # inclusive quartiles of 90, 100, 100, 110, 120
    assert higher["base_quartiles"] == [100.0, 110.0]
    assert higher["beyond_quartiles"] is False  # 10 is not more than 110 - 100
    lower = tool.pair_stats(pairs, "lower")
    assert lower["wins"] == 1
    assert lower["beyond_quartiles"] is False
    wide = tool.pair_stats([(10.0, 8.0), (10.5, 8.0), (9.5, 9.0)], "lower")
    assert wide["base_quartiles"] == [9.75, 10.25]
    assert (wide["wins"], wide["beyond_quartiles"]) == (3, True)
    assert tool.pair_stats([(4.0, 4.0)], "higher") == {
        "ratios": [1.0], "wins": 0, "pairs": 1, "base_median": 4.0,
        "base_quartiles": [4.0, 4.0], "change_median": 4.0, "beyond_quartiles": False,
    }
    lines = tool.metric_lines({"decode_words_per_s": higher})
    assert lines == [
        "  decode_words_per_s: base 100 [100, 110] -> change 110, better in 4 of 5, "
        "beyond the base quartiles: no; ratios 1.100 1.100 0.955 1.200 1.050"
    ]


# A stand-in for perfbench/run.py: it reports the speed in speed.txt and,
# as peak_rss_mb, how many runs its directory has made, writes its record
# where run.py writes it, and prints run.py's summary line.
FAKE_RUN = '''
import argparse, json, pathlib
p = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(name)
a = p.parse_args()
here = pathlib.Path(".")
count = here / "runs.txt"
n = int(count.read_text()) + 1 if count.exists() else 1
count.write_text(str(n))
speed, out, correct = (here / "speed.txt").read_text().split()
metrics = {"decode_words_per_s": float(speed), "peak_rss_mb": 30.0 + n}
record = {"hashes": {"nbest.txt": out}, "rounds": [{}] * int(a.seed),
          "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}
results = here / ".perfbench-results"
results.mkdir(exist_ok=True)
(results / f"{a.workload}-s{a.seed}-t{a.trace}.json").write_text(json.dumps(record))
print(json.dumps({"correct": correct == "yes", "metrics": metrics}))
'''


def _commit(repo, speed, out="h1", correct="yes"):
    (repo / "speed.txt").write_text(f"{speed} {out} {correct}\n")
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm",
                    f"speed {speed}"], cwd=repo, check=True)
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not available")
def test_a_toy_series_alternates_keeps_every_record_and_refuses_other_outputs(
    tmp_path, capsys
):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    (repo / "perfbench" / "run.py").write_text(FAKE_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "decode_words_per_s", "better": "higher"},
        {"name": "peak_rss_mb", "better": "lower"},
        {"name": "pipeline_s", "better": "lower"},  # not reported: left out
    ]}))
    base = _commit(repo, 100)
    change = _commit(repo, 125)
    other = _commit(repo, 125, out="h2")
    failing = _commit(repo, 125, correct="no")
    tool = _tool()
    scratch = tmp_path / "scratch"

    def run(change_ref, *extra):
        return tool.main(["--base", base, "--change", change_ref, "--workload", "toy",
                          "--seeds", "1", "2", "--pairs", "3", "--seconds", "1",
                          "--scratch", str(scratch), "--repo", str(repo), *extra])

    assert run(change) == 0
    printed = capsys.readouterr().out
    record = json.loads((scratch / "pairs.json").read_text())
    assert (record["base"], record["change"]) == (base, change)
    assert sorted(record["seeds"]) == ["1", "2"]
    runs = record["seeds"]["1"]["runs"] + record["seeds"]["2"]["runs"]
    assert [r["first"] for r in runs] == ["base", "change"] * 3
    # every run kept: each side's runs count up, one by one
    assert sorted(r[side]["metrics"]["peak_rss_mb"] for r in runs for side in
                  ("base", "change")) == [31.0, 31.0, 32.0, 32.0, 33.0, 33.0,
                                          34.0, 34.0, 35.0, 35.0, 36.0, 36.0]
    assert len(list((scratch / "runs").glob("toy-s*-p*-*.json"))) == 12
    assert [r["base"]["rounds"] for r in record["seeds"]["2"]["runs"]] == [2, 2, 2]
    speed = record["seeds"]["2"]["metrics"]["decode_words_per_s"]
    assert (speed["wins"], speed["ratios"]) == (3, [1.25] * 3)
    assert set(record["seeds"]["1"]["metrics"]) == {"decode_words_per_s", "peak_rss_mb"}
    assert "  pair 1: 34.00 (2) | 34.00 (2), change first" in printed
    assert run(other) == 1
    assert "different outputs" in capsys.readouterr().err
    assert run(other, "--outputs-change") == 0
    assert run(failing) == 1
    assert "the change side's output checks failed" in capsys.readouterr().err
