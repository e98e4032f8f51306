"""tools/bench_record.py: per-workload medians over the seeds run, with
each seed's values and hashes, from the untraced result files, and their
ratios to the newest earlier record, and the line and code-line counts of
src/chartrans, in all and per file."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_record.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(results, workload, seed, speed, trace=0, problems=(), python="3.11.7"):
    record = {
        "workload": workload, "seed": seed, "trace": trace, "python": python,
        "nproc": 2, "problems": list(problems), "hashes": {"model.txt": f"h{seed}"},
        "rounds": [{}] * seed,
        "metrics": {"decode_words_per_s": {"value": speed, "unit": "words/s"},
                    "accuracy": {"value": 0.5, "unit": "fraction"}},
    }
    path = results / f"{workload}-s{seed}-t{trace}.json"
    path.write_text(json.dumps(record), encoding="utf-8")


def test_record_holds_medians_per_seed_values_and_hashes(tmp_path):
    for seed, speed in [(1, 10.0), (2, 30.0), (3, 20.0)]:
        _result(tmp_path, "lexicon-2x2", seed, speed)
    _result(tmp_path, "lexicon-full", 1, 5.0)
    _result(tmp_path, "lexicon-full", 1, 99.0, trace=1)  # traced: not read
    assert _tool().main(["--pr", "7", "--results", str(tmp_path),
                         "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "BENCH_7.json").read_text(encoding="utf-8"))
    assert (record["pr"], record["python"], record["nproc"]) == (7, "3.11.7", 2)
    assert record["units"]["decode_words_per_s"] == "words/s"
    two = record["workloads"]["lexicon-2x2"]
    assert two["seeds"] == [1, 2, 3]
    assert two["median"] == {"decode_words_per_s": 20.0, "accuracy": 0.5}
    assert two["per_seed"]["2"] == {
        "metrics": {"decode_words_per_s": 30.0, "accuracy": 0.5},
        "rounds": 2, "hashes": {"model.txt": "h2"},
    }
    assert record["workloads"]["lexicon-full"]["median"]["decode_words_per_s"] == 5.0


def test_failed_or_mixed_results_are_refused(tmp_path, capsys):
    tool = _tool()
    args = ["--pr", "7", "--results", str(tmp_path), "--out-dir", str(tmp_path)]
    assert tool.main(args) == 1
    assert "no untraced results" in capsys.readouterr().err
    _result(tmp_path, "lexicon-2x2", 1, 10.0, problems=["bad n-best"])
    assert tool.main(args) == 1
    assert "lexicon-2x2-s1-t0.json" in capsys.readouterr().err
    _result(tmp_path, "lexicon-2x2", 1, 10.0)
    _result(tmp_path, "lexicon-2x2", 2, 10.0, python="3.12.1")
    assert tool.main(args) == 1
    assert "more than one" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_7.json").exists()


def test_medians_are_compared_with_the_newest_earlier_record(tmp_path, capsys):
    for seed, speed in [(1, 10.0), (2, 30.0), (3, 20.0)]:
        _result(tmp_path, "lexicon-2x2", seed, speed)
    _result(tmp_path, "lexicon-full", 1, 5.0)

    def earlier(pr, two_speed, full=None):
        workloads = {"lexicon-2x2": {"median": {"decode_words_per_s": two_speed,
                                                "accuracy": 0.0}}}
        if full is not None:
            workloads["lexicon-full"] = {"median": {"decode_words_per_s": full}}
        (tmp_path / f"BENCH_{pr}.json").write_text(
            json.dumps({"pr": pr, "workloads": workloads}), encoding="utf-8")

    earlier(3, 1.0, full=1.0)
    earlier(6, 16.0)    # the newest below 7
    earlier(12, 99.0)   # later than the record written
    (tmp_path / "BENCH_notes.json").write_text("{}", encoding="utf-8")
    args = ["--pr", "7", "--results", str(tmp_path), "--out-dir", str(tmp_path)]
    assert _tool().main(args) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == [
        "medians against BENCH_6.json (new / earlier = ratio):",
        "  lexicon-2x2 accuracy: 0.5 / 0 = n/a",
        "  lexicon-2x2 decode_words_per_s: 20 / 16 = 1.250",
    ]
    # with no earlier record, nothing is compared
    for pr in (3, 6):
        (tmp_path / f"BENCH_{pr}.json").unlink()
    assert _tool().main(args) == 0
    assert capsys.readouterr().out.splitlines()[1:] == []


def test_record_holds_the_source_line_count_beside_the_earlier_one(tmp_path, capsys):
    _result(tmp_path, "lexicon-2x2", 1, 10.0)
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in (ROOT / "src" / "chartrans").glob("*.py"))
    (tmp_path / "BENCH_6.json").write_text(
        json.dumps({"pr": 6, "src_lines": 3000, "workloads": {}}), encoding="utf-8")
    args = ["--pr", "7", "--results", str(tmp_path), "--out-dir", str(tmp_path)]
    tool = _tool()
    assert tool.main(args) == 0
    record = json.loads((tmp_path / "BENCH_7.json").read_text(encoding="utf-8"))
    assert record["src_lines"] == lines > 0
    code = record["src_code_lines"]
    assert code == tool.src_code_lines() and 0 < code < lines
    # an earlier record without src_code_lines prints none
    assert capsys.readouterr().out.splitlines()[1:] == [
        "medians against BENCH_6.json (new / earlier = ratio):",
        f"src_lines: {lines} (BENCH_6.json: 3000)",
    ]
    (tmp_path / "BENCH_6.json").write_text(json.dumps(
        {"pr": 6, "src_lines": 3000, "src_code_lines": 2000, "workloads": {}}),
        encoding="utf-8")
    assert tool.main(args) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        f"src_lines: {lines} (BENCH_6.json: 3000)",
        f"src_code_lines: {code} (BENCH_6.json: 2000)",
    ]


# Each line ends with a comment saying whether it is a code line.
_SAMPLE = '''\
"""Module docstring,      # no
over two lines."""        # no
                          # no
import os  # a comment    # yes
# a comment line          # no
X = """a string           # yes
that is no docstring"""   # yes


class A:                  # yes
    "Class docstring."    # no

    def f(self,           # yes
          y):             # yes
        \'\'\'Function     # no
        docstring.\'\'\'   # no
        return "# not a comment"  # yes

    async def g(self):    # yes
        """Docstring."""  # no
        "a second string" # yes


def h():                  # yes
    return (1 +           # yes
            2)            # yes
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "sample.py").write_text(_SAMPLE, encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    want = sum(line.endswith("# yes") for line in _SAMPLE.splitlines())
    assert want == 12
    assert _tool().src_code_lines(tmp_path) == want
    (tmp_path / "empty.py").write_text("", encoding="utf-8")
    (tmp_path / "two.py").write_text("a = 1\n\nb = 2\n", encoding="utf-8")
    assert _tool().src_code_lines(tmp_path) == want + 2


def test_record_holds_code_lines_per_file_beside_the_earlier_ones(tmp_path, capsys):
    _result(tmp_path, "lexicon-2x2", 1, 10.0)
    tool = _tool()
    by_file = tool.src_code_lines_by_file()
    assert sorted(by_file) == sorted(p.name for p in (ROOT / "src" / "chartrans").glob("*.py"))
    assert by_file["transducer.py"] > 0
    # a file the earlier record lacks counts 0 there, and one it alone has
    # counts 0 here
    old = {**{name: 1 for name in by_file if name != "core.py"}, "gone.py": 7}
    (tmp_path / "BENCH_6.json").write_text(json.dumps(
        {"pr": 6, "src_code_lines_by_file": old, "workloads": {}}), encoding="utf-8")
    args = ["--pr", "7", "--results", str(tmp_path), "--out-dir", str(tmp_path)]
    assert tool.main(args) == 0
    record = json.loads((tmp_path / "BENCH_7.json").read_text(encoding="utf-8"))
    assert record["src_code_lines_by_file"] == by_file
    assert sum(by_file.values()) == record["src_code_lines"]
    want = [f"  {name}: {by_file.get(name, 0)} (BENCH_6.json: {old.get(name, 0)})"
            for name in sorted({*by_file, "gone.py"})]
    assert capsys.readouterr().out.splitlines()[2:] == want
    assert "  core.py: %d (BENCH_6.json: 0)" % by_file["core.py"] in want
