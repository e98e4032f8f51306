"""The pipeline runs that tests/test_golden.py pins: align -> train ->
decode on a small lexicon or inflection task, in a fresh directory, and
the sha256 of each file a case names.  It needs only chartrans, toytask
and the standard library, so any interpreter chartrans supports can run
it, also without pytest:

    PYTHONPATH=src:tests python3.12 tests/golden_cases.py '{"full": ["", ["nbest.txt"]]}'

runs each case its argument names, as {case: [extra settings, [file
names]]}, and prints {case: {file name: sha256}} as JSON."""

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from chartrans.cli import main

from toytask import inflection_task, lexicon_task

# The LM cache is named by a hash of the word list and LM order.
LM_CACHE = "words.txt.*.lm"


def _golden_file(directory, name):
    """The file a golden name stands for: the LM cache beside the word
    list, or an output file."""
    if name == LM_CACHE:
        [path] = directory.glob(name)
        return path
    return directory / "out" / name


def _text(seq):
    return " ".join(seq)


def _write_words(path, lexicon):
    path.write_text(
        "".join(f"{''.join(w)}\t{c}\n" for w, c in lexicon.counts.items()),
        encoding="utf-8",
    )


def _write_lexicon_task(directory):
    lexicon, pairs, held = lexicon_task(11, lex_size=1500, n_train=60, n_test=60)
    _write_words(directory / "words.txt", lexicon)
    (directory / "train.txt").write_text(
        "".join(f"{_text(p.source)}\t{_text(p.target)}\n" for p in pairs),
        encoding="utf-8",
    )
    (directory / "test.txt").write_text(
        "".join(
            f"{_text(h.source)}\t{'|'.join(sorted(map(_text, h.references)))}\n"
            for h in held
        ),
        encoding="utf-8",
    )


def _write_inflection_task(directory):
    lexicon, train, held = inflection_task(11, lex_size=300, n_train=60, n_test=60)
    _write_words(directory / "words.txt", lexicon)
    for name, triples in (("train.txt", train), ("test.txt", held)):
        (directory / name).write_text(
            "".join("\t".join(t) + "\n" for t in triples), encoding="utf-8"
        )


def run_case(directory, case, extra, names):
    """Write the case's task to directory, run align, train and decode
    there with extra appended to the configuration, and return the sha256
    of each file in names."""
    directory = Path(directory)
    if case == "inflection":
        _write_inflection_task(directory)
    else:
        _write_lexicon_task(directory)
    (directory / "run.cfg").write_text(
        "pairs = train.txt\ntest = test.txt\nwordlist = words.txt\n"
        "outdir = out\nepochs = 2\ndecode_nbest = 5\n" + extra,
        encoding="utf-8",
    )
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for command in ("align", "train", "decode"):
            if main([command, "--config", "run.cfg"]) != 0:
                raise RuntimeError(f"{case}: {command} failed")
    finally:
        os.chdir(cwd)
    return {
        name: hashlib.sha256(_golden_file(directory, name).read_bytes()).hexdigest()
        for name in names
    }


if __name__ == "__main__":
    hashes = {}
    with contextlib.redirect_stdout(sys.stderr):
        for case, (extra, names) in json.loads(sys.argv[1]).items():
            with tempfile.TemporaryDirectory() as directory:
                hashes[case] = run_case(directory, case, extra, names)
    print(json.dumps(hashes))
