"""Golden bytes: align -> train -> decode on a small lexicon task must keep
writing exactly these files: for the full system (precision alignment,
LM and frequency features), for it with frequency features off, and for
the 2-2 baseline aligner with LM features off.  The same full system on a
small inflection task, with one copy instance, pins the tag symbols and
the +COPY pair.  The LM cases also pin the LM cache that train writes
beside the word list.  A change that is meant
to alter them updates the hashes and says why."""

import hashlib

import pytest

from chartrans.cli import main

from toytask import inflection_task, lexicon_task

# The LM cache is named by a hash of the word list and LM order.
LM_CACHE = "words.txt.*.lm"

GOLDEN = {
    "full": ("", {
        "alignments.txt": "ea58344e312e78881b11f2d200eb3f850bc6de933460f3c0b11abf5ab173fa51",
        "model.txt": "91d080d8bafaec20e79a44687846849bdbf09b24588443f2d90d4a639e53eb6a",
        "nbest.txt": "7dd9d703a2dd9b3552d6c9122c539a66a7f0f227a95bd270c34157b1b0f0e0b5",
        LM_CACHE: "980f4f15cd3be84624dc313089ede09e74c978e1c8ced077e7f0fc34dd87b4a7",
    }),
    "lm-no-freq": ("disable_freq = true\n", {
        "alignments.txt": "ea58344e312e78881b11f2d200eb3f850bc6de933460f3c0b11abf5ab173fa51",
        "model.txt": "15e9492a826ccc9ad04f61f6dc1fcf7447d8ba33d5e376813016a2c0faea90c6",
        "nbest.txt": "04216747fcec259f2b788a5976c374007cd3b1223af87354fc4899159b7af8cf",
        LM_CACHE: "980f4f15cd3be84624dc313089ede09e74c978e1c8ced077e7f0fc34dd87b4a7",
    }),
    "m2m-no-lm": ("disable_precision = true\ndisable_lm = true\n", {
        "alignments.txt": "72fca9ffb11a29886c56bf39a5982c13188daaf55d4b3346d4e592f38e78951e",
        "model.txt": "db4b0856c7ab8eacf9faa2759c176354375550eeea8d6a4d22c10029ac230047",
        "nbest.txt": "fc8162b16176f4a92e6619b53ef54018eae5fb1a4f089484cb739a28964bfb5b",
    }),
    "inflection": ("task = inflection\ncopy_instances = 1\n", {
        "alignments.txt": "34acf8ec16a0d145ae8aa33013912b4bf3277b2a0d0d73e3cf01c666f809ae3e",
        "model.txt": "aa6b479d6bc6cd7e361bf611e33780ddc4f6d7098ce853205fa46e5ae4904913",
        "nbest.txt": "1a8b98d117f7bef8350e9a8738f763fbc9ed09026ef887bd1ba36be1ece606c9",
        LM_CACHE: "cc568a0c518800ac75e46a4be62b1f5f1af8850356ae315a225b2312f5375fce",
    }),
}


def _golden_file(tmp_path, name):
    """The file a golden name stands for: the LM cache beside the word
    list, or an output file."""
    if name == LM_CACHE:
        [path] = tmp_path.glob(name)
        return path
    return tmp_path / "out" / name


def _text(seq):
    return " ".join(seq)


def _write_words(path, lexicon):
    path.write_text(
        "".join(f"{''.join(w)}\t{c}\n" for w, c in lexicon.counts.items()),
        encoding="utf-8",
    )


def _write_lexicon_task(tmp_path):
    lexicon, pairs, held = lexicon_task(11, lex_size=1500, n_train=60, n_test=60)
    _write_words(tmp_path / "words.txt", lexicon)
    (tmp_path / "train.txt").write_text(
        "".join(f"{_text(p.source)}\t{_text(p.target)}\n" for p in pairs),
        encoding="utf-8",
    )
    (tmp_path / "test.txt").write_text(
        "".join(
            f"{_text(h.source)}\t{'|'.join(sorted(map(_text, h.references)))}\n"
            for h in held
        ),
        encoding="utf-8",
    )


def _write_inflection_task(tmp_path):
    lexicon, train, held = inflection_task(11, lex_size=300, n_train=60, n_test=60)
    _write_words(tmp_path / "words.txt", lexicon)
    for name, triples in (("train.txt", train), ("test.txt", held)):
        (tmp_path / name).write_text(
            "".join("\t".join(t) + "\n" for t in triples), encoding="utf-8"
        )


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_pipeline_output_bytes(tmp_path, monkeypatch, case):
    extra, golden = GOLDEN[case]
    if case == "inflection":
        _write_inflection_task(tmp_path)
    else:
        _write_lexicon_task(tmp_path)
    (tmp_path / "run.cfg").write_text(
        "pairs = train.txt\ntest = test.txt\nwordlist = words.txt\n"
        "outdir = out\nepochs = 2\ndecode_nbest = 5\n" + extra,
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    for command in ("align", "train", "decode"):
        assert main([command, "--config", "run.cfg"]) == 0
    hashes = {
        name: hashlib.sha256(_golden_file(tmp_path, name).read_bytes()).hexdigest()
        for name in golden
    }
    assert hashes == golden
