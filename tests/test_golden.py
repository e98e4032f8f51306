"""Golden bytes: align -> train -> decode on a small lexicon task, with LM
and frequency features on, must keep writing exactly these files.  A
change that is meant to alter them updates the hashes and says why."""

import hashlib

from chartrans.cli import main

from toytask import lexicon_task

GOLDEN = {
    "alignments.txt": "ea58344e312e78881b11f2d200eb3f850bc6de933460f3c0b11abf5ab173fa51",
    "model.txt": "91d080d8bafaec20e79a44687846849bdbf09b24588443f2d90d4a639e53eb6a",
    "nbest.txt": "7dd9d703a2dd9b3552d6c9122c539a66a7f0f227a95bd270c34157b1b0f0e0b5",
}


def _text(seq):
    return " ".join(seq)


def test_pipeline_output_bytes(tmp_path, monkeypatch):
    lexicon, pairs, held = lexicon_task(11, lex_size=1500, n_train=60, n_test=60)
    (tmp_path / "words.txt").write_text(
        "".join(f"{''.join(w)}\t{c}\n" for w, c in lexicon.counts.items()),
        encoding="utf-8",
    )
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
    (tmp_path / "run.cfg").write_text(
        "pairs = train.txt\ntest = test.txt\nwordlist = words.txt\n"
        "outdir = out\nepochs = 2\ndecode_nbest = 5\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    for command in ("align", "train", "decode"):
        assert main([command, "--config", "run.cfg"]) == 0
    hashes = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in GOLDEN
    }
    assert hashes == GOLDEN
