import dataclasses
import logging
import marshal
import random
import re
import unicodedata
from pathlib import Path

import pytest

from chartrans.aligner import AlignParams
from chartrans.freqtrie import FreqBinConfig, build_trie, load_trie, parse_lexicon, prefix_count
from chartrans.transducer import FeatureConfig, TrainConfig
from chartrans.cli import (
    RunConfig,
    cmd_ablate,
    cmd_align,
    cmd_decode,
    cmd_evaluate,
    cmd_prune,
    cmd_train,
    load_config,
    load_model,
    load_resources,
    main,
    read_nbest,
)
from chartrans import charlm, cli, freqtrie, transducer
from chartrans.core import ParseError, parse_pairs, parse_seq
from chartrans.aligner import read_alignments

from toytask import context_pairs, lexicon_task

WALK_CORPUS = """\
w ɔ k\tw a l k e d
w\tw
k\tk
ɔ\ta l
ɔ k\ta l k
"""


def write_context_task(tmp_path, seed=5, n_train=60, n_test=25):
    rng = random.Random(seed)
    train_pairs = context_pairs(rng, n_train)
    test_pairs = context_pairs(rng, n_test)
    pairs_file = tmp_path / "pairs.txt"
    pairs_file.write_text(
        "".join(
            " ".join(p.source) + "\t" + " ".join(p.target) + "\n"
            for p in train_pairs
        ),
        encoding="utf-8",
    )
    test_file = tmp_path / "test.txt"
    test_file.write_text(
        "".join(
            " ".join(p.source) + "\t" + " ".join(p.target) + "\n"
            for p in test_pairs
        ),
        encoding="utf-8",
    )
    words = {"".join(p.target) for p in train_pairs + test_pairs}
    words_file = tmp_path / "words.txt"
    words_file.write_text("\n".join(sorted(words)) + "\n", encoding="utf-8")
    cfg = RunConfig(
        pairs=str(pairs_file), test=str(test_file), wordlist=str(words_file),
        outdir=str(tmp_path / "out"), epochs=5, nbest=5, beam=10,
        decode_nbest=3,
    )
    return cfg


def test_load_config_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "pairs = data.txt   # training data\n"
        "\n"
        "epochs = 7\n"
        "averaging = false\n",
        encoding="utf-8",
    )
    cfg = load_config(str(path), overrides=["beam=13", "loss=zero-one"])
    assert cfg.pairs == "data.txt"
    assert cfg.epochs == 7
    assert cfg.averaging is False
    assert cfg.beam == 13
    assert cfg.loss == "zero-one"


def test_load_config_keeps_hash_inside_a_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# run settings\n"
        "wordlist = data/run#1/words.txt\n"
        "pairs = data.txt\t# tab before the comment\n",
        encoding="utf-8",
    )
    cfg = load_config(str(path))
    assert cfg.wordlist == "data/run#1/words.txt"
    assert cfg.pairs == "data.txt"


def test_load_config_refuses_a_key_given_twice_in_the_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 2\nbeam = 4\n\nepochs = 3\n", encoding="utf-8")
    with pytest.raises(ParseError, match="'epochs' is given twice") as info:
        load_config(str(path))
    assert (info.value.lineno, info.value.path) == (4, str(path))
    # --set still overrides a key the file gives once
    path.write_text("epochs = 2\n", encoding="utf-8")
    assert load_config(str(path), overrides=["epochs=3", "epochs=4"]).epochs == 4


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("no_such_option = 1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config(str(path))
    with pytest.raises(ValueError):
        load_config(None, overrides=["also_bad=2"])


def test_load_config_rejects_allow_insertion():
    # insertion links cannot become rules, so the key is not offered
    with pytest.raises(ValueError):
        load_config(overrides=["allow_insertion=true"])


def test_every_library_setting_is_a_key_with_its_library_default():
    # the corpus-feature switches are disable_lm / disable_freq, and
    # insertion links cannot become rules
    not_keys = {"allow_insertion", "lm_features", "freq_features"}
    cfg = load_config()
    for cls in (AlignParams, FeatureConfig, TrainConfig):
        default = cls()
        for field in dataclasses.fields(cls):
            if field.name in not_keys:
                continue
            value = getattr(default, field.name)
            assert getattr(cfg, field.name) == value, field.name
            set_cfg = load_config(overrides=[f"{field.name}={value}"])
            assert getattr(set_cfg, field.name) == value, field.name
    assert cfg.freq_thresholds == FreqBinConfig().thresholds
    for old_key in ("em_iterations", "em_tol"):
        with pytest.raises(ValueError, match="unknown configuration key"):
            load_config(overrides=[f"{old_key}=1"])


@pytest.mark.parametrize("setting", [
    "beam=0", "max_x=0", "context_window=-1", "loss=levenstein",
    "task=inflexion", "freq_thresholds=10,1",
])
def test_load_config_rejects_bad_values(setting):
    with pytest.raises(ValueError):
        load_config(overrides=[setting])


@pytest.mark.parametrize("setting", ["beam=0", "task=inflexion", "copy_instances=-1"])
def test_bad_value_stops_align_before_it_writes(tmp_path, capsys, setting):
    (tmp_path / "pairs.txt").write_text(WALK_CORPUS, encoding="utf-8")
    rc = main(["align", "--set", f"pairs={tmp_path}/pairs.txt",
               "--set", f"outdir={tmp_path}/out", "--set", setting])
    assert rc == 1
    # the error names the key, not a later failure of its value
    assert f"error: {setting.split('=')[0]} = " in capsys.readouterr().err
    assert not (tmp_path / "out" / "alignments.txt").exists()


def test_too_many_copy_instances_names_the_key(tmp_path, capsys):
    (tmp_path / "pairs.txt").write_text("a b\tx y\nc\tz\n", encoding="utf-8")
    rc = main(["align", "--set", f"pairs={tmp_path}/pairs.txt",
               "--set", f"outdir={tmp_path}/out", "--set", "copy_instances=5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: copy_instances = 5: ")
    assert "2 distinct targets" in err
    assert not (tmp_path / "out" / "alignments.txt").exists()


def test_full_pipeline_reaches_perfect_accuracy(tmp_path):
    cfg = write_context_task(tmp_path)
    cmd_align(cfg)
    alignments = read_alignments(
        (tmp_path / "out" / "alignments.txt").read_text(encoding="utf-8")
    )
    pairs = parse_pairs((tmp_path / "pairs.txt").read_text(encoding="utf-8"))
    assert len(alignments) == len(pairs)
    cmd_train(cfg)
    cmd_decode(cfg)
    accuracy, oracle = cmd_evaluate(cfg)
    assert accuracy == 1.0
    assert oracle >= accuracy
    report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
    assert "accuracy=1.000000" in report


def test_decode_is_deterministic(tmp_path):
    cfg = write_context_task(tmp_path, n_train=30, n_test=10)
    cmd_align(cfg)
    cmd_train(cfg)
    first = cmd_decode(cfg, output_path=str(tmp_path / "n1.txt"))
    second = cmd_decode(cfg, output_path=str(tmp_path / "n2.txt"))
    assert (tmp_path / "n1.txt").read_bytes() == (tmp_path / "n2.txt").read_bytes()


def test_decode_single_best_and_fallback(tmp_path):
    cfg = write_context_task(tmp_path, n_train=20, n_test=5)
    cfg.decode_nbest = 1
    cmd_align(cfg)
    cmd_train(cfg)
    # a source with a symbol outside the training alphabet: the identity
    # fallback copies it through
    probe = tmp_path / "probe.txt"
    probe.write_text("a Q b\n", encoding="utf-8")
    out = cmd_decode(cfg, input_path=str(probe),
                     output_path=str(tmp_path / "probe_out.txt"))
    lines = (tmp_path / "probe_out.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1  # one line per input at n=1
    _src, rank, output, _score = lines[0].split("\t")
    assert rank == "1"
    assert "Q" in output.split()


def test_decode_input_error_names_its_line(tmp_path):
    cfg = write_context_task(tmp_path, n_train=10, n_test=3)
    cfg.epochs = 1
    cmd_align(cfg)
    cmd_train(cfg)
    bad = tmp_path / "bad.txt"
    # source-only lines are accepted; the null token is not
    bad.write_text("a b\n\nc _ d\tC 1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 3"):
        cmd_decode(cfg, input_path=str(bad))


def test_inflection_decode_input_error_names_its_line(tmp_path):
    (tmp_path / "infl.txt").write_text(
        "mira\tmiro\tV;PRS\ngana\tganed\tV;PST\n", encoding="utf-8"
    )
    cfg = RunConfig(
        pairs=str(tmp_path / "infl.txt"), outdir=str(tmp_path / "out"),
        task="inflection", epochs=1, nbest=2, beam=4, decode_nbest=1,
        disable_lm=True, disable_freq=True,
    )
    cmd_align(cfg)
    cmd_train(cfg)
    bad = tmp_path / "bad.txt"
    bad.write_text("mira\tmiro\tV;PRS\ngana\tV;PST\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        cmd_decode(cfg, input_path=str(bad))


def _run_argv(cfg):
    """--set options that give main the paths and epochs of cfg."""
    keys = ("pairs", "test", "wordlist", "outdir", "epochs")
    return [arg for key in keys for arg in ("--set", f"{key}={getattr(cfg, key)}")]


def test_bad_word_list_count_stops_train_with_its_line(tmp_path, capsys):
    cfg = write_context_task(tmp_path, n_train=10, n_test=3)
    cfg.epochs = 1
    cmd_align(cfg)
    words = tmp_path / "words.txt"
    lineno = len(words.read_text(encoding="utf-8").splitlines()) + 1
    with open(words, "a", encoding="utf-8") as out:
        out.write("yx\tthree\n")
    assert main(["train", *_run_argv(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {words}: line {lineno}: count 'three' ")
    assert not (tmp_path / "out" / "model.txt").exists()


def test_bad_lm_cache_line_stops_decode_with_an_error(tmp_path, capsys):
    cfg = write_context_task(tmp_path, n_train=10, n_test=3)
    cfg.epochs = 1
    cmd_align(cfg)
    cmd_train(cfg)
    [cache] = tmp_path.glob("*.lm")
    lineno = len(cache.read_text(encoding="utf-8").splitlines()) + 1
    with open(cache, "a", encoding="utf-8") as out:
        out.write("9\ta b c d e f g h i\tx\t1\n")
    assert main(["decode", *_run_argv(cfg)]) == 1
    # the cache is a file the user never named, so the message names it
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cache}: line {lineno}: level 9 ")


@pytest.mark.parametrize("command, name, text, lineno", [
    ("align", "pairs.txt", "a b\tx y\na b x y\n", 2),
    ("align", "run.cfg", "beam = 3\nno_such_key = 1\n", 2),
    ("train", "alignments.txt", "a}x b}y\nab\n", 2),
    ("decode", "test.txt", "a b\n\nc _ d\tC\n", 3),
], ids=["pairs", "config", "alignments", "decode-input"])
def test_malformed_line_error_names_its_file(tmp_path, capsys, command, name, text, lineno):
    cfg = write_context_task(tmp_path, n_train=10, n_test=3)
    cfg.epochs = 1
    if command == "decode":
        cmd_align(cfg)
        cmd_train(cfg)
    (tmp_path / "out").mkdir(exist_ok=True)
    path = tmp_path / ("out" if name == "alignments.txt" else "") / name
    path.write_text(text, encoding="utf-8")
    argv = [command, *_run_argv(cfg)]
    if name == "run.cfg":
        argv += ["--config", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: line {lineno}: ")


def test_failed_lm_cache_write_leaves_no_cache(tmp_path, monkeypatch):
    cfg = write_context_task(tmp_path, n_train=10, n_test=3)
    inputs = sorted(tmp_path.iterdir())
    save_charlm = charlm.save_charlm

    def save_then_fail(lm, path):
        save_charlm(lm, path)
        with open(path, "r+", encoding="utf-8") as out:
            out.truncate(out.seek(0, 2) // 2)
        raise OSError("disk full")

    monkeypatch.setattr(charlm, "save_charlm", save_then_fail)
    with pytest.raises(OSError, match="disk full"):
        load_resources(cfg)
    assert sorted(tmp_path.iterdir()) == inputs
    monkeypatch.setattr(charlm, "save_charlm", save_charlm)
    lm = load_resources(cfg)[0]
    [cache] = tmp_path.glob("*.lm")
    assert charlm.load_charlm(cache).tables == lm.tables


def _trained(tmp_path, **settings):
    """A trained context task's configuration, after align and train."""
    cfg = write_context_task(tmp_path, n_train=10, n_test=3)
    cfg = dataclasses.replace(cfg, epochs=1, **settings)
    cmd_align(cfg)
    cmd_train(cfg)
    return cfg


def _list_text(path):
    """The text of the word list at path, read as cli reads it."""
    return unicodedata.normalize("NFC", Path(path).read_text(encoding="utf-8"))


def _list_trie(path):
    """The trie of the word list at path."""
    return build_trie(parse_lexicon(_list_text(path)))


def _snapshot_trie(path, list_path):
    """The trie snapshot at path, if it is tagged with the current text of
    the word list at list_path."""
    return load_trie(path, cli._hash_inputs(_list_text(list_path), freqtrie.LAYOUT))


def test_decode_with_and_without_the_trie_snapshot_is_byte_identical(tmp_path):
    cfg = _trained(tmp_path)
    [snapshot] = tmp_path.glob("*.trie")
    assert snapshot.name == "words.txt.trie"
    assert _snapshot_trie(snapshot, cfg.wordlist) == _list_trie(cfg.wordlist)
    cmd_decode(cfg, output_path=str(tmp_path / "n1.txt"))
    snapshot.unlink()
    cmd_decode(cfg, output_path=str(tmp_path / "n2.txt"))
    assert (tmp_path / "n1.txt").read_bytes() == (tmp_path / "n2.txt").read_bytes()


def _no_build(text):
    raise AssertionError("load_model built the trie")


def _forbid_building(monkeypatch):
    for name in ("parse_lexicon", "build_trie"):
        monkeypatch.setattr(freqtrie, name, _no_build)


def test_load_model_reads_the_snapshot_without_building_a_trie(tmp_path, monkeypatch):
    cfg = _trained(tmp_path)
    want = _list_trie(cfg.wordlist)
    _forbid_building(monkeypatch)
    assert load_model(cfg).trie == want


def _counting(monkeypatch, names):
    """Count the calls of each freqtrie function in names."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(freqtrie, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(freqtrie, name, counted)
    return calls


@pytest.mark.parametrize("disable_lm", [False, True], ids=["LM on", "LM off"])
def test_set_up_reads_the_word_list_through_the_traced_reader(
    tmp_path, monkeypatch, disable_lm
):
    # a benchmark times set-up's word-list reading by wrapping these module
    # attributes, so set-up must call them, once each, with the LM on or off
    cfg = dataclasses.replace(
        write_context_task(tmp_path, n_train=10, n_test=3), epochs=1, disable_lm=disable_lm
    )
    cmd_align(cfg)
    calls = _counting(monkeypatch, ("parse_lexicon", "build_trie"))
    trie = load_resources(cfg)[2]
    assert calls == {"parse_lexicon": 1, "build_trie": 1}
    assert trie == _list_trie(cfg.wordlist)
    monkeypatch.undo()
    cmd_train(cfg)
    calls = _counting(monkeypatch, ("parse_lexicon", "build_trie"))
    assert load_model(cfg).trie == trie
    assert calls == {"parse_lexicon": 0, "build_trie": 0}


def test_train_reads_the_word_list_once(tmp_path, monkeypatch):
    # the symbol checks and the set-up share one read
    cfg = dataclasses.replace(write_context_task(tmp_path, n_train=10, n_test=3), epochs=1)
    cmd_align(cfg)
    reads, read = [], cli._read_words
    monkeypatch.setattr(cli, "_read_words", lambda path: reads.append(path) or read(path))
    cmd_train(cfg)
    assert reads == [cfg.wordlist]


def test_a_word_list_edited_after_train_is_counted_from_its_new_text(tmp_path):
    cfg = _trained(tmp_path)
    words = tmp_path / "words.txt"
    word, _ = words.read_text(encoding="utf-8").split("\n", 1)
    words.write_text(f"{word}\t41\nzz\t2\n", encoding="utf-8")
    trie = load_model(cfg).trie
    assert prefix_count(trie, tuple(word), end_of_word=True) == 41
    assert prefix_count(trie, ()) == 43
    assert trie == _list_trie(words)


@pytest.mark.parametrize("feature, kept", [
    ("lm_features", {"lexicon_path": "lexicon"}),
    ("freq_features", {"lm_path": "lm"}),
    ("lm_features", {}),
], ids=["lm path dropped", "lexicon path dropped", "both dropped"])
def test_decode_refuses_a_model_that_names_no_file_for_an_enabled_feature(
    tmp_path, capsys, feature, kept
):
    # save_model writes "path": null for a resource it is given no path for
    cfg = _trained(tmp_path)
    model, refs = transducer.load_model(cfg.model_file)
    transducer.save_model(model, cfg.model_file,
                          **{arg: refs[ref] for arg, ref in kept.items()})
    assert main(["decode", *_run_argv(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg.model_file}: {feature} is on")
    assert not (tmp_path / "out" / "nbest.txt").exists()


def _record(value):
    data = marshal.dumps(value)
    return len(data).to_bytes(4, "little") + data


@pytest.mark.parametrize("damage", [
    "cut mid-record", "cut after a record", "garbage", "not a trie record", "empty",
    "the tag alone", "another tag",
])
def test_a_damaged_trie_snapshot_falls_back_to_the_build(tmp_path, damage):
    cfg = _trained(tmp_path)
    snapshot = tmp_path / "words.txt.trie"
    data = snapshot.read_bytes()
    ends, end = [], 0
    while end < len(data):
        end += 4 + int.from_bytes(data[end:end + 4], "little")
        ends.append(end)
    assert len(ends) > 3 and end == len(data)
    tag = data[: ends[0]]
    snapshot.write_bytes({
        "cut mid-record": data[:-1],
        "cut after a record": data[: ends[-2]],
        "garbage": b"not a trie",
        "not a trie record": tag + _record(5) + _record(("a", (1, 1))),
        "empty": b"",
        "the tag alone": tag,
        "another tag": _record("0123456789") + data[ends[0]:],
    }[damage])
    assert load_model(cfg).trie == _list_trie(cfg.wordlist)


def test_a_second_train_leaves_an_unchanged_trie_snapshot_alone(tmp_path, monkeypatch):
    cfg = _trained(tmp_path)
    snapshot = tmp_path / "words.txt.trie"
    before = snapshot.stat()

    def refused(trie, path, tag):
        raise AssertionError("the trie snapshot was written again")

    monkeypatch.setattr(freqtrie, "save_trie", refused)
    cmd_train(cfg)
    after = snapshot.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert _snapshot_trie(snapshot, cfg.wordlist) == _list_trie(cfg.wordlist)


@pytest.mark.parametrize("change", ["edited list", "another tag", "garbage", "empty", "missing"])
def test_train_rewrites_a_trie_snapshot_not_tagged_with_the_list(tmp_path, change):
    cfg = _trained(tmp_path)
    snapshot = tmp_path / "words.txt.trie"
    data = snapshot.read_bytes()
    tag_end = 4 + int.from_bytes(data[:4], "little")
    if change == "edited list":
        with open(cfg.wordlist, "a", encoding="utf-8") as out:
            out.write("zz\t2\n")
    elif change == "missing":
        snapshot.unlink()
    else:
        snapshot.write_bytes({
            "another tag": _record("0123456789") + data[tag_end:],
            "garbage": b"not a trie",
            "empty": b"",
        }[change])
    cmd_train(cfg)
    assert _snapshot_trie(snapshot, cfg.wordlist) == _list_trie(cfg.wordlist)


def test_failed_trie_snapshot_write_leaves_no_snapshot(tmp_path, monkeypatch):
    cfg = write_context_task(tmp_path, n_train=10, n_test=3)
    save_trie = freqtrie.save_trie

    def save_then_fail(trie, path, tag):
        save_trie(trie, path, tag)
        with open(path, "r+b") as out:
            out.truncate(out.seek(0, 2) // 2)
        raise OSError("disk full")

    monkeypatch.setattr(freqtrie, "save_trie", save_then_fail)
    with pytest.raises(OSError, match="disk full"):
        load_resources(cfg)
    assert not list(tmp_path.glob("*.trie*"))
    monkeypatch.setattr(freqtrie, "save_trie", save_trie)
    trie = load_resources(cfg)[2]
    [snapshot] = tmp_path.glob("*.trie")
    assert _snapshot_trie(snapshot, cfg.wordlist) == trie


def test_the_pruned_lexicon_has_its_own_trie_snapshot(tmp_path, monkeypatch):
    english = tmp_path / "en.txt"
    english.write_text("the\t100\n", encoding="utf-8")
    cfg = _trained(tmp_path, english_wordlist=str(english))
    [plex] = tmp_path.glob("words.txt.*.plex")
    [snapshot] = tmp_path.glob("*.trie")
    assert snapshot.name == plex.name + ".trie"
    want = _list_trie(plex)
    _forbid_building(monkeypatch)
    assert load_model(cfg).trie == want
    snapshot.unlink()
    monkeypatch.undo()
    assert load_model(cfg).trie == want


def test_a_word_too_long_to_snapshot_trains_and_decodes(tmp_path):
    # marshal refuses a trie nested deeper than its limit, so no snapshot
    # is written, and decode builds the trie from the word list
    cfg = write_context_task(tmp_path, n_train=10, n_test=3)
    cfg.epochs = 1
    with open(cfg.wordlist, "a", encoding="utf-8") as out:
        out.write("q" * 3000 + "\t5\n")
    cmd_align(cfg)
    cmd_train(cfg)
    assert not list(tmp_path.glob("*.trie"))
    trie = load_model(cfg).trie
    assert prefix_count(trie, ("q",) * 3000, end_of_word=True) == 5
    assert len(read_nbest(cmd_decode(cfg))) == 3


def test_a_new_trie_snapshot_replaces_the_lists_older_ones(tmp_path):
    cfg = _trained(tmp_path)
    snapshot = tmp_path / "words.txt.trie"
    older = snapshot.read_bytes()
    # a snapshot named by a hash, as older versions wrote, stays
    stale = tmp_path / "words.txt.0123456789.trie"
    stale.write_bytes(older)
    with open(cfg.wordlist, "a", encoding="utf-8") as out:
        out.write("zz\t2\n")
    cmd_train(cfg)
    assert sorted(tmp_path.glob("*.trie")) == [stale, snapshot]
    assert snapshot.read_bytes() != older and stale.read_bytes() == older
    assert _snapshot_trie(snapshot, cfg.wordlist) == _list_trie(cfg.wordlist)
    assert load_model(cfg).trie == _list_trie(cfg.wordlist)
    assert len(list(tmp_path.glob("words.txt.*.lm"))) == 2


def _aligned(tmp_path, pairs, words, **settings):
    """The configuration of pairs and a word list, after align."""
    (tmp_path / "pairs.txt").write_text(pairs, encoding="utf-8")
    (tmp_path / "words.txt").write_text(words, encoding="utf-8")
    cfg = RunConfig(
        pairs=str(tmp_path / "pairs.txt"), wordlist=str(tmp_path / "words.txt"),
        outdir=str(tmp_path / "out"), epochs=1, **settings,
    )
    cmd_align(cfg)
    return cfg


@pytest.mark.parametrize("disable", ["", "disable_lm", "disable_freq"])
def test_train_refuses_a_multi_character_target_symbol(tmp_path, capsys, disable):
    cfg = _aligned(tmp_path, "S I P\tsh i p\nS O P\tsh o p\nP I\tp i\n",
                   "ship\t5\nshop\t3\npi\t1\n")
    argv = _run_argv(cfg) + (["--set", f"{disable}=true"] if disable else [])
    assert main(["train", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: target symbol 'sh' is longer than one character (1 ")
    assert not (tmp_path / "out" / "model.txt").exists()
    # only the corpus features read one character per symbol
    cmd_train(dataclasses.replace(cfg, disable_lm=True, disable_freq=True))
    assert (tmp_path / "out" / "model.txt").exists()


def test_train_warns_about_target_symbols_the_word_list_never_spells(tmp_path, caplog):
    # "7" occurs in the list only as a count, which spells no word
    cfg = _aligned(tmp_path, "K A\tc a\nK A T\tc a t\nK W A\tq q a\nS\t7\n",
                   "ca\t7\ncat\t3\n")
    with caplog.at_level(logging.WARNING):
        cmd_train(cfg)
    [warning] = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warning == (
        f"2 of 5 target symbols (3 of 9 uses in the alignments) never occur in the "
        f"word list {cfg.wordlist}, so the LM and frequency features never match "
        "them: 'q' '7'"
    )
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        cmd_train(dataclasses.replace(cfg, disable_lm=True, disable_freq=True))
    assert not caplog.records


@pytest.mark.parametrize("space", [" ", "\u00a0", "\u3000 "])
def test_train_refuses_a_word_with_whitespace_inside_before_writing(tmp_path, capsys, space):
    cfg = _aligned(tmp_path, "K A\tc a\nK A T\tc a t\n", f"ca\t7\n\nc{space}at \t3\n")
    assert main(["train", *_run_argv(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg.wordlist}: line 3: word {f'c{space}at'!r} has whitespace ")
    # no LM cache, trie snapshot or model
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "pairs.txt", "words.txt"]
    assert not (tmp_path / "out" / "model.txt").exists()
    # without the LM nothing writes the symbol back; the word matches no target
    cmd_train(dataclasses.replace(cfg, disable_lm=True))
    assert (tmp_path / "out" / "model.txt").exists()


NFC_WORDS = "café\t50\ncafe\t3\nvoilà\t7\n"


def _word_list(directory, text):
    directory.mkdir()
    path = directory / "words.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_nfd_word_list_counts_nfc_targets(tmp_path):
    # the pairs' symbols are NFC, so the word list must be too: in NFD,
    # "é" is "e" and a combining accent, and no NFC target would match it
    nfd = unicodedata.normalize("NFD", NFC_WORDS)
    assert nfd != NFC_WORDS
    cafe = parse_seq("c a f é")
    runs = {}
    for name, text in [("nfc", NFC_WORDS), ("nfd", nfd)]:
        cfg = RunConfig(wordlist=_word_list(tmp_path / name, text), lm_order=2)
        lm, _, trie, _, refs = load_resources(cfg)
        assert prefix_count(trie, cafe, end_of_word=True) == 50
        assert prefix_count(trie, parse_seq("v o i l à")) == 7
        assert "é" in lm.alphabet
        runs[name] = refs["lm"].rsplit("/", 1)[1], lm.tables
        only_trie = dataclasses.replace(cfg, disable_lm=True)
        assert prefix_count(load_resources(only_trie)[2], cafe, end_of_word=True) == 50
    # one cache name: the LM cache of a list is keyed by its NFC text, so an
    # NFD list reuses no cache built from its unnormalised text
    assert runs["nfd"] == runs["nfc"]


def test_decode_reads_an_nfd_word_list_as_nfc(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("k a f e\tc a f é\nk a\tc a\n", encoding="utf-8")
    cfg = RunConfig(
        pairs=str(pairs), outdir=str(tmp_path / "out"), epochs=1, disable_lm=True,
        wordlist=_word_list(tmp_path / "words", unicodedata.normalize("NFD", NFC_WORDS)),
    )
    cmd_align(cfg)
    cmd_train(cfg)
    trie = load_model(cfg).trie
    assert prefix_count(trie, parse_seq("c a f é"), end_of_word=True) == 50


def test_baseline_alignment_links_a_to_w(tmp_path):
    (tmp_path / "pairs.txt").write_text(WALK_CORPUS, encoding="utf-8")
    cfg = RunConfig(
        pairs=str(tmp_path / "pairs.txt"), outdir=str(tmp_path / "out"),
        disable_precision=True,
    )
    cmd_align(cfg)
    baseline = read_alignments(
        (tmp_path / "out" / "alignments.txt").read_text(encoding="utf-8")
    )
    # 2-2 with deletions can only tile 3 phonemes over 6 letters as 2+2+2
    assert baseline[0].links[0].source == ("w",)
    assert baseline[0].links[0].target == ("w", "a")
    cfg_precision = RunConfig(
        pairs=str(tmp_path / "pairs.txt"), outdir=str(tmp_path / "out2"),
    )
    cmd_align(cfg_precision)
    precision = read_alignments(
        (tmp_path / "out2" / "alignments.txt").read_text(encoding="utf-8")
    )
    assert precision[0].links != baseline[0].links
    assert precision[0].links[1].target == ("a", "l")


def test_missing_file_exits_nonzero(tmp_path, capsys):
    rc = main(["align", "--set", f"pairs={tmp_path}/nope.txt",
               "--set", f"outdir={tmp_path}/out"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_train_logs_dev_accuracy_per_epoch(tmp_path, caplog):
    cfg = write_context_task(tmp_path, n_train=25, n_test=8)
    cfg.dev = cfg.test
    cfg.epochs = 3
    cmd_align(cfg)
    with caplog.at_level(logging.INFO):
        cmd_train(cfg)
    dev_lines = [r for r in caplog.records if "dev accuracy" in r.message]
    assert len(dev_lines) == cfg.epochs


def test_disabling_corpus_features_drops_bin_keys(tmp_path):
    cfg = write_context_task(tmp_path, n_train=25, n_test=8)
    cfg.disable_lm = True
    cfg.disable_freq = True
    cmd_align(cfg)
    cmd_train(cfg)
    model_text = (tmp_path / "out" / "model.txt").read_text(encoding="utf-8")
    assert "LMB" not in model_text
    assert "FQB" not in model_text


def test_disabled_corpus_features_build_no_resources(tmp_path):
    cfg = write_context_task(tmp_path, n_train=25, n_test=8)
    cfg.disable_lm = True
    cmd_align(cfg)
    cmd_train(cfg)
    header = (tmp_path / "out" / "model.txt").read_text(encoding="utf-8")
    assert "#lmbins" not in header
    assert "#freqbins" in header
    assert not list(tmp_path.glob("*.lm"))
    cfg.disable_lm, cfg.disable_freq = False, True
    cmd_train(cfg)
    header = (tmp_path / "out" / "model.txt").read_text(encoding="utf-8")
    assert "#lmbins" in header
    assert "#freqbins" not in header


def test_prune_command(tmp_path):
    (tmp_path / "tgt.txt").write_text("casa\t10\nthe\t1\n", encoding="utf-8")
    (tmp_path / "en.txt").write_text("the\t100\nhouse\t5\n", encoding="utf-8")
    cfg = RunConfig(
        wordlist=str(tmp_path / "tgt.txt"),
        english_wordlist=str(tmp_path / "en.txt"),
        outdir=str(tmp_path / "out"),
    )
    out_path = cmd_prune(cfg)
    kept = (tmp_path / "out" / "pruned_lexicon.txt").read_text(encoding="utf-8")
    assert "casa" in kept
    assert "the" not in kept


def test_read_nbest_groups_blocks(tmp_path):
    path = tmp_path / "nb.txt"
    path.write_text(
        "a b\t1\tx y\t0.5\n"
        "a b\t2\tx z\t0.25\n"
        "c\t0\t\tNaN\n"
        "d\t1\tq\t1.0\n",
        encoding="utf-8",
    )
    blocks = read_nbest(str(path))
    assert len(blocks) == 3
    assert blocks[0] == (("a", "b"), [("x", "y"), ("x", "z")])
    assert blocks[1] == (("c",), [])
    assert blocks[2] == (("d",), [("q",)])


def test_evaluate_multi_reference_and_oracle(tmp_path):
    (tmp_path / "nb.txt").write_text(
        "a\t1\twrong\t1.0\na\t2\tx\t0.5\nb\t1\ty\t1.0\n", encoding="utf-8"
    )
    (tmp_path / "refs.txt").write_text("a\tx|z\nb\ty\n", encoding="utf-8")
    cfg = RunConfig(outdir=str(tmp_path / "out"))
    accuracy, oracle = cmd_evaluate(
        cfg, nbest_path=str(tmp_path / "nb.txt"),
        refs_path=str(tmp_path / "refs.txt"),
    )
    assert accuracy == 0.5  # rank 1 of "a" is wrong, "b" is right
    assert oracle == 1.0  # "x" appears at rank 2


@pytest.mark.parametrize("nbest, lineno", [
    ("a\t2\tx\t0.5\n", 1),  # a rank-2 line with no block to join
    ("a\t1\tx\t0.5\n\nb\t1\ty\n", 3),  # no score column
], ids=["rank-2-first", "three-fields"])
def test_evaluate_malformed_nbest_names_its_line(tmp_path, capsys, nbest, lineno):
    (tmp_path / "nb.txt").write_text(nbest, encoding="utf-8")
    (tmp_path / "refs.txt").write_text("a\tx\nb\ty\n", encoding="utf-8")
    rc = main(["evaluate", "--nbest", str(tmp_path / "nb.txt"),
               "--refs", str(tmp_path / "refs.txt"),
               "--set", f"outdir={tmp_path}/out"])
    assert rc == 1
    assert f"line {lineno}" in capsys.readouterr().err


def test_evaluate_count_mismatch(tmp_path):
    (tmp_path / "nb.txt").write_text("a\t1\tx\t1.0\n", encoding="utf-8")
    (tmp_path / "refs.txt").write_text("a\tx\nb\ty\n", encoding="utf-8")
    cfg = RunConfig(outdir=str(tmp_path / "out"))
    with pytest.raises(ValueError):
        cmd_evaluate(cfg, nbest_path=str(tmp_path / "nb.txt"),
                     refs_path=str(tmp_path / "refs.txt"))


def test_ablate_produces_four_rows(tmp_path):
    cfg = write_context_task(tmp_path, n_train=20, n_test=6)
    cfg.epochs = 2
    results = cmd_ablate(cfg)
    assert [name for name, _ in results] == ["full", "-LM", "-Freq", "-Precision"]
    table = (tmp_path / "out" / "ablation.txt").read_text(encoding="utf-8")
    assert len(table.strip().splitlines()) == 4


def test_ablate_writes_each_variant_in_its_own_directory(tmp_path):
    cfg = write_context_task(tmp_path, n_train=10, n_test=3)
    cfg.epochs = 1
    outdir = cfg.outdir
    cmd_ablate(cfg)
    assert cfg.outdir == outdir
    out = Path(outdir)
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
        "freq", "full", "lm", "precision"]
    for variant in ("full", "lm", "freq", "precision"):
        for name in ("alignments.txt", "model.txt", "nbest.txt", "report.txt"):
            assert (out / variant / name).is_file(), (variant, name)
    # each directory holds its own variant: its switch drops that bin header
    headers = {v: (out / v / "model.txt").read_text(encoding="utf-8").split("\n#rule")[0]
               for v in ("full", "lm", "freq")}
    assert "#lmbins" in headers["full"] and "#freqbins" in headers["full"]
    assert "#lmbins" not in headers["lm"] and "#freqbins" in headers["lm"]
    assert "#lmbins" in headers["freq"] and "#freqbins" not in headers["freq"]


@pytest.mark.parametrize("command, unset, written", [
    ("align", "pairs", "alignments.txt"),
    ("prune", "wordlist", "pruned_lexicon.txt"),
    ("prune", "english_wordlist", "pruned_lexicon.txt"),
    ("decode", "test", "nbest.txt"),
    ("evaluate", "test", "report.txt"),
])
def test_an_unset_input_key_is_named_before_anything_is_written(
    tmp_path, capsys, command, unset, written
):
    cfg = write_context_task(tmp_path, n_train=10, n_test=3)
    cfg = dataclasses.replace(cfg, english_wordlist=cfg.wordlist, epochs=1)
    if command in ("decode", "evaluate"):
        cmd_align(cfg)
        cmd_train(cfg)
    if command == "evaluate":
        cmd_decode(cfg)
    out = Path(cfg.outdir)
    before = sorted(out.rglob("*")) if out.exists() else []
    keys = ("pairs", "test", "wordlist", "english_wordlist", "outdir")
    argv = [arg for key in keys if key != unset for arg in ("--set", f"{key}={getattr(cfg, key)}")]
    capsys.readouterr()
    assert main([command, *argv]) == 1
    assert capsys.readouterr().err == f"error: configuration key {unset!r} is not set\n"
    assert not (out / written).exists()
    assert (sorted(out.rglob("*")) if out.exists() else []) == before


def test_readme_lists_exactly_the_configuration_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    documented = [key for cell in rows for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(documented) == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_inflection_task_pipeline(tmp_path):
    suffix = {"PRS": "o", "PST": "ed"}
    lemmas = ["mira", "lanza", "corre", "gana", "tapa", "suma", "pesa", "nada"]
    lines = []
    for lemma in lemmas:
        for tag, suf in suffix.items():
            lines.append(f"{lemma}\t{lemma}{suf}\tV;{tag}")
    (tmp_path / "infl.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = RunConfig(
        pairs=str(tmp_path / "infl.txt"), test=str(tmp_path / "infl.txt"),
        outdir=str(tmp_path / "out"), task="inflection", copy_instances=3,
        epochs=4, nbest=5, beam=10, decode_nbest=2,
        disable_lm=True, disable_freq=True,
    )
    cmd_align(cfg)
    cmd_train(cfg)
    cmd_decode(cfg)
    accuracy, _ = cmd_evaluate(cfg)
    assert accuracy == 1.0


def test_main_runs_pipeline_via_argv(tmp_path, capsys):
    cfg = write_context_task(tmp_path, n_train=15, n_test=5)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        f"pairs = {cfg.pairs}\ntest = {cfg.test}\nwordlist = {cfg.wordlist}\n"
        f"outdir = {cfg.outdir}\nepochs = 2\nnbest = 3\nbeam = 8\n"
        "decode_nbest = 2\n",
        encoding="utf-8",
    )
    assert main(["align", "--config", str(cfg_file)]) == 0
    assert main(["train", "--config", str(cfg_file)]) == 0
    assert main(["decode", "--config", str(cfg_file)]) == 0
    assert main(["evaluate", "--config", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out


@pytest.mark.parametrize("setting", ["decode_nbest=0", "lm_order=0"])
def test_run_level_settings_are_checked_at_load(tmp_path, capsys, setting):
    key = setting.split("=")[0]
    with pytest.raises(ValueError, match=f"^{key} = 0: "):
        load_config(overrides=[setting])
    (tmp_path / "pairs.txt").write_text(WALK_CORPUS, encoding="utf-8")
    rc = main(["align", "--set", f"pairs={tmp_path}/pairs.txt",
               "--set", f"outdir={tmp_path}/out", "--set", setting])
    assert rc == 1
    assert f"error: {key} = 0: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "alignments.txt").exists()


@pytest.mark.parametrize("setting", [
    "beam=0", "nbest=0", "max_x=0", "max_y=0", "max_iterations=0", "tol=-1",
    "context_window=-1", "target_order=0", "mira_c=0", "loss=levenstein",
    "freq_thresholds=10,1", "task=inflexion", "beam=abc", "averaging=maybe",
    "epochs=-3", "copy_instances=-1",
])
def test_load_config_error_names_its_key(setting):
    key = setting.split("=")[0]
    with pytest.raises(ValueError) as info:
        load_config(overrides=[setting])
    assert str(info.value).startswith(f"{key} = ")


def test_load_config_error_names_every_bad_key_of_one_check():
    with pytest.raises(ValueError) as info:
        load_config(overrides=["beam=0", "nbest=0", "epochs=3"])
    assert str(info.value).startswith("nbest = 0, beam = 0: ")


def test_decode_never_sums_candidate_features(tmp_path, monkeypatch):
    # decode writes outputs and scores only, so no candidate's feature
    # trail may be summed
    cfg = write_context_task(tmp_path, n_train=25, n_test=8)
    cmd_align(cfg)
    cmd_train(cfg)

    def summed(trail):
        raise AssertionError("decode summed a candidate's features")

    monkeypatch.setattr(transducer, "_summed", summed)
    nbest = cmd_decode(cfg)
    assert len(read_nbest(nbest)) == 8


def test_a_loaded_model_decodes_without_growing_its_alphabet(tmp_path):
    # held-out words meet feature names that no weight has; the model
    # load_model returns decodes them as a fresh copy of it does, score bit
    # for score bit, and takes none of those names into its alphabet
    lexicon, pairs, held = lexicon_task(11, lex_size=300, n_train=40, n_test=20)
    words, train_file = tmp_path / "words.txt", tmp_path / "train.txt"
    words.write_text(
        "".join(f"{''.join(w)}\t{c}\n" for w, c in lexicon.counts.items()), encoding="utf-8"
    )
    train_file.write_text(
        "".join(f"{' '.join(p.source)}\t{' '.join(p.target)}\n" for p in pairs),
        encoding="utf-8",
    )
    cfg = RunConfig(pairs=str(train_file), wordlist=str(words),
                    outdir=str(tmp_path / "out"), epochs=2, nbest=5, beam=10)
    cmd_align(cfg)
    cmd_train(cfg)
    model = load_model(cfg)
    alphabet = model.alphabet
    size, names = len(alphabet), list(alphabet.names)
    unknown = 0
    for inst in held:
        got = transducer.decode_nbest(inst.source, model, 10, 5)
        want = transducer.decode_nbest(inst.source, load_model(cfg), 10, 5)
        assert transducer.format_nbest(inst.source, got) == transducer.format_nbest(
            inst.source, want
        )
        assert [c.score.hex() for c in got] == [c.score.hex() for c in want]
        unknown += sum(alphabet.unknown in c.features for c in got)
    assert unknown
    assert len(alphabet) == size and alphabet.names == names
