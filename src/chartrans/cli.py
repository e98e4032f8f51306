"""Command-line front end: align / train / decode / evaluate / prune /
ablate over a flat key = value configuration."""

import argparse
import contextlib
import dataclasses
import hashlib
import logging
import os
import re
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass

from . import aligner, charlm, core, freqtrie, transducer

log = logging.getLogger("chartrans")


TASKS = ("pairs", "inflection")
# The library objects the pipeline builds from a configuration.  Each
# declares its own settings; RunConfig takes them over as keys.
_LIBRARY = (aligner.AlignParams, transducer.FeatureConfig, transducer.TrainConfig)
# Library fields that are not keys: insertion links cannot become rules,
# and disable_lm / disable_freq switch the two corpus features.
_NOT_KEYS = ("allow_insertion", "lm_features", "freq_features")


@dataclass
class _RunSettings:
    """The run's own settings, which no library class declares."""

    # input/output paths
    pairs: str = ""
    dev: str = ""
    test: str = ""
    wordlist: str = ""
    english_wordlist: str = ""
    outdir: str = "."
    # task adapter
    task: str = "pairs"
    copy_instances: int = 0
    # corpus resources
    lm_order: int = 4
    freq_thresholds: tuple = freqtrie.FreqBinConfig().thresholds
    # decoding
    decode_nbest: int = 10
    # ablation switches
    disable_lm: bool = False
    disable_freq: bool = False
    disable_precision: bool = False

    def __post_init__(self):
        # Check every value once, here, so a bad value fails before
        # alignment has run; each error starts with the keys it blames,
        # and each library object names its own.
        core.check_fields(self, ("task",), TASKS.__contains__, f"expected one of {TASKS}")
        core.check_fields(self, ("copy_instances",), lambda v: v >= 0, "must be >= 0")
        core.check_fields(self, ("lm_order", "decode_nbest"), lambda v: v >= 1,
                          "must be >= 1")
        try:
            freqtrie.FreqBinConfig(self.freq_thresholds)
        except ValueError as exc:
            raise ValueError(
                f"{core.shown('freq_thresholds', self.freq_thresholds)}: {exc}"
            ) from exc
        for cls in _LIBRARY:
            self.build(cls)

    def build(self, cls):
        """The library object cls made from the settings of the same names;
        its lm_features and freq_features follow the disable_* switches."""
        values = {**vars(self), "lm_features": not self.disable_lm,
                  "freq_features": not self.disable_freq}
        names = [f.name for f in dataclasses.fields(cls)]
        return cls(**{name: values[name] for name in names if name in values})

    def path(self, name):
        return os.path.join(self.outdir, name)

    @property
    def alignment_file(self):
        return self.path("alignments.txt")

    @property
    def model_file(self):
        return self.path("model.txt")

    @property
    def nbest_file(self):
        return self.path("nbest.txt")


RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [
        (f.name, f.type, dataclasses.field(default=f.default))
        for cls in _LIBRARY
        for f in dataclasses.fields(cls)
        if f.name not in _NOT_KEYS
    ],
    bases=(_RunSettings,),
    namespace={"__module__": __name__},
)

_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_BOOL = {"true": True, "yes": True, "1": True,
         "false": False, "no": False, "0": False}
# "#" opens a comment at the start of a line or after whitespace, so a path
# such as data/run#1/words.txt survives.
_COMMENT = re.compile(r"(?:^|\s)#")


def _convert(key, text):
    kind = _FIELDS.get(key)
    if kind is None:
        raise ValueError(f"unknown configuration key {key!r}")
    text = text.strip()
    if kind is bool:
        if text.lower() not in _BOOL:
            raise ValueError(f"{core.shown(key, text)}: not a boolean")
        return _BOOL[text.lower()]
    try:
        if kind is tuple:
            return tuple(int(t) for t in text.split(","))
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"{core.shown(key, text)}: {exc}") from exc


def _setting(text):
    """(key, value) of a "key = value" text."""
    if "=" not in text:
        raise ValueError(f"expected key = value, got {text.strip()!r}")
    key, value = (part.strip() for part in text.split("=", 1))
    return key, _convert(key, value)


def load_config(path=None, overrides=()):
    """The RunConfig of a key = value file, which may give each key once,
    and then the overrides; every value is checked here, by the library
    object that reads it."""
    values = {}

    def setting(text):
        key, value = _setting(text)
        if key in values:
            raise ValueError(f"configuration key {key!r} is given twice")
        values[key] = value

    if path:
        with open(path, encoding="utf-8") as src, core.reading(path):
            lines = (_COMMENT.split(line, maxsplit=1)[0] for line in src)
            core.parse_lines(lines, setting)
    values.update(map(_setting, overrides))
    return RunConfig(**values)


def _read(path):
    with open(path, encoding="utf-8") as src:
        return src.read()


def _read_words(path):
    """The text of the word list at path, NFC-normalised as the pairs'
    symbols are (core.make_symbol), so a word spells a target alike."""
    return unicodedata.normalize("NFC", _read(path))


def _path(cfg, key, given=None):
    """given, or else the path that cfg's key names; a ValueError names the
    key when neither is set, before anything is read or written."""
    if not (path := given or getattr(cfg, key)):
        raise ValueError(f"configuration key {key!r} is not set")
    return path


def _parse(path, parse, read=_read):
    """parse(read(path)); a ParseError it raises names path."""
    text = read(path)
    with core.reading(path):
        return parse(text)


def read_training_pairs(cfg):
    parse = core.parse_inflections if cfg.task == "inflection" else core.parse_pairs
    return core.copy_augment(_parse(_path(cfg, "pairs"), parse), cfg.copy_instances)


def read_eval_instances(cfg, path):
    if cfg.task == "inflection":
        return [
            core.EvalInstance(p.source, frozenset([p.target]))
            for p in _parse(path, core.parse_inflections)
        ]
    return _parse(path, core.parse_eval)


def cmd_align(cfg):
    pairs = read_training_pairs(cfg)
    if cfg.disable_precision:
        alignments = aligner.baseline_align(pairs, cfg.build(aligner.AlignParams))
    else:
        p1 = dataclasses.replace(
            aligner.ONE_TO_ONE,
            max_iterations=cfg.max_iterations, tol=cfg.tol,
        )
        alignments = aligner.precision_align(pairs, p1)
    os.makedirs(cfg.outdir, exist_ok=True)
    with open(cfg.alignment_file, "w", encoding="utf-8") as out:
        aligner.write_alignments(alignments, out)
    excluded = len(pairs) - len(alignments)
    print(f"aligned {len(alignments)} pairs, excluded {excluded} unalignable")
    return cfg.alignment_file


def _hash_inputs(*parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else str(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:10]


def _write_cache(path, write):
    """write(name) to a temporary name beside path, then rename it to path:
    a cache that exists is whole, and a failed or killed write leaves none."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as out:
        out.write(text)


def load_resources(cfg):
    """Build (or reuse cached) character LM and pruned lexicon from the
    word list; caches live beside the word list, keyed by a content hash.
    Only the resources of enabled features are built: the LM and its bins
    unless disable_lm, the trie (built, then snapshotted to <list>.trie with
    the tag of the list's text, unless that file already has the tag) and
    its bins unless disable_freq."""
    lm = lm_bins = trie = freq_bins = None
    refs = {}
    if not cfg.wordlist or (cfg.disable_lm and cfg.disable_freq):
        return lm, lm_bins, trie, freq_bins, refs
    raw = _read_words(cfg.wordlist)
    with core.reading(cfg.wordlist):
        lex = freqtrie.parse_lexicon(raw)

    if not cfg.disable_lm:
        words = list(lex.counts)
        lm_tag = _hash_inputs(raw, cfg.lm_order, "lm-v1")
        lm_path = refs["lm"] = f"{cfg.wordlist}.{lm_tag}.lm"
        if os.path.exists(lm_path):
            lm = charlm.load_charlm(lm_path)
        else:
            lm = charlm.train_charlm(words, cfg.lm_order)
            _write_cache(lm_path, lambda tmp: charlm.save_charlm(lm, tmp))
        lm_bins = charlm.make_bins(lm, words)

    if not cfg.disable_freq:
        lex_path, text = cfg.wordlist, raw
        if cfg.english_wordlist:
            en_raw = _read_words(cfg.english_wordlist)
            tag = _hash_inputs(raw, en_raw, "prune-v1")
            lex_path = f"{cfg.wordlist}.{tag}.plex"
            if os.path.exists(lex_path):
                text = _read_words(lex_path)
                with core.reading(lex_path):
                    lex = freqtrie.parse_lexicon(text)
            else:
                with core.reading(cfg.english_wordlist):
                    english = freqtrie.parse_lexicon(en_raw)
                lex = freqtrie.prune_lexicon(lex, english)
                text = freqtrie.serialize_lexicon(lex)
                _write_cache(lex_path, lambda tmp: _write(tmp, text))
        refs["lexicon"] = lex_path
        trie = freqtrie.build_trie(lex)
        snapshot, tag = f"{lex_path}.trie", _hash_inputs(text, freqtrie.LAYOUT)
        if freqtrie.trie_tag(snapshot) != tag:
            # ValueError: a word nests the trie deeper than marshal can
            # write, and decode, refusing an older snapshot's tag, builds it
            with contextlib.suppress(ValueError):
                _write_cache(snapshot, lambda tmp: freqtrie.save_trie(trie, tmp, tag))
        freq_bins = freqtrie.FreqBinConfig(cfg.freq_thresholds)
    return lm, lm_bins, trie, freq_bins, refs


def _check_target_symbols(cfg, alignments):
    """When the LM or frequency features read the word list, which both
    match a target one character at a time: refuse a target symbol longer
    than one character, and warn about those the word list never spells."""
    if not cfg.wordlist or (cfg.disable_lm and cfg.disable_freq):
        return
    uses = Counter(s for a in alignments for link in a.links for s in link.target)
    long = sorted(s for s in uses if len(s) > 1)
    if long:
        raise ValueError(
            f"target symbol {long[0]!r} is longer than one character ({len(long)} "
            "such symbols), but the LM and frequency features match one character "
            "per symbol; set disable_lm and disable_freq to train without them")
    raw = _read_words(cfg.wordlist)
    # a count column is digits: read the words alone only when one may match
    chars = set(re.sub(r"\t.*", "", raw) if any(map(str.isdecimal, uses)) else raw)
    missing = sorted((s for s in uses if s not in chars), key=lambda s: (-uses[s], s))
    if missing:
        log.warning(
            "%d of %d target symbols (%d of %d uses in the alignments) never occur "
            "in the word list %s, so the LM and frequency features never match "
            "them: %s", len(missing), len(uses), sum(uses[s] for s in missing),
            sum(uses.values()), cfg.wordlist, " ".join(map(repr, missing[:5])))


def cmd_train(cfg):
    alignments = _parse(cfg.alignment_file, aligner.read_alignments)
    if not alignments:
        raise ValueError(f"no alignments in {cfg.alignment_file}")
    _check_target_symbols(cfg, alignments)
    lm, lm_bins, trie, freq_bins, refs = load_resources(cfg)
    dev = read_eval_instances(cfg, cfg.dev) if cfg.dev else None
    model = transducer.train(
        None, alignments, cfg=cfg.build(transducer.TrainConfig),
        feature_config=cfg.build(transducer.FeatureConfig),
        lm=lm, lm_bins=lm_bins, trie=trie, freq_bins=freq_bins, dev=dev,
    )
    os.makedirs(cfg.outdir, exist_ok=True)
    transducer.save_model(
        model, cfg.model_file,
        lm_path=refs.get("lm"), lexicon_path=refs.get("lexicon"),
    )
    print(f"model written to {cfg.model_file}")
    return cfg.model_file


def load_model(cfg):
    """The model file's model with the LM and trie its refs name.  A
    ValueError names the model file when an enabled feature's bins are in
    its header with no file to read the feature from."""
    model, refs = transducer.load_model(cfg.model_file)
    resources = {}
    for feature, ref, name, load in (("lm_features", "lm", "lm", charlm.load_charlm),
                                     ("freq_features", "lexicon", "trie", _load_trie)):
        if getattr(model.config, feature) and ref in refs:
            if not refs[ref]:
                raise ValueError(f"{cfg.model_file}: {feature} is on and its bins are "
                                 f"recorded, but no {ref} file is named to read it from")
            resources[name] = load(refs[ref])
    return dataclasses.replace(model, **resources)


def _load_trie(lex_path):
    """The trie of the word list at lex_path: load_resources's snapshot,
    when its tag is that of the list's current text, or else built anew."""
    text = _read_words(lex_path)
    try:
        return freqtrie.load_trie(f"{lex_path}.trie", _hash_inputs(text, freqtrie.LAYOUT))
    except (OSError, ValueError, EOFError, TypeError):
        pass  # missing, unreadable or of another text: build it
    with core.reading(lex_path):
        return freqtrie.build_trie(freqtrie.parse_lexicon(text))


def _sources(cfg, path):
    """Source sequences to decode: inflection triples, or pair lines whose
    target column may be missing."""
    if cfg.task == "inflection":
        return [p.source for p in _parse(path, core.parse_inflections)]

    def source(line):
        return core.parse_seq(line.split("\t", 1)[0])

    return _parse(path, lambda text: core.parse_lines(text, source))


def cmd_decode(cfg, input_path=None, output_path=None):
    model = load_model(cfg)
    sources = _sources(cfg, _path(cfg, "test", input_path))
    output_path = output_path or cfg.nbest_file
    beam = max(cfg.beam, cfg.decode_nbest)
    with open(output_path, "w", encoding="utf-8") as out:
        for src in sources:
            candidates = transducer.decode_nbest(
                src, model, beam, cfg.decode_nbest
            )
            if not candidates:
                log.warning("no candidates for %s", " ".join(src))
            for line in transducer.format_nbest(src, candidates):
                out.write(line + "\n")
    print(f"n-best lists written to {output_path}")
    return output_path


def read_nbest(path):
    """Group n-best lines back into per-source candidate lists, in file
    order.  A rank of 0 (no candidates) or 1 opens a block; any other rank
    must be one more than the previous line's, for the same source."""
    blocks, prev = [], None  # prev: (source, rank) of the previous line

    def parse(line):
        nonlocal prev
        src, rank, output, _score = line.split("\t")
        src, rank = tuple(src.split()), int(rank)
        if rank in (0, 1):
            blocks.append((src, []))
        elif prev != (src, rank - 1):
            raise ValueError(f"rank {rank} of {' '.join(src)!r} neither opens a block "
                             f"(rank 0 or 1) nor follows its rank {rank - 1}")
        prev = (src, rank)
        if rank:
            blocks[-1][1].append(tuple(output.split()) if output else ())

    _parse(path, lambda text: core.parse_lines(text, parse))
    return blocks


def cmd_evaluate(cfg, nbest_path=None, refs_path=None):
    blocks = read_nbest(nbest_path or cfg.nbest_file)
    instances = read_eval_instances(cfg, _path(cfg, "test", refs_path))
    if len(blocks) != len(instances):
        raise ValueError(
            f"{len(blocks)} n-best blocks but {len(instances)} eval instances"
        )
    predictions = [outs[0] if outs else () for _, outs in blocks]
    accuracy = core.word_accuracy(predictions, instances)
    oracle = (
        sum(
            1 for (_, outs), inst in zip(blocks, instances)
            if any(o in inst.references for o in outs)
        ) / len(instances)
        if instances else 0.0
    )
    print(f"accuracy={accuracy:.6f}")
    print(f"oracle={oracle:.6f}")
    os.makedirs(cfg.outdir, exist_ok=True)
    with open(cfg.path("report.txt"), "w", encoding="utf-8") as out:
        out.write(f"accuracy={accuracy:.6f}\noracle={oracle:.6f}\n")
    return accuracy, oracle


def cmd_prune(cfg):
    target = _parse(_path(cfg, "wordlist"), freqtrie.parse_lexicon, _read_words)
    english = _parse(_path(cfg, "english_wordlist"), freqtrie.parse_lexicon, _read_words)
    pruned = freqtrie.prune_lexicon(target, english)
    os.makedirs(cfg.outdir, exist_ok=True)
    out_path = cfg.path("pruned_lexicon.txt")
    _write(out_path, freqtrie.serialize_lexicon(pruned))
    print(
        f"kept {len(pruned.counts)} of {len(target.counts)} words -> {out_path}"
    )
    return out_path


ABLATION_VARIANTS = (
    ("full", {}),
    ("-LM", {"disable_lm": True}),
    ("-Freq", {"disable_freq": True}),
    ("-Precision", {"disable_precision": True}),
)


def cmd_ablate(cfg):
    """Run the whole pipeline once per ablation variant on identical data
    and print one accuracy row per variant."""
    results = []
    for name, switches in ABLATION_VARIANTS:
        sub = dataclasses.replace(
            cfg, outdir=os.path.join(cfg.outdir, name.strip("-").lower()), **switches)
        cmd_align(sub)
        cmd_train(sub)
        cmd_decode(sub)
        accuracy, _oracle = cmd_evaluate(sub)
        results.append((name, accuracy))
    width = max(len(name) for name, _ in results)
    print(f"{'system'.ljust(width)}  accuracy")
    for name, accuracy in results:
        print(f"{name.ljust(width)}  {accuracy:.4f}")
    with open(cfg.path("ablation.txt"), "w", encoding="utf-8") as out:
        for name, accuracy in results:
            out.write(f"{name}\t{accuracy:.6f}\n")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="chartrans",
        description="character-level string transduction with target-corpus features",
    )
    parser.add_argument("--verbose", "-v", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("align", "train", "decode", "evaluate", "prune", "ablate"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE",
        )
        for option in {"decode": ("--input", "--output"),
                       "evaluate": ("--nbest", "--refs")}.get(name, ()):
            p.add_argument(option, default=None)
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        cfg = load_config(args.config, args.overrides)
        if args.command == "decode":
            cmd_decode(cfg, args.input, args.output)
        elif args.command == "evaluate":
            cmd_evaluate(cfg, args.nbest, args.refs)
        else:
            {"align": cmd_align, "train": cmd_train, "prune": cmd_prune,
             "ablate": cmd_ablate}[args.command](cfg)
    except (OSError, ValueError) as exc:
        where = f"{exc.path}: " if isinstance(exc, core.ParseError) and exc.path else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
