"""Shared data model, file formats, task adapters, and evaluation.

Symbols are plain strings (one token per character, phoneme, or
morphological tag); sequences are tuples of symbols.  Everything here is
immutable after construction, so values can be shared freely.
"""

import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass

# Reserved null token used by the aligner for insertion/deletion padding.
# It never appears in raw training data.
NULL = "_"

# A morphological tag symbol starts with this marker, keeping the tag and
# character vocabularies disjoint.
TAG_MARKER = "+"

COPY_TAG = "+COPY"


class ParseError(ValueError):
    """Malformed input line: the text is "line N: message", lineno is N,
    and path is the file's path once a reader of the file has set it
    through reading(path), else None."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.path = None


@contextmanager
def reading(path):
    """Name path as the file of a ParseError raised inside that names no
    file yet."""
    try:
        yield
    except ParseError as exc:
        if exc.path is None:
            exc.path = path
        raise


def parse_lines(stream, parse, start=1):
    """[parse(line) for each non-blank line of stream, in order], where
    stream is a string or an iterable of lines and parse sees each line
    without its newline.  A ValueError from parse becomes a ParseError
    naming the line, counting the first line of stream as line start."""
    lines = stream.splitlines() if isinstance(stream, str) else stream
    out = []
    for lineno, line in enumerate(lines, start):
        line = line.rstrip("\n")
        if line and not line.isspace():
            try:
                out.append(parse(line))
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from exc
    return out


def shown(key, value):
    """key = value as a configuration file writes it."""
    text = ",".join(map(str, value)) if isinstance(value, tuple) else value
    return f"{key} = {text}"


def check_fields(obj, names, ok, message):
    """Raise ValueError when a field of obj in names fails ok; the error
    starts with every such field as "key = value", in the order of names,
    as in "nbest = 0, beam = 0: must be >= 1"."""
    bad = [shown(name, getattr(obj, name)) for name in names
           if not ok(getattr(obj, name))]
    if bad:
        raise ValueError(f"{', '.join(bad)}: {message}")


class ValidationError(ValueError):
    """Structurally valid input that violates a data invariant."""


def make_symbol(text):
    """Validate and normalize a single token."""
    text = unicodedata.normalize("NFC", text)
    if not text:
        raise ValidationError("empty symbol")
    if any(ch.isspace() for ch in text):
        raise ValidationError(f"symbol {text!r} contains whitespace")
    if text == NULL:
        raise ValidationError(f"reserved null token {NULL!r} in data")
    return text


def parse_seq(text):
    """Parse a space-separated token string into a symbol sequence."""
    return tuple(make_symbol(tok) for tok in text.split())


def word_seq(word):
    """Split a plain word into a sequence of single-character symbols."""
    return tuple(
        make_symbol(ch) for ch in unicodedata.normalize("NFC", word.strip())
    )


def seq_text(seq):
    """Inverse of parse_seq."""
    return " ".join(seq)


@dataclass(frozen=True)
class TrainingPair:
    source: tuple
    target: tuple


@dataclass(frozen=True)
class EvalInstance:
    source: tuple
    references: frozenset

    def __post_init__(self):
        if not self.references:
            raise ValidationError("instance with no references")


def _pair(line):
    if line.count("\t") != 1:
        raise ValueError(f"expected exactly one tab, got {line.count(chr(9))}")
    src, tgt = line.split("\t")
    return TrainingPair(parse_seq(src), parse_seq(tgt))


def parse_pairs(stream):
    """Parse "SRC_TOKENS<TAB>TGT_TOKENS" lines into training pairs.

    Blank lines are skipped; order is preserved.
    """
    return parse_lines(stream, _pair)


def serialize_pairs(pairs):
    return "".join(f"{seq_text(p.source)}\t{seq_text(p.target)}\n" for p in pairs)


def _eval_instance(line):
    if line.count("\t") != 1:
        raise ValueError("expected exactly one tab")
    src, refs = line.split("\t")
    refset = frozenset(parse_seq(r) for r in refs.split("|") if r.strip())
    return EvalInstance(parse_seq(src), refset)


def parse_eval(stream):
    """Parse "SRC<TAB>REF1|REF2|..." lines into evaluation instances."""
    return parse_lines(stream, _eval_instance)


def serialize_eval(instances):
    lines = []
    for inst in instances:
        refs = "|".join(sorted(seq_text(r) for r in inst.references))
        lines.append(f"{seq_text(inst.source)}\t{refs}\n")
    return "".join(lines)


def inflection_to_pairs(lemma, tags, form):
    """Build a training pair from a citation form, a tag string, and the
    inflected form.

    The source is the lemma's characters followed by one "+"-prefixed
    symbol per ";"-separated tag piece; the target is the form.
    """
    if not lemma or not form:
        raise ValidationError("empty lemma or form")
    tag_syms = tuple(
        make_symbol(TAG_MARKER + piece.strip())
        for piece in tags.split(";")
        if piece.strip()
    )
    if not tag_syms:
        raise ValidationError("empty tag string")
    return TrainingPair(tuple(lemma) + tag_syms, tuple(form))


def _inflection(line):
    fields = line.split("\t")
    if len(fields) != 3:
        raise ValueError(f"expected 3 tab-separated fields, got {len(fields)}")
    lemma, form, tags = fields
    return inflection_to_pairs(word_seq(lemma), tags, word_seq(form))


def parse_inflections(stream):
    """Parse "LEMMA<TAB>FORM<TAB>TAGS" lines (plain strings, split into
    characters on ingestion)."""
    return parse_lines(stream, _inflection)


def _uses_tags(pairs):
    return any(
        sym.startswith(TAG_MARKER) for p in pairs for sym in p.source
    )


def copy_augment(pairs, n):
    """Append n synthetic pairs mapping a target form to itself.

    Selection is deterministic: the first n distinct targets in input
    order.  When the task uses tag symbols, each copy source carries a
    single +COPY tag so copies stay distinguishable from real lemmas.
    """
    if n < 0:
        raise ValueError(f"{shown('copy_instances', n)}: must be >= 0")
    distinct = list(dict.fromkeys(p.target for p in pairs))
    if n > len(distinct):
        raise ValueError(
            f"{shown('copy_instances', n)}: only {len(distinct)} distinct targets"
        )
    tag = (COPY_TAG,) if _uses_tags(pairs) else ()
    return list(pairs) + [TrainingPair(t + tag, t) for t in distinct[:n]]


def word_accuracy(predictions, instances):
    """Fraction of predictions exactly matching any reference."""
    if len(predictions) != len(instances):
        raise ValueError(
            f"{len(predictions)} predictions for {len(instances)} instances"
        )
    if not instances:
        return 0.0
    hits = sum(
        1 for pred, inst in zip(predictions, instances) if pred in inst.references
    )
    return hits / len(instances)
