"""Word counts from a word list, a prefix trie over them, unigram bin
features, and probability-ratio corpus pruning.

parse_lexicon is the one reader of a word list.  It reads the list in NFC,
as core.make_symbol spells symbols, and keys each word by its NFC string,
one symbol per character, which is how the LM and the trie match a target.
A Lexicon a caller builds may key its words by symbol tuples instead;
build_trie, prune_lexicon and serialize_lexicon read either, and
prune_lexicon matches a string-keyed word with a tuple-keyed one.

The trie is nested tuples: a node is (prefix count, word count), then a
symbol and child if it has one child, or a dict from symbol to child if
more.  The collector stops tracking a tuple of untracked values, so a full
collection walks only the dicts; and marshal writes or reads a whole
subtree at once.  save_trie writes a snapshot after a tag naming what it was
built from (cli's tag hashes the list's text and LAYOUT); trie_tag reads
that tag alone, and load_trie refuses a snapshot of any other tag as soon
as it has read the tag."""

import marshal
import unicodedata
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from .core import ParseError

# Part of a snapshot's tag: change it with the node or record layout.
LAYOUT = f"nested-tuples-1, marshal {marshal.version}"


@dataclass
class Lexicon:
    """Word-to-count map, counts positive.  parse_lexicon keys a word by its
    string, one symbol per character; a caller may key it by a tuple of
    symbols."""

    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        for w, c in self.counts.items():
            if c < 1:
                raise ValueError(f"non-positive count for {w}")

    @property
    def total_tokens(self):
        return sum(self.counts.values())


def _entries(stream):
    """(word, count) of each "WORD<TAB>COUNT" line, in order; a bare "WORD"
    line means count 1.  The line is split at its first tab before each
    part is stripped of whitespace.  A count that is not a positive integer,
    or that has no word, raises ParseError with its line number."""
    # Inline, not core.parse_lines: the word list is the largest input, and
    # a call per line cost 15-27% of this loop's time.
    if isinstance(stream, str):
        lines = unicodedata.normalize("NFC", stream).splitlines()
    else:
        lines = (unicodedata.normalize("NFC", line) for line in stream)
    for lineno, line in enumerate(lines, start=1):
        word, tab, text = line.partition("\t")
        word, text = word.strip(), text.strip()
        if not word:
            if text:
                raise ParseError(lineno, f"count {text!r} has no word")
            continue
        count = (int(text) if text.isdecimal() else 0) if tab else 1
        if count < 1:
            raise ParseError(lineno, f"count {text!r} is not a positive integer")
        yield word, count


def parse_lexicon(stream):
    """The Lexicon of a word list (see _entries), each word keyed by its NFC
    string; repeated words accumulate."""
    counts = {}
    for word, count in _entries(stream):
        counts[word] = counts.get(word, 0) + count
    return Lexicon(counts)


def serialize_lexicon(lex):
    return "".join(
        f"{''.join(w)}\t{c}\n" for w, c in sorted(lex.counts.items())
    )


def _subtrie(words, counts, lo, hi, d):
    """The node of the length-d prefix that only words[lo:hi] of the sorted
    words begin with.  A run of one-child nodes is walked down, not
    recursed, so long words nest no calls."""
    above = []  # (word count, symbol) of each one-child node passed
    while True:
        own = 0
        if len(words[lo]) == d:
            own = counts[words[lo]]
            lo += 1
        if lo == hi:
            found = (own, own)
            break
        sym = words[lo][d]
        if sym != words[hi - 1][d]:
            kids, total, key = {}, own, itemgetter(d)
            while lo < hi:
                sym, end = words[lo][d], lo + 1
                if end < hi and words[end][d] == sym:
                    end = bisect_right(words, sym, end, hi, key=key)
                kids[sym] = kid = _subtrie(words, counts, lo, end, d + 1)
                total += kid[0]
                lo = end
            found = (total, own, kids)
            break
        above.append((own, sym))
        d += 1
    for own, sym in reversed(above):
        found = (own + found[0], own, sym, found)
    return found


def build_trie(lex):
    """Trie whose nodes carry the summed count of every word passing
    through them; word-final nodes also carry the exact word count.  It is
    built bottom-up over the sorted words (see _subtrie)."""
    words = sorted(lex.counts)
    return _subtrie(words, lex.counts, 0, len(words), 0) if words else (0, 0)


def walk(root, prefix):
    """Node reached by prefix, or None if the trie has no such path."""
    node = root
    for sym in prefix:
        if len(node) == 3:
            node = node[2].get(sym)
        else:
            node = node[3] if len(node) == 4 and node[2] == sym else None
        if node is None:
            return None
    return node


def prefix_count(root, prefix, end_of_word=False):
    """Summed count of words extending prefix; with end_of_word, the
    count of the exact word instead.  0 when absent."""
    node = walk(root, prefix)
    if node is None:
        return 0
    return node[1] if end_of_word else node[0]


def _children(node):
    """The (symbol, child) pairs of node."""
    return node[2].items() if len(node) == 3 else [node[2:]] if len(node) == 4 else ()


def trie_words(root):
    """Reconstruct the word-count map, words as symbol tuples, by walking
    every path."""
    out, todo = {}, [((), root)]
    while todo:
        prefix, node = todo.pop()
        if node[1]:
            out[prefix] = node[1]
        todo.extend((prefix + (sym,), child) for sym, child in _children(node))
    return out


def save_trie(trie, path, tag):
    """Write trie to path as length-prefixed marshal records: tag, the
    root's counts, then each (symbol, child) of the root.  Small records,
    not one large buffer, leave the allocator no large freed block to keep.
    ValueError if a word nests the trie deeper than marshal can write."""
    with open(path, "wb") as out:
        for record in (tag, trie[:2], *_children(trie)):
            data = marshal.dumps(record)
            out.write(len(data).to_bytes(4, "little"))
            out.write(data)


def _records(src):
    """The length-prefixed marshal records of the open snapshot src."""
    while head := src.read(4):
        yield marshal.loads(src.read(int.from_bytes(head, "little")))


def trie_tag(path):
    """The tag save_trie wrote at the head of path, read alone; None if
    path is missing or empty, or its first record is not whole."""
    try:
        with open(path, "rb") as src:
            return next(_records(src), None)
    except (OSError, ValueError, EOFError, TypeError):
        return None


def load_trie(path, tag):
    """The trie save_trie wrote to path with tag; ValueError if it was
    written with another tag, found before any record after the tag is
    read, and ValueError, EOFError or TypeError if path holds no whole
    trie."""
    with open(path, "rb") as src:
        records = _records(src)
        found = next(records, None)
        if found != tag:
            raise ValueError(f"{path} is tagged {found!r}, not {tag!r}")
        (prefix, word), *kids = records
    if prefix != word + sum(kid[0] for _, kid in kids):
        raise ValueError(f"{path} lacks some of the trie's root children")
    if len(kids) > 1:
        return (prefix, word, dict(kids))
    return (prefix, word, *(kids[0] if kids else ()))


def prune_lexicon(target, english):
    """Drop every word whose relative frequency in the English lexicon
    strictly exceeds its relative frequency in the target lexicon.  Words
    the English lexicon has never seen are always kept.  Words match by
    their symbols, so either lexicon may key them by string or by tuple."""
    total_en = english.total_tokens
    total_tgt = target.total_tokens
    if total_en == 0 or total_tgt == 0:
        return Lexicon(dict(target.counts))
    en = {tuple(w): c for w, c in english.counts.items()}
    kept = {
        w: c
        for w, c in target.counts.items()
        if en.get(tuple(w), 0) / total_en <= c / total_tgt
    }
    return Lexicon(kept)


@dataclass(frozen=True)
class FreqBinConfig:
    """Count thresholds, strictly increasing, all >= 1."""

    thresholds: tuple = (1, 10, 100, 1000, 10000, 100000, 1000000)

    def __post_init__(self):
        if not self.thresholds or self.thresholds[0] < 1:
            raise ValueError("thresholds must start at >= 1")
        if any(a >= b for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")

    @property
    def zero_feature(self):
        return len(self.thresholds)


def freq_bin_features(count, bins):
    """Indices of all thresholds at or below the count (cumulative); the
    dedicated zero feature alone when the count is 0."""
    if count < 0:
        raise ValueError(f"negative count {count}")
    if count == 0:
        return {bins.zero_feature}
    return {j for j, t in enumerate(bins.thresholds) if t <= count}
