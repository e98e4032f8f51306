"""Word counts from a word list, a prefix trie over them, unigram bin
features, and probability-ratio corpus pruning.  Trie nodes are lean (see
TrieNode), and read_trie builds the trie from a word list's text with no
Lexicon in between."""

from dataclasses import dataclass, field

from .core import ParseError


@dataclass
class Lexicon:
    """Word-to-count map; words are symbol tuples, counts positive."""

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
    line means count 1.  A word's symbols are its characters.  A count that
    is not a positive integer raises ParseError with its line number."""
    # Inline, not core.parse_lines: the word list is the largest input, read
    # twice per set-up, and a call per line cost 15-27% of this loop's time.
    lines = stream.splitlines() if isinstance(stream, str) else stream
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if "\t" in line:
            word, text = line.split("\t", 1)
            count = int(text) if text.isdecimal() else 0
            if count < 1:
                raise ParseError(lineno, f"count {text!r} is not a positive integer")
        else:
            word, count = line, 1
        yield word, count


def parse_lexicon(stream):
    """The Lexicon of a word list (see _entries); repeated words accumulate."""
    counts = {}
    for word, count in _entries(stream):
        key = tuple(word)
        counts[key] = counts.get(key, 0) + count
    return Lexicon(counts)


def serialize_lexicon(lex):
    return "".join(
        f"{''.join(w)}\t{c}\n" for w, c in sorted(lex.counts.items())
    )


class TrieNode:
    """A trie node.  Most nodes of a word list's trie have one child or none,
    so children is () at a leaf, a (symbol, child) pair at a node with one
    child, and a dict from symbol to child only at a node with more."""

    __slots__ = ("children", "prefix_count", "word_count")

    def __init__(self):
        self.children = ()
        self.prefix_count = 0
        self.word_count = 0


def _child(node, sym):
    """node's child on sym, or None."""
    kids = node.children
    if type(kids) is dict:
        return kids.get(sym)
    return kids[1] if kids and kids[0] == sym else None


def _build(entries):
    """The trie of (word, count) entries; a repeated word adds up."""
    root = TrieNode()
    for word, count in entries:
        root.prefix_count += count
        node = root
        for sym in word:
            # _child inlined: a call per symbol took 13% of a 30,000-word build
            kids = node.children
            if type(kids) is dict:
                child = kids.get(sym) or kids.setdefault(sym, TrieNode())
            elif kids and kids[0] == sym:
                child = kids[1]
            else:
                child = TrieNode()
                node.children = {kids[0]: kids[1], sym: child} if kids else (sym, child)
            node = child
            node.prefix_count += count
        node.word_count += count
    return root


def build_trie(lex):
    """Trie whose nodes carry the summed count of every word passing
    through them; word-final nodes also carry the exact word count."""
    return _build(lex.counts.items())


def read_trie(text):
    """build_trie(parse_lexicon(text)), built as the lines are read, with
    no Lexicon in between."""
    return _build(_entries(text))


def walk(root, prefix):
    """Node reached by prefix, or None if the trie has no such path."""
    node = root
    for sym in prefix:
        node = _child(node, sym)
        if node is None:
            return None
    return node


def prefix_count(root, prefix, end_of_word=False):
    """Summed count of words extending prefix; with end_of_word, the
    count of the exact word instead.  0 when absent."""
    node = walk(root, prefix)
    if node is None:
        return 0
    return node.word_count if end_of_word else node.prefix_count


def trie_words(root):
    """Reconstruct the word-count map by walking every path."""
    out = {}

    def visit(node, prefix):
        if node.word_count:
            out[prefix] = node.word_count
        kids = node.children
        for sym in sorted(kids if type(kids) is dict else kids[:1]):
            visit(_child(node, sym), prefix + (sym,))

    visit(root, ())
    return out


def prune_lexicon(target, english):
    """Drop every word whose relative frequency in the English lexicon
    strictly exceeds its relative frequency in the target lexicon.  Words
    the English lexicon has never seen are always kept."""
    total_en = english.total_tokens
    total_tgt = target.total_tokens
    if total_en == 0 or total_tgt == 0:
        return Lexicon(dict(target.counts))
    kept = {
        w: c
        for w, c in target.counts.items()
        if english.counts.get(w, 0) / total_en <= c / total_tgt
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
