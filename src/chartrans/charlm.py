"""Character n-gram language model with Witten-Bell smoothing, prefix
scoring, and cumulative bin features.

The model is trained on a list of word types (duplicates ignored).  Each
conditional interpolates the maximum-likelihood estimate with the
next-lower order, weighting the backoff by the number of distinct
continuations seen after the history; the lowest order interpolates
with a uniform distribution over the alphabet plus the end sentinel.  That
distribution over the alphabet plus the end sentinel sums to 1 at every
history; a symbol outside the alphabet maps to <unk>, which gets the same
uniform base mass on top of it, outside the normalised distribution, so an
unseen output symbol is scored low but never with probability 0.  Scores are
per-transition log10 likelihoods, so they are comparable across prefix
lengths during incremental decoding.

A transition reads only the last order-1 symbols of its BOS-padded
history (history_tail), so the model is a deterministic automaton over
those tails, and CharLM keeps it as its memo: one row per tail asked for,
which knows its own tail, and in each row one entry per symbol asked for:
its log10 p, a float (_Step) that also holds the row of the tail after the
symbol, so an entry is one object, as a bare float was.  CharLM.logprob
fills an entry the first time its (tail, symbol) is asked for, from prob's
one Witten-Bell loop, lowest order up; every later step reads it.
CharLM.advance is the one fold over transitions: it moves a running sum
through a suffix by following entries row to row, building no tuple, and
returns the last row's tail.  A decoder carries the tail with each
hypothesis and moves it through advance; extend_score and score_prefix
are advance from a start tail (a prefix's, or the empty prefix's), so
every score of a word is the same additions in the same order, bit for
bit.

train_charlm reads each word as its full-order n-grams, one per
transition (a tail followed by its symbol), by zipping shifted copies of
the padded word.  It counts the distinct grams of the word list once and
adds each count to every level.  make_bins scores a word as score_prefix
does, advance from the start tail through the word and its end, which
also fills the memo the decoder reads later, and divides the sum by the
word's number of transitions.  The fold adds with +=, not with sum(),
which compensates float sums from Python 3.12 on.

The bins fired by a score are always a contiguous run: every threshold
from the highest one at or below the score down, or the catch-all alone.
So a decoder can build each possible LMB part once, from lm_bin_features,
and pick it by that threshold index.
"""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from statistics import mean, pstdev

from .core import parse_lines, reading

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

BIN_SPREAD = 3
BIN_STEP = 0.5


class _Row(dict):
    """A state of the LM's transition automaton: symbol -> _Step for the
    history tail the row knows."""

    __slots__ = ("tail",)


class _Step(float):
    """A transition's log10 p that also holds the row of the tail after
    it: one object per memo entry, as a bare float would be."""

    __slots__ = ("row",)


class _Memo(dict):
    """The automaton's rows by tail; a tail asked for the first time gets
    an empty row."""

    def __missing__(self, tail):
        row = self[tail] = _Row()
        row.tail = tail
        return row


class CharLM:
    def __init__(self, order, alphabet, tables):
        self.order = order
        self.alphabet = frozenset(alphabet)
        # tables[m] maps a length-m history tuple to {symbol: count}.
        self.tables = tables
        self._sums = [
            {h: sum(c.values()) for h, c in table.items()} for table in tables
        ]
        # Uniform base mass shared by every symbol, end sentinel, and UNK;
        # UNK's share is extra mass (see the module docstring).
        self._base = 1.0 / (len(self.alphabet) + 1)
        self._known = self.alphabet | {BOS, EOS}
        # last order-1 history symbols -> their _Row.
        self._memo = _Memo()

    def prob(self, history, nxt):
        """Interpolated Witten-Bell probability of nxt after history: from
        the uniform base up, each order m mixes its counts after the last m
        history symbols with the order below; an unseen history keeps the
        order below."""
        k, known = self.order - 1, self._known
        h = tuple(s if s in known else UNK for s in (tuple(history)[-k:] if k else ()))
        w, p, n = nxt if nxt in known else UNK, self._base, len(h)
        for m in range(n + 1):
            hm = h[n - m:]
            counts = self.tables[m].get(hm)
            if counts is not None:
                distinct = len(counts)
                p = (counts.get(w, 0) + distinct * p) / (self._sums[m][hm] + distinct)
        return p

    def logprob(self, history, nxt):
        """log10 of prob(history, nxt), memoised in the row of the last
        order-1 symbols of history, which are all that prob reads.  A
        first-time transition fills its entry: the log10 of prob's one
        Witten-Bell loop, which also holds the row of the tail after nxt."""
        k = self.order - 1
        row = self._memo[tuple(history)[-k:] if k else ()]
        step = row.get(nxt)
        if step is None:
            step = row[nxt] = _Step(math.log10(self.prob(row.tail, nxt)))
            step.row = self._memo[(*row.tail, nxt)[-k:] if k else ()]
        return float(step)

    def advance(self, logsum, tail, suffix):
        """(logsum plus the transitions of suffix, tail after suffix) for a
        sequence whose history_tail is tail, added in suffix's order.  tail
        must be a history_tail, order-1 symbols long, as every tail this
        returns is: its row is looked up as it is.  It walks the automaton
        from tail's row, each entry giving the step's log10 p and the next
        row, and returns the last row's tail; only a transition whose entry
        is missing builds a tuple, in logprob."""
        row = self._memo[tail]
        for sym in suffix:
            step = row.get(sym)
            if step is None:
                self.logprob(row.tail, sym)
                step = row[sym]
            logsum += step
            row = step.row
        return logsum, row.tail


def train_charlm(words, order):
    """Collect type-based n-gram counts over begin/end-padded words: each
    distinct full-order gram's count goes to every level m, under its last
    m history symbols."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    words = list(dict.fromkeys(tuple(w) for w in words))
    if not words:
        raise ValueError("empty training word list")
    alphabet = {sym for w in words for sym in w}
    pad = (BOS,) * (order - 1)
    seqs = (pad + w + (EOS,) for w in words)
    # each full-order gram: a transition's tail followed by its symbol
    grams = Counter(chain.from_iterable(zip(*[s[i:] for i in range(order)]) for s in seqs))
    tables = [{} for _ in range(order)]
    k = order - 1
    for gram, count in grams.items():
        nxt = gram[k]
        for m, table in enumerate(tables):
            slot = table.setdefault(gram[k - m : k], {})
            slot[nxt] = slot.get(nxt, 0) + count
    return CharLM(order, alphabet, tables)


def score_prefix(lm, prefix, complete=False):
    """Normalized log10 likelihood of a prefix: the mean over its
    transitions, including the end transition iff complete.  The sum is
    CharLM.advance from the empty prefix's tail through prefix, and then
    its end iff complete."""
    if not prefix:
        raise ValueError("cannot score an empty prefix")
    steps = (*prefix, EOS) if complete else prefix
    return lm.advance(0.0, history_tail(lm, ()), steps)[0] / len(steps)


def history_tail(lm, prefix):
    """The last order-1 symbols of the BOS-padded sequence prefix: the
    whole history a transition after prefix reads."""
    k = lm.order - 1
    if not k:
        return ()
    tail = tuple(prefix[-k:])
    return tail if len(tail) == k else (BOS,) * (k - len(tail)) + tail


def extend_score(lm, logsum, prefix, suffix):
    """Add the transitions of suffix (appended after the sequence prefix)
    to a running log10 sum; returns (sum, len(prefix) + len(suffix)).
    The sum is CharLM.advance from prefix's tail, the only part of prefix
    read, so incremental decoding reproduces score_prefix bit for bit."""
    return lm.advance(logsum, history_tail(lm, prefix), suffix)[0], len(prefix) + len(suffix)


@dataclass(frozen=True)
class BinConfig:
    """Score thresholds (strictly decreasing) with the corpus mean and
    standard deviation they were derived from."""

    thresholds: tuple
    mu: float
    sigma: float

    def __post_init__(self):
        if any(
            a <= b for a, b in zip(self.thresholds, self.thresholds[1:])
        ):
            raise ValueError("thresholds must be strictly decreasing")

    @property
    def catch_all(self):
        return len(self.thresholds)


def make_bins(lm, words):
    """Thresholds spanning a normal distribution around the mean word
    score: mu + k * BIN_STEP * sigma for k = +BIN_SPREAD..-BIN_SPREAD, or
    mu alone when those do not strictly decrease (sigma is zero, or so
    small that they round together).  A word's score is
    score_prefix(lm, word, complete=True), bit for bit (see the module
    docstring)."""
    words = list(dict.fromkeys(tuple(w) for w in words))
    if not words:
        raise ValueError("empty word list")
    start = history_tail(lm, ())
    scores = [lm.advance(0.0, start, w + (EOS,))[0] / (len(w) + 1) for w in words]
    mu = mean(scores)
    sigma = pstdev(scores)
    thresholds = tuple(
        mu + k * BIN_STEP * sigma for k in range(BIN_SPREAD, -BIN_SPREAD - 1, -1)
    )
    if any(a <= b for a, b in zip(thresholds, thresholds[1:])):
        # sigma is 0.0, or a few ulps that rounding loses against mu.
        thresholds = (mu,)
    return BinConfig(thresholds, mu, sigma)


def lm_bin_features(score, bins):
    """Indices of all thresholds at or below the score (cumulative); the
    catch-all index alone when the score is under every threshold."""
    fired = {j for j, t in enumerate(bins.thresholds) if t <= score}
    return fired if fired else {bins.catch_all}


def save_charlm(lm, path):
    """Write lm's order, alphabet and tables, one count a line; a symbol
    load_charlm could not read back, empty or with whitespace in it, raises
    ValueError before anything is written."""
    for sym in lm.alphabet:
        if sym.split() != [sym]:
            raise ValueError(f"symbol {sym!r} cannot be written to a charlm file")
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"#charlm\torder={lm.order}\n")
        out.write("#alphabet\t" + " ".join(sorted(lm.alphabet)) + "\n")
        for m, table in enumerate(lm.tables):
            for h in sorted(table):
                for sym, count in sorted(table[h].items()):
                    out.write(f"{m}\t{' '.join(h)}\t{sym}\t{count}\n")


def load_charlm(path):
    """Read a save_charlm file; a malformed line, the header lines
    included, raises ParseError with its number and path."""
    alphabet = set()
    tables = []

    def parse(line):
        if not tables:
            if not line.startswith("#charlm\torder="):
                raise ValueError("not a charlm file")
            order = int(line.split("=", 1)[1])
            if order < 1:
                raise ValueError(f"order must be >= 1, got {order}")
            tables.extend({} for _ in range(order))
        elif line.startswith("#alphabet\t"):
            alphabet.update(line.split("\t", 1)[1].split())
        else:
            m, h, sym, count = line.split("\t")
            m, h, count = int(m), tuple(h.split()), int(count)
            if not len(h) == m < len(tables):
                raise ValueError(f"level {m} with {len(h)} history symbols "
                                 f"in an order-{len(tables)} LM")
            if count < 1:
                raise ValueError(f"count {count} must be >= 1")
            tables[m].setdefault(h, {})[sym] = count

    with open(path, encoding="utf-8") as src, reading(path):
        parse_lines(src, parse)
    if not tables:
        raise ValueError(f"{path}: not a charlm file")
    return CharLM(len(tables), alphabet, tables)
