"""Character n-gram language model with Witten-Bell smoothing, prefix
scoring, and cumulative bin features.

The model is trained on a list of word types (duplicates ignored).  Each
conditional interpolates the maximum-likelihood estimate with the
next-lower order, weighting the backoff by the number of distinct
continuations seen after the history; the recursion bottoms out in a
uniform distribution over the alphabet plus the end sentinel.  That
distribution over the alphabet plus the end sentinel sums to 1 at every
history; a symbol outside the alphabet maps to <unk>, which gets the same
uniform base mass on top of it, outside the normalised distribution, so an
unseen output symbol is scored low but never with probability 0.  Scores are
per-transition log10 likelihoods, so they are comparable across prefix
lengths during incremental decoding.

A transition reads only the last order-1 symbols of its BOS-padded
history (history_tail), and CharLM.logprob memoises (tail, symbol) ->
log10 p on the model.  The memo returns the floats the recursion computes,
so scores are unchanged, and holds at most one entry per distinct
(tail, symbol) asked for.  CharLM.advance is the one fold over transitions:
it moves a running sum and a tail through a suffix, reading the memo rows
without a call per transition.  A decoder carries the tail with each
hypothesis and moves it through advance; extend_score and score_prefix are
advance from a start tail (a prefix's, or the empty prefix's), so every
score of a word is the same additions in the same order, bit for bit.

train_charlm reads each word as its full-order n-grams (_grams): one per
transition, a tail followed by its symbol.  It counts the distinct grams of
the word list once and adds each count to every level.  make_bins scores a
word as score_prefix does, advance from the start tail through the word and
its end, which also fills the memo the decoder reads later, and divides the
sum by the word's number of transitions.  The fold adds with +=, not with
sum(), which compensates float sums from Python 3.12 on.

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
        # last order-1 history symbols -> {symbol: log10 probability}.
        self._memo = {}

    def _map(self, sym):
        if sym in self.alphabet or sym in (BOS, EOS):
            return sym
        return UNK

    def prob(self, history, nxt):
        """Interpolated Witten-Bell probability of nxt after history."""
        k = self.order - 1
        h = tuple(self._map(s) for s in (tuple(history)[-k:] if k else ()))
        w = self._map(nxt)
        return self._prob(h, w)

    def _prob(self, h, w):
        m = len(h)
        lower = self._prob(h[1:], w) if m > 0 else self._base
        counts = self.tables[m].get(h)
        if counts is None:
            return lower  # unseen history: the lower order alone
        distinct = len(counts)
        return (counts.get(w, 0) + distinct * lower) / (
            self._sums[m][h] + distinct
        )

    def logprob(self, history, nxt):
        """log10 of prob(history, nxt), memoised on the last order-1
        symbols of history, which are all that prob reads."""
        k = self.order - 1
        tail = tuple(history)[-k:] if k else ()
        row = self._memo.get(tail)
        if row is None:
            row = self._memo[tail] = {}
        lp = row.get(nxt)
        if lp is None:
            lp = row[nxt] = math.log10(self.prob(tail, nxt))
        return lp

    def advance(self, logsum, tail, suffix):
        """(logsum plus the transitions of suffix, tail after suffix) for a
        sequence whose history_tail is tail, added in suffix's order,
        reading the memo rows directly and asking logprob only for the
        transitions they lack."""
        memo = self._memo
        for sym in suffix:
            row = memo.get(tail)
            lp = None if row is None else row.get(sym)
            if lp is None:
                lp = self.logprob(tail, sym)
            logsum += lp
            tail = (tail + (sym,))[1:]
        return logsum, tail


def _grams(word, order):
    """The full-order n-grams of the BOS/EOS-padded word, one per transition."""
    seq = (BOS,) * (order - 1) + word + (EOS,)
    return [seq[i : i + order] for i in range(len(word) + 1)]


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
    grams = Counter(chain.from_iterable(_grams(w, order) for w in words))
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
