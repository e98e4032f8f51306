"""Synthetic tasks and brute-force oracles shared across the test suite.

The oracles deliberately re-derive everything by exhaustive enumeration
or textbook recursions, independent of the library's DP code paths.
"""

import random

from chartrans.charlm import BOS, EOS, UNK
from chartrans.core import NULL, EvalInstance, TrainingPair
from chartrans.freqtrie import Lexicon
from chartrans.transducer import (
    Rule,
    _contexts,
    _dot,
    _history_features,
    _rule_features,
    _summed,
)


def brute_path_sum(x, y, delta, params):
    """Total probability of all admissible monotone alignments, by
    exhaustive recursion over segmentations."""
    moves = params.moves()

    def rec(t, v):
        if t == len(x) and v == len(y):
            return 1.0
        total = 0.0
        for i, j in moves:
            if t + i > len(x) or v + j > len(y):
                continue
            d = delta.prob(x[t : t + i], y[v : v + j])
            if d > 0.0:
                total += d * rec(t + i, v + j)
        return total

    return rec(0, 0)


def brute_alignments(x, y, delta, params):
    """All admissible monotone alignments with their probabilities."""
    moves = params.moves()
    out = []

    def rec(t, v, links, prob):
        if t == len(x) and v == len(y):
            out.append((prob, tuple(links)))
            return
        for i, j in moves:
            if t + i > len(x) or v + j > len(y):
                continue
            d = delta.prob(x[t : t + i], y[v : v + j])
            if d > 0.0:
                links.append((x[t : t + i], y[v : v + j]))
                rec(t + i, v + j, links, prob * d)
                links.pop()

    rec(0, 0, [], 1.0)
    return out


def brute_merge_sum(x, y, delta):
    """Insertion-merging likelihood of a padded pair: the sum, over every
    split of it into spans holding exactly one non-null source symbol, of
    the product of the spans' probabilities with nulls dropped."""

    def strip(span):
        return tuple(s for s in span if s != NULL)

    def rec(t):
        if t == len(x):
            return 1.0
        total = 0.0
        for end in range(t + 1, len(x) + 1):
            if sum(s != NULL for s in x[t:end]) == 1:
                d = delta.prob(strip(x[t:end]), strip(y[t:end]))
                if d > 0.0:
                    total += d * rec(end)
        return total

    return rec(0)


def random_delta(x, y, rng, params):
    """Random positive probabilities on every substring pair of (x, y)."""
    from chartrans.aligner import DeltaTable

    probs = {}
    for i in range(len(x)):
        for di in range(1, params.max_x + 1):
            if i + di > len(x):
                break
            s = x[i : i + di]
            probs[(s, ())] = rng.random()
            for j in range(len(y)):
                for dj in range(1, params.max_y + 1):
                    if j + dj > len(y):
                        break
                    probs[(s, y[j : j + dj])] = rng.random()
    for j in range(len(y)):
        for dj in range(1, params.max_y + 1):
            if j + dj > len(y):
                break
            probs[((), y[j : j + dj])] = rng.random()
    return DeltaTable(probs)


def reference_parts(x, derivation, model):
    """(Feature parts of derivation applied to x, output): per step, the
    rule, history and corpus parts, first step first, each built as
    decode_nbest builds it (the history part read from or added to its
    memo, the rule part read from or added to train's memo inside train
    and built anew outside it, the corpus part from the LM sum, tail and
    trie node carried on), so they equal a decoded candidate's trail part
    by part (Candidate._parts).  Raises ValueError when the derivation's
    source spans do not spell x.  A walk along the one derivation, apart
    from the beam, so the oracles judge decode_nbest by another path."""
    cfg, corpus_step, memo = model.config, model.scorer.step, model.rule_parts
    x, parts, out, pos, merge = tuple(x), [], (), 0, ((), ())
    lm_sum, tail, node = model.scorer.start
    for step, rule in enumerate(derivation):
        end = pos + len(rule.source)
        if x[pos:end] != rule.source:
            raise ValueError(f"step {step} rewrites {rule.source}, not x[{pos}:{end}]")
        row, pair = model.history.setdefault(merge, {}), (rule.source, rule.target)
        part = row.get(pair)
        if part is None:
            part = row[pair] = _history_features(*merge, rule, model)
        history, merge = part
        corpus, lm_sum, tail, node = corpus_step(
            len(out), rule.target, lm_sum, tail, node, end == len(x)
        )
        key = x, pos, rule.source, rule.target
        static = None if memo is None else memo.get(key)
        if static is None:
            static = _rule_features(_contexts(x, pos, cfg), rule, model)
            if memo is not None:
                memo[key] = static
        parts += (static, history, corpus)
        out += rule.target
        pos = end
    if pos != len(x):
        raise ValueError("derivation does not tile the source")
    return parts, out


def brute_decode(x, model, n):
    """Exhaustive tiling enumeration: best derivation per distinct output,
    ranked like the decoder, each tiling scored through reference_parts."""
    index = model.index
    maxlen = max((len(s) for s in index), default=1)
    best = {}

    def rec(t, deriv):
        if t == len(x):
            parts, out = reference_parts(x, deriv, model)
            score = _dot(model.weights, _summed(parts))
            key = (-score, out, tuple((r.source, r.target) for r in deriv))
            old = best.get(out)
            if old is None or key < old[0]:
                best[out] = (key, score, tuple(deriv))
            return
        matched = []
        for length in range(1, min(maxlen, len(x) - t) + 1):
            matched.extend(index.get(x[t : t + length], ()))
        if not matched:
            matched = [Rule((x[t],), (x[t],))]
        for rule in matched:
            rec(t + len(rule.source), deriv + [rule])

    rec(0, [])
    ranked = sorted(best.values(), key=lambda item: item[0])
    return [(score, out_key[1], deriv) for out_key, score, deriv in ranked][:n]


def brute_ngram_tables(words, order):
    """Type-based n-gram counts by their textbook definition: for each
    distinct word, each position of the word followed by EOS, and each
    level m < order, count the symbol there after the m symbols before
    it, left-padded with BOS.  tables[m][history][symbol] = count."""
    tables = [{} for _ in range(order)]
    for w in set(map(tuple, words)):
        seq = w + (EOS,)
        for i, sym in enumerate(seq):
            for m in range(order):
                history = ((BOS,) * m + seq[:i])[i:]
                row = tables[m].setdefault(history, {})
                row[sym] = row.get(sym, 0) + 1
    return tables


def witten_bell(lm, history, nxt):
    """The interpolated Witten-Bell probability of nxt after history, by
    the textbook recursion over lm's count tables alone: the order of the
    last m history symbols mixes its counts with the order of the last
    m - 1, down to the uniform base over the alphabet and the end sentinel;
    an unseen history is its lower order alone.  A symbol outside the
    alphabet (and not BOS or EOS) counts as UNK."""

    def mapped(sym):
        return sym if sym in lm.alphabet or sym in (BOS, EOS) else UNK

    k = lm.order - 1
    w = mapped(nxt)

    def rec(h):
        lower = rec(h[1:]) if h else 1.0 / (len(lm.alphabet) + 1)
        counts = lm.tables[len(h)].get(h)
        if counts is None:
            return lower
        distinct = len(counts)
        return (counts.get(w, 0) + distinct * lower) / (sum(counts.values()) + distinct)

    return rec(tuple(mapped(s) for s in (tuple(history)[-k:] if k else ())))


def brute_edit_distance(a, b):
    """Plain recursive edit distance with memoization."""
    memo = {}

    def rec(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        key = (i, j)
        if key not in memo:
            sub = rec(i + 1, j + 1) + (0 if a[i] == b[j] else 1)
            memo[key] = min(sub, rec(i + 1, j) + 1, rec(i, j + 1) + 1)
        return memo[key]

    return rec(0, 0)


DIGRAPHS = {s: (s.upper(), s.upper() + "2") for s in "abcdefghij"}


def digraph_pairs(rng, count, min_len=3, max_len=6):
    """Deterministic symbol-to-digraph rewriting task with a unique
    derivation per source (nothing to disambiguate)."""
    pairs = []
    for _ in range(count):
        src = tuple(
            rng.choice("abcdefghij") for _ in range(rng.randint(min_len, max_len))
        )
        tgt = tuple(t for s in src for t in DIGRAPHS[s])
        pairs.append(TrainingPair(src, tgt))
    return pairs


# Context-dependent digraph task: every symbol becomes (UPPER, mark) where
# the mark depends on the following source symbol, so the inventory holds
# two rules per symbol and the model must learn to disambiguate.  The
# alphabet stays small enough that 100 pairs cover every (symbol, next)
# combination and held-out items contain nothing unseen.

_CONTEXT_ALPHABET = "abcdef"
_EARLY = set("abc")


def context_target(src):
    out = []
    for i, s in enumerate(src):
        nxt = src[i + 1] if i + 1 < len(src) else None
        mark = "1" if nxt is None or nxt in _EARLY else "2"
        out.extend((s.upper(), mark))
    return tuple(out)


def context_pairs(rng, count, min_len=3, max_len=6):
    pairs = []
    for _ in range(count):
        src = tuple(
            rng.choice(_CONTEXT_ALPHABET)
            for _ in range(rng.randint(min_len, max_len))
        )
        pairs.append(TrainingPair(src, context_target(src)))
    return pairs


def context_alignments(pairs):
    from chartrans.aligner import Alignment, AlignmentLink

    out = []
    for pair in pairs:
        links = []
        for i, s in enumerate(pair.source):
            links.append(AlignmentLink((s,), pair.target[2 * i : 2 * i + 2]))
        out.append(Alignment(tuple(links)))
    return out


# Lexicon-constrained spelling task: each /K/ sound is spelled "c" or "k"
# per word (not predictable from context), and a silent final "e" is
# dropped from the pronunciation, so corpus knowledge and insertion-aware
# alignment both matter.

_CONSONANTS = "bdfglmnprst"
_VOWELS = "aeiou"


def _spelling(rng):
    letters = []
    for _ in range(rng.randint(2, 3)):
        if rng.random() < 0.45:
            letters.append(rng.choice("ck"))
        else:
            letters.append(rng.choice(_CONSONANTS))
        letters.append(rng.choice(_VOWELS))
    if rng.random() < 0.35:
        letters.append("e")
    return tuple(letters)


def pronounce(word):
    phones = []
    for i, ch in enumerate(word):
        if ch in "ck":
            phones.append("K")
        elif ch == "e" and i == len(word) - 1:
            continue
        else:
            phones.append(ch.upper())
    return tuple(phones)


def lexicon_task(seed, lex_size=2000, n_train=100, n_test=150):
    """Returns (lexicon, training pairs, held-out eval instances); every
    target is a lexicon word."""
    rng = random.Random(seed)
    words = []
    seen = set()
    while len(words) < lex_size:
        w = _spelling(rng)
        if w not in seen and pronounce(w):
            seen.add(w)
            words.append(w)
    counts = {w: max(1, int(200 / (i + 1) ** 0.5)) for i, w in enumerate(words)}
    sample = rng.sample(words, n_train + n_test)
    pairs = [TrainingPair(pronounce(w), w) for w in sample[:n_train]]
    held = [
        EvalInstance(pronounce(w), frozenset([w])) for w in sample[n_train:]
    ]
    return Lexicon(counts), pairs, held


# Inflection task: lemmas are lexicon_task spellings, each tag set picks a
# suffix, and a lemma's final "e" drops before a vowel-initial suffix.

INFLECTION_SUFFIXES = {
    "V;PRS": "",
    "V;PRS;3;SG": "s",
    "V;PST": "ed",
    "V;V.PTCP;PRS": "ing",
    "V;NFIN;AGT": "er",
}


def inflect(lemma, tags):
    """The form of lemma (a string) under a tag string of
    INFLECTION_SUFFIXES."""
    suffix = INFLECTION_SUFFIXES[tags]
    if lemma.endswith("e") and suffix and suffix[0] in _VOWELS:
        lemma = lemma[:-1]
    return lemma + suffix


def inflection_task(seed, lex_size=400, n_train=100, n_test=150):
    """Returns (lexicon of every form of lex_size lemmas, training triples,
    held-out triples); a triple is (lemma, form, tags) as strings, the
    columns of the inflection file format, and every form is in the
    lexicon."""
    rng = random.Random(seed)
    lemmas = []
    seen = set()
    while len(lemmas) < lex_size:
        lemma = "".join(_spelling(rng))
        if lemma not in seen:
            seen.add(lemma)
            lemmas.append(lemma)
    triples = [
        (lemma, inflect(lemma, tags), tags)
        for lemma in lemmas
        for tags in INFLECTION_SUFFIXES
    ]
    counts = {}
    for i, (_, form, _) in enumerate(triples):
        counts[tuple(form)] = counts.get(tuple(form), 0) + max(1, int(200 / (i + 1) ** 0.5))
    sample = rng.sample(triples, n_train + n_test)
    return Lexicon(counts), sample[:n_train], sample[n_train:]
