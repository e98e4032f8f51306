"""Semi-Markov discriminative transducer.

Rules rewrite a non-empty source span into a target span (possibly
empty).  Decoding tiles the source with rules under a beam, scoring each
step with sparse indicator features: the rule itself, source context
n-grams around the application point, target n-grams of the growing
output, joint rule n-grams, a copy indicator, and (when corpus resources
are attached) cumulative language-model and frequency bin features
computed on the output prefix.  A step's features are three parts, each
reading less than the last, and three builders are the only way a step is
scored: the rule part (R, C; _rule_features) reads only the position and
rule, the history part (T, J, COPY; _history_features, memoised on the
model) only the beam's merge state and the rule, and the corpus part
(LMB, FQB; _CorpusScorer.step) the output's length and the LM sum, tail
and trie node the derivation carries.  The corpus part moves the LM sum
and tail over the rule's target through the LM memo (CharLM.advance),
walks the trie node over it, and picks its features from bin parts
prebuilt per model, one dict per (LM bin, frequency bin) pair.  Two
callers string the parts together: decode_nbest, which lists the source
contexts (_contexts) once per position, scores the rule part once per
(position, rule) in a table that lives for one call, under that call's
weights, and continues those partial sums (_dot is a left fold, so that
gives the bits of scoring each step from scratch); and _derivation_parts,
which walks one given derivation, such as a gold one, and builds each
step's parts as the beam builds them.  Candidates keep their hypothesis's
trail of feature parts and sum it only when their features are read.
Training is online large-margin (MIRA) against the k-best list, with
optional weight averaging; MIRA reads each candidate's trail part by
part, subtracting it from the gold features, so training sums only the
gold derivations.

A Model is frozen and builds its rule index and _CorpusScorer once;
training updates its weights in place.

Features are named by tuples (template tag first), such as
("C", offset, ngram, source, target), but every feature vector, the
weights and MIRA's averaging sums are keyed by int ids: each Model holds
an Alphabet that gives a name its id the first time the name is built
and keeps it, so a lookup hashes an int instead of a nested tuple.  Names
appear only in model files, as JSON arrays, so arbitrary symbols never
collide; save_model writes them in repr order and load_model interns
them, so no output depends on the value of an id.  The history part is
memoised on the model per (merge state, rule), and its entries, like the
prebuilt corpus parts, are shared: read them, never change them.
"""

import json
import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace

from .charlm import EOS, history_tail, lm_bin_features, BinConfig
from .charlm import extend_score  # noqa: F401  unused: perfbench traces it by this name
from .core import TrainingPair, check_fields, parse_lines, reading, word_accuracy
from .freqtrie import FreqBinConfig, freq_bin_features, walk

log = logging.getLogger(__name__)


@dataclass(frozen=True, order=True)
class Rule:
    source: tuple
    target: tuple

    def __post_init__(self):
        if not self.source:
            raise ValueError("rule with empty source span")


@dataclass(frozen=True)
class FeatureConfig:
    context_window: int = 2
    max_source_ngram: int = 2
    target_order: int = 2
    joint_order: int = 2
    copy_feature: bool = True
    lm_features: bool = True
    freq_features: bool = True

    def __post_init__(self):
        check_fields(self, ("context_window",), lambda v: v >= 0, "must be >= 0")
        check_fields(self, ("max_source_ngram", "target_order", "joint_order"),
                     lambda v: v >= 1, "must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    mira_c: float = 0.05
    nbest: int = 10
    beam: int = 40
    averaging: bool = True
    loss: str = "levenshtein"

    def __post_init__(self):
        check_fields(self, ("epochs",), lambda v: v >= 0, "must be >= 0")
        check_fields(self, ("mira_c",), lambda v: v > 0, "must be positive")
        check_fields(self, ("nbest", "beam"), lambda v: v >= 1, "must be >= 1")
        losses = ("levenshtein", "zero-one")
        check_fields(self, ("loss",), losses.__contains__, f"expected one of {losses}")


class Candidate:
    """An n-best entry: output, derivation, score and summed features.

    decode_nbest hands over the trail of feature parts (per step, its rule,
    history and corpus parts) its hypothesis carried instead of the
    features; they are summed, as _summed sums them, the first time
    features is read, so a caller that reads only outputs and scores never
    sums them.  mira_update reads the parts themselves (_parts), so
    training sums no decoded candidate either."""

    __slots__ = ("output", "derivation", "score", "_features", "_trail")

    def __init__(self, output, derivation, score, features=None, *, trail=None):
        self.output = output
        self.derivation = derivation
        self.score = score
        self._features = features
        self._trail = trail

    @property
    def features(self):
        if self._features is None:
            self._features = _summed(self._parts())
            self._trail = None
        return self._features

    def _parts(self):
        """The feature parts, in step order: the features alone once they
        are known, else the trail's parts, first step first."""
        if self._features is not None:
            return (self._features,)
        steps = []
        trail = self._trail
        while trail is not None:
            steps.append(trail)
            trail = trail[0]
        return [part for step in reversed(steps) for part in step[1:]]

    def _fields(self):
        return self.output, self.derivation, self.score, self.features

    def __eq__(self, other):
        if not isinstance(other, Candidate):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "Candidate(output=%r, derivation=%r, score=%r, features=%r)" % (
            self._fields()
        )


class Alphabet(dict):
    """Feature names and their int ids: the dict maps a name to its id,
    names maps an id back to its name.  alphabet[name] gives a name it
    lacks the next id, so ids are dense, in first-seen order, and a name
    keeps its id: the alphabet only ever grows."""

    __slots__ = ("names",)

    def __init__(self):
        super().__init__()
        self.names = []

    def __missing__(self, name):
        i = self[name] = len(self.names)
        self.names.append(name)
        return i


@dataclass(frozen=True)
class Model:
    """Weights, rules, feature configuration and corpus resources (LM,
    trie and their bins).  Frozen: dataclasses.replace builds a changed
    model.  Built once, at construction: index, the rules by source in
    sorted order; max_source, the longest source; scorer, the
    _CorpusScorer of the resources in use.

    weights is keyed by feature id; alphabet names the ids, and replace
    carries it along, so a replaced model reads the same weights the same
    way.  weights is the one part training changes, in place; alphabet
    grows whenever a step builds a feature name it has not seen, and the
    history memo fills as steps are scored."""

    weights: dict
    rules: frozenset
    config: FeatureConfig
    lm: object = None
    lm_bins: BinConfig = None
    trie: object = None
    freq_bins: FreqBinConfig = None
    alphabet: Alphabet = field(default_factory=Alphabet, repr=False)
    index: dict = field(init=False, repr=False, compare=False)
    max_source: int = field(init=False, repr=False, compare=False)
    scorer: object = field(init=False, repr=False, compare=False)
    # (last target_order output symbols, recent pairs)
    # -> {(rule source, rule target): (history part, merge state after)}.
    history: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key in self.weights:
            if type(key) is not int:
                raise TypeError(
                    f"weight key {key!r} is not a feature id: weights are keyed "
                    "by id, and model.alphabet[name] is a feature name's id"
                )
        index = {}
        for rule in sorted(self.rules):
            index.setdefault(rule.source, []).append(rule)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "max_source", max(map(len, index), default=0))
        object.__setattr__(self, "scorer", _CorpusScorer(self))
        object.__setattr__(self, "history", {})

    @property
    def uses_lm(self):
        return self.config.lm_features and self.lm is not None and self.lm_bins is not None

    @property
    def uses_freq(self):
        return self.config.freq_features and self.trie is not None and self.freq_bins is not None


def extract_rules(alignments):
    """Rule inventory and gold derivations from alignment links.

    Every link becomes a rule (deletion links become empty-target rules);
    insertion links are rejected, since no rule may have an empty source.
    """
    rules = set()
    golds = []
    for alignment in alignments:
        deriv = []
        for link in alignment.links:
            if not link.source:
                raise ValueError(f"insertion link {link} cannot become a rule")
            rule = Rule(link.source, link.target)
            rules.add(rule)
            deriv.append(rule)
        golds.append(tuple(deriv))
    return frozenset(rules), golds


def _contexts(x, pos, cfg):
    """The (offset, source n-gram) pairs the C features at pos name, by
    offset, then length: each n-gram of up to max_source_ngram symbols
    that starts within context_window of pos, ends at most context_window
    past it and lies inside x."""
    c, n = cfg.context_window, cfg.max_source_ngram
    return [
        (off, x[pos + off : pos + off + length])
        for off in range(max(-c, -pos), c + 1)
        for length in range(1, min(n, c - off + 1, len(x) - pos - off) + 1)
    ]


def _rule_features(contexts, rule, model):
    """R and C features of applying rule where _contexts gave contexts: the
    rule itself and the source n-grams around the application point.  They
    read only (position, rule), so the beam search computes them once per
    call, from one contexts list per position."""
    ids, source, target = model.alphabet, rule.source, rule.target
    feats = {ids["R", source, target]: 1.0}
    for off, gram in contexts:
        feats[ids["C", off, gram, source, target]] = 1.0
    return feats


def _history_features(head, recent, rule, model):
    """(T, J and COPY features, merge state after the step) of applying
    rule after an output whose last target_order symbols are head and
    whose last rules' pairs are recent: the beam's merge state (head,
    recent), which is all the features read.  The merge state after is
    (the new output's last target_order symbols, the new recent pairs)."""
    cfg, ids = model.config, model.alphabet
    feats = {}
    tail = head + rule.target
    for m in range(1, cfg.target_order + 1):
        if len(tail) >= m:
            feats[ids["T", tail[-m:]]] = 1.0
    seq = recent + ((rule.source, rule.target),)
    for j in range(1, cfg.joint_order + 1):
        if len(seq) >= j:
            feats[ids["J", seq[-j:]]] = 1.0
    if cfg.copy_feature and rule.source == rule.target:
        feats[ids[("COPY",)]] = 1.0
    j_keep = cfg.joint_order - 1
    return feats, (tail[-cfg.target_order:], seq[-j_keep:] if j_keep else ())


_END = (EOS,)


def _part(tag, fired, ids):
    return {ids[tag, idx]: 1.0 for idx in sorted(fired)}


class _CorpusScorer:
    """The corpus part (LMB, FQB) of a step, for one model's resources.

    The LMB bins a score fires are a contiguous run of threshold indices,
    and so are the FQB bins a count fires, so each possible run is built
    once here, from lm_bin_features and freq_bin_features, which stay the
    definition of what fires; a step picks its run by threshold index.
    The LMB and FQB runs of a step are merged into one dict, cached per
    (LM index, frequency index) pair.  The parts are keyed by the model's
    feature ids.  The dicts are shared: read them, never change them.
    start is the corpus state every derivation begins in, the empty
    output's: (LM sum 0.0, LM history tail or None, trie root or None)."""

    def __init__(self, model):
        ids = model.alphabet
        self.lm = model.lm if model.uses_lm else None
        self.trie = model.trie if model.uses_freq else None
        self._lm_parts = self._freq_parts = [{}]
        if self.lm is not None:
            bins = model.lm_bins
            # Index k < catch_all: thresholds[k] is the highest threshold
            # at or below the score, found by bisecting the negated
            # (increasing) thresholds; k = catch_all: none is.
            self._neg_thresholds = [-t for t in bins.thresholds]
            self._lm_parts = [
                _part("LMB", lm_bin_features(score, bins), ids)
                for score in (*bins.thresholds, float("-inf"))
            ]
        if self.trie is not None:
            bins = model.freq_bins
            # Index k: the k lowest thresholds are at or below a positive
            # count; the last index is the zero count's.
            self._freq_thresholds = bins.thresholds
            self._freq_parts = [
                _part("FQB", freq_bin_features(count, bins), ids)
                for count in (bins.thresholds[0] / 2, *bins.thresholds, 0)
            ]
        self._merged = {}
        tail = history_tail(self.lm, ()) if self.lm is not None else None
        self.start = (0.0, tail, self.trie)

    def step(self, n_out, target, lm_sum, tail, node, final):
        """(LMB and FQB features, new LM sum, new LM tail, new trie node)
        of emitting target after an output of n_out symbols whose LM sum,
        tail and trie node these are: the sum, tail and node move on by
        target alone."""
        if not (n_out or target):
            return {}, lm_sum, tail, node
        lm_idx = freq_idx = 0
        if self.lm is not None:
            lm_sum, tail = self.lm.advance(lm_sum, tail, target)
            total, n = lm_sum, n_out + len(target)
            if final:
                total = self.lm.advance(lm_sum, tail, _END)[0]
                n += 1
            lm_idx = bisect_left(self._neg_thresholds, -(total / n))
        if self.trie is not None:
            if node is not None:
                node = walk(node, target)
            count = 0
            if node is not None:
                count = node.word_count if final else node.prefix_count
            freq_idx = bisect_right(self._freq_thresholds, count) if count else -1
        feats = self._merged.get((lm_idx, freq_idx))
        if feats is None:
            feats = self._merged[lm_idx, freq_idx] = {
                **self._lm_parts[lm_idx], **self._freq_parts[freq_idx]
            }
        return feats, lm_sum, tail, node


def _dot(weights, feats, total=0):
    """total plus the weighted features, added one key at a time in order.
    A left fold, so _dot(w, b, _dot(w, a)) is _dot(w, a | b) bit for bit
    when a and b share no key."""
    for k, v in feats.items():
        total += weights.get(k, 0.0) * v
    return total


def _summed(parts):
    """Features of a derivation's feature parts, summed in step order, so
    key order and float sums do not depend on who built the parts."""
    feats = {}
    for part in parts:
        for k, v in part.items():
            feats[k] = feats.get(k, 0.0) + v
    return feats


def _derivation_parts(x, derivation, model):
    """(Feature parts of derivation applied to x, output): per step, the
    rule, history and corpus parts, first step first, each built as
    decode_nbest builds it (the rule part from the position's source
    contexts, the history part read from or added to the model's memo, the
    corpus part from the LM sum, tail and trie node carried on), so they
    equal a decoded candidate's trail part by part (Candidate._parts)."""
    cfg, corpus_step = model.config, model.scorer.step
    parts, out, pos, merge = [], (), 0, ((), ())
    lm_sum, tail, node = model.scorer.start
    for rule in derivation:
        row, pair = model.history.setdefault(merge, {}), (rule.source, rule.target)
        part = row.get(pair)
        if part is None:
            part = row[pair] = _history_features(*merge, rule, model)
        history, merge = part
        end = pos + len(rule.source)
        corpus, lm_sum, tail, node = corpus_step(
            len(out), rule.target, lm_sum, tail, node, end == len(x)
        )
        parts += (_rule_features(_contexts(x, pos, cfg), rule, model), history, corpus)
        out += rule.target
        pos = end
    if pos != len(x):
        raise ValueError("derivation does not tile the source")
    return parts, out


def derivation_features(x, derivation, model):
    """(Summed step features of a full derivation, keyed by feature id,
    output): _derivation_parts summed as a decoded candidate's trail is."""
    parts, out = _derivation_parts(x, derivation, model)
    return _summed(parts), out


def gold_candidate(x, derivation, model):
    feats, out = derivation_features(x, derivation, model)
    return Candidate(out, tuple(derivation), _dot(model.weights, feats), feats)


def _order_key(item):
    """Beam order: score descending, then output, then rules (Rule orders
    as its (source, target) pair)."""
    score, (out, rules, _, _, _), _ = item
    return (-score, out, rules)


def decode_nbest(x, model, beam_width, n):
    """Beam n-best decode: distinct outputs, score-descending, ties broken
    by lexicographic output.

    States merge on (source position, last target_order output symbols,
    last joint_order - 1 rules); the symbol window is one longer than the
    highest target n-gram needs after a non-empty emission, so step
    features stay a pure function of the state even across empty-target
    (deletion) rules.  Each state keeps its n best distinct outputs and
    each position keeps its beam_width best states, so with corpus
    features disabled and a beam at least the state count the result
    matches exhaustive enumeration.

    Each step is scored from its three parts, each where it is first
    known: the rule part once per (position, rule), from the position's
    source contexts listed once, in a table that lives for this call only,
    under this call's weights; the history part once per (state, rule),
    built once per model in its history memo; the corpus part per
    hypothesis, from the LM sum, tail and trie node it carries, starting
    at the scorer's start.  _dot is a left fold over keys in part order,
    so continuing the table's partial sums gives the step score bit for
    bit.  A candidate's features are the trail of parts its hypothesis
    carried, the parts _derivation_parts builds for its derivation, summed
    as derivation_features sums them when first read, so no derivation is
    scored twice and none is summed unless asked for; mira_update reads
    the trail without summing it.
    """
    if n < 1 or beam_width < n:
        raise ValueError("need beam >= n >= 1")
    x = tuple(x)
    index = model.index
    max_src = max(model.max_source, 1)
    weights = model.weights
    corpus_step = model.scorer.step

    # beams[t]: merge state (last target_order output symbols, recent rule
    # pairs) -> {output: (score, state, trail)}, so equal-output items in
    # one state collapse; state is (output, rules, LM sum, LM tail, trie
    # node).
    beams = [{} for _ in range(len(x) + 1)]
    beams[0][((), ())] = {(): (0.0, ((), (), *model.scorer.start), None)}

    for t in range(len(x)):
        if not beams[t]:
            continue
        groups = [
            (merge, sorted(g.values(), key=_order_key)[:n])
            for merge, g in beams[t].items()
        ]
        ranked = sorted(groups, key=lambda group: _order_key(group[1][0]))[:beam_width]
        matches = []
        for length in range(1, min(max_src, len(x) - t) + 1):
            matches.extend(index.get(x[t : t + length], ()))
        if not matches:
            matches = [Rule((x[t],), (x[t],))]
        contexts = _contexts(x, t, model.config)
        table = []
        for rule in matches:
            static = _rule_features(contexts, rule, model)
            end = t + len(rule.source)
            table.append((rule, (rule.source, rule.target), static,
                          _dot(weights, static), end, end == len(x)))
        for (head, recent), items in ranked:
            # Every item of a state shares what the history part reads.
            row = model.history.setdefault((head, recent), {})
            for rule, pair, static, static_dot, end, final in table:
                part = row.get(pair)
                if part is None:
                    part = row[pair] = _history_features(head, recent, rule, model)
                history, merge = part
                partial = _dot(weights, history, static_dot)
                group = beams[end].setdefault(merge, {})
                for score, (out, rules, lm_sum, tail, node), trail in items:
                    corpus, new_sum, new_tail, new_node = corpus_step(
                        len(out), rule.target, lm_sum, tail, node, final
                    )
                    total = score + _dot(weights, corpus, partial)
                    new_out = out + rule.target
                    old = group.get(new_out)
                    if old is not None and (
                        total < old[0]
                        or total == old[0] and rules + (rule,) >= old[1][1]
                    ):
                        continue
                    group[new_out] = (
                        total,
                        (new_out, rules + (rule,), new_sum, new_tail, new_node),
                        (trail, static, history, corpus),
                    )
    finals = {}
    for group in beams[len(x)].values():
        for out, item in group.items():
            old = finals.get(out)
            if old is None or _order_key(item) < _order_key(old):
                finals[out] = item
    ranked = sorted(finals.values(), key=_order_key)[:n]
    return [
        Candidate(output, rules, score, trail=trail)
        for score, (output, rules, _, _, _), trail in ranked
    ]


def loss(gold_output, cand_output, kind="levenshtein"):
    """Zero-one or unit-cost symbol edit distance."""
    if kind == "zero-one":
        return 0.0 if tuple(gold_output) == tuple(cand_output) else 1.0
    if kind != "levenshtein":
        raise ValueError(f"unknown loss {kind!r}")
    a, b = tuple(gold_output), tuple(cand_output)
    prev = list(range(len(b) + 1))
    for i, sa in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, sb in enumerate(b, start=1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (0 if sa == sb else 1),
            )
        prev = cur
    return float(prev[len(b)])


def _loss_bound(gold_output, cand_output, kind="levenshtein"):
    """An upper bound of loss(gold_output, cand_output, kind) that needs no
    edit-distance table: 1 for zero-one; for levenshtein, the longer of
    the two outputs once their common prefix and suffix are stripped,
    which leaves the edit distance as it is."""
    if kind == "zero-one":
        return 1.0
    if kind != "levenshtein":
        raise ValueError(f"unknown loss {kind!r}")
    a, b = gold_output, cand_output
    shorter = min(len(a), len(b))
    i = 0
    while i < shorter and a[i] == b[i]:
        i += 1
    j = 0
    while j < shorter - i and a[-1 - j] == b[-1 - j]:
        j += 1
    return float(max(len(a), len(b)) - i - j)


def mira_update(weights, gold, candidates, c, loss_kind="levenshtein", avg=None):
    """Margin-infused update against each violating candidate, in score
    order: step the weights by the smallest tau <= C restoring a margin
    of loss(candidate); an unclipped step makes the constraint tight.

    A candidate's difference vector is built in one walk: the gold
    features, less the candidate's feature parts one at a time in step
    order (Candidate._parts), so a decoded candidate's trail is read, never
    summed.  Its key order is gold keys, then candidate-only keys as they
    first appear.  That is the gold features less the summed candidate
    features bit for bit when every part holds 1.0 indicators and the gold
    values are whole numbers, as decode_nbest's parts and gold_candidate's
    features are: every partial difference is then an exact integer.  A
    candidate with explicit features has one part, so it is exact for any
    values.
    The margin is weighed in one pass over that vector, skipping zero
    differences, which is _dot(weights, diff) bit for bit; the loss is
    computed only when the margin is below its bound, and a violated
    constraint steps along the same vector with its zeros dropped."""
    gold_feats, weight = gold.features, weights.get
    for cand in candidates:
        if cand.output == gold.output:
            continue
        diff = dict(gold_feats)
        get = diff.get
        for part in cand._parts():
            for k, v in part.items():
                diff[k] = get(k, 0.0) - v
        margin, differs = 0, False
        for k, v in diff.items():
            if v != 0.0:
                margin += weight(k, 0.0) * v
                differs = True
        if not differs or margin >= _loss_bound(gold.output, cand.output, loss_kind):
            continue
        cost = loss(gold.output, cand.output, loss_kind)
        if margin >= cost:
            continue
        diff = {k: v for k, v in diff.items() if v != 0.0}
        sqnorm = sum(v * v for v in diff.values())
        tau = min(c, (cost - margin) / sqnorm)
        for k, v in diff.items():
            weights[k] = weights.get(k, 0.0) + tau * v
            if avg is not None:
                u, step = avg
                u[k] = u.get(k, 0.0) + (step - 1) * tau * v
    return weights


def train(pairs, alignments, cfg=None, feature_config=None, lm=None,
          lm_bins=None, trie=None, freq_bins=None, dev=None):
    """Online MIRA training over the gold derivations of the alignments.

    pairs may be None (reconstructed from the alignments); when given it
    is checked for coverage.  With dev instances, logs word accuracy
    after every epoch.  Averaging uses lazily-accumulated update
    timestamps, so it costs O(updates), not O(steps x features).
    """
    cfg = cfg or TrainConfig()
    rules, golds = extract_rules(alignments)
    train_pairs = [TrainingPair(a.source(), a.target()) for a in alignments]
    if pairs is not None:
        known = {(p.source, p.target) for p in pairs}
        for tp in train_pairs:
            if (tp.source, tp.target) not in known:
                raise ValueError(f"alignment pair {tp} not among training pairs")
    model = Model(
        weights={}, rules=rules,
        config=feature_config or FeatureConfig(),
        lm=lm, lm_bins=lm_bins, trie=trie, freq_bins=freq_bins,
    )
    u = {}
    step = 0
    for epoch in range(cfg.epochs):
        for pair, deriv in zip(train_pairs, golds):
            step += 1
            candidates = decode_nbest(pair.source, model, cfg.beam, cfg.nbest)
            gold = gold_candidate(pair.source, deriv, model)
            mira_update(
                model.weights, gold, candidates, cfg.mira_c, cfg.loss, (u, step)
            )
        if dev is not None:
            acc = _accuracy(model, dev, cfg.beam)
            log.info("epoch %d dev accuracy %.4f", epoch + 1, acc)
    if cfg.averaging and step > 0:
        model = replace(model, weights={
            k: w - u.get(k, 0.0) / step for k, w in model.weights.items()
        })
    return model


def _accuracy(model, instances, beam):
    best = [decode_nbest(inst.source, model, beam, 1) for inst in instances]
    return word_accuracy([c[0].output if c else None for c in best], instances)


def _plain(key):
    return [_plain(k) if isinstance(k, tuple) else k for k in key] \
        if isinstance(key, (tuple, list)) else key


def _tupled(key):
    return tuple(_tupled(k) if isinstance(k, list) else k for k in key)


def save_model(model, path, lm_path=None, lexicon_path=None):
    """Text model file: header (feature config, resource references,
    bin thresholds), rule inventory, then KEY<TAB>WEIGHT lines."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("#model\tv1\n")
        out.write("#features\t" + json.dumps(vars(model.config)) + "\n")
        if model.lm_bins is not None:
            out.write("#lmbins\t" + json.dumps({
                "thresholds": list(model.lm_bins.thresholds),
                "mu": model.lm_bins.mu, "sigma": model.lm_bins.sigma,
                "path": lm_path,
            }) + "\n")
        if model.freq_bins is not None:
            out.write("#freqbins\t" + json.dumps({
                "thresholds": list(model.freq_bins.thresholds),
                "path": lexicon_path,
            }) + "\n")
        for rule in sorted(model.rules):
            out.write("#rule\t" + json.dumps(
                [_plain(rule.source), _plain(rule.target)], ensure_ascii=False
            ) + "\n")
        names = model.alphabet.names
        for key in sorted(model.weights, key=lambda i: repr(names[i])):
            w = model.weights[key]
            if w != 0.0:
                name = json.dumps(_plain(names[key]), ensure_ascii=False)
                out.write(f"{name}\t{w!r}\n")


def load_model(path):
    """Read a model file; returns (model, resource_refs) where the refs
    hold any lm/lexicon paths recorded at save time.  The model has no LM
    or trie until the caller loads them from those paths.  A bad line
    raises ParseError with its number and path."""
    head = {"config": FeatureConfig()}
    rules = set()
    weights = {}
    alphabet = Alphabet()
    refs = {}

    def parse(line):
        tag, _, rest = line.partition("\t")
        try:
            if tag == "#features":
                head["config"] = FeatureConfig(**json.loads(rest))
            elif tag == "#lmbins":
                blob = json.loads(rest)
                head["lm_bins"] = BinConfig(
                    tuple(blob["thresholds"]), blob["mu"], blob["sigma"]
                )
                refs["lm"] = blob.get("path")
            elif tag == "#freqbins":
                blob = json.loads(rest)
                head["freq_bins"] = FreqBinConfig(tuple(blob["thresholds"]))
                refs["lexicon"] = blob.get("path")
            elif tag == "#rule":
                src_t, tgt_t = json.loads(rest)
                rules.add(Rule(tuple(src_t), tuple(tgt_t)))
            else:
                weights[alphabet[_tupled(json.loads(tag))]] = float(rest)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad model line: {exc}") from exc

    with open(path, encoding="utf-8") as src:
        if src.readline().rstrip("\n") != "#model\tv1":
            raise ValueError(f"{path}: not a model file")
        with reading(path):
            parse_lines(src, parse, start=2)
    model = Model(weights=weights, rules=frozenset(rules), alphabet=alphabet, **head)
    return model, refs


def format_nbest(source, candidates):
    """N-best lines: SOURCE<TAB>RANK<TAB>OUTPUT<TAB>SCORE."""
    src = " ".join(source)
    if not candidates:
        return [f"{src}\t0\t\tNaN"]
    return [
        f"{src}\t{rank}\t{' '.join(c.output)}\t{c.score:.6f}"
        for rank, c in enumerate(candidates, start=1)
    ]
