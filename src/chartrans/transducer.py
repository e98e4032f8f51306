"""Semi-Markov discriminative transducer.

Rules rewrite a non-empty source span into a target span (possibly
empty).  Decoding tiles the source with rules under a beam, scoring each
step with sparse indicator features: the rule itself, source context
n-grams around the application point, target n-grams of the growing
output, joint rule n-grams, a copy indicator, and (when corpus resources
are attached) cumulative language-model and frequency bin features
computed on the output prefix.

A step's features are three parts, each reading less than the last: the
rule part (R, C; _rule_features) reads only the position and rule, the
history part (T, J, COPY; _history_features) only the beam's merge state
and the rule, and the corpus part (LMB, FQB; _CorpusScorer.step) the
output's length and the LM sum, tail and trie node the derivation
carries.  A part is a tuple of feature ids, each an indicator valued 1.0,
so weighing it adds its ids' weights.  The model memoises the history
part per (merge state, rule); train memoises the rule part per (source,
position, rule) for its run only (Model.rule_parts).  Outside train no
rule part is memoised: within one call no (position, rule) comes twice.
decode_nbest is the one step builder: it strings the parts together in
the beam, and, given a derivation, such as a gold one, forces the beam
along it (derivation_features, gold_candidate), so a derivation is built
and scored as the beam builds and scores any other.  A beam hypothesis
is one flat tuple, (-score, output, rules, LM sum, LM tail, trie node,
trail), which sorts and compares as a tuple, with no key function: the
outputs within a merge state are distinct, and so are the rules across
merge states, so the first three fields always decide, and the order is
score descending, then output, then rules.  Every part is weighed by the
same left fold as _dot, so each step score keeps _dot's bits.
Candidates keep their hypothesis's trail of parts and sum it only when
their features are read.  Training is online large-margin (MIRA) against
the k-best list, with optional weight averaging; MIRA subtracts each
candidate's trail from the gold features part by part, so training sums
only the gold derivations.

A Model is frozen and builds its rule index and _CorpusScorer once;
training updates its weights in place.

Features are named by tuples (template tag first), such as
("C", offset, ngram, source, target), but every feature vector, the
weights and MIRA's averaging sums are keyed by int ids: each Model holds
an Alphabet that gives a name its id the first time the name is built
and keeps it, so a lookup hashes an int instead of a nested tuple.  Names
appear only in model files, as JSON arrays, so arbitrary symbols never
collide; save_model writes them in repr order and load_model interns
them, so no output depends on the value of an id.  A loaded model's
alphabet is read-only: a name no weight has gets one shared id, so
decoding never grows it, and a part may list that id more than once
(each copy adds 0.0).  Its feature-id index (_ids_by_rule) gives each
rule's R and C ids without building a name.  It is built from the names
when the model builds its first rule part and kept with the alphabet, so
every model replace makes from it shares the index; it holds ids, never
weights, so it never needs rebuilding, and never grows.
"""

import json
import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import repeat

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
        """The trail's feature parts, first step first; read only while the
        features are not yet known."""
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
    keeps its id.  Once read_only() is called, the alphabet takes no new
    name: alphabet[name] answers every name it lacks with one id, unknown,
    which no weight holds and names[unknown] names as None, so such a name
    adds 0.0 to a score.
    by_rule holds a read-only alphabet's _ids_by_rule, None until built."""

    __slots__ = ("names", "unknown", "by_rule")

    def __init__(self):
        super().__init__()
        self.names = []
        self.unknown = None
        self.by_rule = None

    def __missing__(self, name):
        if self.unknown is not None:
            return self.unknown
        i = self[name] = len(self.names)
        self.names.append(name)
        return i

    def read_only(self):
        self.unknown = len(self.names)
        self.names.append(None)


@dataclass(frozen=True)
class Model:
    """Weights, rules, feature configuration and corpus resources (LM,
    trie and their bins).  Frozen: dataclasses.replace builds a changed
    model.  Built once, at construction: index, the rules by source in
    sorted order; max_source, the longest source; scorer, the
    _CorpusScorer of the resources in use.

    weights is keyed by feature id; alphabet names the ids, and replace
    carries it along, so a replaced model reads the same weights the same
    way.  weights is the one part training changes, in place.  While
    training, alphabet grows whenever a step builds a feature name it has
    not seen; a loaded model's alphabet is read-only, so decoding adds no
    names.  The history memo fills as steps are scored."""

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
    # None but inside train, which drops it before returning:
    # (source, position, rule source, rule target) -> rule part.
    rule_parts: dict = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "rule_parts", None)

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


@cache
def _spans(c, n, left, right):
    """The (offset, end offset) of each n-gram _contexts lists, for
    context_window c and max_source_ngram n, at a position with left
    symbols before it and right from it on, clipped to c and c + n, past
    which they change nothing."""
    return tuple(
        (off, off + length)
        for off in range(-left, c + 1)
        for length in range(1, min(n, c - off + 1, right - off) + 1)
    )


def _contexts(x, pos, cfg):
    """The (offset, source n-gram) pairs the C features at pos name, by
    offset, then length: each n-gram of up to max_source_ngram symbols
    that starts within context_window of pos, ends at most context_window
    past it and lies inside x.  Which offsets these are depends only on
    how near pos lies to each end of x, so _spans lists them once."""
    c, n = cfg.context_window, cfg.max_source_ngram
    spans = _spans(c, n, min(pos, c), min(len(x) - pos, c + n))
    return [(off, x[pos + off : pos + end]) for off, end in spans]


def _ids_by_rule(ids):
    """The read-only alphabet ids' R and C ids by rule: (source, target) ->
    {(): R id, (offset, n-gram): C id}, each id keyed by its name less the
    tag and the rule.  Built from ids.names on first use and kept in
    ids.by_rule."""
    if ids.by_rule is None:
        index = ids.by_rule = {}
        for i, name in enumerate(ids.names):
            if name and (name[0], len(name)) in (("R", 3), ("C", 5)):
                index.setdefault(name[-2:], {})[name[1:-2]] = i
    return ids.by_rule


def _rule_features(contexts, rule, model):
    """R and C features of applying rule where _contexts gave contexts: the
    rule itself and the source n-grams around the application point.  They
    read only (position, rule), so the beam search computes them once per
    call, from one contexts list per position, and train once per run.  A
    read-only alphabet gives the same ids through _ids_by_rule."""
    ids, source, target = model.alphabet, rule.source, rule.target
    unknown = ids.unknown
    if unknown is None:
        return (ids["R", source, target],
                *[ids["C", off, gram, source, target] for off, gram in contexts])
    row = _ids_by_rule(ids).get((source, target), {})
    return (row.get((), unknown), *map(row.get, contexts, repeat(unknown)))


def _history_features(head, recent, rule, model):
    """(T, J and COPY features, merge state after the step) of applying
    rule after an output whose last target_order symbols are head and
    whose last rules' pairs are recent: the beam's merge state (head,
    recent), which is all the features read.  The merge state after is
    (the new output's last target_order symbols, the new recent pairs)."""
    cfg = model.config
    names = []
    tail = head + rule.target
    for m in range(1, cfg.target_order + 1):
        if len(tail) >= m:
            names.append(("T", tail[-m:]))
    seq = recent + ((rule.source, rule.target),)
    for j in range(1, cfg.joint_order + 1):
        if len(seq) >= j:
            names.append(("J", seq[-j:]))
    if cfg.copy_feature and rule.source == rule.target:
        names.append(("COPY",))
    j_keep = cfg.joint_order - 1
    merge = tail[-cfg.target_order:], seq[-j_keep:] if j_keep else ()
    ids = model.alphabet
    return tuple([ids[name] for name in names]), merge


_END = (EOS,)


class _CorpusScorer:
    """The corpus part (LMB, FQB) of a step, for one model's resources.

    The LMB bins a score fires are a contiguous run of threshold indices,
    and so are the FQB bins a count fires, so each possible run is built
    once here, from lm_bin_features and freq_bin_features, which stay the
    definition of what fires; a step picks its run by threshold index.
    Each LMB run and FQB run is merged into one part, LMB ids first, by
    (LM index, frequency index); a step with no corpus feature gets ().
    start is the corpus state every derivation begins in, the empty
    output's: (LM sum 0.0, LM history tail or None, trie root or None)."""

    def __init__(self, model):
        ids = model.alphabet
        self.lm = model.lm if model.uses_lm else None
        self.trie = model.trie if model.uses_freq else None
        lm_parts = freq_parts = [()]
        if self.lm is not None:
            bins = model.lm_bins
            # Index k < catch_all: thresholds[k] is the highest threshold
            # at or below the score, found by bisecting the negated
            # (increasing) thresholds; k = catch_all: none is.
            self._neg_thresholds = [-t for t in bins.thresholds]
            lm_parts = [
                tuple([ids["LMB", i] for i in sorted(lm_bin_features(score, bins))])
                for score in (*bins.thresholds, float("-inf"))
            ]
        if self.trie is not None:
            bins = model.freq_bins
            # Index k: the k lowest thresholds are at or below a positive
            # count; the last index is the zero count's.
            self._freq_thresholds = bins.thresholds
            freq_parts = [
                tuple([ids["FQB", i] for i in sorted(freq_bin_features(count, bins))])
                for count in (bins.thresholds[0] / 2, *bins.thresholds, 0)
            ]
        self._merged = [[a + b for b in freq_parts] for a in lm_parts]
        tail = history_tail(self.lm, ()) if self.lm is not None else None
        self.start = (0.0, tail, self.trie)

    def step(self, n_out, target, lm_sum, tail, node, final):
        """(LMB and FQB features, new LM sum, new LM tail, new trie node)
        of emitting target after an output of n_out symbols whose LM sum,
        tail and trie node these are: the sum, tail and node move on by
        target alone."""
        if not (n_out or target):
            return (), lm_sum, tail, node
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
                count = node[1] if final else node[0]
            freq_idx = bisect_right(self._freq_thresholds, count) if count else -1
        return self._merged[lm_idx][freq_idx], lm_sum, tail, node


def _dot(weights, feats, total=0):
    """total plus the weighted features (a dict, or a part: its ids add
    their weights, as w * 1.0 is w), one key at a time in order.  A left
    fold, so _dot(w, b, _dot(w, a)) is _dot(w, a | b) bit for bit."""
    if type(feats) is dict:
        for k, v in feats.items():
            total += weights.get(k, 0.0) * v
        return total
    for k in feats:
        total += weights.get(k, 0.0)
    return total


def _summed(parts):
    """Features of a derivation's feature parts, 1.0 per id, summed in step
    order, so key order and float sums do not depend on who built them."""
    feats = {}
    for part in parts:
        for k in part:
            feats[k] = feats.get(k, 0.0) + 1.0
    return feats


def derivation_features(x, derivation, model):
    """(Summed step features of a full derivation, keyed by feature id,
    output): the one candidate of decode_nbest forced along derivation,
    its trail summed as any decoded candidate's is.  Raises ValueError
    when the derivation's source spans do not spell x."""
    cand, = decode_nbest(x, model, 1, 1, derivation=derivation)
    return cand.features, cand.output


def gold_candidate(x, derivation, model):
    """The candidate of derivation applied to x, such as a gold one for
    mira_update: derivation_features' features and output, scored as
    _dot(model.weights, features)."""
    feats, out = derivation_features(x, derivation, model)
    return Candidate(out, tuple(derivation), _dot(model.weights, feats), feats)


def decode_nbest(x, model, beam_width, n, *, derivation=None):
    """Beam n-best decode: distinct outputs, score-descending, ties broken
    by lexicographic output, then by rules.

    States merge on (source position, last target_order output symbols,
    last joint_order - 1 rules); the symbol window is one longer than the
    highest target n-gram needs after a non-empty emission, so step
    features stay a pure function of the state even across empty-target
    (deletion) rules.  Each state keeps its n best distinct outputs and
    each position keeps its beam_width best states.  Keeping n outputs
    per state is exact only with corpus features off: the merge state
    holds no LM sum, tail or trie node, so with them on two outputs of one
    state score differently later, and at n = 1 the one kept is often not
    the one that would have won (on the lexicon bench workloads, 8 to 10
    points of word accuracy).  With corpus features off and a beam at
    least the state count, the result matches exhaustive enumeration.

    derivation, a sequence of rules, forces the decode: each position it
    reaches offers only its rule there, so the one candidate returned is
    that derivation, scored and built step by step as the beam builds any
    other.  It raises ValueError when the derivation's source spans do not
    spell x.  derivation_features reads a derivation this way, so a step
    is built and weighed in this one place.

    A hypothesis is one flat tuple, (-score, output, rules, LM sum, LM
    tail, trie node, trail), whose natural order is the beam's: score
    descending, then output, then rules.  The first three fields always
    decide: within a state's group the outputs are distinct, and two
    groups never hold the same rules, since the rules fix the merge state.
    So every sort and comparison runs in C, with no key function.  A step
    whose parts weigh total stores -(total - (-score)): it negates after
    adding, since -score - total, equal in value, can differ in the sign
    of a zero.

    Each step is scored from its three parts, each where it is first
    known: the rule part once per (position, rule), from the position's
    source contexts listed once (inside train, from its memo), weighed in
    a table that lives for this call only, under this call's weights; the
    history part once per (state, rule), in the model's history memo; the
    corpus part per hypothesis, from the LM sum, tail and trie node it
    carries, starting at the scorer's start.  Each part is weighed inline
    by the same left fold as _dot, continuing the last part's sum, so the
    step score is _dot's bit for bit.  A candidate's features are the
    trail of parts its hypothesis carried, summed when first read, so no
    derivation is scored twice and none is summed unless asked for;
    mira_update reads the trail without summing it.
    """
    if n < 1 or beam_width < n:
        raise ValueError("need beam >= n >= 1")
    x = tuple(x)
    size = len(x)
    index, cfg = model.index, model.config
    max_src = max(model.max_source, 1)
    weight = model.weights.get
    corpus_step = model.scorer.step
    memo, histories = model.rule_parts, model.history
    # forced[t]: the derivation's rule at each position it reaches.
    forced = {}
    if derivation is not None:
        pos = 0
        for step, rule in enumerate(derivation):
            end = pos + len(rule.source)
            if x[pos:end] != rule.source:
                raise ValueError(f"step {step} rewrites {rule.source}, not x[{pos}:{end}]")
            forced[pos], pos = [rule], end
        if pos != size:
            raise ValueError("derivation does not tile the source")

    # beams[t]: merge state (last target_order output symbols, recent rule
    # pairs) -> {output: hypothesis}, so equal-output hypotheses of one
    # state collapse.
    beams = [{} for _ in range(size + 1)]
    beams[0][((), ())] = {(): (-0.0, (), (), *model.scorer.start, None)}

    for t in range(size):
        if not beams[t]:
            continue
        ranked = sorted([(sorted(group.values())[:n], merge) for merge, group in beams[t].items()])
        matches = forced.get(t)
        if matches is None:
            matches = []
            for length in range(1, min(max_src, size - t) + 1):
                matches.extend(index.get(x[t : t + length], ()))
            if not matches:
                matches = [Rule((x[t],), (x[t],))]
        contexts = None if memo is not None else _contexts(x, t, cfg)
        table = []
        for rule in matches:
            source, target = rule.source, rule.target
            if memo is None:
                static = _rule_features(contexts, rule, model)
            else:
                key = x, t, source, target
                static = memo.get(key)
                if static is None:
                    contexts = contexts or _contexts(x, t, cfg)
                    static = memo[key] = _rule_features(contexts, rule, model)
            static_sum = 0.0  # _dot's fold from 0: 0.0 + w is 0 + w
            for k in static:
                static_sum += weight(k, 0.0)
            end = t + len(source)
            table.append((rule, (rule,), (source, target), target, static, static_sum,
                          beams[end], end == size))
        for items, merge in ranked[:beam_width]:
            # Every hypothesis of a state shares what the history part reads.
            row = histories.setdefault(merge, {})
            for rule, step_rule, pair, target, static, static_sum, beam, final in table:
                part = row.get(pair)
                if part is None:
                    part = row[pair] = _history_features(*merge, rule, model)
                history, after = part
                partial = static_sum
                for k in history:
                    partial += weight(k, 0.0)
                group = beam.get(after)
                if group is None:
                    group = beam[after] = {}
                for neg, out, rules, lm_sum, tail, node, trail in items:
                    corpus, lm_sum, tail, node = corpus_step(
                        len(out), target, lm_sum, tail, node, final
                    )
                    total = partial
                    for k in corpus:
                        total += weight(k, 0.0)
                    out += target
                    item = (-(total - neg), out, rules + step_rule, lm_sum, tail, node,
                            (trail, static, history, corpus))
                    old = group.setdefault(out, item)
                    # not old <= item, so a NaN score replaces the old one
                    if old is not item and not old <= item:
                        group[out] = item
    finals = {}
    for group in beams[size].values():
        for out, item in group.items():
            old = finals.get(out)
            if old is None or item < old:
                finals[out] = item
    return [
        Candidate(out, rules, -neg, trail=trail)
        for neg, out, rules, _, _, _, trail in sorted(finals.values())[:n]
    ]


def _cores(a, b):
    """a and b without their common prefix and suffix, which leaves their
    edit distance as it is."""
    shorter = min(len(a), len(b))
    i = 0
    while i < shorter and a[i] == b[i]:
        i += 1
    j = 0
    while j < shorter - i and a[-1 - j] == b[-1 - j]:
        j += 1
    return a[i : len(a) - j], b[i : len(b) - j]


def loss(gold_output, cand_output, kind="levenshtein"):
    """Zero-one or unit-cost symbol edit distance; the edit-distance table
    covers only the two outputs' _cores."""
    if kind == "zero-one":
        return 0.0 if tuple(gold_output) == tuple(cand_output) else 1.0
    if kind != "levenshtein":
        raise ValueError(f"unknown loss {kind!r}")
    a, b = _cores(tuple(gold_output), tuple(cand_output))
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
    the two outputs' _cores."""
    if kind == "zero-one":
        return 1.0
    if kind != "levenshtein":
        raise ValueError(f"unknown loss {kind!r}")
    return float(max(map(len, _cores(gold_output, cand_output))))


def mira_update(weights, gold, candidates, c, loss_kind="levenshtein", avg=None):
    """Margin-infused update against each violating candidate, in score
    order: step the weights by the smallest tau <= C restoring a margin
    of loss(candidate); an unclipped step makes the constraint tight.

    A candidate's difference vector is built in one walk: the gold
    features, less 1.0 per id of the candidate's trail parts in step order
    (Candidate._parts), so a decoded candidate's trail is read, never
    summed; a candidate with explicit features subtracts them instead.  Its
    key order is gold keys, then candidate-only keys as they first appear.
    That is the gold features less the summed candidate features bit for
    bit: a trail part is a tuple of ids, so when the gold values are whole
    numbers, as gold_candidate's are, every partial difference is an exact
    integer; explicit features are subtracted in one pass, exact for any
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
        if cand._features is None:
            for part in cand._parts():
                for k in part:
                    diff[k] = get(k, 0.0) - 1.0
        else:
            for k, v in cand._features.items():
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
    timestamps, so it costs O(updates), not O(steps x features).  Rule
    parts read no weight, so the run builds each once, in a memo
    (Model.rule_parts) that it drops before returning.
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
    object.__setattr__(model, "rule_parts", {})
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
    object.__setattr__(model, "rule_parts", None)
    if cfg.averaging and step > 0:
        model = replace(model, weights={
            k: w - u.get(k, 0.0) / step for k, w in model.weights.items()
        })
    return model


def _accuracy(model, instances, beam):
    best = [decode_nbest(inst.source, model, beam, 1) for inst in instances]
    return word_accuracy([c[0].output if c else None for c in best], instances)


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
                [rule.source, rule.target], ensure_ascii=False
            ) + "\n")
        names = model.alphabet.names
        for key in sorted(model.weights, key=lambda i: repr(names[i])):
            w = model.weights[key]
            if w != 0.0:
                name = json.dumps(names[key], ensure_ascii=False)
                out.write(f"{name}\t{w!r}\n")


def load_model(path):
    """Read a model file; returns (model, resource_refs) where the refs
    hold any lm/lexicon paths recorded at save time.  The model has no LM
    or trie until the caller loads them from those paths.  Its alphabet is
    read-only: it names the weights only.  A bad line raises ParseError
    with its number and path."""
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
    alphabet.read_only()
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
