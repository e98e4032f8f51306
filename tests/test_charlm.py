import math
import random
from statistics import mean, pstdev

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chartrans.charlm import (
    BIN_SPREAD,
    BIN_STEP,
    BOS,
    EOS,
    BinConfig,
    CharLM,
    extend_score,
    history_tail,
    lm_bin_features,
    load_charlm,
    make_bins,
    save_charlm,
    score_prefix,
    train_charlm,
)

from toytask import brute_ngram_tables, witten_bell


def test_counts_single_word():
    lm = train_charlm([("a", "b")], 2)
    assert lm.tables[1][("a",)] == {"b": 1}
    assert lm.tables[1][("b",)] == {EOS: 1}
    assert lm.tables[1][(BOS,)] == {"a": 1}


def test_type_deduplication():
    once = train_charlm([("a", "b")], 2)
    twice = train_charlm([("a", "b"), ("a", "b")], 2)
    assert once.tables == twice.tables


def test_unigram_model():
    lm = train_charlm([("a",)], 1)
    assert lm.alphabet == frozenset({"a"})
    assert lm.prob((), "a") + lm.prob((), EOS) == pytest.approx(1.0)


def test_order_validation():
    with pytest.raises(ValueError):
        train_charlm([("a",)], 0)
    with pytest.raises(ValueError):
        train_charlm([], 2)


def test_witten_bell_hand_computed():
    # corpus {ab, ac}: P1(b) = (1 + 4/4) / (6 + 4), P(b|a) = (1 + 2 P1(b)) / 4
    lm = train_charlm([("a", "b"), ("a", "c")], 2)
    p1_b = (1 + 4 * 0.25) / (6 + 4)
    assert lm.prob((), "b") == pytest.approx(p1_b, abs=1e-12)
    assert lm.prob(("a",), "b") == pytest.approx((1 + 2 * p1_b) / 4, abs=1e-12)


def test_unseen_history_backs_off_exactly():
    lm = train_charlm([("a", "b"), ("a", "c")], 2)
    for sym in ("a", "b", "c", EOS):
        assert lm.prob(("q",), sym) == lm.prob((), sym)


def test_normalization_at_every_seen_history():
    rng = random.Random(3)
    words = [
        tuple(rng.choice("abc") for _ in range(rng.randint(1, 5)))
        for _ in range(30)
    ]
    lm = train_charlm(words, 3)
    support = sorted(lm.alphabet) + [EOS]
    for table in lm.tables:
        for history in table:
            total = sum(lm.prob(history, w) for w in support)
            assert total == pytest.approx(1.0, abs=1e-9)


def test_unknown_symbol_gets_base_mass():
    lm = train_charlm([("a", "b")], 2)
    p = lm.prob((), "never-seen")
    assert 0.0 < p <= lm._base + 1e-12


def test_unk_mass_lies_outside_the_normalised_distribution():
    # alphabet + EOS sum to 1 at every history; an unseen symbol gets its
    # interpolated base mass on top, pinned here at its hand-computed value:
    # corpus {ab, ac}, base 1/4, P1(unk) = 4 * 1/4 / (6 + 4), then
    # P(unk|a) = 2 * P1(unk) / 4 and P(unk|<s>) = 1 * P1(unk) / (2 + 1)
    lm = train_charlm([("a", "b"), ("a", "c")], 2)
    support = sorted(lm.alphabet) + [EOS]
    p1 = 4 * 0.25 / (6 + 4)
    pinned = {(): p1, ("a",): 2 * p1 / 4, ("b",): 2 * p1 / 4, ("c",): 2 * p1 / 4,
              (BOS,): p1 / 3, ("q",): p1}
    for history, unseen in pinned.items():
        assert abs(sum(lm.prob(history, w) for w in support) - 1.0) <= 1e-12
        assert lm.prob(history, "never-seen") == pytest.approx(unseen, abs=1e-15)
    rng = random.Random(4)
    words = [tuple(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
             for _ in range(40)]
    lm = train_charlm(words, 3)
    support = sorted(lm.alphabet) + [EOS]
    for _ in range(50):
        history = tuple(rng.choice("abcdq" + BOS) for _ in range(rng.randint(0, 3)))
        assert abs(sum(lm.prob(history, w) for w in support) - 1.0) <= 1e-12
        assert lm.prob(history, "never-seen") > 0.0


def test_dropping_top_order_reduces_to_lower_model():
    words = [("a", "b", "c"), ("a", "c"), ("b", "a")]
    lm3 = train_charlm(words, 3)
    lm2 = train_charlm(words, 2)
    lm3.tables[2].clear()
    for h in [("a",), ("b",), ("c",), (BOS,)]:
        for w in ["a", "b", "c", EOS]:
            assert lm3.prob((BOS,) + h, w) == pytest.approx(
                lm2.prob(h, w), abs=1e-12
            )


def test_score_prefix_uniform_base():
    # an untrained top order backs off to the uniform base: log10(1/k)
    # with k the alphabet plus the end sentinel
    lm = CharLM(1, {"a", "b", "c"}, [{}])
    assert score_prefix(lm, ("a",)) == pytest.approx(math.log10(1 / 4))


def test_score_prefix_transition_counts():
    lm = train_charlm([("a", "b"), ("b", "a")], 2)
    prefix = ("a", "b")
    incomplete = score_prefix(lm, prefix, complete=False)
    complete = score_prefix(lm, prefix, complete=True)
    logs = [
        lm.logprob((BOS,), "a"),
        lm.logprob(("a",), "b"),
    ]
    assert incomplete == pytest.approx(sum(logs) / 2, abs=1e-12)
    logs.append(lm.logprob(("b",), EOS))
    assert complete == pytest.approx(sum(logs) / 3, abs=1e-12)


def test_score_prefix_decomposes_incrementally():
    rng = random.Random(8)
    words = [
        tuple(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
        for _ in range(25)
    ]
    lm = train_charlm(words, 4)
    for _ in range(20):
        w = tuple(rng.choice("abcd") for _ in range(rng.randint(2, 8)))
        m = rng.randint(1, len(w) - 1)
        s_m = score_prefix(lm, w[:m])
        s_full = score_prefix(lm, w)
        logsum, n = extend_score(lm, s_m * m, w[:m], w[m:])
        assert s_full == pytest.approx(logsum / n, abs=1e-12)
        # the running sum path is bit-identical to scoring from scratch
        scratch_sum, _ = extend_score(lm, 0.0, (), w)
        assert logsum == scratch_sum


def test_score_prefix_rejects_empty():
    lm = train_charlm([("a",)], 1)
    with pytest.raises(ValueError):
        score_prefix(lm, ())


def test_corpus_words_score_above_random_on_average():
    rng = random.Random(9)
    alphabet = "abcdefgh"
    words = [
        tuple(rng.choice("abcd") for _ in range(rng.randint(3, 6)))
        for _ in range(60)
    ]
    lm = train_charlm(words, 3)
    corpus_mean = sum(score_prefix(lm, w, complete=True) for w in words) / len(words)
    randoms = [
        tuple(rng.choice(alphabet) for _ in range(rng.randint(3, 6)))
        for _ in range(200)
    ]
    random_mean = sum(score_prefix(lm, w, complete=True) for w in randoms) / len(randoms)
    assert corpus_mean > random_mean


class FlatLM:
    """Stub order-2 model that reads only the one history symbol a model
    of that order is given: a symbol scores its own value, and the end of
    the word scores the value of the last history symbol."""

    order = 2

    def __init__(self, value_by_symbol):
        self.values = value_by_symbol

    def logprob(self, history, nxt):
        (last,) = history
        return self.values[last] if nxt == EOS else self.values[nxt]

    def advance(self, logsum, tail, suffix):
        for sym in suffix:
            logsum += self.logprob(tail, sym)
            tail = (sym,)
        return logsum, tail


def test_flat_stub_scores_a_word_of_distinct_symbols():
    # a scores -1, b scores -2, and the end after b scores -2 again
    lm = FlatLM({"a": -1.0, "b": -2.0})
    assert score_prefix(lm, ("a", "b"), complete=True) == pytest.approx(-5 / 3)
    assert score_prefix(lm, ("b", "a"), complete=True) == pytest.approx(-4 / 3)


def test_make_bins_arithmetic():
    # words scoring exactly -1 and -2: mu -1.5, sigma 0.5, 7 thresholds
    lm = FlatLM({"a": -1.0, "b": -2.0})
    bins = make_bins(lm, [("a",), ("b",)])
    assert bins.mu == pytest.approx(-1.5)
    assert bins.sigma == pytest.approx(0.5)
    assert bins.thresholds == pytest.approx(
        (-0.75, -1.0, -1.25, -1.5, -1.75, -2.0, -2.25)
    )


def test_make_bins_seven_thresholds_decreasing():
    rng = random.Random(10)
    words = [
        tuple(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
        for _ in range(40)
    ]
    lm = train_charlm(words, 2)
    bins = make_bins(lm, words)
    assert len(bins.thresholds) == 7
    assert all(a > b for a, b in zip(bins.thresholds, bins.thresholds[1:]))


def test_make_bins_degenerate_sigma():
    lm = FlatLM({"a": -1.0})
    bins = make_bins(lm, [("a",), ("a", "a")])
    assert bins.thresholds == (-1.0,)
    assert bins.sigma == 0.0


def test_make_bins_with_a_spread_of_a_few_ulps_gives_one_bin():
    # The two words score 2 ulps apart: the seven thresholds round together.
    lm = train_charlm(["ababb", "abbab"], 4)
    bins = make_bins(lm, ["ababb", "abbab"])
    assert 0.0 < bins.sigma < 1e-15
    assert bins.thresholds == (bins.mu,)


WORKED_BINS = BinConfig(
    (-0.9, -0.975, -1.05), mu=-0.975, sigma=0.05
)


def test_bin_firing_worked_example():
    # a score of -0.85 crosses every listed threshold
    assert lm_bin_features(-0.85, WORKED_BINS) == {0, 1, 2}


def test_bin_firing_extremes():
    assert lm_bin_features(0.0, WORKED_BINS) == {0, 1, 2}
    assert lm_bin_features(-5.0, WORKED_BINS) == {WORKED_BINS.catch_all}
    # between thresholds: only the ones at or below fire
    assert lm_bin_features(-1.0, WORKED_BINS) == {2}


def test_bin_firing_monotone_nesting():
    rng = random.Random(12)
    bins = BinConfig(tuple(-0.2 * k for k in range(1, 8)), mu=-0.8, sigma=0.2)
    for _ in range(300):
        s1, s2 = rng.uniform(-2, 0.5), rng.uniform(-2, 0.5)
        if s1 < s2:
            s1, s2 = s2, s1
        f1 = lm_bin_features(s1, bins) - {bins.catch_all}
        f2 = lm_bin_features(s2, bins) - {bins.catch_all}
        assert f2 <= f1


def test_bin_config_requires_decreasing():
    with pytest.raises(ValueError):
        BinConfig((-1.0, -0.5), mu=0.0, sigma=1.0)


def test_save_load_round_trip(tmp_path):
    rng = random.Random(13)
    words = [
        tuple(rng.choice("abcé") for _ in range(rng.randint(1, 5)))
        for _ in range(30)
    ]
    lm = train_charlm(words, 4)
    path = tmp_path / "model.lm"
    save_charlm(lm, path)
    again = load_charlm(path)
    assert again.order == lm.order
    assert again.alphabet == lm.alphabet
    assert again.tables == lm.tables
    for _ in range(20):
        w = tuple(rng.choice("abcéq") for _ in range(rng.randint(1, 5)))
        assert score_prefix(again, w, complete=True) == score_prefix(
            lm, w, complete=True
        )


# symbols the model never saw map to UNK; BOS may stand inside a history
_SEEN = ["a", "b", "c", "d"]
_ASKED = _SEEN + ["x", "yz", EOS]


def _padded_sum(lm, logsum, prefix, suffix):
    """The from-scratch sum: each transition of suffix scored by the
    Witten-Bell recursion on the whole BOS-padded history, no memo."""
    history = [BOS] * (lm.order - 1) + list(prefix)
    for sym in suffix:
        logsum += math.log10(lm.prob(history, sym))
        history.append(sym)
    return logsum


def _random_lm(rng, order):
    words = [
        tuple(rng.choice(_SEEN) for _ in range(rng.randint(1, 6)))
        for _ in range(30)
    ]
    return train_charlm(words, order)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_memoised_logprob_is_the_witten_bell_value(order):
    # histories shorter and longer than order - 1, with unseen symbols;
    # the second pass reads every value from the memo
    rng = random.Random(40 + order)
    lm = _random_lm(rng, order)
    queries = [
        (
            tuple(rng.choice(_ASKED[:-1] + [BOS]) for _ in range(rng.randint(0, 6))),
            rng.choice(_ASKED),
        )
        for _ in range(300)
    ]
    for _ in range(2):
        for history, sym in queries:
            assert lm.logprob(history, sym) == math.log10(lm.prob(history, sym))
            assert lm.logprob(list(history), sym) == lm.logprob(history, sym)
    # the memo is keyed on what prob reads: at most order - 1 symbols, so
    # an order-1 model keys every history as ()
    assert all(len(h) <= order - 1 for h in lm._memo)
    if order == 1:
        assert set(lm._memo) == {()}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_extend_score_from_carried_tail_is_the_padded_sum(order):
    rng = random.Random(50 + order)
    lm = _random_lm(rng, order)
    for _ in range(200):
        prefix = tuple(rng.choice(_ASKED[:-1]) for _ in range(rng.randint(0, 6)))
        suffix = tuple(rng.choice(_ASKED[:-1]) for _ in range(rng.randint(0, 4)))
        start = rng.uniform(-5.0, 0.0)
        want = _padded_sum(lm, start, prefix, suffix)
        assert extend_score(lm, start, prefix, suffix) == (
            want, len(prefix) + len(suffix)
        )
        tail = history_tail(lm, prefix)
        assert len(tail) == order - 1
        assert tail == ((BOS,) * (order - 1) + prefix)[len(prefix):]
        assert extend_score(lm, start, tail, suffix)[0] == want
        word = prefix + suffix
        if word:
            complete = _padded_sum(lm, 0.0, (), word + (EOS,))
            assert score_prefix(lm, word, complete=True) == complete / (len(word) + 1)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_advance_is_extend_score_over_the_carried_tail(order):
    rng = random.Random(60 + order)
    lm = _random_lm(rng, order)
    for _ in range(200):
        prefix = tuple(rng.choice(_ASKED[:-1]) for _ in range(rng.randint(0, 6)))
        suffix = tuple(rng.choice(_ASKED) for _ in range(rng.randint(0, 4)))
        start = rng.uniform(-5.0, 0.0)
        assert lm.advance(start, history_tail(lm, prefix), suffix) == (
            extend_score(lm, start, prefix, suffix)[0],
            history_tail(lm, prefix + suffix),
        )


def _oracle_sum(lm, logsum, prefix, suffix):
    """(logsum plus each transition of suffix after the BOS-padded prefix,
    scored by the witten_bell oracle, tail after suffix), added in order."""
    seq = (BOS,) * (lm.order - 1) + tuple(prefix)
    for sym in suffix:
        logsum += math.log10(witten_bell(lm, seq, sym))
        seq += (sym,)
    return logsum, seq[len(seq) - lm.order + 1:]


def _oracle_bins(lm, words):
    """(thresholds, mu, sigma) of the distinct words' oracle scores."""
    scores = [_oracle_sum(lm, 0.0, (), w + (EOS,))[0] / (len(w) + 1)
              for w in dict.fromkeys(map(tuple, words))]
    mu, sigma = mean(scores), pstdev(scores)
    thresholds = tuple(mu + k * BIN_STEP * sigma for k in range(BIN_SPREAD, -BIN_SPREAD - 1, -1))
    if len(set(thresholds)) < len(thresholds):
        thresholds = (mu,)
    return thresholds, mu, sigma


def _bits(value):
    """value with every float spelled by float.hex, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(map(_bits, value))
    return value


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_every_score_is_the_witten_bell_oracle_bit_for_bit(order):
    # histories shorter and longer than order - 1, BOS inside a history,
    # and symbols outside the alphabet; each check runs on a fresh LM, then
    # again on the same LM, where every value comes from the memo
    rng = random.Random(70 + order)
    words = [tuple(rng.choice(_SEEN) for _ in range(rng.randint(1, 6))) for _ in range(30)]
    histories = [tuple(rng.choice(_ASKED[:-1] + [BOS]) for _ in range(rng.randint(0, 7)))
                 for _ in range(150)]
    queries = [(h, rng.choice(_ASKED)) for h in histories]
    paths = [(tuple(rng.choice(_ASKED[:-1]) for _ in range(rng.randint(0, 6))),
              tuple(rng.choice(_ASKED) for _ in range(rng.randint(0, 5))),
              rng.uniform(-5.0, 0.0)) for _ in range(150)]
    scored = [w for w in (p + s for p, s, _ in paths) if w and EOS not in w]
    asked = words[:10] + [("x", "a"), ("b", "yz", "yz")]
    checks = {
        "prob": lambda lm: [(lm.prob(h, w), witten_bell(lm, h, w)) for h, w in queries],
        "logprob": lambda lm: [(lm.logprob(h, w), math.log10(witten_bell(lm, h, w)))
                               for h, w in queries],
        "advance": lambda lm: [(lm.advance(x, history_tail(lm, p), s),
                                _oracle_sum(lm, x, p, s)) for p, s, x in paths],
        "extend_score": lambda lm: [(extend_score(lm, x, p, s),
                                     (_oracle_sum(lm, x, p, s)[0], len(p) + len(s)))
                                    for p, s, x in paths],
        "score_prefix": lambda lm: [
            (score_prefix(lm, w, complete), _oracle_sum(lm, 0.0, (), w + (EOS,) * complete)[0]
             / (len(w) + complete)) for w in scored for complete in (False, True)],
        "make_bins": lambda lm: [((b.thresholds, b.mu, b.sigma), _oracle_bins(lm, asked))
                                 for b in [make_bins(lm, asked)]],
    }
    for name, check in checks.items():
        lm = train_charlm(words, order)
        fresh = check(lm)
        filled = len(lm._memo), sum(map(len, lm._memo.values()))
        again = check(lm)
        assert filled == (len(lm._memo), sum(map(len, lm._memo.values()))), name
        for got, want in fresh + again:
            assert _bits(got) == _bits(want), name


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_advance_takes_and_returns_a_history_tail(order):
    # advance looks its tail's row up as it is; the tail it returns is the
    # extended sequence's history_tail, so a carried tail keeps that
    # contract, and every row the walks reach is keyed by order-1 symbols
    rng = random.Random(90 + order)
    words = [tuple(rng.choice(_SEEN) for _ in range(rng.randint(1, 6))) for _ in range(30)]
    lm = train_charlm(words, order)
    for _ in range(100):
        prefix = tuple(rng.choice(_ASKED[:-1] + [BOS]) for _ in range(rng.randint(0, 7)))
        suffix = tuple(rng.choice(_ASKED[:-1]) for _ in range(rng.randint(0, 5)))
        tail = lm.advance(0.0, history_tail(lm, prefix), suffix)[1]
        assert tail == history_tail(lm, prefix + suffix)
    assert {len(tail) for tail in lm._memo} == {order - 1}


def _counting_logprob(monkeypatch):
    """The (tail, symbol) of each CharLM.logprob call, as they are made."""
    calls, logprob = [], CharLM.logprob

    def counted(lm, history, nxt):
        calls.append((tuple(history), nxt))
        return logprob(lm, history, nxt)

    monkeypatch.setattr(CharLM, "logprob", counted)
    return calls


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_logprob_runs_once_per_distinct_transition(order, monkeypatch, tmp_path):
    rng = random.Random(80 + order)
    words = [tuple(rng.choice(_SEEN) for _ in range(rng.randint(1, 6))) for _ in range(40)]
    lm = train_charlm(words, order)
    calls = _counting_logprob(monkeypatch)
    make_bins(lm, words)
    # one call per distinct full-order gram train_charlm counted, each a
    # (tail, symbol) make_bins asks for the first time
    distinct_grams = sum(map(len, lm.tables[order - 1].values()))
    assert len(calls) == len(set(calls)) == distinct_grams
    make_bins(lm, words)
    assert len(calls) == distinct_grams
    # the reloaded LM fills every memo entry with the same bits
    path = tmp_path / "words.lm"
    save_charlm(lm, path)
    again = load_charlm(path)
    make_bins(again, words)
    assert len(calls) == 2 * distinct_grams
    entries = {(tail, sym): (lp.hex(), lp.row.tail) for tail, row in lm._memo.items()
               for sym, lp in row.items()}
    assert entries == {(tail, sym): (lp.hex(), lp.row.tail) for tail, row in again._memo.items()
                       for sym, lp in row.items()}


@pytest.mark.parametrize("alphabet", [{"a", "b c"}, {"a", " "}, {"a", "\u00a0"}, {"a", ""}])
def test_save_charlm_refuses_a_symbol_it_cannot_read_back(alphabet, tmp_path):
    lm = CharLM(2, alphabet, [{(): {"a": 1}}, {(BOS,): {"a": 1}}])
    path = tmp_path / "words.lm"
    with pytest.raises(ValueError, match="cannot be written to a charlm file"):
        save_charlm(lm, path)
    assert not path.exists()


# Word lists with repeats and one-symbol words; "x" and "y" stand outside
# the alphabet of an LM trained on the first list.
_words = st.lists(st.text("abc", min_size=1, max_size=6), min_size=1, max_size=8)
_other_words = st.lists(st.text("abcxy", min_size=1, max_size=6), min_size=1, max_size=8)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_words, st.integers(1, 5))
@example(["a"], 1)  # one one-symbol word, and only the empty history
@example(["ab", "b", "ab", "b"], 3)
def test_tables_are_the_textbook_counts(words, order):
    assert train_charlm(words, order).tables == brute_ngram_tables(words, order)


def _outcome(build, *args):
    """(thresholds, mu, sigma) as float bits, or the ValueError text."""
    try:
        bins = build(*args)
    except ValueError as exc:
        return str(exc)
    return [x.hex() for x in (*bins.thresholds, bins.mu, bins.sigma)]


def _bins_by_definition(lm, words):
    """The BinConfig of the mean and spread of the distinct words'
    complete scores, each from score_prefix: mu alone when the spread's
    thresholds do not strictly decrease."""
    scores = [score_prefix(lm, w, complete=True) for w in dict.fromkeys(map(tuple, words))]
    mu, sigma = mean(scores), pstdev(scores)
    spread = range(BIN_SPREAD, -BIN_SPREAD - 1, -1)
    thresholds = tuple(mu + k * BIN_STEP * sigma for k in spread)
    if len(set(thresholds)) < len(thresholds):
        thresholds = (mu,)
    return BinConfig(thresholds, mu, sigma)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_words, _other_words, st.integers(1, 5))
@example(["ab"], ["ab", "ab"], 2)  # one distinct word: sigma 0
@example(["ab", "ba"], ["xy", "a", "yab", "a"], 1)
def test_make_bins_is_the_spread_of_score_prefix(train_words, words, order):
    # each side gets its own LM, so neither reads the other's memo
    assert _outcome(make_bins, train_charlm(train_words, order), words) == _outcome(
        _bins_by_definition, train_charlm(train_words, order), words
    )
