import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartrans import transducer
from chartrans.aligner import Alignment, AlignmentLink, precision_align
from chartrans.charlm import (
    BinConfig,
    history_tail,
    lm_bin_features,
    make_bins,
    train_charlm,
)
from chartrans.core import ParseError, TrainingPair
from chartrans.freqtrie import (
    FreqBinConfig,
    Lexicon,
    TrieNode,
    build_trie,
    freq_bin_features,
)
from chartrans.transducer import (
    Candidate,
    FeatureConfig,
    Model,
    Rule,
    TrainConfig,
    _derivation_parts,
    _dot,
    _history_features,
    _loss_bound,
    decode_nbest,
    derivation_features,
    extract_rules,
    format_nbest,
    gold_candidate,
    load_model,
    loss,
    mira_update,
    save_model,
    train,
)

from toytask import (
    DIGRAPHS,
    brute_decode,
    brute_edit_distance,
    context_alignments,
    context_pairs,
    digraph_pairs,
    lexicon_task,
)

PLAIN = FeatureConfig(lm_features=False, freq_features=False)


def plain_model(rules, weights=None, **cfg):
    """A model without corpus features; weights, if given, are keyed by
    feature name and interned through the model's alphabet."""
    config = FeatureConfig(
        **{"lm_features": False, "freq_features": False, **cfg}
    )
    model = Model(weights={}, rules=frozenset(rules), config=config)
    model.weights.update(by_id(model, weights or {}))
    return model


def by_id(model, named):
    """named (feature name -> value) keyed by the model's feature ids."""
    return {model.alphabet[k]: v for k, v in named.items()}


def by_name(model, feats):
    """feats (feature id -> value) keyed by feature name, in its order."""
    return {model.alphabet.names[k]: v for k, v in feats.items()}


def word_features(x, rule, model):
    """The features of rule applied to all of x, a one-step word."""
    return derivation_features(x, (rule,), model)[0]


def step_features(x, pos, rule, model):
    """The features of applying rule at pos, a step inside x: that step's
    rule, history and corpus parts from _derivation_parts, merged in order,
    with identity rules Rule((s,), (s,)) over the rest of x."""
    def identities(span):
        return tuple(Rule((s,), (s,)) for s in span)

    derivation = identities(x[:pos]) + (rule,) + identities(x[pos + len(rule.source):])
    parts, _ = _derivation_parts(x, derivation, model)
    return {k: v for part in parts[3 * pos : 3 * pos + 3] for k, v in part.items()}


def test_extract_rules_from_links():
    alignment = Alignment(
        links=(
            AlignmentLink(("w",), ("w",)),
            AlignmentLink(("ɔ",), ("a", "l")),
            AlignmentLink(("k",), ("k",)),
        )
    )
    rules, golds = extract_rules([alignment])
    assert len(rules) == 3
    assert golds == [
        (Rule(("w",), ("w",)), Rule(("ɔ",), ("a", "l")), Rule(("k",), ("k",)))
    ]


def test_extract_rules_deduplicates_and_keeps_deletions():
    a1 = Alignment(links=(AlignmentLink(("a",), ("x",)),))
    a2 = Alignment(
        links=(AlignmentLink(("a",), ("x",)), AlignmentLink(("b",), ()))
    )
    rules, golds = extract_rules([a1, a2])
    assert rules == frozenset({Rule(("a",), ("x",)), Rule(("b",), ())})
    assert len(golds) == 2


def test_extract_rules_rejects_insertion_links():
    bad = Alignment(links=(AlignmentLink((), ("x",)),))
    with pytest.raises(ValueError):
        extract_rules([bad])


def test_copy_feature_fires_on_identity_rule():
    model = plain_model({Rule(("a",), ("a",))})
    feats = word_features(("a",), Rule(("a",), ("a",)), model)
    assert ("COPY",) in by_name(model, feats)
    feats2 = word_features(("a",), Rule(("a",), ("b",)), model)
    assert ("COPY",) not in by_name(model, feats2)


def test_minimal_config_feature_set():
    model = plain_model(
        {Rule(("a",), ("x",))},
        context_window=0, max_source_ngram=1, target_order=1, joint_order=1,
    )
    rule = Rule(("a",), ("x",))
    feats = step_features(("a", "b"), 0, rule, model)
    assert set(by_name(model, feats)) == {
        ("R", ("a",), ("x",)),
        ("C", 0, ("a",), ("a",), ("x",)),
        ("T", ("x",)),
        ("J", ((("a",), ("x",)),)),
    }


def test_context_window_spans():
    model = plain_model(
        {Rule(("b",), ("y",))}, context_window=1, max_source_ngram=2
    )
    rule = Rule(("b",), ("y",))
    feats = step_features(("a", "b", "c"), 1, rule, model)
    context_keys = {k for k in by_name(model, feats) if k[0] == "C"}
    assert context_keys == {
        ("C", -1, ("a",), ("b",), ("y",)),
        ("C", -1, ("a", "b"), ("b",), ("y",)),
        ("C", 0, ("b",), ("b",), ("y",)),
        ("C", 0, ("b", "c"), ("b",), ("y",)),
        ("C", 1, ("c",), ("b",), ("y",)),
    }


def _rule_part_reference(x, pos, rule, cfg):
    """The R and C feature names of applying rule at pos, from the window
    loop over every (offset, length), skipping what falls outside."""
    names = [("R", rule.source, rule.target)]
    c = cfg.context_window
    for off in range(-c, c + 1):
        for length in range(1, cfg.max_source_ngram + 1):
            a = pos + off
            if a < 0 or a + length > len(x) or off + length - 1 > c:
                continue
            names.append(("C", off, x[a : a + length], rule.source, rule.target))
    return names


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(st.sampled_from("abc"), min_size=1, max_size=7).map(tuple),
    data=st.data(),
    window=st.integers(0, 3),
    ngram=st.integers(1, 3),
)
def test_rule_part_names_are_the_window_loop(x, data, window, ngram):
    pos = data.draw(st.integers(0, len(x) - 1))
    span = data.draw(st.integers(1, len(x) - pos))
    target = data.draw(st.lists(st.sampled_from("xy"), max_size=2).map(tuple))
    rule = Rule(x[pos : pos + span], target)
    model = plain_model({rule}, context_window=window, max_source_ngram=ngram)
    feats = step_features(x, pos, rule, model)
    rule_part = [k for k in by_name(model, feats) if k[0] in ("R", "C")]
    assert rule_part == _rule_part_reference(x, pos, rule, model.config)
    assert list(by_name(model, feats))[: len(rule_part)] == rule_part


def test_lm_bins_in_feature_vector():
    # thresholds from the worked example; a prefix scoring above them all
    # fires all three bin features
    lm = train_charlm([("x", "y"), ("x", "z")], 2)
    bins = BinConfig((-0.9, -0.975, -1.05), mu=-0.975, sigma=0.05)
    model = Model(
        weights={}, rules=frozenset({Rule(("a",), ("x",))}),
        config=FeatureConfig(freq_features=False),
        lm=lm, lm_bins=bins,
    )
    feats = step_features(("a", "b"), 0, Rule(("a",), ("x",)), model)
    lmb = {k for k in by_name(model, feats) if k[0] == "LMB"}
    assert lmb == {("LMB", 0), ("LMB", 1), ("LMB", 2)}


def test_corpus_features_only_add_keys():
    lm = train_charlm([("x", "y")], 2)
    bins = make_bins(lm, [("x", "y")])
    trie = build_trie(Lexicon({("x", "y"): 4}))
    rules = {Rule(("a",), ("x",)), Rule(("b",), ("y",))}
    off = plain_model(rules)
    on = Model(
        weights={}, rules=frozenset(rules), config=FeatureConfig(),
        lm=lm, lm_bins=bins, trie=trie, freq_bins=FreqBinConfig(),
    )
    x = ("a", "b")
    rule = Rule(("a",), ("x",))
    # two models, two alphabets: compare the vectors by name
    f_off = by_name(off, step_features(x, 0, rule, off))
    f_on = by_name(on, step_features(x, 0, rule, on))
    assert set(f_off) <= set(f_on)
    extra = set(f_on) - set(f_off)
    assert extra and all(k[0] in ("LMB", "FQB") for k in extra)
    for k, v in f_off.items():
        assert f_on[k] == v


def test_freq_bins_use_exact_count_on_final_step():
    trie = build_trie(Lexicon({("x",): 7, ("x", "y"): 50}))
    model = Model(
        weights={}, rules=frozenset({Rule(("a",), ("x",))}),
        config=FeatureConfig(lm_features=False),
        trie=trie, freq_bins=FreqBinConfig((1, 10)),
    )
    rule = Rule(("a",), ("x",))
    # final step: exact count of "x" is 7 -> only threshold 1 fires
    final = by_name(model, word_features(("a",), rule, model))
    assert {k for k in final if k[0] == "FQB"} == {("FQB", 0)}
    # non-final step: prefix count of "x" is 57 -> thresholds 1 and 10
    mid = by_name(model, step_features(("a", "b"), 0, rule, model))
    assert {k for k in mid if k[0] == "FQB"} == {("FQB", 0), ("FQB", 1)}


def test_decode_single_rule():
    rule = Rule(("a",), ("x",))
    model = plain_model({rule}, {("R", ("a",), ("x",)): 0.5})
    cands = decode_nbest(("a",), model, 5, 1)
    assert len(cands) == 1
    assert cands[0].output == ("x",)
    assert cands[0].score == 0.5
    assert cands[0].score == pytest.approx(
        _dot(model.weights, cands[0].features)
    )


def test_decode_matches_exhaustive_tilings():
    rng = random.Random(17)
    rules = {Rule(("a",), ("x",)), Rule(("b",), ("y",)), Rule(("a", "b"), ("z",))}
    model = plain_model(rules)
    keys = set()
    for _, _, deriv in brute_decode(("a", "b"), model, 100):
        keys.update(derivation_features(("a", "b"), deriv, model)[0])
    keys = sorted(keys, key=lambda k: repr(model.alphabet.names[k]))
    model.weights.update({k: rng.uniform(-1, 1) for k in keys})
    want = brute_decode(("a", "b"), model, 10)
    got = decode_nbest(("a", "b"), model, 1000, 10)
    assert [c.output for c in got] == [w[1] for w in want]
    for cand, (score, _, _) in zip(got, want):
        assert cand.score == pytest.approx(score, abs=1e-9)


def test_decode_exhaustive_randomized():
    rng = random.Random(18)
    alpha, beta = "abc", "xy"
    for _ in range(25):
        rules = set()
        while len(rules) < rng.randint(2, 12):
            rules.add(
                Rule(
                    tuple(rng.choice(alpha) for _ in range(rng.randint(1, 2))),
                    tuple(rng.choice(beta) for _ in range(rng.randint(0, 2))),
                )
            )
        model = plain_model(
            rules,
            context_window=rng.randint(0, 2),
            target_order=rng.randint(1, 2),
            joint_order=rng.randint(1, 2),
        )
        x = tuple(rng.choice(alpha) for _ in range(rng.randint(1, 4)))
        keys = set()
        for _, _, deriv in brute_decode(x, model, 10**9):
            keys.update(derivation_features(x, deriv, model)[0])
        keys = sorted(keys, key=lambda k: repr(model.alphabet.names[k]))
        model.weights.update({k: rng.uniform(-1, 1) for k in keys})
        n = rng.randint(1, 5)
        want = brute_decode(x, model, n)
        got = decode_nbest(x, model, 100000, n)
        assert [c.output for c in got] == [w[1] for w in want]
        for cand, (score, _, _) in zip(got, want):
            assert cand.score == pytest.approx(score, abs=1e-9)
            assert cand.score == pytest.approx(
                _dot(model.weights, cand.features), abs=1e-9
            )


def test_decode_identity_fallback():
    model = plain_model({Rule(("a",), ("x",))})
    cands = decode_nbest(("a", "q"), model, 5, 1)
    assert cands[0].output == ("x", "q")


def test_decode_requires_valid_beam():
    model = plain_model({Rule(("a",), ("x",))})
    with pytest.raises(ValueError):
        decode_nbest(("a",), model, 2, 3)
    with pytest.raises(ValueError):
        decode_nbest(("a",), model, 0, 0)


def test_lexicon_steers_decoding_toward_real_word():
    # two spellings tie on template features; positive weight on frequency
    # bins pulls up the one the corpus contains
    rules = {
        Rule(("P",), ("p",)),
        Rule(("I",), ("i", "e")),
        Rule(("A",), ("r",)),
        Rule(("A",), ()),
        Rule(("S",), ("c", "e")),
    }
    trie = build_trie(Lexicon({tuple("pierce"): 30}))
    fbins = FreqBinConfig((1, 10))
    model = Model(
        weights={}, rules=frozenset(rules),
        config=FeatureConfig(lm_features=False),
        trie=trie, freq_bins=fbins,
    )
    model.weights.update(by_id(model, {("FQB", 0): 1.0, ("FQB", 1): 1.0}))
    cands = decode_nbest(("P", "I", "A", "S"), model, 50, 2)
    assert cands[0].output == tuple("pierce")
    assert tuple("piece") in {c.output for c in cands}


def test_incremental_corpus_state_matches_scratch_decode():
    # with per-state caps large enough that nothing is pruned, the beam
    # decoder (incremental LM sums and trie walks) must reproduce the
    # exhaustive enumeration, which recomputes every prefix from scratch
    rng = random.Random(29)
    lex_words = [
        tuple(rng.choice("xy") for _ in range(rng.randint(1, 4)))
        for _ in range(12)
    ]
    lm = train_charlm(lex_words, 3)
    bins = make_bins(lm, lex_words)
    trie = build_trie(
        Lexicon({w: i + 1 for i, w in enumerate(dict.fromkeys(lex_words))})
    )
    for _ in range(15):
        rules = set()
        while len(rules) < rng.randint(3, 8):
            rules.add(
                Rule(
                    tuple(rng.choice("abc") for _ in range(rng.randint(1, 2))),
                    tuple(rng.choice("xy") for _ in range(rng.randint(0, 2))),
                )
            )
        model = Model(
            weights={}, rules=frozenset(rules), config=FeatureConfig(),
            lm=lm, lm_bins=bins, trie=trie, freq_bins=FreqBinConfig((1, 5, 25)),
        )
        x = tuple(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        keys = set()
        for _, _, deriv in brute_decode(x, model, 10**9):
            keys.update(derivation_features(x, deriv, model)[0])
        keys = sorted(keys, key=lambda k: repr(model.alphabet.names[k]))
        model.weights.update({k: rng.uniform(-1, 1) for k in keys})
        want = brute_decode(x, model, 6)
        got = decode_nbest(x, model, 10**6, 10**6)[:6]
        assert [c.output for c in got] == [w[1] for w in want]
        for cand, (score, _, _) in zip(got, want):
            assert cand.score == pytest.approx(score, abs=1e-9)


def test_candidate_features_match_rescoring_with_corpus_features():
    # the beam search sums the step vectors it scored with; replaying the
    # derivation must give the same vector
    lexicon, pairs, held = lexicon_task(31, lex_size=400, n_train=30, n_test=15)
    words = list(lexicon.counts)
    lm = train_charlm(words, 3)
    model = train(
        pairs, precision_align(pairs), cfg=TrainConfig(epochs=1, nbest=5, beam=10),
        lm=lm, lm_bins=make_bins(lm, words), trie=build_trie(lexicon),
        freq_bins=FreqBinConfig((1, 10, 100)),
    )
    assert model.uses_lm and model.uses_freq
    checked = 0
    for inst in held:
        x = inst.source
        for cand in decode_nbest(x, model, 10, 5):
            feats, out = derivation_features(x, cand.derivation, model)
            assert out == cand.output
            assert list(cand.features.items()) == list(feats.items())
            assert any(k[0] == "LMB" for k in by_name(model, feats))
            assert any(k[0] == "FQB" for k in by_name(model, feats))
            checked += 1
    assert checked > len(held)


def test_mira_no_update_for_gold_output():
    gold = Candidate(("x",), (), 1.0, {("R", ("a",), ("x",)): 1.0})
    same = Candidate(("x",), (), 1.0, {("T", ("x",)): 1.0})
    weights = {}
    mira_update(weights, gold, [same], c=1.0)
    assert weights == {}


def test_mira_unit_vector_closed_form():
    gold = Candidate(("g",), (), 0.0, {("R", ("a",), ("g",)): 1.0})
    cand = Candidate(("b",), (), 0.0, {})
    weights = {}
    mira_update(weights, gold, [cand], c=float("inf"), loss_kind="zero-one")
    assert weights[("R", ("a",), ("g",))] == pytest.approx(1.0, abs=1e-12)
    # post-update margin equals the loss
    diff = {("R", ("a",), ("g",)): 1.0}
    assert _dot(weights, diff) == pytest.approx(1.0, abs=1e-12)


def test_mira_tau_clipped_at_c():
    gold = Candidate(("g",), (), 0.0, {("k",): 1.0})
    cand = Candidate(("b",), (), 0.0, {})
    weights = {}
    mira_update(weights, gold, [cand], c=0.05, loss_kind="zero-one")
    assert weights[("k",)] == pytest.approx(0.05, abs=1e-12)


def test_mira_unclipped_constraints_become_tight():
    rng = random.Random(19)
    keys = [("f", i) for i in range(6)]
    for _ in range(100):
        weights = {k: rng.uniform(-1, 1) for k in keys}
        gold_feats = {k: float(rng.randint(0, 2)) for k in keys}
        cand_feats = {k: float(rng.randint(0, 2)) for k in keys}
        if gold_feats == cand_feats:
            continue
        gold = Candidate(("g",), (), 0.0, gold_feats)
        cand = Candidate(("b",), (), 0.0, cand_feats)
        before = dict(weights)
        mira_update(weights, gold, [cand], c=10.0)
        diff = {
            k: gold_feats.get(k, 0.0) - cand_feats.get(k, 0.0) for k in keys
        }
        sqnorm = sum(v * v for v in diff.values())
        if sqnorm == 0:
            continue
        cost = loss(gold.output, cand.output)
        margin_before = _dot(before, diff)
        if margin_before >= cost:
            assert weights == before
        elif (cost - margin_before) / sqnorm <= 10.0:
            assert _dot(weights, diff) == pytest.approx(cost, abs=1e-9)
        else:
            step = sum(
                (weights[k] - before[k]) ** 2 for k in keys
            ) ** 0.5
            assert step == pytest.approx(10.0 * sqnorm ** 0.5, abs=1e-9)


def test_loss_functions():
    assert loss(("a", "b"), ("a", "b"), "zero-one") == 0.0
    assert loss(("a", "b"), ("a", "b"), "levenshtein") == 0.0
    assert loss(("a", "b", "c"), ("a", "b", "d")) == 1.0
    assert loss((), ("a", "b")) == 2.0
    with pytest.raises(ValueError):
        loss((), (), "hinge")


def test_loss_matches_brute_force_oracle():
    rng = random.Random(20)
    for _ in range(50):
        a = tuple(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        b = tuple(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        assert loss(a, b) == brute_edit_distance(a, b)


@settings(max_examples=300, deadline=None)
@given(
    a=st.lists(st.sampled_from("abc"), max_size=8).map(tuple),
    b=st.lists(st.sampled_from("abc"), max_size=8).map(tuple),
    kind=st.sampled_from(["levenshtein", "zero-one"]),
)
def test_loss_bound_is_never_below_the_loss(a, b, kind):
    assert _loss_bound(a, b, kind) >= loss(a, b, kind)


def _toy_alignments(pairs):
    return [
        Alignment(
            tuple(AlignmentLink((s,), DIGRAPHS[s]) for s in p.source)
        )
        for p in pairs
    ]


def test_train_reaches_full_training_accuracy():
    rng = random.Random(23)
    pairs = context_pairs(rng, 100)
    model = train(
        pairs, context_alignments(pairs),
        cfg=TrainConfig(epochs=10, nbest=5, beam=10),
        feature_config=PLAIN,
    )
    assert len(model.rules) <= 20
    hits = sum(
        decode_nbest(p.source, model, 10, 1)[0].output == p.target
        for p in pairs
    )
    assert hits == len(pairs)


def test_train_sums_only_the_gold_derivations(monkeypatch):
    # MIRA reads decoded candidates' trails, so the one sum per pair and
    # epoch is the gold derivation's
    pairs = context_pairs(random.Random(29), 20)
    calls = []
    summed = transducer._summed

    def counted(parts):
        calls.append(1)
        return summed(parts)

    monkeypatch.setattr(transducer, "_summed", counted)
    train(pairs, context_alignments(pairs), cfg=TrainConfig(epochs=3, nbest=5, beam=10),
          feature_config=PLAIN)
    assert len(calls) == len(pairs) * 3


def test_train_zero_epochs_gives_zero_scores():
    rng = random.Random(24)
    pairs = digraph_pairs(rng, 10)
    model = train(
        pairs, _toy_alignments(pairs),
        cfg=TrainConfig(epochs=0), feature_config=PLAIN,
    )
    assert model.weights == {}
    cands = decode_nbest(pairs[0].source, model, 10, 3)
    assert all(c.score == 0.0 for c in cands)
    assert [c.output for c in cands] == sorted(c.output for c in cands)


def test_train_averaging_changes_weights_not_separability():
    rng = random.Random(25)
    pairs = context_pairs(rng, 40)
    aligns = context_alignments(pairs)
    averaged = train(
        pairs, aligns, cfg=TrainConfig(epochs=6, nbest=5, beam=10),
        feature_config=PLAIN,
    )
    raw = train(
        pairs, aligns,
        cfg=TrainConfig(epochs=6, nbest=5, beam=10, averaging=False),
        feature_config=PLAIN,
    )
    for model in (averaged, raw):
        hits = sum(
            decode_nbest(p.source, model, 10, 1)[0].output == p.target
            for p in pairs
        )
        assert hits == len(pairs)
    assert averaged.weights != raw.weights


def test_train_rejects_foreign_alignments():
    pairs = [TrainingPair(("a",), ("x",))]
    foreign = [Alignment(links=(AlignmentLink(("q",), ("z",)),))]
    with pytest.raises(ValueError):
        train(pairs, foreign, cfg=TrainConfig(epochs=1), feature_config=PLAIN)


def test_gold_candidate_score_matches_features():
    rng = random.Random(26)
    pairs = digraph_pairs(rng, 5)
    aligns = _toy_alignments(pairs)
    model = train(
        pairs, aligns, cfg=TrainConfig(epochs=2, nbest=3, beam=5),
        feature_config=PLAIN,
    )
    gold = gold_candidate(pairs[0].source, aligns[0].links and tuple(
        Rule(l.source, l.target) for l in aligns[0].links
    ), model)
    assert gold.output == pairs[0].target
    assert gold.score == pytest.approx(
        _dot(model.weights, gold.features), abs=1e-9
    )


def test_bad_model_line_names_its_number(tmp_path):
    path = tmp_path / "model.txt"
    save_model(plain_model([Rule(("a",), ("b",))], {("R", ("a",), ("b",)): 1.0}), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + ["0.5"]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"line {len(lines) + 1}: bad model line"):
        load_model(path)


def test_model_save_load_round_trip(tmp_path):
    rng = random.Random(27)
    pairs = digraph_pairs(rng, 20)
    model = train(
        pairs, _toy_alignments(pairs),
        cfg=TrainConfig(epochs=3, nbest=5, beam=10), feature_config=PLAIN,
    )
    path = tmp_path / "model.txt"
    save_model(model, path)
    again, refs = load_model(path)
    assert refs == {}
    assert again.rules == model.rules
    assert again.config == model.config
    # the two alphabets number the features differently: compare by name
    assert by_name(again, again.weights) == {
        k: v for k, v in by_name(model, model.weights).items() if v != 0.0
    }
    src = pairs[0].source
    assert [c.output for c in decode_nbest(src, again, 10, 3)] == [
        c.output for c in decode_nbest(src, model, 10, 3)
    ]


def test_weights_keyed_by_name_are_refused():
    rule = Rule(("a",), ("b",))
    with pytest.raises(TypeError, match=r"\('R', \('a',\), \('b',\)\).*model\.alphabet"):
        Model(weights={("R", ("a",), ("b",)): 1.0}, rules=frozenset([rule]), config=PLAIN)
    model = plain_model([rule], {("R", ("a",), ("b",)): 1.0})
    with pytest.raises(TypeError, match="model.alphabet"):
        dataclasses.replace(model, weights={"R": 1.0})
    assert by_name(model, model.weights) == {("R", ("a",), ("b",)): 1.0}


def test_format_nbest_lines():
    cands = [
        Candidate(("x", "y"), (), 1.25, {}),
        Candidate(("z",), (), 0.5, {}),
    ]
    lines = format_nbest(("a", "b"), cands)
    assert lines[0] == "a b\t1\tx y\t1.250000"
    assert lines[1] == "a b\t2\tz\t0.500000"
    assert format_nbest(("a",), []) == ["a\t0\t\tNaN"]


@pytest.fixture(scope="module")
def corpus_model():
    """A lexicon_task model with LM and frequency features, and its held-out
    instances; tests that change its weights work on a copy."""
    lexicon, pairs, held = lexicon_task(37, lex_size=400, n_train=30, n_test=15)
    words = list(lexicon.counts)
    lm = train_charlm(words, 3)
    model = train(
        pairs, precision_align(pairs), cfg=TrainConfig(epochs=1, nbest=5, beam=10),
        lm=lm, lm_bins=make_bins(lm, words), trie=build_trie(lexicon),
        freq_bins=FreqBinConfig((1, 10, 100)),
    )
    assert model.uses_lm and model.uses_freq
    return model, held


def _folded_score(x, derivation, model):
    """The derivation's score as a left fold over its steps, each step's
    three parts from _derivation_parts weighted key by key: no table."""
    parts, _ = _derivation_parts(x, derivation, model)
    score = 0.0
    for step in range(0, len(parts), 3):
        step_score = 0
        for part in parts[step : step + 3]:
            for k, v in part.items():
                step_score += model.weights.get(k, 0.0) * v
        score += step_score
    return score


def test_derivation_parts_are_the_beams_parts(corpus_model):
    # the walker over a given derivation and the beam search build each
    # step's rule, history and corpus parts alike, key order included
    model, held = corpus_model
    checked = 0
    for inst in held:
        for cand in decode_nbest(inst.source, model, 10, 5):
            parts, out = _derivation_parts(inst.source, cand.derivation, model)
            assert out == cand.output
            want = cand._parts()
            assert len(parts) == len(want) == 3 * len(cand.derivation)
            for got, built in zip(parts, want):
                assert list(got.items()) == list(built.items())
            checked += 1
    assert checked > len(held)


def test_candidate_scores_are_step_folds(corpus_model):
    # the decoder scores each step from per-call partial sums; the bits
    # must be those of weighting every step from scratch
    model, held = corpus_model
    checked = 0
    for inst in held:
        for cand in decode_nbest(inst.source, model, 10, 5):
            assert cand.score == _folded_score(inst.source, cand.derivation, model)
            checked += 1
    assert checked > len(held)


def test_rule_index_follows_replaced_rules():
    model = plain_model([Rule(("a",), ("b",))])
    assert decode_nbest(("a",), model, 5, 1)[0].output == ("b",)
    rule = Rule(("a",), ("c",))
    replaced = dataclasses.replace(
        model, rules=frozenset([rule]),
        weights=by_id(model, {("R", rule.source, rule.target): 1.0}),
    )
    assert decode_nbest(("a",), replaced, 5, 1)[0].output == ("c",)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.rules = frozenset([rule])
    assert decode_nbest(("a",), model, 5, 1)[0].output == ("b",)


def test_decode_after_mira_update_uses_new_weights(corpus_model):
    # MIRA changes the weights between decode calls, so no partial sum may
    # outlive the call that computed it
    model, held = corpus_model
    model = dataclasses.replace(model, weights=dict(model.weights))
    x = held[0].source
    before = decode_nbest(x, model, 10, 5)
    old_weights = dict(model.weights)
    mira_update(model.weights, before[-1], before, 0.05)
    assert model.weights != old_weights
    after = decode_nbest(x, model, 10, 5)
    for cand in after:
        assert cand.score == _folded_score(x, cand.derivation, model)
    scores = {c.output: c.score for c in before}
    assert any(scores.get(c.output) != c.score for c in after)


class _FixedLM:
    """Stands in for a CharLM: every advance lands on the sum it is set to."""

    order = 2

    def __init__(self):
        self.sum = 0.0

    def advance(self, logsum, tail, suffix):
        return self.sum, tail


def _around(value):
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


def test_prebuilt_bin_parts_are_the_fired_bins():
    # one-symbol, non-final steps: the LM score is the advanced sum and the
    # count the trie node's prefix count, so each part the scorer picks can
    # be checked against the bin functions that define what fires
    lm_bins = BinConfig((-0.5, -1.0, -1.5), mu=-1.0, sigma=0.5)
    freq_bins = FreqBinConfig((2, 10, 100))
    lm, root = _FixedLM(), TrieNode()
    leaf = root.children["a"] = TrieNode()
    model = Model(
        weights={}, rules=frozenset(), config=FeatureConfig(),
        lm=lm, lm_bins=lm_bins, trie=root, freq_bins=freq_bins,
    )
    scorer = model.scorer
    scores = [s for t in lm_bins.thresholds for s in _around(t)] + [-1e9, 3.0]
    counts = [c for t in freq_bins.thresholds for c in _around(t) + [t - 1, t + 1]]
    for score in scores:
        for count in [0, 1, 10**9] + counts:
            lm.sum, leaf.prefix_count = score, count
            feats, new_sum, _, node = scorer.step(0, ("a",), 0.0, (), root, False)
            feats = by_name(model, feats)
            want = {
                **{("LMB", j): 1.0 for j in sorted(lm_bin_features(score, lm_bins))},
                **{("FQB", j): 1.0 for j in sorted(freq_bin_features(count, freq_bins))},
            }
            assert list(feats.items()) == list(want.items())
            assert new_sum == score and node is leaf
    # a target the trie lacks counts 0: the zero feature
    feats, _, _, node = scorer.step(0, ("b",), 0.0, (), root, False)
    assert node is None
    assert [k for k in by_name(model, feats) if k[0] == "FQB"] == [("FQB", freq_bins.zero_feature)]


def test_corpus_scorer_follows_replaced_resources():
    lm = train_charlm([("x", "y")], 2)
    model = Model(
        weights={}, rules=frozenset(), config=FeatureConfig(freq_features=False),
        lm=lm, lm_bins=BinConfig((-0.5,), -0.5, 0.0),
    )
    scorer = model.scorer
    low = dataclasses.replace(model, lm_bins=BinConfig((-50.0,), -50.0, 0.0))
    assert low.scorer is not scorer
    assert low.scorer.start == (0.0, history_tail(lm, ()), None)
    feats = low.scorer.step(0, ("q",), 0.0, history_tail(lm, ()), None, False)[0]
    assert list(by_name(low, feats)) == [("LMB", 0)]
    assert model.scorer is scorer
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.lm_bins = low.lm_bins
    assert model.scorer is scorer


def test_decoding_writes_nothing_to_the_model():
    # every cache a decode reads is built with the model, so neither
    # decoding nor scoring a derivation may set or replace any attribute
    lexicon, pairs, held = lexicon_task(5, lex_size=200, n_train=8, n_test=3)
    words = list(lexicon.counts)
    lm = train_charlm(words, 3)
    alignments = precision_align(pairs)
    rules, golds = extract_rules(alignments)
    model = Model(
        weights={}, rules=rules, config=FeatureConfig(),
        lm=lm, lm_bins=make_bins(lm, words), trie=build_trie(lexicon),
        freq_bins=FreqBinConfig((1, 10, 100)),
    )
    assert model.uses_lm and model.uses_freq
    before = {name: id(value) for name, value in vars(model).items()}
    for inst in held:
        assert decode_nbest(inst.source, model, 10, 5)
    derivation_features(alignments[0].source(), golds[0], model)
    assert {name: id(value) for name, value in vars(model).items()} == before


def _mira_reference(weights, gold, candidates, c, loss_kind="levenshtein", avg=None):
    """mira_update as it was before its one-pass margin: the full
    difference vector and the loss for every non-gold candidate."""
    for cand in candidates:
        if cand.output == gold.output:
            continue
        diff = dict(gold.features)
        for k, v in cand.features.items():
            diff[k] = diff.get(k, 0.0) - v
        diff = {k: v for k, v in diff.items() if v != 0.0}
        if not diff:
            continue
        margin = _dot(weights, diff)
        cost = loss(gold.output, cand.output, loss_kind)
        if margin >= cost:
            continue
        sqnorm = sum(v * v for v in diff.values())
        tau = min(c, (cost - margin) / sqnorm)
        for k, v in diff.items():
            weights[k] = weights.get(k, 0.0) + tau * v
            if avg is not None:
                u, step = avg
                u[k] = u.get(k, 0.0) + (step - 1) * tau * v
    return weights


_KEYS = st.sampled_from([("R", i) for i in range(5)] + [("LMB", i) for i in range(3)])
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, 3.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)
_FEATS = st.dictionaries(_KEYS, _VALUES, max_size=8)
_COUNTS = st.dictionaries(_KEYS, st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, 3.0]), max_size=8)
# A trail's steps, each one to three parts of 1.0 indicators, as decode_nbest
# builds them.
_STEPS = st.lists(
    st.lists(st.dictionaries(_KEYS, st.just(1.0), max_size=4), min_size=1, max_size=3),
    max_size=4,
)
_OUTPUTS = st.lists(st.sampled_from("abc"), max_size=4).map(tuple)


def _trail_candidate(output, steps):
    trail = None
    for parts in steps:
        trail = (trail, *parts)
    return Candidate(output, (), 0.0, trail=trail)


@st.composite
def _gold_and_candidates(draw):
    """(gold, candidates) with explicit features of any values or, with
    integer gold values, as mira_update's exactness needs, trail-built
    candidates among them."""
    trails = draw(st.booleans())
    gold = Candidate(draw(_OUTPUTS), (), 0.0, draw(_COUNTS if trails else _FEATS))
    explicit = st.builds(lambda out, feats: Candidate(out, (), 0.0, feats), _OUTPUTS, _FEATS)
    built = st.one_of(explicit, st.builds(_trail_candidate, _OUTPUTS, _STEPS))
    return gold, draw(st.lists(built if trails else explicit, max_size=6))


@settings(max_examples=300, deadline=None)
@given(
    weights=st.dictionaries(_KEYS, st.floats(-3.0, 3.0, allow_nan=False), max_size=8),
    gold_and_cands=_gold_and_candidates(),
    c=st.sampled_from([0.05, 1.0, math.inf]),
    loss_kind=st.sampled_from(["levenshtein", "zero-one"]),
    step=st.integers(1, 50),
)
def test_mira_update_matches_the_reference(weights, gold_and_cands, c, loss_kind, step):
    # mira_update runs first, so it reads the trails before the reference
    # sums them
    gold, cands = gold_and_cands
    got_w, got_u = dict(weights), {}
    want_w, want_u = dict(weights), {}
    outcomes = []
    for update, w, u in [(mira_update, got_w, got_u), (_mira_reference, want_w, want_u)]:
        try:
            update(w, gold, cands, c, loss_kind, (u, step))
            outcomes.append(None)
        except ZeroDivisionError:  # a squared norm that underflows to 0
            outcomes.append(ZeroDivisionError)
    assert outcomes[0] == outcomes[1]
    assert got_w == want_w
    assert got_u == want_u
    assert list(got_w.items()) == list(want_w.items())
    assert list(got_u.items()) == list(want_u.items())


def test_mira_update_reads_trails_as_summed_features(corpus_model):
    # decoded candidates updated from their trails, and the same candidates
    # with features from derivation_features, step by step
    model, held = corpus_model
    from_trail = dataclasses.replace(model, weights=dict(model.weights))
    summed = dataclasses.replace(model, weights=dict(model.weights))
    u_trail, u_summed = {}, {}
    for step, inst in enumerate(held[:6], start=1):
        x = inst.source
        trailed = decode_nbest(x, from_trail, 10, 5)
        explicit = [
            Candidate(c.output, c.derivation, c.score,
                      derivation_features(x, c.derivation, summed)[0])
            for c in decode_nbest(x, summed, 10, 5)
        ]
        assert [c.output for c in trailed] == [c.output for c in explicit]
        gold = explicit[-1]
        mira_update(from_trail.weights, gold, trailed, 0.05, avg=(u_trail, step))
        mira_update(summed.weights, gold, explicit, 0.05, avg=(u_summed, step))
        assert all(c._features is None for c in trailed)
        for got, want in [(from_trail.weights, summed.weights), (u_trail, u_summed)]:
            assert [(k, v.hex()) for k, v in got.items()] == [
                (k, v.hex()) for k, v in want.items()
            ]
    assert u_trail and from_trail.weights != model.weights


def test_lazy_candidate_features_are_the_summed_trail(corpus_model):
    model, held = corpus_model
    cands = decode_nbest(held[0].source, model, 10, 5)
    for cand in cands:
        feats, _ = derivation_features(held[0].source, cand.derivation, model)
        assert cand == Candidate(cand.output, cand.derivation, cand.score, feats)
        assert cand.features is cand.features


def test_decoding_held_out_words_leaves_the_saved_bytes(corpus_model, tmp_path):
    # decoding interns names no weight has; the file holds weights only,
    # named, so it keeps its bytes
    model, held = corpus_model
    path, again = tmp_path / "model.txt", tmp_path / "again.txt"
    save_model(model, path)
    loaded, _ = load_model(path)
    loaded = dataclasses.replace(loaded, lm=model.lm, trie=model.trie)
    size = len(loaded.alphabet.names)
    for inst in held:
        assert decode_nbest(inst.source, loaded, 10, 5)
    assert len(loaded.alphabet.names) > size
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_a_warmed_history_memo_decodes_as_a_fresh_model(corpus_model, tmp_path):
    # the memo and the alphabet grown on other words change no output,
    # score bit or feature name
    model, held = corpus_model
    save_model(model, tmp_path / "model.txt")
    warm, _ = load_model(tmp_path / "model.txt")
    warm = dataclasses.replace(warm, lm=model.lm, trie=model.trie)
    for inst in held[1:]:
        decode_nbest(inst.source, warm, 10, 5)
    assert warm.history
    for inst in held[:3]:
        fresh, _ = load_model(tmp_path / "model.txt")
        fresh = dataclasses.replace(fresh, lm=model.lm, trie=model.trie)
        assert not fresh.history
        got = decode_nbest(inst.source, warm, 10, 5)
        want = decode_nbest(inst.source, fresh, 10, 5)
        assert [c.output for c in got] == [c.output for c in want]
        assert [c.score.hex() for c in got] == [c.score.hex() for c in want]
        assert [list(by_name(warm, c.features).items()) for c in got] == [
            list(by_name(fresh, c.features).items()) for c in want
        ]
    # every entry is what its key computes from scratch
    for (head, recent), row in warm.history.items():
        for (source, target), part in row.items():
            assert part == _history_features(head, recent, Rule(source, target), warm)


def test_replace_starts_an_empty_history_memo(corpus_model):
    model, held = corpus_model
    decode_nbest(held[0].source, model, 10, 5)
    assert model.history
    changed = dataclasses.replace(model, config=FeatureConfig(target_order=1))
    assert changed.history == {}
    assert changed.alphabet is model.alphabet
    assert model.history
