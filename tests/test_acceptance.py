"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as:  pytest tests/test_acceptance.py -v -s
"""

import random
import time

from chartrans.aligner import (
    AlignParams,
    DeltaTable,
    backward,
    baseline_align,
    em_train,
    forward,
    forward_insertion_merging,
    precision_align,
)
from chartrans.charlm import (
    BinConfig,
    EOS,
    lm_bin_features,
    make_bins,
    train_charlm,
)
from chartrans.core import NULL, TrainingPair
from chartrans.freqtrie import (
    FreqBinConfig,
    Lexicon,
    build_trie,
    prefix_count,
    prune_lexicon,
    trie_words,
)
from chartrans.transducer import (
    Candidate,
    FeatureConfig,
    Model,
    Rule,
    TrainConfig,
    _dot,
    decode_nbest,
    derivation_features,
    loss,
    mira_update,
    train,
)

from toytask import (
    brute_decode,
    brute_path_sum,
    context_alignments,
    context_pairs,
    lexicon_task,
    random_delta,
)


def _ok(n, message):
    print(f"\ncriterion {n} PASS: {message}")


def test_criterion_01_forward_backward_brute_agreement():
    rng = random.Random(101)
    started = time.monotonic()
    for _ in range(200):
        x = tuple(rng.choice("ab") for _ in range(rng.randint(0, 5)))
        y = tuple(rng.choice("cd") for _ in range(rng.randint(0, 5)))
        params = AlignParams(
            max_x=rng.randint(1, 2), max_y=rng.randint(1, 2),
            allow_deletion=rng.random() < 0.7,
            allow_insertion=rng.random() < 0.5,
        )
        delta = random_delta(x, y, rng, params)
        total = forward(x, y, delta, params).corner()
        brute = brute_path_sum(x, y, delta, params)
        assert abs(total - brute) < 1e-10
        assert abs(backward(x, y, delta, params).value(0, 0) - brute) < 1e-10
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _ok(1, f"200 instances agree to 1e-10 in {elapsed:.2f}s")


def test_criterion_02_em_monotone_and_normalized():
    rng = random.Random(102)
    table = {
        s: tuple(rng.choice("xyz") for _ in range(rng.randint(1, 2)))
        for s in "abcde"
    }
    pairs = []
    for _ in range(50):
        src = tuple(rng.choice("abcde") for _ in range(rng.randint(2, 5)))
        tgt = tuple(t for s in src for t in table[s])
        pairs.append(TrainingPair(src, tgt))
    history = []
    em_train(
        pairs,
        AlignParams(2, 2, True, False, max_iterations=20, tol=1e-300),
        history=history,
    )
    lls = [ll for ll, _ in history]
    assert len(history) == 20 or abs(lls[-1] - lls[-2]) == 0.0
    for prev, cur in zip(lls, lls[1:]):
        assert cur >= prev - 1e-9
    for _, mass in history:
        assert abs(mass - 1.0) <= 1e-9
    _ok(2, f"log-likelihood non-decreasing over {len(history)} iterations, "
           "delta mass 1 after every M-step")


WALK_X = ("w", "ɔ", NULL, "k", NULL, NULL)
WALK_Y = ("w", "a", "l", "k", "e", "d")


def test_criterion_03_insertion_merging_alpha_vector():
    base = {
        (("w",), ("w",)): 0.9,
        (("ɔ",), ("a",)): 0.6,
        (("ɔ",), ("a", "l")): 0.8,
    }
    rng = random.Random(103)
    chart = forward_insertion_merging(WALK_X, WALK_Y, DeltaTable(base))
    assert abs(chart.value(1, 1) - 0.9) < 1e-12
    assert abs(chart.value(2, 2) - 0.54) < 1e-12
    assert abs(chart.value(3, 3) - 0.72) < 1e-12
    for _ in range(5):
        probs = dict(base)
        for tgt in (("k",), ("l", "k"), ("k", "e"), ("l", "k", "e")):
            probs[(("k",), tgt)] = rng.uniform(0.01, 0.99)
        delta = DeltaTable(probs)
        chart = forward_insertion_merging(WALK_X, WALK_Y, delta)
        a22, a33 = chart.value(2, 2), chart.value(3, 3)
        want44 = (
            a33 * delta.prob(("k",), ("k",))
            + a22 * delta.prob(("k",), ("l", "k"))
        )
        want55 = (
            a33 * delta.prob(("k",), ("k", "e"))
            + a22 * delta.prob(("k",), ("l", "k", "e"))
        )
        assert abs(chart.value(4, 4) - want44) < 1e-12
        assert abs(chart.value(5, 5) - want55) < 1e-12
    _ok(3, "alpha(1,1)=0.9, alpha(2,2)=0.54, alpha(3,3)=0.72 exactly; "
           "two-path sums hold for arbitrary deltas")


def test_criterion_04_witten_bell_normalization():
    rng = random.Random(104)
    words = [
        tuple(rng.choice("abcdef") for _ in range(rng.randint(2, 7)))
        for _ in range(100)
    ]
    lm = train_charlm(words, 4)
    support = sorted(lm.alphabet) + [EOS]
    checked = 0
    for table in lm.tables:
        for history in table:
            total = sum(lm.prob(history, w) for w in support)
            assert abs(total - 1.0) <= 1e-9
            checked += 1
    # an unseen full-order history must reproduce the lower order exactly
    unseen = ("f", "f", "f")
    assert unseen not in lm.tables[3]
    for w in support:
        assert lm.prob(unseen, w) == lm.prob(("f", "f"), w)
    _ok(4, f"{checked} seen histories sum to 1 +- 1e-9; unseen-history "
           "backoff equals the lower order exactly")


def test_criterion_05_cumulative_bin_semantics():
    bins = BinConfig(
        (-0.75, -0.825, -0.9, -0.975, -1.05, -1.125, -1.2),
        mu=-0.975, sigma=0.15,
    )
    fired = lm_bin_features(-0.85, bins)
    assert fired == {2, 3, 4, 5, 6}  # -0.9, -0.975, -1.05, and all lower
    assert lm_bin_features(-2.0, bins) == {bins.catch_all}
    rng = random.Random(105)
    scores = sorted(rng.uniform(-2.0, 0.0) for _ in range(1000))
    prev = None
    for score in scores:
        current = lm_bin_features(score, bins) - {bins.catch_all}
        if prev is not None:
            assert prev <= current
        prev = current
    _ok(5, "worked -0.85 case fires exactly the at-or-below thresholds; "
           "firing sets nested over 1000 random scores")


def test_criterion_06_trie_brute_force_oracle():
    rng = random.Random(106)
    counts = {}
    while len(counts) < 1000:
        w = tuple(rng.choice("abcde") for _ in range(rng.randint(1, 8)))
        counts[w] = rng.randint(1, 99)
    lexicon = Lexicon(counts)
    root = build_trie(lexicon)
    prefixes = {w[:k] for w in counts for k in range(len(w) + 1)}
    for p in prefixes:
        brute = sum(c for w, c in counts.items() if w[: len(p)] == p)
        assert prefix_count(root, p) == brute
    assert trie_words(root) == counts
    _ok(6, f"{len(prefixes)} prefix counts match brute force; "
           "exact-word counts reconstruct the lexicon")


def test_criterion_07_decoder_exactness():
    rng = random.Random(107)
    for _ in range(40):
        rules = set()
        while len(rules) < rng.randint(2, 12):
            rules.add(
                Rule(
                    tuple(rng.choice("abc") for _ in range(rng.randint(1, 2))),
                    tuple(rng.choice("xy") for _ in range(rng.randint(0, 2))),
                )
            )
        model = Model(
            weights={}, rules=frozenset(rules),
            config=FeatureConfig(
                context_window=rng.randint(0, 2),
                target_order=rng.randint(1, 2),
                joint_order=rng.randint(1, 2),
                lm_features=False, freq_features=False,
            ),
        )
        x = tuple(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        keys = set()
        for _, _, deriv in brute_decode(x, model, 10**9):
            keys.update(derivation_features(x, deriv, model)[0])
        keys = sorted(keys, key=lambda k: repr(model.alphabet.names[k]))
        model.weights.update({k: rng.uniform(-1, 1) for k in keys})
        n = rng.randint(1, 6)
        want = brute_decode(x, model, n)
        got = decode_nbest(x, model, 10**5, n)
        assert [c.output for c in got] == [w[1] for w in want]
        for cand, (score, _, _) in zip(got, want):
            assert abs(cand.score - score) < 1e-9
    _ok(7, "beam n-best equals exhaustive enumeration on 40 instances")


def test_criterion_08_mira_contract():
    rng = random.Random(108)
    keys = [("f", i) for i in range(8)]
    cap = 0.5
    tight, clipped, skipped = 0, 0, 0
    for _ in range(100):
        weights = {k: rng.uniform(-1, 1) for k in keys}
        gold_feats = {k: float(rng.randint(0, 2)) for k in keys}
        cand_feats = {k: float(rng.randint(0, 2)) for k in keys}
        gold = Candidate(("g",), (), 0.0, gold_feats)
        cand = Candidate((rng.choice("bq"),), (), 0.0, cand_feats)
        before = dict(weights)
        mira_update(weights, gold, [cand], c=cap)
        diff = {k: gold_feats[k] - cand_feats[k] for k in keys}
        sqnorm = sum(v * v for v in diff.values())
        delta = {k: weights[k] - before[k] for k in keys}
        step_sq = sum(v * v for v in delta.values())
        if step_sq == 0.0:
            skipped += 1
            continue
        tau = sum(delta[k] * diff[k] for k in keys) / sqnorm
        assert tau <= cap + 1e-12
        cost = loss(gold.output, cand.output)
        margin_before = _dot(before, diff)
        required = (cost - margin_before) / sqnorm
        if required <= cap:
            assert abs(_dot(weights, diff) - cost) <= 1e-9
            tight += 1
        else:
            assert abs(tau - cap) <= 1e-12
            clipped += 1
    assert tight > 0 and clipped > 0
    _ok(8, f"{tight} unclipped updates tight to 1e-9, {clipped} clipped at C, "
           f"{skipped} no-ops; tau never exceeded C")


def test_criterion_09_end_to_end_learnability():
    rng = random.Random(109)
    started = time.monotonic()
    pairs = context_pairs(rng, 100)
    held = context_pairs(rng, 100)
    model = train(
        pairs, context_alignments(pairs),
        cfg=TrainConfig(epochs=10, nbest=5, beam=10),
        feature_config=FeatureConfig(lm_features=False, freq_features=False),
    )
    hits = sum(
        decode_nbest(p.source, model, 10, 1)[0].output == p.target
        for p in held
    )
    elapsed = time.monotonic() - started
    assert hits == len(held)
    assert elapsed < 60.0
    _ok(9, f"100/100 held-out in {elapsed:.1f}s (limit 60s)")


def _run_lexicon_variant(lexicon, pairs, held, use_corpus, use_precision):
    if use_precision:
        alignments = precision_align(pairs)
    else:
        alignments = baseline_align(pairs, AlignParams(2, 2, True, False))
    lm = lm_bins = trie = freq_bins = None
    if use_corpus:
        words = list(lexicon.counts)
        lm = train_charlm(words, 4)
        lm_bins = make_bins(lm, words)
        trie = build_trie(lexicon)
        freq_bins = FreqBinConfig()
    model = train(
        None, alignments,
        cfg=TrainConfig(epochs=10, nbest=10, beam=20),
        feature_config=FeatureConfig(
            lm_features=use_corpus, freq_features=use_corpus
        ),
        lm=lm, lm_bins=lm_bins, trie=trie, freq_bins=freq_bins,
    )
    hits = 0
    for inst in held:
        cands = decode_nbest(inst.source, model, 20, 1)
        if cands and cands[0].output in inst.references:
            hits += 1
    return hits / len(held)


def test_criterion_10_corpus_features_and_precision_direction():
    full, ablated, base22 = [], [], []
    for seed in range(5):
        lexicon, pairs, held = lexicon_task(200 + seed)
        full.append(_run_lexicon_variant(lexicon, pairs, held, True, True))
        ablated.append(_run_lexicon_variant(lexicon, pairs, held, False, True))
        base22.append(_run_lexicon_variant(lexicon, pairs, held, True, False))
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(full) > mean(ablated), (full, ablated)
    assert mean(full) >= mean(base22), (full, base22)
    _ok(10, f"mean accuracy over 5 seeds: full={mean(full):.3f} > "
            f"no-corpus={mean(ablated):.3f}; precision={mean(full):.3f} >= "
            f"2-2 baseline={mean(base22):.3f}")


def test_criterion_11_pruning_rule():
    target = Lexicon({("t", "h", "e"): 2, ("ñ", "u"): 8, ("z", "q"): 1})
    english = Lexicon({("t", "h", "e"): 50, ("z", "q"): 1, ("o", "f"): 49})
    pruned = prune_lexicon(target, english)
    # P_en(the)=0.5 > P_tgt(the)=2/11: removed
    assert ("t", "h", "e") not in pruned.counts
    # English-absent word kept
    assert ("ñ", "u") in pruned.counts
    # P_en(zq)=0.01 <= P_tgt(zq)=1/11: kept
    assert ("z", "q") in pruned.counts
    # ties kept: equal probabilities survive
    t2 = Lexicon({("a",): 1, ("b",): 1})
    e2 = Lexicon({("a",): 1, ("c",): 1})
    assert ("a",) in prune_lexicon(t2, e2).counts
    # idempotence
    assert prune_lexicon(pruned, english).counts == pruned.counts
    rng = random.Random(111)
    t3 = Lexicon({
        tuple(rng.choice("ab") for _ in range(3)): rng.randint(1, 30)
        for _ in range(30)
    })
    e3 = Lexicon({
        tuple(rng.choice("ab") for _ in range(3)): rng.randint(1, 30)
        for _ in range(30)
    })
    once = prune_lexicon(t3, e3)
    assert prune_lexicon(once, english=e3).counts == once.counts
    _ok(11, "removal iff English probability strictly exceeds target; "
            "English-absent kept; idempotent")
