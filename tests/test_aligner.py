import dataclasses
import math
import random
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartrans import aligner
from chartrans.aligner import (
    ONE_TO_ONE,
    AlignParams,
    Alignment,
    AlignmentLink,
    DeltaTable,
    backward,
    baseline_align,
    em_train,
    format_alignment,
    forward,
    forward_insertion_merging,
    parse_alignment,
    pass1_align,
    precision_align,
    read_alignments,
    viterbi_nbest,
    write_alignments,
)
from chartrans.core import NULL, ParseError, TrainingPair

from toytask import (
    brute_alignments,
    brute_merge_sum,
    brute_path_sum,
    lexicon_task,
    random_delta,
)

# Mini corpus around the phoneme-to-letter walkthrough pair: enough
# support for w-w, ɔ-al, and k-k links that the alignment statistics are
# no longer degenerate.
WALK = TrainingPair(("w", "ɔ", "k"), ("w", "a", "l", "k", "e", "d"))
WALK_SUPPORT = [
    WALK,
    TrainingPair(("w",), ("w",)),
    TrainingPair(("k",), ("k",)),
    TrainingPair(("ɔ",), ("a", "l")),
    TrainingPair(("ɔ", "k"), ("a", "l", "k")),
]


def test_forward_empty_pair():
    chart = forward((), (), DeltaTable({}), ONE_TO_ONE)
    assert chart.value(0, 0) == 1.0
    assert chart.corner() == 1.0


def test_forward_single_link():
    delta = DeltaTable({(("a",), ("b",)): 0.4})
    params = AlignParams(1, 1, False, False)
    chart = forward(("a",), ("b",), delta, params)
    assert chart.value(1, 1) == pytest.approx(0.4, abs=1e-12)


def test_forward_two_by_two_matches_enumeration():
    rng = random.Random(5)
    x, y = ("a", "b"), ("c", "d")
    params = AlignParams(2, 2, False, False)
    delta = random_delta(x, y, rng, params)
    total = forward(x, y, delta, params).corner()
    # without insertions or deletions only two tilings cover (ab, cd)
    closed_form = (
        delta.prob(("a",), ("c",)) * delta.prob(("b",), ("d",))
        + delta.prob(("a", "b"), ("c", "d"))
    )
    assert total == pytest.approx(closed_form, abs=1e-12)
    assert total == pytest.approx(brute_path_sum(x, y, delta, params), abs=1e-10)


def test_forward_backward_brute_agree_randomized():
    rng = random.Random(99)
    for _ in range(60):
        T, V = rng.randint(0, 5), rng.randint(0, 5)
        x = tuple(rng.choice("ab") for _ in range(T))
        y = tuple(rng.choice("cd") for _ in range(V))
        params = AlignParams(
            max_x=rng.randint(1, 2),
            max_y=rng.randint(1, 2),
            allow_deletion=rng.random() < 0.7,
            allow_insertion=rng.random() < 0.5,
        )
        delta = random_delta(x, y, rng, params)
        total = forward(x, y, delta, params).corner()
        assert total == pytest.approx(
            brute_path_sum(x, y, delta, params), abs=1e-10
        )
        assert backward(x, y, delta, params).value(0, 0) == pytest.approx(
            total, abs=1e-10
        )


def test_backward_empty_and_single():
    assert backward((), (), DeltaTable({}), ONE_TO_ONE).value(0, 0) == 1.0
    delta = DeltaTable({(("a",), ("b",)): 0.7})
    params = AlignParams(1, 1, False, False)
    assert backward(("a",), ("b",), delta, params).value(0, 0) == pytest.approx(0.7)


def test_em_keeps_a_pair_whose_likelihood_underflows():
    # 100 distinct symbols, one to one: the grid has 100 ** 2 span pairs,
    # so the only path's likelihood under uniform delta is 1e-400, 0.0 as a
    # float, and that pair's E-step sums in Decimal where the short pair's
    # sums in floats
    long = TrainingPair(tuple(f"a{i}" for i in range(100)),
                        tuple(f"b{i}" for i in range(100)))
    short = TrainingPair(("a0",), ("b0",))
    params = AlignParams(1, 1, False, False, max_iterations=3, tol=1e-300)
    keys = {}
    lattices = [aligner._m2m_edges(p.source, p.target, params.moves(), keys)
                for p in (long, short)]
    d = [1.0 / len(keys)] * len(keys)
    assert aligner._inside(lattices[0].nodes, lattices[0].edges, d, 0)[-1] == 0.0
    uniform = DeltaTable(dict.fromkeys(keys, 1.0 / len(keys)))
    lls = [forward(p.source, p.target, uniform, params).log_corner()
           for p in (long, short)]
    assert lls[0] == pytest.approx(-100 * math.log(100 ** 2), rel=1e-12)
    history = []
    delta = em_train([long, short], params, history)
    assert delta._take_fit()[2] == [0, 1]
    assert history[0][0] == 0.0 + lls[0] + lls[1]
    # every key of the long pair's path keeps its count of one
    assert delta.prob(("a1",), ("b1",)) == pytest.approx(1 / 101, rel=1e-12)
    assert delta.prob(("a0",), ("b0",)) == pytest.approx(2 / 101, rel=1e-12)
    assert len(delta) == 100


# Decimal arithmetic of the references below: 60 digits, no exponent limit
# that a path's product could reach.
REFERENCE = Context(prec=60, Emin=MIN_EMIN, Emax=MAX_EMAX)


def _decimal_thunk(d):
    return lambda: [Decimal(p) for p in d]


def test_a_subnormal_likelihood_is_its_exact_log_rounded():
    x, y = ("a", "b"), ("p", "q")
    keys = {}
    lattice = aligner._m2m_edges(x, y, AlignParams(1, 1, False, False).moves(), keys)
    small = {(("a",), ("p",)): 1e-160, (("b",), ("q",)): 1e-155}
    d = [small.get(key, 0.0) for key in keys]
    z = aligner._inside(lattice.nodes, lattice.edges, d, 0)[-1]
    assert 0.0 < z < aligner.MIN_NORMAL
    gamma = {}
    ll = aligner._estep(lattice, d, gamma, _decimal_thunk(d))
    with localcontext(REFERENCE):
        exact = float((Decimal(1e-160) * Decimal(1e-155)).ln())
    assert ll == exact == -725.3143042931243
    assert gamma == {keys[(("a",), ("p",))]: 1.0, keys[(("b",), ("q",))]: 1.0}


def _reference_estep(x, y, moves, prob):
    """A pair's log-likelihood and expected span-pair counts under prob
    (span pair → float probability), by forward-backward over the grid's
    cells at 60 digits: alpha[t][v] sums the paths from (0, 0) to (t, v),
    beta[t][v] those from (t, v) to the corner.  Each link's count is
    rounded to float and added cell by cell, move by move, as EM adds
    them."""
    T, V = len(x), len(y)
    with localcontext(REFERENCE):
        link = {(t, i, v, j): Decimal(prob[(x[t - i:t], y[v - j:v])])
                for t in range(T + 1) for v in range(V + 1) for i, j in moves
                if i <= t and j <= v}
        alpha = [[Decimal(0)] * (V + 1) for _ in range(T + 1)]
        alpha[0][0] = Decimal(1)
        for (t, i, v, j), p in link.items():
            alpha[t][v] += alpha[t - i][v - j] * p
        beta = [[Decimal(0)] * (V + 1) for _ in range(T + 1)]
        beta[T][V] = Decimal(1)
        for (t, i, v, j), p in reversed(link.items()):
            beta[t - i][v - j] += p * beta[t][v]
        z = alpha[T][V]
        counts = {}
        for (t, i, v, j), p in link.items():
            path = alpha[t - i][v - j] * p * beta[t][v]
            if path:
                key = (x[t - i:t], y[v - j:v])
                counts[key] = counts.get(key, 0.0) + float(path / z)
        return float(z.ln()), counts


def test_a_multi_path_underflowing_pair_is_summed_exactly():
    # 40 distinct symbols a side under 2-2 moves with deletions: a path
    # has 20 to 40 links of δ below 1e-16, so the float likelihood is 0.0,
    # and the mass spreads over many paths
    x = tuple(f"a{i}" for i in range(40))
    y = tuple(f"b{i}" for i in range(40))
    params = AlignParams(2, 2, True, False)
    keys = {}
    lattice = aligner._m2m_edges(x, y, params.moves(), keys)
    rng = random.Random(28)
    d = [rng.uniform(1e-18, 1e-16) for _ in keys]
    assert aligner._inside(lattice.nodes, lattice.edges, d, 0)[-1] == 0.0
    ll, counts = _reference_estep(x, y, params.moves(), dict(zip(keys, d)))
    spans = list(keys)
    gamma = {}
    assert aligner._estep(lattice, d, gamma, _decimal_thunk(d)) == ll
    assert {spans[k]: c for k, c in gamma.items()} == counts
    assert len(counts) > 100
    assert any(not target for _, target in counts)  # deletions carry mass
    delta = DeltaTable(dict(zip(keys, d)))
    assert forward(x, y, delta, params).log_corner() == ll
    # the caller's own context, too coarse and too narrow for these sums,
    # changes nothing
    with localcontext(Context(prec=3, Emin=-10, Emax=10)):
        again = {}
        assert aligner._estep(lattice, d, again, _decimal_thunk(d)) == ll
        assert forward(x, y, delta, params).log_corner() == ll
    assert again == gamma


small_pairs = st.lists(
    st.builds(
        lambda x, y: TrainingPair(tuple(x), tuple(y)),
        st.lists(st.sampled_from("ab"), min_size=1, max_size=5),
        st.lists(st.sampled_from("xy"), min_size=1, max_size=6),
    ),
    min_size=1, max_size=4,
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from([AlignParams(2, 2, True, False), AlignParams(1, 2, False, True),
                     ONE_TO_ONE]),
    small_pairs,
)
def test_first_em_log_likelihood_is_the_brute_force_sum(params, pairs):
    keys = {}
    for p in pairs:
        aligner._m2m_edges(p.source, p.target, params.moves(), keys)
    uniform = DeltaTable(dict.fromkeys(keys, 1.0 / len(keys)))
    sums = [brute_path_sum(p.source, p.target, uniform, params) for p in pairs]
    history = []
    em_train(pairs, dataclasses.replace(params, max_iterations=1), history)
    if not any(sums):
        assert history == []
    else:
        want = sum(math.log(s) for s in sums if s > 0.0)
        assert history[0][0] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_em_forced_alignment_joint_normalization():
    pairs = [TrainingPair(("a", "b"), ("a", "b"))]
    delta = em_train(pairs, AlignParams(1, 1, False, False))
    assert delta.prob(("a",), ("a",)) == pytest.approx(0.5, abs=1e-9)
    assert delta.prob(("b",), ("b",)) == pytest.approx(0.5, abs=1e-9)


def test_em_single_path():
    delta = em_train(
        [TrainingPair(("a",), ("b",))], AlignParams(1, 1, False, False)
    )
    assert delta.prob(("a",), ("b",)) == pytest.approx(1.0, abs=1e-12)


def _synthetic_rule_pairs(rng, count):
    """Monotone rewriting data: every symbol rewrites to a fixed string."""
    table = {
        s: tuple(rng.choice("xyz") for _ in range(rng.randint(1, 2)))
        for s in "abcde"
    }
    pairs = []
    for _ in range(count):
        src = tuple(rng.choice("abcde") for _ in range(rng.randint(2, 5)))
        tgt = tuple(t for s in src for t in table[s])
        pairs.append(TrainingPair(src, tgt))
    return pairs


def test_em_loglikelihood_monotone_and_normalized():
    rng = random.Random(11)
    pairs = _synthetic_rule_pairs(rng, 50)
    history = []
    em_train(
        pairs,
        AlignParams(2, 2, True, False, max_iterations=20, tol=1e-300),
        history=history,
    )
    assert len(history) >= 2
    lls = [ll for ll, _ in history]
    for prev, cur in zip(lls, lls[1:]):
        assert cur >= prev - 1e-9
    for _, mass in history:
        assert mass == pytest.approx(1.0, abs=1e-9)


def test_em_excludes_unalignable_pair(caplog):
    # 2 source symbols vs 1 target symbol cannot align 1-1 without deletions
    pairs = [
        TrainingPair(("a",), ("b",)),
        TrainingPair(("a", "a"), ("b",)),
    ]
    with caplog.at_level("WARNING"):
        delta = em_train(pairs, AlignParams(1, 1, False, False))
    assert delta.prob(("a",), ("b",)) == pytest.approx(1.0)
    assert any("excluded" in rec.message for rec in caplog.records)


def test_each_unalignable_pair_warns_once(caplog):
    # one symbol cannot spell three under 2-2 without insertions, nor two
    # symbols one under 1-1 without deletions
    with caplog.at_level("WARNING"):
        baseline = baseline_align([
            TrainingPair(("a",), ("p", "q", "r")),
            TrainingPair(("a",), ("p",)),
        ])
        padded = pass1_align(
            [TrainingPair(("a", "a"), ("b",)), TrainingPair(("a",), ("b",))],
            AlignParams(1, 1, False, False),
        )
    assert len(baseline) == 1 and len(padded) == 1
    warnings = [rec.getMessage() for rec in caplog.records]
    assert warnings == ["pair 0 cannot be aligned; excluded"] * 2


def test_viterbi_single_pair():
    delta = DeltaTable({(("a",), ("b",)): 0.3})
    best = viterbi_nbest(("a",), ("b",), delta, AlignParams(1, 1, False, False), 1)
    assert len(best) == 1
    assert best[0].links == (AlignmentLink(("a",), ("b",)),)
    assert best[0].likelihood == pytest.approx(0.3)


def test_viterbi_matches_brute_force_max():
    rng = random.Random(21)
    x, y = ("a", "b"), ("c",)
    params = AlignParams(2, 1, True, False)
    delta = random_delta(x, y, rng, params)
    best = viterbi_nbest(x, y, delta, params, 1)[0]
    brute = max(brute_alignments(x, y, delta, params))
    assert best.likelihood == pytest.approx(brute[0], abs=1e-12)


def test_viterbi_uniform_ties_match_brute_max():
    # three alignments of (ab, c) tie under a uniform delta; the 1-best
    # still carries the brute-force maximum likelihood and the pick is
    # deterministic
    x, y = ("a", "b"), ("c",)
    params = AlignParams(2, 1, True, False)
    keys = [(("a",), ("c",)), (("b",), ("c",)), (("a", "b"), ("c",)),
            (("a",), ()), (("b",), ())]
    delta = DeltaTable({k: 0.2 for k in keys})
    best = viterbi_nbest(x, y, delta, params, 1)[0]
    brute = max(p for p, _ in brute_alignments(x, y, delta, params))
    assert best.likelihood == pytest.approx(brute, abs=1e-12)
    again = viterbi_nbest(x, y, delta, params, 1)[0]
    assert again.links == best.links


def test_viterbi_returns_each_path_once():
    rng = random.Random(22)
    x, y = ("a", "b"), ("c", "d")
    params = AlignParams(2, 2, True, True)
    delta = random_delta(x, y, rng, params)
    paths = brute_alignments(x, y, delta, params)
    got = viterbi_nbest(x, y, delta, params, len(paths) + 50)
    assert len(got) == len(paths)
    got_keys = [tuple((l.source, l.target) for l in a.links) for a in got]
    assert len(set(got_keys)) == len(got_keys)
    want = sorted((p for p, _ in paths), reverse=True)
    for alignment, prob in zip(got, want):
        assert alignment.likelihood == pytest.approx(prob, abs=1e-12)


def test_viterbi_best_bounded_by_forward_total():
    rng = random.Random(23)
    for _ in range(20):
        x = tuple(rng.choice("ab") for _ in range(rng.randint(1, 4)))
        y = tuple(rng.choice("cd") for _ in range(rng.randint(1, 4)))
        params = AlignParams(2, 2, True, True)
        delta = random_delta(x, y, rng, params)
        best = viterbi_nbest(x, y, delta, params, 1)
        if best:
            total = forward(x, y, delta, params).corner()
            assert best[0].likelihood <= total + 1e-12


def test_viterbi_empty_when_unreachable():
    assert viterbi_nbest(("a",), ("b", "c"), DeltaTable({}),
                         AlignParams(1, 1, False, False), 3) == []


def test_pass1_identity_pair():
    padded = pass1_align([TrainingPair(("a",), ("a",))])
    assert padded == [TrainingPair(("a",), ("a",))]


def test_pass1_forced_deletion():
    padded = pass1_align([TrainingPair(("a", "b"), ("a",))])
    assert len(padded) == 1
    src, tgt = padded[0].source, padded[0].target
    assert len(src) == len(tgt) == 2
    assert tuple(s for s in src if s != NULL) == ("a", "b")
    assert tuple(t for t in tgt if t != NULL) == ("a",)
    assert NULL in tgt and NULL not in src


def test_pass1_padding_round_trips():
    padded = pass1_align(WALK_SUPPORT)
    assert len(padded) == len(WALK_SUPPORT)
    for pair, orig in zip(padded, WALK_SUPPORT):
        assert len(pair.source) == len(pair.target)
        assert tuple(s for s in pair.source if s != NULL) == orig.source
        assert tuple(t for t in pair.target if t != NULL) == orig.target
    # the walkthrough pair needs exactly three source-side nulls
    walk_padded = padded[0]
    assert walk_padded.source.count(NULL) == 3
    assert NULL not in walk_padded.target


WALK_DELTA = DeltaTable(
    {
        (("w",), ("w",)): 0.9,
        (("ɔ",), ("a",)): 0.6,
        (("ɔ",), ("a", "l")): 0.8,
        (("k",), ("k",)): 0.35,
        (("k",), ("l", "k")): 0.2,
        (("k",), ("k", "e")): 0.15,
        (("k",), ("l", "k", "e")): 0.1,
        (("k",), ("k", "e", "d")): 0.12,
        (("k",), ("l", "k", "e", "d")): 0.07,
    }
)
WALK_X = ("w", "ɔ", NULL, "k", NULL, NULL)
WALK_Y = ("w", "a", "l", "k", "e", "d")


def test_insertion_merging_walkthrough_values():
    chart = forward_insertion_merging(WALK_X, WALK_Y, WALK_DELTA)
    assert chart.value(1, 1) == pytest.approx(0.9, abs=1e-12)
    assert chart.value(2, 2) == pytest.approx(0.54, abs=1e-12)
    assert chart.value(3, 3) == pytest.approx(0.72, abs=1e-12)


def test_insertion_merging_two_path_sums_hold_for_any_delta():
    rng = random.Random(31)
    for _ in range(5):
        probs = dict(WALK_DELTA.probs)
        for key in list(probs):
            if key[0] == ("k",):
                probs[key] = rng.uniform(0.01, 0.99)
        delta = DeltaTable(probs)
        chart = forward_insertion_merging(WALK_X, WALK_Y, delta)
        a22, a33 = chart.value(2, 2), chart.value(3, 3)
        assert chart.value(4, 4) == pytest.approx(
            a33 * delta.prob(("k",), ("k",))
            + a22 * delta.prob(("k",), ("l", "k")),
            abs=1e-12,
        )
        assert chart.value(5, 5) == pytest.approx(
            a33 * delta.prob(("k",), ("k", "e"))
            + a22 * delta.prob(("k",), ("l", "k", "e")),
            abs=1e-12,
        )


def test_insertion_merging_leading_null_cells_hold_one():
    x = (NULL, NULL, "a")
    y = ("p", "q", "r")
    delta = DeltaTable({(("a",), ("p", "q", "r")): 0.5})
    chart = forward_insertion_merging(x, y, delta)
    for t in (0, 1, 2):
        for v in range(4):
            assert chart.value(t, v) == 1.0
    assert chart.value(3, 3) == pytest.approx(0.5, abs=1e-12)


def test_insertion_merging_without_nulls_equals_strict_forward():
    rng = random.Random(32)
    x = tuple(rng.choice("ab") for _ in range(4))
    y = tuple(rng.choice("cd") for _ in range(4))
    params = AlignParams(1, 1, False, False)
    delta = random_delta(x, y, rng, params)
    merged = forward_insertion_merging(x, y, delta)
    strict = forward(x, y, delta, params)
    for t in range(5):
        assert merged.log[t][t] == strict.log[t][t]  # bit-exact
    assert merged.log_corner() == strict.log_corner()


def test_insertion_merging_length_mismatch():
    with pytest.raises(ValueError):
        forward_insertion_merging(("a",), ("b", "c"), DeltaTable({}))


def _pass2_loglik(x, y, delta):
    """The log-likelihood pass-2 EM gives one padded pair under delta."""
    keys = {}
    lattice = aligner._merge_edges(x, y, keys)
    d = [delta.prob(*key) for key in keys]
    return aligner._estep(lattice, d, {}, _decimal_thunk(d))


def _random_padded_pair(rng):
    src, tgt = [], []
    for _ in range(rng.randint(1, 7)):
        kind = rng.random()
        if kind < 0.35:  # insertion: null on the source
            src.append(NULL)
            tgt.append(rng.choice("pq"))
        elif kind < 0.5:  # deletion: null on the target
            src.append(rng.choice("ab"))
            tgt.append(NULL)
        else:
            src.append(rng.choice("ab"))
            tgt.append(rng.choice("pq"))
    return tuple(src), tuple(tgt)


def _random_merge_delta(x, y, rng):
    """Random probabilities on most spans holding one non-null source
    symbol; about a fifth are left out, so some pairs have no path."""
    probs = {}
    for i in range(len(x)):
        for j in range(i + 1, len(x) + 1):
            if sum(s != NULL for s in x[i:j]) == 1 and rng.random() < 0.8:
                key = (
                    tuple(s for s in x[i:j] if s != NULL),
                    tuple(t for t in y[i:j] if t != NULL),
                )
                probs[key] = rng.uniform(0.01, 0.99)
    return DeltaTable(probs)


def test_insertion_merging_corner_is_pass2_likelihood():
    # the leading null must merge right into b, so the only path links b
    # to q p; b -> p would drop q and belongs to no path
    x, y = (NULL, "b"), ("q", "p")
    delta = DeltaTable({(("b",), ("p",)): 0.9, (("b",), ("q", "p")): 0.5})
    corner = forward_insertion_merging(x, y, delta).log_corner()
    assert corner == _pass2_loglik(x, y, delta) == math.log(0.5)
    rng = random.Random(34)
    unreachable = 0
    for _ in range(1000):
        x, y = _random_padded_pair(rng)
        delta = _random_merge_delta(x, y, rng)
        corner = forward_insertion_merging(x, y, delta).log_corner()
        assert corner == _pass2_loglik(x, y, delta)
        brute = brute_merge_sum(x, y, delta)
        if brute == 0.0:
            unreachable += 1
            assert corner == float("-inf")
        else:
            assert corner == pytest.approx(math.log(brute), abs=1e-12)
    assert 0 < unreachable < 500


def test_precision_align_walkthrough_links():
    alignments = precision_align(WALK_SUPPORT)
    assert len(alignments) == len(WALK_SUPPORT)
    walk = alignments[0]
    assert [(l.source, l.target) for l in walk.links] == [
        (("w",), ("w",)),
        (("ɔ",), ("a", "l")),
        (("k",), ("k", "e", "d")),
    ]


def test_precision_align_no_nulls_is_one_to_one():
    pairs = [
        TrainingPair(("a", "b"), ("x", "y")),
        TrainingPair(("b", "a"), ("y", "x")),
    ]
    for alignment in precision_align(pairs):
        assert all(
            len(l.source) == 1 and len(l.target) == 1 for l in alignment.links
        )


def test_precision_align_leading_insertion_merges_right():
    # target two symbols, source one: pass 1 must put a null on the source
    pairs = [TrainingPair(("a",), ("x", "y"))]
    alignments = precision_align(pairs)
    assert alignments[0].links == (AlignmentLink(("a",), ("x", "y")),)


def test_precision_align_round_trip_invariants():
    rng = random.Random(41)
    table = {s: tuple(rng.choice("xyz") for _ in range(rng.randint(0, 2))) for s in "abc"}
    pairs = []
    for _ in range(30):
        src = tuple(rng.choice("abc") for _ in range(rng.randint(1, 5)))
        tgt = tuple(t for s in src for t in table[s])
        pairs.append(TrainingPair(src, tgt))
    alignments = precision_align(pairs)
    assert alignments, "non-degenerate data must align"
    for alignment in alignments:
        for link in alignment.links:
            assert link.source, "precision links never have empty sources"
            assert NULL not in link.source and NULL not in link.target
    # every alignment reconstructs one input pair; order is preserved
    kept = [TrainingPair(a.source(), a.target()) for a in alignments]
    cursor = 0
    for pair in kept:
        cursor = pairs.index(pair, cursor) + 1


def test_precision_align_excludes_sourceless_pair(caplog):
    pairs = [
        TrainingPair(("a",), ("x",)),
        TrainingPair((), ("x", "y")),  # nothing to merge insertions into
    ]
    with caplog.at_level("WARNING"):
        alignments = precision_align(pairs)
    assert len(alignments) == 1


def test_baseline_two_two_forces_pairing():
    # 3 phonemes over 6 letters under 2-2 without insertions has exactly
    # one tiling shape: 2+2+2, linking the second letter to the first phoneme.
    alignments = baseline_align([WALK], AlignParams(2, 2, True, False))
    assert alignments[0].links[0] == AlignmentLink(("w",), ("w", "a"))


def test_alignment_format_round_trip():
    alignment = Alignment(
        links=(
            AlignmentLink(("w",), ("w",)),
            AlignmentLink(("ɔ",), ("a", "l")),
            AlignmentLink(("k",), ()),
            AlignmentLink((), ("q",)),
        ),
        likelihood=0.5,
    )
    text = format_alignment(alignment)
    assert text == "w}w ɔ}a|l k}_ _}q"
    parsed = parse_alignment(text)
    assert parsed.links == alignment.links


def test_alignment_format_rejects_separator_symbols():
    clash = Alignment(links=(AlignmentLink(("a}b",), ("x",)),))
    with pytest.raises(ValueError, match="separator"):
        format_alignment(clash)
    clash2 = Alignment(links=(AlignmentLink(("a",), ("x|y",)),))
    with pytest.raises(ValueError, match="separator"):
        format_alignment(clash2)


def test_alignment_file_round_trip(tmp_path):
    alignments = precision_align(WALK_SUPPORT)
    path = tmp_path / "aligned.txt"
    with open(path, "w", encoding="utf-8") as out:
        write_alignments(alignments, out)
    again = read_alignments(path.read_text(encoding="utf-8"))
    assert [a.links for a in again] == [a.links for a in alignments]


def test_bad_alignment_line_names_its_number():
    with pytest.raises(ParseError, match="line 3: bad link 'bad'"):
        read_alignments("a}x b|c}y\n\nbad\n")


def test_em_log_lines_name_their_run(caplog):
    _, pairs, _ = lexicon_task(3, 300, 20, 1)
    with caplog.at_level("INFO", logger="chartrans.aligner"):
        precision_align(pairs)
        baseline_align(pairs)
    runs = {}
    for rec in caplog.records:
        if rec.msg.startswith("EM iteration"):
            run = rec.getMessage().split("(", 1)[1].split(")", 1)[0]
            runs.setdefault(run, []).append(rec.args[0])
    assert list(runs) == ["m2m 1-1", "merge pass 2", "m2m 2-2"]
    for iterations in runs.values():
        assert iterations == list(range(1, len(iterations) + 1))
