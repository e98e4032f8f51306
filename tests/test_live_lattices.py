"""EM's lattices are cut once, at build, to their live edges, and never
change during EM; these tests hold EM and decoding on them to the whole
grids the public views build, float for float.  "Trimmed" in a test name
means cut at build."""

import dataclasses
import logging
import os
import subprocess
import sys
from array import array
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chartrans
from chartrans import aligner
from chartrans.aligner import (
    ONE_TO_ONE,
    AlignParams,
    DeltaTable,
    baseline_align,
    em_train,
    forward,
    pass1_align,
    viterbi_nbest,
)
from chartrans.core import NULL, TrainingPair

from toytask import lexicon_task

NEG_INF = float("-inf")
TWO_TWO = AlignParams(2, 2, True, False)


def _pairs(*specs):
    return [TrainingPair(tuple(x), tuple(y)) for x, y in specs]


# Pair sets in which keys reach δ = 0 after the first iteration, by
# underflow, so later E-steps run over edges whose terms are 0.0.  In the
# 2-2 set, pairs 1 and 3 are unalignable: with no insertions, a source
# symbol covers at most two target symbols.
ZEROING_TWO_TWO = _pairs(
    ("b", "x"), ("a", "xyxx"), ("baba", "xyyxyx"), ("ba", "yyxyyy"),
    ("babab", "xyyx"),
)
ZEROING_ONE_TO_ONE = _pairs(("ab", "xxxy"))
# Padded pass-2 pairs; pair 1 is all null on the source, so nothing can
# absorb its insertion and pass 2 cannot align it.
ZEROING_PADDED = _pairs(
    (("b", "a", "a", "b", NULL, "a"), ("q", NULL, "q", "p", "q", "p")),
    ((NULL,), ("q",)),
    (("a",), ("q",)),
    (("b", "b", NULL, NULL, "b", NULL), ("p", NULL, "q", "p", "q", "p")),
)

symbols = st.lists(st.sampled_from("ab"), min_size=1, max_size=5)
targets = st.lists(st.sampled_from("xy"), min_size=1, max_size=6)
pair_sets = st.lists(
    st.builds(lambda x, y: TrainingPair(tuple(x), tuple(y)), symbols, targets),
    min_size=1, max_size=5,
)
padded_cells = st.sampled_from(
    [(NULL, "p"), (NULL, "q"), ("a", NULL), ("b", NULL),
     ("a", "p"), ("a", "q"), ("b", "p"), ("b", "q")]
)
padded_sets = st.lists(
    st.lists(padded_cells, min_size=1, max_size=7).map(
        lambda cells: TrainingPair(*map(tuple, zip(*cells)))
    ),
    min_size=1, max_size=4,
)


def _fold(lls):
    """EM's total log-likelihood: a left fold over the alignable pairs."""
    total = 0.0
    for ll in lls:
        if ll != NEG_INF:
            total += ll
    return total


def _uniform(keys):
    return DeltaTable(dict.fromkeys(keys, 1.0 / len(keys)) if keys else {})


def _em_runs(run, params, iterations=16):
    """(history, [δ after i iterations for i = 1 .. len(history) - 1]) of
    run(params with max_iterations = i); tol is tiny, so EM stops early
    only when its log-likelihood stops moving."""
    params = dataclasses.replace(params, max_iterations=iterations, tol=1e-300)
    history = []
    run(params, history)
    deltas = [
        run(dataclasses.replace(params, max_iterations=i), [])
        for i in range(1, len(history))
    ]
    return history, deltas


def _m2m_history_matches_forward(pairs, params):
    def run(p, history):
        return em_train(pairs, p, history)

    history, deltas = _em_runs(run, params)
    keys = {}
    for pair in pairs:
        aligner._m2m_edges(pair.source, pair.target, params.moves(), keys)
    for (ll, _), delta in zip(history, [_uniform(keys)] + deltas):
        corners = [
            forward(p.source, p.target, delta, params).log_corner() for p in pairs
        ]
        assert ll == _fold(corners)  # bit-exact
    return [len(delta) for delta in deltas]


def _pass2_history_matches_estep(pairs):
    keys = {}
    for pair in pairs:
        aligner._merge_edges(pair.source, pair.target, keys)
    spans = list(keys)

    def run(p, history):
        lattices = [
            aligner._merge_edges(x.source, x.target, keys, live=True) for x in pairs
        ]
        return aligner._em(lattices, spans, p, history)[0]

    history, deltas = _em_runs(run, ONE_TO_ONE)
    for (ll, _), delta in zip(history, [_uniform(spans)] + deltas):
        d = [delta.prob(*span) for span in spans]
        lls = [
            aligner._estep(aligner._merge_edges(p.source, p.target, keys), d, {},
                           lambda: aligner._logs(d))
            for p in pairs
        ]
        assert ll == _fold(lls)  # bit-exact
    return [len(delta) for delta in deltas]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from([TWO_TWO, ONE_TO_ONE]), pair_sets)
@example(TWO_TWO, ZEROING_TWO_TWO)
@example(ONE_TO_ONE, ZEROING_ONE_TO_ONE)
def test_em_history_is_the_fold_of_untrimmed_forward(params, pairs):
    _m2m_history_matches_forward(pairs, params)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(padded_sets)
@example(ZEROING_PADDED)
def test_pass2_history_is_the_fold_of_untrimmed_estep(pairs):
    _pass2_history_matches_estep(pairs)


@pytest.mark.parametrize(
    "check",
    [
        lambda: _m2m_history_matches_forward(ZEROING_TWO_TWO, TWO_TWO),
        lambda: _m2m_history_matches_forward(ZEROING_ONE_TO_ONE, ONE_TO_ONE),
        lambda: _pass2_history_matches_estep(ZEROING_PADDED),
    ],
)
def test_zeroing_examples_lose_keys_after_the_first_iteration(check, caplog):
    with caplog.at_level(logging.WARNING):
        sizes = check()
    assert sizes[-1] < sizes[0]


def test_em_logs_one_line_per_iteration(caplog):
    history = []
    params = dataclasses.replace(TWO_TWO, max_iterations=16, tol=1e-300)
    with caplog.at_level(logging.INFO, logger="chartrans.aligner"):
        delta = em_train(ZEROING_TWO_TWO, params, history)
    lines = [r.args for r in caplog.records if r.msg.startswith("EM iteration")]
    assert len(lines) == len(history) == 16
    assert [line[0] for line in lines] == list(range(1, 17))
    assert [line[1] for line in lines] == [ll for ll, _ in history]
    assert {line[2] for line in lines} == {len(ZEROING_TWO_TWO) - 2}
    assert lines[-1][3] == len(delta)
    # each line counts the kept pairs' edges whose span pair has positive δ
    # after its iteration, so the count falls when δ loses an entry
    lattices, spans, kept = delta._take_fit()
    edges = [spans[k] for idx in kept for k in lattices[idx].edges[2::3]]
    live = sum(span in delta for span in edges)
    assert [line[3] for line in lines] == [24] * 13 + [23] * 3
    assert [line[4] for line in lines] == [len(edges)] * 13 + [live] * 3
    assert live < len(edges)


def _orders_hold(lattice, gamma_from_goal):
    """out and gamma are edges stably regrouped: reversed and by descending
    from node, and (merge lattices) by descending to node, as the E-step
    once sorted them on every call."""
    edges = list(aligner._triples(lattice.edges))
    assert list(aligner._triples(lattice.out)) == [
        (dst, src, key)
        for src, dst, key in sorted(edges, key=itemgetter(0), reverse=True)
    ]
    gamma = sorted(edges, key=itemgetter(1), reverse=True) if gamma_from_goal else edges
    assert list(aligner._triples(lattice.gamma)) == gamma
    assert all(0 <= node < lattice.nodes for edge in edges for node in edge[:2])


def _bytes(lattices):
    return [(x.edges.tobytes(), x.out.tobytes(), x.gamma.tobytes()) for x in lattices]


def test_em_leaves_every_lattice_as_built(caplog):
    # the zeroing pairs drive keys to δ = 0 after iteration 1, so their
    # lattices hold edges whose terms are 0.0 from then on
    _, pairs, _ = lexicon_task(5, 400, 40, 1)
    padded = aligner.pass1_align(pairs) + ZEROING_PADDED
    for build, items, from_goal in [
        (lambda p, keys, live: aligner._m2m_edges(
            p.source, p.target, TWO_TWO.moves(), keys, live=live),
         pairs + ZEROING_TWO_TWO, False),
        (lambda p, keys, live: aligner._merge_edges(
            p.source, p.target, keys, live=live), padded, True),
    ]:
        for live in (False, True):
            keys = {}
            lattices = [build(p, keys, live) for p in items]
            for lattice in lattices:
                _orders_hold(lattice, from_goal)
            built = _bytes(lattices)
            params = dataclasses.replace(TWO_TWO, max_iterations=16, tol=1e-300)
            with caplog.at_level(logging.ERROR):
                aligner._em(lattices, list(keys), params)
            assert _bytes(lattices) == built


def test_trims_keep_grid_node_ids():
    # a trimmed lattice still has one node per grid cell, and its charts
    # hold the fresh lattice's values at every cell on a live path
    _, pairs, _ = lexicon_task(5, 400, 40, 1)
    moves = TWO_TWO.moves()
    keys = {}
    trimmed = [aligner._m2m_edges(p.source, p.target, moves, keys, live=True)
               for p in pairs]
    delta, active = aligner._em(trimmed, list(keys), TWO_TWO)
    logd = [delta.logp(*key) for key in keys]
    for idx in active:
        x, y = pairs[idx].source, pairs[idx].target
        fresh = aligner._m2m_edges(x, y, moves, keys)
        assert trimmed[idx].nodes == fresh.nodes == (len(x) + 1) * (len(y) + 1)
        assert len(trimmed[idx].edges) < len(fresh.edges)
        alpha, beta = aligner._forward(fresh, logd), aligner._backward(fresh, logd)
        live = [n for n in range(fresh.nodes) if alpha[n] + beta[n] != NEG_INF]
        for chart, full in ((aligner._forward, alpha), (aligner._backward, beta)):
            values = chart(trimmed[idx], logd)
            assert [values[n] for n in live] == [full[n] for n in live]


def test_pass2_decode_over_trimmed_lattices_matches_fresh_lattices():
    _, pairs, _ = lexicon_task(7, 400, 60, 1)
    padded = aligner.pass1_align(pairs)
    keys = {}
    trimmed = [aligner._merge_edges(p.source, p.target, keys, live=True) for p in padded]
    delta, active = aligner._em(trimmed, list(keys), ONE_TO_ONE)
    fresh = [aligner._merge_edges(p.source, p.target, keys) for p in padded]
    assert sum(len(trimmed[i].edges) for i in active) < sum(
        len(fresh[i].edges) for i in active
    )
    logd = [delta.logp(*key) for key in keys]
    spans = list(keys)
    ties = [()] * len(keys)
    for idx in active:
        best = aligner._viterbi(trimmed[idx], logd, spans, ties, 5)
        assert best
        assert best == aligner._viterbi(fresh[idx], logd, spans, ties, 5)


def _m2m_decode_matches_fresh_grid(pairs, params):
    """_viterbi at n = 5 on the lattices em_train trimmed gives each kept
    pair the n-best viterbi_nbest gives on a fresh grid; an excluded pair
    has none there.  Returns the (trimmed, fresh) edge counts of the kept
    pairs."""
    delta = em_train(pairs, params)
    lattices, spans, kept = delta._take_fit()
    assert delta._take_fit() is None
    logd = [delta.logp(*key) for key in spans]
    ties = aligner._m2m_ties(spans)
    trimmed = fresh = 0
    for idx, pair in enumerate(pairs):
        want = viterbi_nbest(pair.source, pair.target, delta, params, 5)
        if idx not in kept:
            assert want == []
            continue
        assert want
        assert aligner._viterbi(lattices[idx], logd, spans, ties, 5) == want
        trimmed += len(lattices[idx].edges)
        grid = aligner._m2m_edges(pair.source, pair.target, params.moves(), {})
        fresh += len(grid.edges)
    return trimmed, fresh


def _rebuilt_alignments(pairs, params):
    """The alignments of EM, then viterbi_nbest's 1-best of each pair on a
    fresh grid: what _align_each decodes, with every lattice built twice."""
    delta = em_train(pairs, params)
    best = [viterbi_nbest(p.source, p.target, delta, params, 1) for p in pairs]
    return [b[0] for b in best if b]


def _padded(alignments):
    return [
        TrainingPair(
            tuple(link.source[0] if link.source else NULL for link in a.links),
            tuple(link.target[0] if link.target else NULL for link in a.links),
        )
        for a in alignments
    ]


def _align_matches_rebuilt_decode(pairs):
    for params in (TWO_TWO, ONE_TO_ONE):
        assert baseline_align(pairs, params) == _rebuilt_alignments(pairs, params)
    assert pass1_align(pairs) == _padded(_rebuilt_alignments(pairs, ONE_TO_ONE))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from([TWO_TWO, ONE_TO_ONE]), pair_sets)
@example(TWO_TWO, ZEROING_TWO_TWO)
@example(ONE_TO_ONE, ZEROING_ONE_TO_ONE)
def test_m2m_decode_over_trimmed_lattices_matches_fresh_grid(params, pairs):
    _m2m_decode_matches_fresh_grid(pairs, params)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(pair_sets)
@example(ZEROING_TWO_TWO)
@example(ZEROING_ONE_TO_ONE)
def test_align_matches_em_then_rebuilt_viterbi(pairs):
    _align_matches_rebuilt_decode(pairs)


def test_lexicon_align_decodes_trimmed_lattices_as_fresh_grids():
    _, pairs, _ = lexicon_task(7, 400, 60, 1)
    trimmed, fresh = _m2m_decode_matches_fresh_grid(pairs, TWO_TWO)
    assert trimmed < fresh
    # with nulls on either side every 1-1 grid edge is on some path, and
    # on these pairs none loses its weight; ZEROING_ONE_TO_ONE trims 1-1
    _m2m_decode_matches_fresh_grid(pairs, ONE_TO_ONE)
    _align_matches_rebuilt_decode(pairs)


def test_align_builds_each_pairs_m2m_lattice_once(monkeypatch):
    _, pairs, _ = lexicon_task(7, 400, 30, 1)
    built = []
    m2m_edges = aligner._m2m_edges

    def counted(*args, **kwargs):
        built.append(args[:2])
        return m2m_edges(*args, **kwargs)

    monkeypatch.setattr(aligner, "_m2m_edges", counted)
    for align in (aligner.baseline_align, aligner.precision_align):
        built.clear()
        assert len(align(pairs)) == len(pairs)
        assert built == [(p.source, p.target) for p in pairs]


def _fresh_grid(x, y, moves, keys, live):
    """The many-to-many lattice of x and y built whole for this pair, as
    _m2m_edges built every pair before grid shapes were shared: the
    reference the shared shapes are held to."""
    width = len(y) + 1
    edges = []
    for t in range(len(x) + 1):
        for v in range(width):
            for i, j in moves:
                if i <= t and j <= v:
                    key = keys.setdefault((x[t - i : t], y[v - j : v]), len(keys))
                    edges += (t * width + v - i * width - j, t * width + v, key)
    return aligner._lattice((len(x) + 1) * width, array("i", edges), live=live)


def _arrays(lattice):
    return (lattice.nodes, lattice.edges, lattice.gamma, lattice.out)


MOVE_SETS = [
    AlignParams(max_x, max_y, deletion, insertion)
    for max_x in (1, 2, 3) for max_y in (1, 2, 3)
    for deletion in (False, True) for insertion in (False, True)
]
sides = st.lists(st.sampled_from("ab"), max_size=6).map(tuple)
pair_batches = st.lists(st.tuples(sides, sides), min_size=1, max_size=6)
grid_runs = st.lists(
    st.tuples(st.sampled_from(MOVE_SETS), st.booleans()), min_size=1, max_size=4
)
EMPTY_SIDES = [((), ()), (("a",), ()), ((), ("b", "a")), (("a", "b"), ("b",))]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pair_batches, grid_runs)
@example(EMPTY_SIDES, [(params, live) for params in MOVE_SETS for live in (False, True)])
def test_shared_grid_shapes_build_the_lattices_of_fresh_grids(batch, runs):
    # one shape dict serves every move set and live flag; the keys, in
    # order, and every lattice array match both whole per-pair grids and
    # _m2m_edges's own fresh-dict builds
    shapes = {}
    for params, live in runs:
        moves = params.moves()
        keys, fresh_keys, grid_keys = {}, {}, {}
        for x, y in batch + batch[::-1]:
            lattice = aligner._m2m_edges(x, y, moves, keys, live=live, shapes=shapes)
            fresh = aligner._m2m_edges(x, y, moves, fresh_keys, live=live)
            whole = _fresh_grid(x, y, moves, grid_keys, live)
            assert _arrays(lattice) == _arrays(fresh) == _arrays(whole)
        assert list(keys.items()) == list(fresh_keys.items()) == list(grid_keys.items())


def test_em_train_builds_each_grid_shape_once(monkeypatch):
    _, pairs, _ = lexicon_task(7, 400, 60, 1)
    built = []
    m2m_shape = aligner._m2m_shape

    def counted(rows, cols, moves, live):
        built.append((rows, cols))
        return m2m_shape(rows, cols, moves, live)

    monkeypatch.setattr(aligner, "_m2m_shape", counted)
    shapes = {(len(p.source), len(p.target)) for p in pairs}
    assert len(shapes) < len(pairs)
    for params in (TWO_TWO, ONE_TO_ONE):
        built.clear()
        em_train(pairs, params)
        assert sorted(built) == sorted(shapes)
    # each call starts with no shapes
    built.clear()
    em_train(pairs, TWO_TWO)
    assert sorted(built) == sorted(shapes)


@pytest.mark.parametrize("disable_precision", ["false", "true"])
def test_align_output_does_not_depend_on_hash_seed(tmp_path, disable_precision):
    _, pairs, _ = lexicon_task(9, 400, 80, 1)
    data = tmp_path / "pairs.txt"
    data.write_text(
        "".join(f"{' '.join(p.source)}\t{' '.join(p.target)}\n" for p in pairs),
        encoding="utf-8",
    )
    src = os.path.dirname(os.path.dirname(chartrans.__file__))
    written = []
    for seed in ("0", "1"):
        outdir = tmp_path / f"out{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "chartrans.cli", "align",
             "--set", f"pairs={data}", "--set", f"outdir={outdir}",
             "--set", f"disable_precision={disable_precision}"],
            env=env, check=True, capture_output=True, timeout=300,
        )
        written.append((outdir / "alignments.txt").read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == len(pairs)
