"""Unsupervised EM alignment: many-to-many and two-pass precision alignment.

The many-to-many aligner (Jiampojamarn, Kondrak & Sherif 2007) links
source substrings (up to max_x symbols) with target substrings (up to
max_y symbols), optionally allowing deletions (source substring to
nothing) and insertions (nothing to target substring), and trains link
probabilities by EM over the joint likelihood of all monotone alignments.

Precision alignment runs two passes: a strict 1-1 alignment with nulls
on either side, then a re-alignment of the padded output in which every
source-side null must merge into an adjacent substitution (the
insertion-merging lattice).

Both run on one engine, after Goodman's (1999) semiring parsing: one
inside/Viterbi algorithm over a hypergraph, each lattice shape supplying
only its edges.  `_m2m_edges` and `_merge_edges` build a pair's lattice as
a list of (from node, to node, span-key id) edges; one forward/backward,
one E-step and one n-best Viterbi run over either, with δ as
log-probabilities indexed by key id.  All charts store log-domain values;
probabilities are recovered on read.

EM's lattices are built once, trimmed to live edges by one cut: before
the first iteration to the edges on some start→goal path, and after each
E-step to the edges that added to the expected counts.  A trim only drops
edges; every node keeps its grid id.  Every other edge's terms are
NEG_INF, which change no sum, and a span pair whose δ reaches 0 never
comes back, so every float EM computes, and every alignment decoded from
its lattices, is the one the untrimmed lattices give.  EM holds δ as
probabilities by key id and makes the span-keyed DeltaTable once, when it
returns.

Alignment decodes each pair's 1-best on the lattice EM trimmed, so no
pair's lattice is built twice: `em_train`'s table carries its fit (the
trimmed lattices, their spans and the kept pairs) to `_align_each`, which
takes it off, and pass 2 decodes the lattices its own EM trimmed.
`viterbi_nbest` is the public view that builds a pair's whole grid itself.
"""

import logging
import math
from array import array
from dataclasses import dataclass
from itertools import chain, compress, groupby
from operator import itemgetter

from .core import NULL, TrainingPair, check_fields, parse_lines

log = logging.getLogger(__name__)

NEG_INF = float("-inf")


@dataclass(frozen=True)
class AlignParams:
    max_x: int = 2
    max_y: int = 2
    allow_deletion: bool = True
    allow_insertion: bool = False
    max_iterations: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        check_fields(self, ("max_x", "max_y", "max_iterations"), lambda v: v >= 1,
                     "must be >= 1")
        check_fields(self, ("tol",), lambda v: v > 0, "must be positive")

    def moves(self):
        """Admissible (source length, target length) steps."""
        out = []
        for i in range(self.max_x + 1):
            for j in range(self.max_y + 1):
                if i == 0 and j == 0:
                    continue
                if i == 0 and not self.allow_insertion:
                    continue
                if j == 0 and not self.allow_deletion:
                    continue
                out.append((i, j))
        return out


ONE_TO_ONE = AlignParams(
    max_x=1, max_y=1, allow_deletion=True, allow_insertion=True
)


class DeltaTable:
    """Joint substring-pair probabilities; the aligner's parameter set.

    A table that em_train returns also keeps its fit, (trimmed lattices,
    spans by key id, kept pair indices), until _align_each takes it; a
    table built from probabilities has none."""

    def __init__(self, probs):
        self._fit = None
        self.probs = {}
        for key, p in probs.items():
            if p < 0:
                raise ValueError(f"negative probability for {key}")
            if p > 0:
                self.probs[key] = p

    def prob(self, src, tgt):
        return self.probs.get((src, tgt), 0.0)

    def logp(self, src, tgt):
        p = self.probs.get((src, tgt))
        return NEG_INF if p is None else math.log(p)

    def __len__(self):
        return len(self.probs)

    def __contains__(self, key):
        return key in self.probs

    def _take_fit(self):
        fit, self._fit = self._fit, None
        return fit


class Chart:
    """Table of monotone path sums over (source prefix, target prefix)
    cells, given as a list of rows of logs."""

    def __init__(self, log):
        self.log = log

    def value(self, t, v):
        lv = self.log[t][v]
        return math.exp(lv) if lv > NEG_INF else 0.0

    def corner(self):
        return self.value(-1, -1)

    def log_corner(self):
        return self.log[-1][-1]


def _logsum(values):
    """log of the sum of exp(values), added in order.  A NEG_INF term adds
    exp(NEG_INF) = 0.0, which leaves every partial sum as it was, and a
    single term is its own log-sum: v + log(exp(v - v)) is v + 0.0."""
    if len(values) == 1:
        return values[0]
    m = max(values)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(sum([math.exp(v - m) for v in values]))


@dataclass(frozen=True)
class AlignmentLink:
    source: tuple
    target: tuple

    def __post_init__(self):
        if not self.source and not self.target:
            raise ValueError("link with both sides empty")


@dataclass(frozen=True)
class Alignment:
    links: tuple
    likelihood: float = 0.0

    def source(self):
        return tuple(s for link in self.links for s in link.source)

    def target(self):
        return tuple(t for link in self.links for t in link.target)


@dataclass(slots=True)
class Lattice:
    """One pair's lattice: nodes numbered in topological order (0 the
    start, the last the goal) and its edges as flat array('i') triples, in
    up to three orders, each built once per lattice.  `edges` holds (from
    node, to node, key id) grouped by ascending to node, for the forward
    pass and Viterbi.  `out` is the reversed lattice the backward pass
    runs on: (to node, from node, key id) grouped by descending from node.
    `gamma` is the order in which the E-step adds expected counts: `edges`
    itself, or its triples grouped from the goal down.  Flat ints keep a
    training set's edges small enough to cache across EM iterations.
    Within a group, edges keep their builder's order, which fixes every
    floating-point sum and Viterbi tie.

    EM's lattices are built once, trimmed to live edges: those on a
    start→goal path of nonzero weight.  Trims shrink the arrays in place,
    so a lattice keeps its memory block through EM, and drop edges only:
    `nodes` and every node id stay the grid's, so a trimmed lattice's
    charts still expose every cell."""

    nodes: int
    edges: array
    gamma: array
    out: array


def _triples(edges):
    it = iter(edges)
    return zip(it, it, it)


def _reach(nodes, edges):
    """alpha and beta over the Boolean semiring: 0.0 at the nodes some
    path joins to the start (alpha) or to the goal (beta), NEG_INF
    elsewhere.  Reversed, edges run by descending to node, and each
    triple reads (key, to, from)."""
    alpha = [NEG_INF] * nodes
    alpha[0] = 0.0
    for src, dst, _ in _triples(edges):
        if alpha[src] == 0.0:
            alpha[dst] = 0.0
    beta = [NEG_INF] * nodes
    beta[-1] = 0.0
    for _, dst, src in _triples(reversed(edges)):
        if beta[dst] == 0.0:
            beta[src] = 0.0
    return alpha, beta


def _regroup(edges, field, layout):
    """The triples of edges stably sorted by descending field, each
    rewritten as its fields in layout."""
    cols = [edges[f::3].tolist() for f in range(3)]
    order = sorted(range(len(cols[0])), key=cols[field].__getitem__, reverse=True)
    out = array("i", [0]) * len(edges)
    for pos, f in enumerate(layout):
        out[pos::3] = array("i", [cols[f][i] for i in order])
    return out


def _kept(edges, keep):
    return array("i", chain.from_iterable(compress(_triples(edges), keep)))


def _lattice(nodes, edges, gamma_from_goal=False, live=False):
    """A Lattice over edges grouped by ascending to node, with its other
    orders built from them.  With live, only the edges on some start→goal
    path are kept, whatever δ is."""
    if live:
        alpha, beta = _reach(nodes, edges)
        edges = _kept(edges, [alpha[src] + beta[dst] != NEG_INF
                              for src, dst, _ in _triples(edges)])
    gamma = _regroup(edges, 1, (0, 1, 2)) if gamma_from_goal else edges
    return Lattice(nodes, edges, gamma, _regroup(edges, 0, (1, 0, 2)))


def _trim(lattice, alpha, beta, logd):
    """Cut the lattice down, in place, to the edges with finite alpha at
    their from node, logd and beta at their to node: those on a start→goal
    path of nonzero weight, the only edges whose terms add to a finite
    alpha or beta, to gamma or to a _viterbi path.  Only edges go; node ids
    stay the grid's."""

    def cut(edges, triples):
        edges[:] = _kept(edges, [alpha[src] + logd[key] + beta[dst] != NEG_INF
                                 for src, dst, key in triples])

    if lattice.gamma is not lattice.edges:
        cut(lattice.gamma, _triples(lattice.gamma))
    cut(lattice.edges, _triples(lattice.edges))
    out = lattice.out  # (to, from, key) triples
    cut(out, zip(out[1::3], out[0::3], out[2::3]))


def _m2m_edges(x, y, moves, keys, live=False):
    """Many-to-many grid: node t * (V + 1) + v is the prefix pair
    (x[:t], y[:v]); each admissible move (i, j) into it is an edge labelled
    with the spans it consumes, numbered in keys (span pair → id).  Edges
    into a node follow the order of moves.  Every span pair of the grid
    gets a key, reachable or not, so EM starts uniform over every substring
    pair co-occurring in some training pair under the limits; live keeps
    only the edges on some start→goal path (see _lattice)."""
    width = len(y) + 1
    xs = [[x[t - i : t] for i in range(t + 1)] for t in range(len(x) + 1)]
    ys = [[y[v - j : v] for j in range(v + 1)] for v in range(width)]
    edges = []
    for t, x_ends in enumerate(xs):
        for v, y_ends in enumerate(ys):
            node = t * width + v
            for i, j in moves:
                if i <= t and j <= v:
                    key = keys.setdefault((x_ends[i], y_ends[j]), len(keys))
                    edges += (node - i * width - j, node, key)
    return _lattice(len(xs) * width, array("i", edges), live=live)


def _strip(span):
    return tuple(s for s in span if s != NULL)


def _leading_nulls(x):
    """Length of the null run that opens x."""
    return next((i for i, s in enumerate(x) if s != NULL), len(x))


def _merge_edges(x, y, keys, live=False):
    """Insertion-merging lattice over a padded pair: node t is position t.

    The edges into t are the spans x[start:t] holding exactly one
    substitution (non-null source symbol), labelled with their spans with
    nulls stripped: the nulls after the substitution merge into it, and so
    do any number k of the nulls just before it.  Edges run in increasing
    k, so a Viterbi tie goes to the fewest merged insertions.  A leading
    null run must merge rightward in full, which keeps every path covering
    the whole target: no span starts inside it.  Expected counts accumulate
    from the goal down; that order sets the last bits of δ, and through
    near-ties the alignments written.  live is as for _m2m_edges.
    """
    lead = _leading_nulls(x)
    edges = array("i")
    for t in range(1, len(x) + 1):
        subs = 0
        for start in range(t - 1, -1, -1):
            subs += x[start] != NULL
            if subs > 1:
                break
            if subs == 1 and (start == 0 or start > lead):
                span = (_strip(x[start:t]), _strip(y[start:t]))
                edges.extend((start, t, keys.setdefault(span, len(keys))))
    return _lattice(len(x) + 1, edges, gamma_from_goal=True, live=live)


def _inside(nodes, edges, logd, start):
    """Log-sum over the paths from start to each node, along edges given as
    (from, to, key) triples grouped by to node in topological order; each
    node's terms are summed in edge order.  No value is +inf, so a term is
    NEG_INF exactly when its from node's value or its logd is."""
    value = [NEG_INF] * nodes
    value[start] = 0.0
    node, terms = start, None
    for src, dst, key in _triples(edges):
        if dst != node:
            if terms:
                value[node] = _logsum(terms)
            node, terms = dst, []
        terms.append(value[src] + logd[key])
    if terms:
        value[node] = _logsum(terms)
    return value


def _forward(lattice, logd):
    """alpha[node]: log-sum over the paths from the start to node."""
    return _inside(lattice.nodes, lattice.edges, logd, 0)


def _backward(lattice, logd):
    """beta[node]: log-sum over the paths from node to the goal, summed as
    _forward sums, over the reversed lattice."""
    return _inside(lattice.nodes, lattice.out, logd, -1)


def _estep(lattice, logd, gamma):
    """Add one pair's expected key counts to gamma (key id → count) and
    trim the lattice to the edges that added to them; returns its
    log-likelihood, NEG_INF when no path reaches the goal."""
    alpha = _forward(lattice, logd)
    ll = alpha[-1]
    if ll == NEG_INF:
        return NEG_INF
    beta = _backward(lattice, logd)
    dead = False
    exp = math.exp
    for src, dst, key in _triples(lattice.gamma):
        path = alpha[src] + logd[key] + beta[dst]
        if path != NEG_INF:
            gamma[key] = gamma.get(key, 0.0) + exp(path - ll)
        else:
            dead = True
    if dead:
        _trim(lattice, alpha, beta, logd)
    return ll


def _em(lattices, spans, params, history=None, run=None):
    """EM over lattices whose key ids index spans, from δ uniform over the
    spans until the relative log-likelihood change drops below tol.
    Unalignable pairs are excluded with a warning on the first iteration.
    Each E-step trims its lattice, in place, to the edges that added to
    γ, keeping its grid node ids; built with live, a lattice has no other
    edge under the uniform start.  history, when given, collects one
    (log-likelihood, delta total mass) entry per iteration, and each
    iteration logs one INFO line naming the run ("m2m X-Y" from params
    unless given).  δ is held as a dict from key id to probability, with
    only its nonzero entries; each iteration's log δ is NEG_INF at every
    other key id, so spans at δ = 0 cost nothing.  Returns (the DeltaTable
    of δ by span, indices of the pairs kept)."""
    run = run or f"m2m {params.max_x}-{params.max_y}"
    message = (
        f"EM iteration %d ({run}): log-likelihood %.6f, %d pairs kept, "
        "%d delta entries, %d live edges"
    )
    delta = {k: 1.0 / len(spans) for k in range(len(spans))}
    active = list(range(len(lattices)))
    prev_ll = None
    for iteration in range(params.max_iterations):
        logd = [NEG_INF] * len(spans)
        for k, p in delta.items():
            logd[k] = math.log(p)
        gamma = {}
        total_ll = 0.0
        kept = []
        for idx in active:
            ll = _estep(lattices[idx], logd, gamma)
            if ll == NEG_INF:
                if iteration == 0:
                    log.warning("pair %d cannot be aligned; excluded", idx)
                    continue
                raise RuntimeError(f"pair {idx} became unalignable mid-EM")
            kept.append(idx)
            total_ll += ll
        active = kept
        total = sum(gamma.values())
        if total <= 0:
            break
        # a positive count can still divide to 0.0
        delta = {k: p for k, v in gamma.items() if (p := v / total) > 0.0}
        if history is not None:
            history.append((total_ll, sum(delta.values())))
        log.info(
            message, iteration + 1, total_ll, len(active), len(delta),
            sum(len(lattices[idx].edges) for idx in active) // 3,
        )
        if prev_ll is not None:
            rel = abs(total_ll - prev_ll) / max(abs(prev_ll), 1e-300)
            if rel < params.tol:
                break
        prev_ll = total_ll
    return DeltaTable({spans[k]: p for k, p in delta.items()}), active


def _viterbi(lattice, logd, spans, ties, n):
    """Up to n max-product alignments of the lattice, best first, with
    spans[key] the key's (source, target) span pair.  Paths into a node
    rank by score, then by the concatenation of their edges' tie keys
    ties[key] from the start; the stable sort leaves full ties in edge
    order.  Paths carry key ids; only the returned ones become links."""
    cells = [None] * lattice.nodes
    cells[0] = [(0.0, (), ())]
    for node, edges in groupby(_triples(lattice.edges), key=itemgetter(1)):
        entries = []
        for src, _, key in edges:
            if cells[src] and logd[key] != NEG_INF:
                ld, tie = logd[key], ties[key]
                entries += [(neg - ld, rank + tie, path + (key,))
                            for neg, rank, path in cells[src]]
        if entries:
            cells[node] = sorted(entries, key=itemgetter(0, 1))[:n]
    return [
        Alignment(
            links=tuple(AlignmentLink(*spans[key]) for key in path),
            likelihood=math.exp(-neg),
        )
        for neg, _, path in cells[-1] or ()
    ]


def _m2m_chart(x, y, delta, params, run):
    keys = {}
    lattice = _m2m_edges(x, y, params.moves(), keys)
    flat = run(lattice, [delta.logp(*key) for key in keys])
    width = len(y) + 1
    return Chart([flat[r : r + width] for r in range(0, len(flat), width)])


def forward(x, y, delta, params):
    """Sum over all admissible monotone alignments; alpha(T, V) is the
    total likelihood."""
    return _m2m_chart(x, y, delta, params, _forward)


def backward(x, y, delta, params):
    """Mirror of forward: beta(t, v) sums suffix paths; beta(0, 0) equals
    alpha(T, V)."""
    return _m2m_chart(x, y, delta, params, _backward)


def em_train(pairs, params, history=None):
    """EM over the joint likelihood of all admissible monotone alignments.
    The DeltaTable returned keeps the fit that _align_each decodes on: the
    pairs' lattices as EM trimmed them, their spans and the kept pairs."""
    keys = {}
    moves = params.moves()
    lattices = [_m2m_edges(p.source, p.target, moves, keys, live=True) for p in pairs]
    spans = list(keys)
    delta, kept = _em(lattices, spans, params, history)
    delta._fit = (lattices, spans, kept)
    return delta


def viterbi_nbest(x, y, delta, params, n):
    """N-best max-product alignments, best first.

    Ties break toward shorter source spans, then lexicographic target
    spans, compared link by link from the start of the path.  Returns
    fewer than n alignments when fewer paths exist.  The public view: it
    builds the pair's whole grid itself, where alignment decodes on the
    lattices EM trimmed, with the same results.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    keys = {}
    lattice = _m2m_edges(x, y, params.moves(), keys)
    spans = list(keys)
    logd = [delta.logp(*key) for key in spans]
    return _viterbi(lattice, logd, spans, _m2m_ties(spans), n)


def _m2m_ties(spans):
    return [((len(s), u, s),) for s, u in spans]


def _decode_kept(lattices, kept, delta, spans, ties):
    """The 1-best alignment of each kept pair, decoded on its lattice as EM
    left it, with log δ by key id.  A kept pair with no path left under δ
    is excluded with a warning."""
    logd = [delta.logp(*key) for key in spans]
    alignments = []
    for idx in kept:
        best = _viterbi(lattices[idx], logd, spans, ties, 1)
        if not best:
            log.warning("pair %d cannot be decoded; excluded", idx)
            continue
        alignments.append(best[0])
    return alignments


def _align_each(pairs, params):
    """EM, then each pair's 1-best alignment, decoded on the lattice EM
    trimmed (taken off em_train's table, so the lattices go when this
    returns).  A pair with no path in its lattice is excluded by EM with
    a warning."""
    delta = em_train(pairs, params)
    lattices, spans, kept = delta._take_fit()
    return _decode_kept(lattices, kept, delta, spans, _m2m_ties(spans))


def baseline_align(pairs, params=None):
    """Single-pass many-to-many alignment (the 2-2-with-deletions default):
    EM then 1-best decode per pair."""
    return _align_each(pairs, params or AlignParams())


def pass1_align(pairs, params=None):
    """First precision pass: strict 1-1 alignment with nulls on either side.

    Returns equal-length padded pairs where insertion links contribute "_"
    on the source and deletion links contribute "_" on the target.
    Unalignable pairs are dropped with a warning.
    """
    alignments = _align_each(pairs, params or ONE_TO_ONE)
    return [
        TrainingPair(
            tuple(link.source[0] if link.source else NULL for link in a.links),
            tuple(link.target[0] if link.target else NULL for link in a.links),
        )
        for a in alignments
    ]


def forward_insertion_merging(x, y, delta):
    """Forward sums of the insertion-merging lattice pass 2 trains on, as a
    (T+1) x (T+1) chart over padded equal-length sequences in which
    source-side nulls merge into adjacent substitutions.

    alpha(t, t) sums, over k = 0..PI, the probability of the span ending
    at t that absorbs the CI trailing nulls plus k nulls from before the
    last substitution, times alpha at the cell before that span.  Null
    tokens are dropped when looking up span probabilities.  Cells whose
    source prefix is entirely nulls (t - CI == 0) hold 1 in every column,
    the base for merging leading insertions rightward.  Other cells off
    the diagonal hold 0.  alpha(T, T) is the likelihood pass 2 gives the
    pair: 0 when the source is all nulls, as nothing can absorb them.
    """
    if len(x) != len(y):
        raise ValueError(f"padded lengths differ: {len(x)} vs {len(y)}")
    keys = {}
    lattice = _merge_edges(x, y, keys)
    alpha = _forward(lattice, [delta.logp(*key) for key in keys])
    lead = _leading_nulls(x)
    rows = [[0.0 if t <= lead else NEG_INF] * len(alpha) for t in range(len(alpha))]
    for t in range(lead + 1, len(alpha)):
        rows[t][t] = alpha[t]
    rows[-1][-1] = alpha[-1]
    return Chart(rows)


def precision_align(pairs, p1=None):
    """Two-pass precision alignment.

    Pass 1 aligns 1-1 with nulls on either side under p1 (default
    ONE_TO_ONE); pass 2 re-estimates span probabilities with EM over the
    insertion-merging lattice, under p1's max_iterations and tol, and
    decodes the max-product merge.  Output links never have an empty
    source span; target-side nulls come through as deletion links.  Pass 2
    numbers the pairs it excludes by their position in pass 1's output.
    """
    p1 = p1 or ONE_TO_ONE
    padded = pass1_align(pairs, p1)
    keys = {}
    lattices = [_merge_edges(p.source, p.target, keys, live=True) for p in padded]
    spans = list(keys)
    delta, active = _em(lattices, spans, p1, run="merge pass 2")
    ties = [()] * len(spans)  # full ties keep edge order: fewest merges
    return _decode_kept(lattices, active, delta, spans, ties)


LINK_SEP = "}"
SPAN_JOIN = "|"


def format_alignment(alignment):
    """One pair per line: links space-separated as "SRC}TGT" with "|"
    joining multi-symbol spans and empty spans printed as "_".

    Symbols containing the separators cannot round-trip through this
    format and are rejected rather than silently corrupted."""
    parts = []
    for link in alignment.links:
        for sym in link.source + link.target:
            if LINK_SEP in sym or SPAN_JOIN in sym:
                raise ValueError(
                    f"symbol {sym!r} collides with alignment file separators"
                )
        src = SPAN_JOIN.join(link.source) if link.source else NULL
        tgt = SPAN_JOIN.join(link.target) if link.target else NULL
        parts.append(f"{src}{LINK_SEP}{tgt}")
    return " ".join(parts)


def parse_alignment(line):
    links = []
    for part in line.split():
        if part.count(LINK_SEP) != 1:
            raise ValueError(f"bad link {part!r}")
        src, tgt = part.split(LINK_SEP)
        links.append(
            AlignmentLink(
                () if src == NULL else tuple(src.split(SPAN_JOIN)),
                () if tgt == NULL else tuple(tgt.split(SPAN_JOIN)),
            )
        )
    return Alignment(links=tuple(links))


def write_alignments(alignments, stream):
    for a in alignments:
        stream.write(format_alignment(a) + "\n")


def read_alignments(stream):
    """The alignments of the non-blank lines of stream (lines or a string);
    a bad line raises ParseError with its number."""
    return parse_lines(stream, parse_alignment)
