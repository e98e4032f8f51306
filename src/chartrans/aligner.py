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
one E-step and one n-best Viterbi run over either, with δ indexed by key
id.  A many-to-many grid's topology, live cut and edge orders depend on
its (len(x), len(y)) shape alone: EM builds each shape once per run
(`_m2m_shape`) and labels it per pair with the pair's span keys.  A
merging lattice depends on where the pair's nulls are, and is built
whole per pair.  EM and the public forward/backward views sum
probabilities in floats; a pair whose float likelihood underflows (0.0 or
subnormal), or has no path, is summed again, by the same algorithm, in
Decimal, whose every value carries its own exponent.  Charts store logs,
and Viterbi runs over log δ.

EM's lattices are cut once, when built, to the edges on some start→goal
path, and never change after; every node keeps its grid id.  The edges
cut add nothing to a likelihood or a count, and an edge whose δ reaches
0 adds 0.0 terms and is skipped by Viterbi, so the floats EM computes,
and the alignments decoded from its lattices, are the whole grids'.  EM
holds δ as probabilities by key id and makes the span-keyed DeltaTable
once, when it returns.

Alignment decodes each pair's 1-best on the lattice EM ran on, so no
pair's lattice is built twice: `em_train`'s table carries its fit (the
lattices, their spans and the kept pairs) to `_align_each`, which takes
it off, and pass 2 decodes the lattices of its own EM.
`viterbi_nbest` is the public view that builds a pair's whole grid itself.
"""

import logging
import math
import sys
from array import array
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, localcontext
from functools import cache, partial
from itertools import chain, compress, groupby
from operator import itemgetter

from .core import NULL, TrainingPair, check_fields, parse_lines

log = logging.getLogger(__name__)

NEG_INF = float("-inf")
MIN_NORMAL = sys.float_info.min
# The arithmetic of an underflowing pair's sums, whatever the caller's own
# decimal context: 30 digits, and exponents no path's product can leave.
EXACT = Context(prec=30, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX)


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
        """Admissible (source length, target length) steps, by ascending
        source then target length; an empty side needs its switch."""
        return [(i, j) for i in range(self.max_x + 1) for j in range(self.max_y + 1)
                if (i or j) and (i or self.allow_insertion) and (j or self.allow_deletion)]


ONE_TO_ONE = AlignParams(
    max_x=1, max_y=1, allow_deletion=True, allow_insertion=True
)


class DeltaTable:
    """Joint substring-pair probabilities; the aligner's parameter set.

    A table that em_train returns also keeps its fit, (the lattices as
    built, spans by key id, kept pair indices), until _align_each takes
    it; a table built from probabilities has none."""

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
    cells, given as a list of rows of logs.  The sums are EM's: in floats,
    or in Decimal when the pair's float likelihood underflows."""

    def __init__(self, log):
        self.log = log

    def value(self, t, v):
        return math.exp(self.log[t][v])

    def corner(self):
        return self.value(-1, -1)

    def log_corner(self):
        return self.log[-1][-1]


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


@dataclass(frozen=True, slots=True)
class Lattice:
    """One pair's lattice: nodes numbered in topological order (0 the
    start, the last the goal) and its edges as flat array('i') triples, in
    up to three orders, each built once per lattice (per grid shape, and
    relabelled per pair, for the many-to-many grid).  `edges` holds (from
    node, to node, key id) grouped by ascending to node, for the forward
    pass and Viterbi.  `out` is the reversed lattice the backward pass
    runs on: (to node, from node, key id) grouped by descending from node.
    `gamma` is the order in which the E-step adds expected counts: `edges`
    itself, or its triples grouped from the goal down.  Flat ints keep a
    training set's edges small enough to cache across EM iterations.
    Within a group, edges keep their builder's order, which fixes every
    floating-point sum and Viterbi tie.

    EM's lattices are cut once, at build, to the edges on some start→goal
    path, and never change after.  The cut drops edges only: `nodes` and
    every node id stay the grid's, so a cut lattice's charts still expose
    every cell."""

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


def _lattice(nodes, edges, gamma_from_goal=False, live=False):
    """A Lattice over edges grouped by ascending to node, with its other
    orders built from them.  With live, only the edges on some start→goal
    path are kept, whatever δ is."""
    if live:
        alpha, beta = _reach(nodes, edges)
        keep = [alpha[src] + beta[dst] != NEG_INF for src, dst, _ in _triples(edges)]
        edges = array("i", chain.from_iterable(compress(_triples(edges), keep)))
    gamma = _regroup(edges, 1, (0, 1, 2)) if gamma_from_goal else edges
    return Lattice(nodes, edges, gamma, _regroup(edges, 0, (1, 0, 2)))


def _m2m_shape(rows, cols, moves, live):
    """The many-to-many grid of a (rows, cols)-symbol pair: node t * (cols
    + 1) + v is the prefix pair (x[:t], y[:v]), and each admissible move
    (i, j) into it is an edge, in the order of moves.  Returns the grid's
    (t, i, v, j) moves in edge order and its Lattice with each edge
    labelled by its index there; both depend on the lengths alone."""
    width = cols + 1
    grid, edges = [], []
    for t in range(rows + 1):
        for v in range(width):
            node = t * width + v
            for i, j in moves:
                if i <= t and j <= v:
                    edges += (node - i * width - j, node, len(grid))
                    grid.append((t, i, v, j))
    return grid, _lattice((rows + 1) * width, array("i", edges), live=live)


def _relabelled(edges, ids):
    """edges with each triple's label e replaced by ids[e]."""
    out = array("i", edges)
    out[2::3] = array("i", map(ids.__getitem__, edges[2::3]))
    return out


def _m2m_edges(x, y, moves, keys, live=False, shapes=None):
    """The many-to-many lattice of x and y (see _m2m_shape), each edge
    labelled with the spans it consumes, numbered in keys (span pair → id).
    The grid's shape is built once per (lengths, moves, live) in shapes
    (a fresh dict if none) and only labelled per pair.  Every span pair of
    the grid gets a key, reachable or not, in edge order, so EM starts
    uniform over every substring pair co-occurring in some training pair
    under the limits; live keeps only the edges on some start→goal path
    (see _lattice)."""
    shapes = {} if shapes is None else shapes
    shape = (len(x), len(y), tuple(moves), live)
    if shape not in shapes:
        shapes[shape] = _m2m_shape(len(x), len(y), moves, live)
    grid, lattice = shapes[shape]
    xs = [[x[t - i : t] for i in range(t + 1)] for t in range(len(x) + 1)]
    ys = [[y[v - j : v] for j in range(v + 1)] for v in range(len(y) + 1)]
    ids = [keys.setdefault((xs[t][i], ys[v][j]), len(keys)) for t, i, v, j in grid]
    edges = _relabelled(lattice.edges, ids)
    return Lattice(lattice.nodes, edges, edges, _relabelled(lattice.out, ids))


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


def _inside(nodes, edges, d, start, one=1.0):
    """Sum over the paths from start to each node of their product of δ by
    key id d, along edges given as (from, to, key) triples grouped by to
    node in topological order; each node's terms are added in edge order.
    The sums have one's type: floats, or Decimal in the current context
    when d holds Decimal."""
    zero = one - one
    value = [zero] * nodes
    value[start] = total = one
    node = start
    for src, dst, key in _triples(edges):
        if dst != node:
            value[node] = total
            node, total = dst, zero
        total += value[src] * d[key]
    value[node] = total
    return value


def _decimals(values):
    """Each float of values as the Decimal of its exact value."""
    return list(map(Decimal, values))


def _log(v):
    """The log of a sum, float or Decimal (taken in the current context and
    rounded to float); NEG_INF for an empty sum."""
    if isinstance(v, Decimal):
        return float(v.ln())
    return math.log(v) if v > 0.0 else NEG_INF


def _estep(lattice, d, gamma, exact):
    """Add one pair's expected key counts under δ by key id d to gamma (key
    id → count), reading the lattice as built; returns log(Z), its
    log-likelihood.  An edge whose count is 0.0 adds no key to gamma.
    When the float Z underflows (0.0 or subnormal), forward, backward and
    the counts run again in Decimal under EXACT, over exact(), d as exact
    Decimals; only each count and log(Z) are rounded to float.  If no path
    reaches the goal, log(Z) is NEG_INF and no edge has a count."""
    alpha = _inside(lattice.nodes, lattice.edges, d, 0)
    z = alpha[-1]
    if z < MIN_NORMAL:
        with localcontext(EXACT):
            d, one = exact(), Decimal(1)
            alpha = _inside(lattice.nodes, lattice.edges, d, 0, one)
            beta = _inside(lattice.nodes, lattice.out, d, -1, one)
            z = alpha[-1]
            for src, dst, key in _triples(lattice.gamma):
                path = alpha[src] * d[key] * beta[dst]
                if path:
                    gamma[key] = gamma.get(key, 0.0) + float(path / z)
            return _log(z)
    beta = _inside(lattice.nodes, lattice.out, d, -1)
    for src, dst, key in _triples(lattice.gamma):
        path = alpha[src] * d[key] * beta[dst]
        if path:
            gamma[key] = gamma.get(key, 0.0) + path / z
    return math.log(z)


def _em(lattices, spans, params, history=None, run=None):
    """EM over lattices whose key ids index spans, from δ uniform over the
    spans until the relative log-likelihood change drops below tol.
    Unalignable pairs are excluded with a warning on the first iteration.
    The lattices are read as built (with live, see _lattice) and never
    written; the live edges logged are the kept pairs' edges whose key has
    positive δ after the iteration, counted only when INFO is on.  history,
    when given, collects one (log-likelihood, delta total mass) entry per
    iteration, and each iteration logs one INFO line naming the run ("m2m
    X-Y" from params unless given).  δ is a dict from key id to its nonzero
    probabilities, listed by key id for the E-steps; δ as Decimal is built
    only for an iteration in which a likelihood underflows.  Returns (the
    DeltaTable of δ by span, indices of the pairs kept)."""
    run = run or f"m2m {params.max_x}-{params.max_y}"
    message = (
        f"EM iteration %d ({run}): log-likelihood %.6f, %d pairs kept, "
        "%d delta entries, %d live edges"
    )
    delta = {k: 1.0 / len(spans) for k in range(len(spans))}
    active = list(range(len(lattices)))
    prev_ll = None
    for iteration in range(params.max_iterations):
        d = [delta.get(k, 0.0) for k in range(len(spans))]
        exact = cache(partial(_decimals, d))
        gamma = {}
        total_ll = 0.0
        kept = []
        for idx in active:
            ll = _estep(lattices[idx], d, gamma, exact)
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
        if log.isEnabledFor(logging.INFO):
            live = sum(k in delta for i in active for k in lattices[i].edges[2::3])
            log.info(message, iteration + 1, total_ll, len(active), len(delta), live)
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


def _chart(lattice, keys, delta, backward=False):
    """The logs of alpha (or beta) over lattice, whose key ids number keys,
    summed as _estep sums them under delta: in Decimal under EXACT when
    the float likelihood underflows."""
    d = [delta.prob(*key) for key in keys]
    value = _inside(lattice.nodes, lattice.edges, d, 0)
    one = 1.0
    with localcontext(EXACT):
        if value[-1] < MIN_NORMAL:
            d, one = _decimals(d), Decimal(1)
            value = _inside(lattice.nodes, lattice.edges, d, 0, one)
        if backward:
            value = _inside(lattice.nodes, lattice.out, d, -1, one)
        return list(map(_log, value))


def _m2m_chart(x, y, delta, params, backward):
    keys = {}
    lattice = _m2m_edges(x, y, params.moves(), keys)
    flat = _chart(lattice, keys, delta, backward)
    width = len(y) + 1
    return Chart([flat[r : r + width] for r in range(0, len(flat), width)])


def forward(x, y, delta, params):
    """Sum over all admissible monotone alignments; alpha(T, V) is the
    total likelihood, and its log the one EM gives the pair."""
    return _m2m_chart(x, y, delta, params, False)


def backward(x, y, delta, params):
    """Mirror of forward: beta(t, v) sums suffix paths; beta(0, 0) equals
    alpha(T, V)."""
    return _m2m_chart(x, y, delta, params, True)


def em_train(pairs, params, history=None):
    """EM over the joint likelihood of all admissible monotone alignments.
    Each grid shape is built once for the pairs, in one shape dict
    dropped on return, and labelled per pair (see _m2m_edges).  The
    DeltaTable returned keeps the fit that _align_each decodes on: the
    pairs' lattices as built (cut to live edges, see _lattice), their
    spans and the kept pairs."""
    keys, shapes = {}, {}
    moves = params.moves()
    lattices = [_m2m_edges(p.source, p.target, moves, keys, live=True, shapes=shapes)
                for p in pairs]
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
    lattices EM ran on, cut to live edges, with the same results.
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
    """The 1-best alignment of each kept pair, decoded on the lattice EM ran
    on, as built, with log δ by key id.  A kept pair with no path left
    under δ is excluded with a warning."""
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
    """EM, then each pair's 1-best alignment, decoded on the lattice EM ran
    on, as built (taken off em_train's table, so the lattices go when this
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
    alpha = _chart(lattice, keys, delta)
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
