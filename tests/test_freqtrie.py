import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartrans.core import ParseError
from chartrans.freqtrie import (
    FreqBinConfig,
    Lexicon,
    TrieNode,
    build_trie,
    freq_bin_features,
    parse_lexicon,
    prefix_count,
    prune_lexicon,
    read_trie,
    serialize_lexicon,
    trie_words,
    walk,
)


def lex(**words):
    return Lexicon({tuple(w): c for w, c in words.items()})


def test_build_trie_sums():
    root = build_trie(lex(ab=3, ac=2))
    assert prefix_count(root, ("a",)) == 5
    assert prefix_count(root, ("a", "b")) == 3
    assert prefix_count(root, ("a", "b"), end_of_word=True) == 3
    assert root.prefix_count == 5


def test_build_trie_empty():
    root = build_trie(Lexicon({}))
    assert root.prefix_count == 0
    assert trie_words(root) == {}


def test_prefix_count_absent():
    root = build_trie(lex(ab=3, ac=2))
    assert prefix_count(root, ("z", "z")) == 0
    assert prefix_count(root, ("a", "b", "c")) == 0


def test_exact_versus_prefix_count():
    root = build_trie(lex(ab=3, abc=4))
    assert prefix_count(root, ("a", "b")) == 7
    assert prefix_count(root, ("a", "b"), end_of_word=True) == 3
    # a prefix that is not a full word has no exact count
    assert prefix_count(root, ("a",), end_of_word=True) == 0


def test_trie_brute_force_oracle():
    rng = random.Random(6)
    counts = {}
    for _ in range(1000):
        w = tuple(rng.choice("abcd") for _ in range(rng.randint(1, 7)))
        counts[w] = counts.get(w, 0) + rng.randint(1, 9)
    lexicon = Lexicon(counts)
    root = build_trie(lexicon)
    prefixes = {w[:k] for w in counts for k in range(len(w) + 1)}
    for p in prefixes:
        brute = sum(c for w, c in counts.items() if w[: len(p)] == p)
        assert prefix_count(root, p) == brute
    assert trie_words(root) == counts
    total_exact = sum(
        prefix_count(root, w, end_of_word=True) for w in counts
    )
    assert total_exact == lexicon.total_tokens


def test_walk_returns_nodes():
    root = build_trie(lex(ab=1))
    assert walk(root, ("a",)) is not None
    assert walk(root, ("b",)) is None
    node = walk(root, ("a",))
    assert walk(node, ("b",)).word_count == 1


def test_prune_removes_english_heavy_words():
    target = lex(the=1, niño=99)
    english = lex(the=999, of=1)
    pruned = prune_lexicon(target, english)
    # P_en(the) = 999/1000 > P_tgt(the) = 1/100: dropped
    assert tuple("the") not in pruned.counts
    assert tuple("niño") in pruned.counts


def test_prune_keeps_words_unknown_to_english():
    target = lex(zqx=1)
    english = lex(the=1000)
    assert prune_lexicon(target, english).counts == target.counts


def test_prune_equal_probability_kept():
    target = lex(aa=1, bb=1)
    english = lex(aa=1, cc=1)
    # P_en(aa) = 0.5 == P_tgt(aa) = 0.5: strict inequality keeps it
    pruned = prune_lexicon(target, english)
    assert tuple("aa") in pruned.counts


def test_prune_idempotent_and_never_increases():
    rng = random.Random(7)
    words = ["".join(rng.choice("ab") for _ in range(3)) for _ in range(40)]
    target = Lexicon(
        {tuple(w): rng.randint(1, 50) for w in set(words)}
    )
    english = Lexicon(
        {tuple(w): rng.randint(1, 50) for w in set(words[:20])}
    )
    once = prune_lexicon(target, english)
    twice = prune_lexicon(once, english)
    assert once.counts == twice.counts
    for w, c in once.counts.items():
        assert c == target.counts[w]
    assert set(once.counts) <= set(target.counts)


def test_parse_lexicon_formats():
    lexicon = parse_lexicon("abc\t5\nxyz\nabc\t2\n")
    assert lexicon.counts[tuple("abc")] == 7
    assert lexicon.counts[tuple("xyz")] == 1
    again = parse_lexicon(serialize_lexicon(lexicon))
    assert again.counts == lexicon.counts


def test_lexicon_rejects_bad_counts():
    with pytest.raises(ValueError):
        Lexicon({("a",): 0})


def test_freq_bin_examples():
    bins = FreqBinConfig((1, 10, 100, 1000))
    assert freq_bin_features(57, bins) == {0, 1}
    assert freq_bin_features(0, bins) == {bins.zero_feature}
    assert freq_bin_features(10**6, bins) == {0, 1, 2, 3}
    assert freq_bin_features(1, bins) == {0}


def test_freq_bin_monotone_nesting():
    rng = random.Random(8)
    bins = FreqBinConfig()
    prev_count, prev = None, None
    for count in sorted(rng.randint(0, 10**7) for _ in range(200)):
        fired = freq_bin_features(count, bins) - {bins.zero_feature}
        if prev is not None:
            assert prev <= fired
        prev = fired


def test_freq_bin_validation():
    with pytest.raises(ValueError):
        FreqBinConfig((0, 1))
    with pytest.raises(ValueError):
        FreqBinConfig((5, 5))
    with pytest.raises(ValueError):
        freq_bin_features(-1, FreqBinConfig())


# Word-list lines: "WORD<TAB>COUNT", a bare "WORD" or a blank line, each
# ended by one of the line boundaries str.splitlines knows.  Few symbols, some
# of them non-ASCII, so words repeat and share prefixes.
_WORD = st.lists(st.sampled_from("abñ中"), min_size=1, max_size=4).map("".join)
_LINE = st.one_of(
    st.just(""),
    _WORD,
    st.builds(lambda w, c: f"{w}\t{c}", _WORD, st.integers(1, 10**6)),
)
_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"])
_WORD_LIST = st.lists(st.tuples(_LINE, _ENDS), max_size=30).map(
    lambda lines: "".join(line + end for line, end in lines)
)


def _nodes(node):
    yield node
    kids = node.children
    for child in kids.values() if isinstance(kids, dict) else kids[1:]:
        yield from _nodes(child)


def _assert_lean(root):
    """Only a node with two or more children holds a dict; a node with one
    holds a (symbol, child) pair, a leaf ()."""
    for node in _nodes(root):
        kids = node.children
        if isinstance(kids, dict):
            assert len(kids) >= 2
        else:
            assert kids == () or len(kids) == 2 and isinstance(kids[1], TrieNode)


@settings(max_examples=200, deadline=None)
@given(text=_WORD_LIST)
def test_read_trie_is_the_trie_of_the_parsed_lexicon(text):
    want, got = build_trie(parse_lexicon(text)), read_trie(text)
    assert trie_words(got) == trie_words(want) == parse_lexicon(text).counts
    assert got.prefix_count == want.prefix_count
    words = trie_words(want)
    for prefix in {w[:k] for w in words for k in range(len(w) + 1)} | {("z",)}:
        for end_of_word in (False, True):
            assert prefix_count(got, prefix, end_of_word) == prefix_count(
                want, prefix, end_of_word
            )
    _assert_lean(got)
    _assert_lean(want)


@settings(max_examples=100, deadline=None)
@given(text=_WORD_LIST, bad=st.sampled_from(["ab\t0", "ab\tx", "ñ\t-3", "a\t2 5"]),
       at=st.integers(0, 30))
def test_both_readers_fail_on_the_same_line(text, bad, at):
    lines = text.splitlines(keepends=True)
    text = "".join(lines[:at]) + bad + "\n" + "".join(lines[at:])
    failures = []
    for reader in (parse_lexicon, read_trie):
        with pytest.raises(ParseError) as info:
            reader(text)
        failures.append(info.value.lineno)
    assert failures == [min(at, len(lines)) + 1] * 2


def test_trie_nodes_hold_a_dict_only_for_two_or_more_children():
    rng = random.Random(9)
    counts = {
        tuple(rng.choice("abcdefg") for _ in range(rng.randint(1, 9))): rng.randint(1, 50)
        for _ in range(500)
    }
    root = build_trie(Lexicon(counts))
    _assert_lean(root)
    kinds = {type(node.children) for node in _nodes(root)}
    assert kinds == {tuple, dict}
    assert any(len(node.children) == 2 and type(node.children) is tuple
               for node in _nodes(root))
