import gc
import marshal
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartrans.core import ParseError, parse_seq
from chartrans.freqtrie import (
    FreqBinConfig,
    Lexicon,
    build_trie,
    freq_bin_features,
    load_trie,
    parse_lexicon,
    prefix_count,
    prune_lexicon,
    save_trie,
    serialize_lexicon,
    trie_tag,
    trie_words,
    walk,
)

from toytask import lexicon_task


def lex(**words):
    return Lexicon({tuple(w): c for w, c in words.items()})


def test_build_trie_sums():
    root = build_trie(lex(ab=3, ac=2))
    assert prefix_count(root, ("a",)) == 5
    assert prefix_count(root, ("a", "b")) == 3
    assert prefix_count(root, ("a", "b"), end_of_word=True) == 3
    assert prefix_count(root, ()) == 5


def test_build_trie_empty():
    root = build_trie(Lexicon({}))
    assert prefix_count(root, ()) == 0
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
    assert prefix_count(walk(node, ("b",)), (), end_of_word=True) == 1


def test_prune_removes_english_heavy_words():
    # either lexicon may key its words by tuple or, as parse_lexicon does,
    # by string
    for english in (lex(the=999, of=1), parse_lexicon("the\t999\nof\t1\n")):
        for target in (lex(the=1, niño=99), parse_lexicon("the\t1\nniño\t99\n")):
            pruned = prune_lexicon(target, english)
            # P_en(the) = 999/1000 > P_tgt(the) = 1/100: dropped
            assert [tuple(w) for w in pruned.counts] == [tuple("niño")]


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
    assert lexicon.counts == {"abc": 7, "xyz": 1}
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
    kids = node[2:]
    for child in kids[0].values() if len(kids) == 1 else kids[1:]:
        yield from _nodes(child)


def _assert_lean(root):
    """Every node is a tuple that starts with its two counts.  Only a node
    with two or more children holds a dict; a node with one holds its
    symbol and child, a leaf nothing more."""
    for node in _nodes(root):
        assert type(node) is tuple and len(node) in (2, 3, 4)
        assert all(type(count) is int for count in node[:2])
        if len(node) == 3:
            assert type(node[2]) is dict and len(node[2]) >= 2
        if len(node) == 4:
            assert type(node[2]) is str and type(node[3]) is tuple


@settings(max_examples=200, deadline=None)
@given(text=_WORD_LIST)
def test_a_parsed_word_list_builds_the_trie_of_its_tuple_keyed_lexicon(text):
    # parse_lexicon keys words by string; a caller's Lexicon keys them by
    # symbol tuple, and both build the same trie
    counts = {tuple(word): count for word, count in parse_lexicon(text).counts.items()}
    assert len(counts) == len(parse_lexicon(text).counts)
    want, got = build_trie(Lexicon(counts)), build_trie(parse_lexicon(text))
    assert trie_words(got) == trie_words(want) == counts
    assert prefix_count(got, ()) == prefix_count(want, ())
    assert got == want
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
    # the one reader's two ways in: a whole text, or its lines
    lines = text.splitlines(keepends=True)
    text = "".join(lines[:at]) + bad + "\n" + "".join(lines[at:])
    failures = []
    for stream in (text, text.splitlines(keepends=True)):
        with pytest.raises(ParseError) as info:
            parse_lexicon(stream)
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
    kinds = {len(node) for node in _nodes(root)}
    assert kinds == {2, 3, 4}
    assert any(len(node) == 4 for node in _nodes(root))


def test_both_readers_read_an_nfd_word_list_as_nfc():
    # the one reader's two ways in: a whole text, or its lines
    nfd = unicodedata.normalize("NFD", "café\t50\n")
    cafe = parse_seq("c a f é")
    assert prefix_count(build_trie(parse_lexicon(nfd)), cafe, end_of_word=True) == 50
    assert parse_lexicon(nfd).counts == {"".join(cafe): 50}
    assert parse_lexicon(nfd.splitlines()).counts == {"".join(cafe): 50}


def test_a_word_list_line_is_split_at_its_tab_before_it_is_stripped():
    for stream in ("abc \t5\n ab\t 2 \n", ["abc \t5\n", " ab\t 2 \n"]):
        lexicon = parse_lexicon(stream)
        assert lexicon.counts == {"abc": 5, "ab": 2}
        assert prefix_count(build_trie(lexicon), "abc", end_of_word=True) == 5
    for text, lineno in [("\t5\n", 1), ("ab\t2\n \t7\n", 2), ("ab\t2\nab\t\n", 2)]:
        with pytest.raises(ParseError) as info:
            parse_lexicon(text)
        assert info.value.lineno == lineno


_ENTRY = st.tuples(st.lists(st.sampled_from("abñ"), min_size=1, max_size=4).map("".join),
                   st.integers(1, 50))


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(_ENTRY, max_size=12))
def test_trie_survives_marshal_and_counts_as_brute_force(entries, tmp_path_factory):
    # repeated words add up; words of one symbol and the empty list included
    counts = {}
    for word, count in entries:
        counts[tuple(word)] = counts.get(tuple(word), 0) + count
    text = "".join(f"{word}\t{count}\n" for word, count in entries)
    prefixes = {w[:k] for w in counts for k in range(len(w) + 1)} | {("z",), ("a", "z")}
    path = tmp_path_factory.mktemp("snapshot") / "words.trie"
    for trie in (build_trie(parse_lexicon(text)), build_trie(Lexicon(counts))):
        assert marshal.loads(marshal.dumps(trie)) == trie
        save_trie(trie, path, "tag of the list")
        with pytest.raises(ValueError, match="tagged"):
            load_trie(path, "tag of another list")
        again = load_trie(path, "tag of the list")
        assert again == trie
        for prefix in prefixes:
            brute = sum(c for w, c in counts.items() if w[: len(prefix)] == prefix)
            assert prefix_count(again, prefix) == brute
            assert prefix_count(again, prefix, end_of_word=True) == counts.get(prefix, 0)
        assert trie_words(again) == counts
        _assert_lean(again)


def test_a_snapshot_of_another_tag_is_refused_after_its_tag(tmp_path):
    # what follows the tag is never read: junk there raises no marshal error
    path = tmp_path / "words.trie"
    save_trie(build_trie(parse_lexicon("ab\t3\nb\t1\n")), path, "tag of the list")
    assert trie_tag(path) == "tag of the list"
    tag = marshal.dumps("tag of another list")
    path.write_bytes(len(tag).to_bytes(4, "little") + tag + b"\xff" * 9)
    assert trie_tag(path) == "tag of another list"
    with pytest.raises(ValueError, match="is tagged 'tag of another list', not 'tag of the list'"):
        load_trie(path, "tag of the list")


@pytest.mark.parametrize("data", [None, b"", b"\x05\x00\x00\x00ab", b"not a trie"],
                         ids=["missing", "empty", "cut", "garbage"])
def test_a_snapshot_with_no_whole_first_record_has_no_tag(tmp_path, data):
    path = tmp_path / "words.trie"
    if data is not None:
        path.write_bytes(data)
    assert trie_tag(path) is None


@pytest.mark.parametrize("text", ["ab\t3\nabc\t4\n", "ab\t3\nabc\t4\nb\t1\n"],
                         ids=["one-child root", "two-child root"])
def test_a_multi_character_symbol_never_matches(text):
    trie = build_trie(parse_lexicon(text))
    assert prefix_count(trie, ("a", "b")) == 7
    assert prefix_count(trie, ("ab",)) == 0
    assert walk(trie, ("ab",)) is None


def test_a_large_trie_leaves_few_objects_to_the_collector():
    # a full collection walks every tracked object; the old trie of node
    # objects left 82,295 of them for these 30,000 words
    lexicon, _, _ = lexicon_task(1, 30000, 0, 0)
    trie = build_trie(lexicon)
    gc.collect()
    objects = [x for node in _nodes(trie) for x in (node, *node[2:3]) if type(x) is not str]
    assert len(objects) > 60_000
    assert sum(map(gc.is_tracked, objects)) <= 15_000
