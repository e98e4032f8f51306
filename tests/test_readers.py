"""Every reader of an input file stops on a malformed line with a
ParseError that names the line."""

import re

import pytest

from chartrans import cli
from chartrans.aligner import read_alignments
from chartrans.charlm import load_charlm
from chartrans.core import ParseError, parse_eval, parse_inflections, parse_pairs
from chartrans.freqtrie import parse_lexicon
from chartrans.transducer import load_model


def _text(parse):
    """parse as a reader of the file at a path."""
    return lambda path: parse(path.read_text(encoding="utf-8"))


def _decode_input(path):
    return cli._sources(cli.RunConfig(), path)


MODEL = "#model\tv1\n"
LM = "#charlm\torder=2\n#alphabet\ta b\n0\t\ta\t3\n"

MALFORMED = [
    pytest.param(_text(parse_pairs), "a b\tx y\na b x y\n", 2,
                 "expected exactly one tab", id="pairs"),
    pytest.param(_text(parse_eval), "a\tx|y\n\na _\tx\n", 3,
                 "reserved null token", id="eval"),
    pytest.param(_text(parse_inflections), "walk\twalked\tV;PST\nrun\tran\n", 2,
                 "expected 3 tab-separated fields", id="inflections"),
    pytest.param(_text(read_alignments), "a}x b}y\nab\n", 2,
                 "bad link 'ab'", id="alignments"),
    pytest.param(_decode_input, "a b\n\nc _ d\tC\n", 3,
                 "reserved null token", id="decode-input"),
    pytest.param(cli.read_nbest, "a\t1\tx\t0.5\na\ttwo\ty\t0.2\n", 2,
                 "invalid literal for int()", id="nbest"),
    pytest.param(cli.read_nbest, "a b\t1\tx\t0.5\na b\t3\ty\t0.2\n", 2,
                 "rank 3 of 'a b' neither opens a block", id="nbest-rank-gap"),
    pytest.param(cli.read_nbest, "a\t1\tx\t0.5\nc\t-2\tz\t0.1\n", 2,
                 "rank -2 of 'c' neither opens a block", id="nbest-negative-rank"),
    # d's rank 2 would otherwise join c's block and be scored against c
    pytest.param(cli.read_nbest, "c\t0\t\tNaN\nd\t2\tq\t0.5\n", 2,
                 "rank 2 of 'd' neither opens a block", id="nbest-foreign-source"),
    pytest.param(load_model, MODEL + '#lmbins\t{"mu": 0, "sigma": 1}\n', 2,
                 "bad model line: 'thresholds'", id="model-lmbins"),
    pytest.param(load_model, MODEL + '#features\t{"no_such_feature": 1}\n', 2,
                 "bad model line", id="model-features"),
    pytest.param(load_charlm, LM + "1\ta\tb\n", 4,
                 "not enough values to unpack", id="lm-short-line"),
    pytest.param(load_charlm, LM + "1\ta\tb\tx\n", 4,
                 "invalid literal for int()", id="lm-count"),
    pytest.param(load_charlm, LM + "\n9\ta\tb\t1\n", 5,
                 "level 9 with 1 history symbols in an order-2 LM", id="lm-order"),
    pytest.param(load_charlm, "#charlm\torder=0\n#alphabet\ta\n", 1,
                 "order must be >= 1", id="lm-header"),
    pytest.param(_text(parse_lexicon), "ab\t3\nyx\tx\n", 2,
                 "count 'x' is not a positive integer", id="words-count-x"),
    pytest.param(_text(parse_lexicon), "ab\t0\n", 1,
                 "count '0' is not a positive integer", id="words-count-0"),
    # at -2 then 5 the counts would otherwise sum silently to 3
    pytest.param(_text(parse_lexicon), "yx\t-2\nyx\t5\n", 1,
                 "count '-2' is not a positive integer", id="words-negative"),
    pytest.param(cli.load_config, "beam = 3\n# a comment\nno_such_key = 1\n", 3,
                 "unknown configuration key 'no_such_key'", id="config"),
]


@pytest.mark.parametrize("reader, text, lineno, message", MALFORMED)
def test_malformed_line_fails_with_its_number(tmp_path, reader, text, lineno, message):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=f"^line {lineno}: .*{re.escape(message)}") as info:
        reader(path)
    assert info.value.lineno == lineno
