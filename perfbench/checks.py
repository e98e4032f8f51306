"""Output checks of one benchmark run, made apart from chartrans' own code.

Every check reads the written files with its own parser and compares them
against the generator's inputs and references or against a property the
method must have.  A check returns a list of problems; empty means it
passed.
"""

import math

LINK_SEP = "}"
SPAN_JOIN = "|"
EMPTY = "_"


def _span(text):
    return () if text == EMPTY else tuple(text.split(SPAN_JOIN))


def parse_alignment_line(line):
    """Links of one alignments.txt line as (source span, target span)."""
    links = []
    for part in line.split():
        src, sep, tgt = part.partition(LINK_SEP)
        if not sep or LINK_SEP in tgt:
            raise ValueError(f"bad link {part!r}")
        links.append((_span(src), _span(tgt)))
    return links


def check_alignments(text, pairs, max_span=None):
    """Each line must spell its training pair on both sides, in input
    order; no link may have an empty source span; with max_span, no span
    may be longer.  Returns (problems, number of pairs left out)."""
    problems = []
    lines = [line for line in text.splitlines() if line.strip()]
    pos = 0
    for lineno, line in enumerate(lines, start=1):
        try:
            links = parse_alignment_line(line)
        except ValueError as exc:
            problems.append(f"alignments line {lineno}: {exc}")
            continue
        source = tuple(s for src, _ in links for s in src)
        target = tuple(t for _, tgt in links for t in tgt)
        while pos < len(pairs) and pairs[pos] != (source, target):
            pos += 1
        if pos == len(pairs):
            problems.append(
                f"alignments line {lineno} spells no remaining training pair"
            )
            return problems, len(pairs) - len(lines)
        pos += 1
        for src, tgt in links:
            if not src:
                problems.append(f"alignments line {lineno}: empty source span")
            if max_span is not None and max(len(src), len(tgt)) > max_span:
                problems.append(
                    f"alignments line {lineno}: span longer than {max_span}"
                )
    return problems, len(pairs) - len(lines)


def parse_nbest(text):
    """N-best blocks as [source, [(rank, output, score), ...]]; a rank of
    0 stands for an empty list and 1 starts a new block."""
    blocks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"nbest line {lineno}: {len(fields)} fields")
        source, rank, output, score = fields
        rank = int(rank)
        if rank <= 1 or not blocks:
            blocks.append([tuple(source.split()), []])
        if rank >= 1:
            blocks[-1][1].append((rank, tuple(output.split()), float(score)))
    return blocks


def check_nbest(text, sources, n):
    """One block per held-out word in input order; ranks 1, 2, ...; at
    most n distinct outputs; scores never increase.  Returns (problems,
    blocks, number of empty lists)."""
    try:
        blocks = parse_nbest(text)
    except ValueError as exc:
        return [str(exc)], [], 0
    problems = []
    if [src for src, _ in blocks] != list(sources):
        problems.append(
            f"{len(blocks)} n-best blocks do not follow the "
            f"{len(sources)} held-out words in order"
        )
    for src, cands in blocks:
        word = " ".join(src)
        if [rank for rank, _, _ in cands] != list(range(1, len(cands) + 1)):
            problems.append(f"n-best of {word}: ranks out of order")
        if len(cands) > n:
            problems.append(f"n-best of {word}: {len(cands)} outputs, n is {n}")
        outputs = [out for _, out, _ in cands]
        if len(set(outputs)) != len(outputs):
            problems.append(f"n-best of {word}: repeated output")
        scores = [score for _, _, score in cands]
        if any(math.isnan(s) for s in scores) or any(
            b > a for a, b in zip(scores, scores[1:])
        ):
            problems.append(f"n-best of {word}: scores increase")
    empty = sum(1 for _, cands in blocks if not cands)
    return problems, blocks, empty


def accuracies(blocks, references):
    """Rank-1 and any-rank exact match against the reference sets."""
    if not references:
        return 0.0, 0.0
    top = anywhere = 0
    for (_, cands), refs in zip(blocks, references):
        outputs = [out for _, out, _ in cands]
        top += bool(outputs) and outputs[0] in refs
        anywhere += any(out in refs for out in outputs)
    return top / len(references), anywhere / len(references)


def check_report(text, accuracy, oracle):
    """report.txt must state the recomputed figures to 6 decimals."""
    stated = dict(
        line.split("=", 1) for line in text.splitlines() if "=" in line
    )
    problems = []
    for key, value in (("accuracy", accuracy), ("oracle", oracle)):
        if stated.get(key) != f"{value:.6f}":
            problems.append(
                f"report.txt {key}={stated.get(key)} but the n-best list gives {value:.6f}"
            )
    return problems


def spelling_rule_accuracy(held, references):
    """Best rank-1 accuracy of the corpus-blind rules that lower-case each
    phone and spell every /K/ as c, or every /K/ as k."""
    best = 0.0
    for k_letter in ("c", "k"):
        hits = sum(
            tuple(k_letter if p == "K" else p.lower() for p in phones) in refs
            for phones, refs in zip(held, references)
        )
        best = max(best, hits / len(held))
    return best


def check_accuracy(accuracy, oracle, rule_accuracy):
    problems = []
    if oracle < accuracy:
        problems.append(f"oracle accuracy {oracle} below accuracy {accuracy}")
    if accuracy <= rule_accuracy:
        problems.append(
            f"accuracy {accuracy} does not beat the spelling rules' {rule_accuracy}"
        )
    return problems
