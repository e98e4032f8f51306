"""The benchmark's pipeline (perfbench/pipeline.py) times and traces
library functions by looking them up by name.  A refactor that drops or
renames one of them must fail here, not in a traced benchmark run."""

import importlib.util
import logging
import sys
from pathlib import Path

from chartrans import aligner

from toytask import lexicon_task

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _pipeline():
    """perfbench/pipeline.py as a module, with sys.path left as it was."""
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))  # for its calltree and speedprobe
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_pipeline", PERFBENCH / "pipeline.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_every_traced_and_timed_name_is_still_defined():
    pipeline = _pipeline()
    targets = [(owner, attr) for owner, attr, *_ in pipeline.TRACED + pipeline.COARSE]
    targets.append((pipeline.aligner, "em_train"))  # counted in tracing()
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr in targets
        if attr not in owner.__dict__
    ]
    assert len(targets) > 25
    assert missing == []


def test_em_train_keeps_the_tracers_contract(monkeypatch, caplog):
    # the tracer replaces aligner.em_train by a wrapper that passes its own
    # history and reads len() of the table returned as the δ entry count;
    # align must go through it and decode as it does unwrapped
    _, pairs, _ = lexicon_task(7, 400, 30, 1)
    aligns = (aligner.baseline_align, aligner.precision_align)
    unwrapped = [align(pairs) for align in aligns]
    em_train = aligner.em_train
    calls = []

    def counted_em_train(pairs, params, history=None):
        history = [] if history is None else history
        delta = em_train(pairs, params, history)
        calls.append((len(history), len(delta)))
        return delta

    monkeypatch.setattr(aligner, "em_train", counted_em_train)
    for align, want in zip(aligns, unwrapped):
        calls.clear()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="chartrans.aligner"):
            assert align(pairs) == want
        m2m = [r.args for r in caplog.records
               if r.msg.startswith("EM iteration") and "(m2m " in r.getMessage()]
        assert calls == [(len(m2m), m2m[-1][3])]
