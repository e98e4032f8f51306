"""The benchmark's pipeline (perfbench/pipeline.py) times and traces
library functions by looking them up by name.  A refactor that drops or
renames one of them must fail here, not in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

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
