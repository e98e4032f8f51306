"""Golden bytes: align -> train -> decode on a small lexicon task must keep
writing exactly these files: for the full system (precision alignment,
LM and frequency features), for it with frequency features off, and for
the 2-2 baseline aligner with LM features off.  The same full system on a
small inflection task, with one copy instance, pins the tag symbols and
the +COPY pair.  The LM cases also pin the LM cache that train writes
beside the word list.  A change that is meant
to alter them updates the hashes and says why.  The outputs rest on
CPython's float arithmetic, so every other CPython 3.10 or later that
starts here must write the same bytes too."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from golden_cases import LM_CACHE, run_case

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = {
    "full": ("", {
        "alignments.txt": "ea58344e312e78881b11f2d200eb3f850bc6de933460f3c0b11abf5ab173fa51",
        "model.txt": "91d080d8bafaec20e79a44687846849bdbf09b24588443f2d90d4a639e53eb6a",
        "nbest.txt": "7dd9d703a2dd9b3552d6c9122c539a66a7f0f227a95bd270c34157b1b0f0e0b5",
        LM_CACHE: "980f4f15cd3be84624dc313089ede09e74c978e1c8ced077e7f0fc34dd87b4a7",
    }),
    "lm-no-freq": ("disable_freq = true\n", {
        "alignments.txt": "ea58344e312e78881b11f2d200eb3f850bc6de933460f3c0b11abf5ab173fa51",
        "model.txt": "15e9492a826ccc9ad04f61f6dc1fcf7447d8ba33d5e376813016a2c0faea90c6",
        "nbest.txt": "04216747fcec259f2b788a5976c374007cd3b1223af87354fc4899159b7af8cf",
        LM_CACHE: "980f4f15cd3be84624dc313089ede09e74c978e1c8ced077e7f0fc34dd87b4a7",
    }),
    "m2m-no-lm": ("disable_precision = true\ndisable_lm = true\n", {
        "alignments.txt": "72fca9ffb11a29886c56bf39a5982c13188daaf55d4b3346d4e592f38e78951e",
        "model.txt": "db4b0856c7ab8eacf9faa2759c176354375550eeea8d6a4d22c10029ac230047",
        "nbest.txt": "fc8162b16176f4a92e6619b53ef54018eae5fb1a4f089484cb739a28964bfb5b",
    }),
    "inflection": ("task = inflection\ncopy_instances = 1\n", {
        "alignments.txt": "34acf8ec16a0d145ae8aa33013912b4bf3277b2a0d0d73e3cf01c666f809ae3e",
        "model.txt": "aa6b479d6bc6cd7e361bf611e33780ddc4f6d7098ce853205fa46e5ae4904913",
        "nbest.txt": "1a8b98d117f7bef8350e9a8738f763fbc9ed09026ef887bd1ba36be1ece606c9",
        LM_CACHE: "cc568a0c518800ac75e46a4be62b1f5f1af8850356ae315a225b2312f5375fce",
    }),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_pipeline_output_bytes(tmp_path, case):
    extra, golden = GOLDEN[case]
    assert run_case(tmp_path, case, extra, golden) == golden


def _started(command, env):
    """(realpath of its executable, version) of the CPython 3.10 or later
    that command starts, or None."""
    probe = ("import os, platform, sys; print(platform.python_implementation(), "
             "int(sys.version_info >= (3, 10)), os.path.realpath(sys.executable), "
             "platform.python_version(), sep='\\n')")
    try:
        done = subprocess.run([*command, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    fields = done.stdout.splitlines()
    if done.returncode or fields[:2] != ["CPython", "1"]:
        return None
    return fields[2], fields[3]


def _other_interpreters():
    """{realpath: (version, command, environment)} of every CPython 3.10
    or later this machine starts, but the one running the tests: python3.N
    on PATH, and each version pyenv knows, when pyenv is on PATH."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(map(str, (ROOT / "src", ROOT / "tests"))))
    candidates = [([f"python3.{minor}"], env) for minor in range(10, 30)
                  if shutil.which(f"python3.{minor}")]
    if shutil.which("pyenv"):
        listed = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True,
                                text=True, timeout=60, check=False).stdout.split()
        candidates += [(["pyenv", "exec", "python3"], dict(env, PYENV_VERSION=version))
                       for version in listed if re.fullmatch(r"3\.\d\d+\.\d+", version)]
    found = {}
    for command, cmd_env in candidates:
        started = _started(command, cmd_env)
        if started and started[0] != os.path.realpath(sys.executable):
            found.setdefault(started[0], (started[1], command, cmd_env))
    return found


def test_pipeline_output_bytes_on_every_other_cpython():
    # the outputs rest on CPython's float folds, and sum() compensates from
    # 3.12 on, so each installed CPython must write the same bytes
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10 or later starts here")
    cases = json.dumps({case: [extra, list(golden)] for case, (extra, golden) in GOLDEN.items()})
    script = str(ROOT / "tests" / "golden_cases.py")
    runs = [
        (version, subprocess.Popen([*command, script, cases], env=env, text=True,
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        for version, command, env in interpreters.values()
    ]
    done = [(version, *run.communicate(timeout=600), run.returncode) for version, run in runs]
    want = {case: golden for case, (_, golden) in GOLDEN.items()}
    for version, out, err, code in done:
        assert code == 0, f"Python {version}: {err}"
        assert json.loads(out) == want, f"Python {version}"
