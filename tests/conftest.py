import os
import subprocess
import sys
from pathlib import Path

import pytest

import proxylang
from proxylang.equality import EqualityMode
from proxylang.prelude import default_prelude_source

# a child process (run_in_child, the CLI's tests) imports proxylang from
# where this one did, also when only pytest's pythonpath setting names it
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(proxylang.__file__).parents[1]),
    os.environ.get("PYTHONPATH"))))

TESTS_DIR = Path(__file__).parent
CORPUS_DIR = TESTS_DIR / "corpus"
COINCIDENCE_DIR = TESTS_DIR / "coincidence"
DATA_DIR = TESTS_DIR / "data"

MODES = tuple(m.value for m in EqualityMode)
# every name that selects a mode: the modes and the alias "operators",
# which selects transparent
MODE_NAMES = (*MODES, "operators")


def run_in_child(code: str, timeout: float = 120) \
        -> subprocess.CompletedProcess:
    """Run Python code in a fresh process, so that a probe whose host
    recursion outruns the C stack fails one test instead of ending the
    test run."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=timeout)


@pytest.fixture(scope="session")
def prelude_source() -> str:
    return default_prelude_source()


@pytest.fixture
def corpus_dir() -> Path:
    return CORPUS_DIR
