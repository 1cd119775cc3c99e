"""Golden transcripts of the corpus: every tests/corpus/*.plx, run by
`proxylang run` in each mode name, gives the exit status, stdout and
stderr recorded in tests/data/corpus_transcripts.json.

The runs go through cli.main in this process, so the check costs no child
process. A change that means to move a transcript regenerates the file:

    PYTHONPATH=src python tests/test_transcripts.py --write
"""

import contextlib
import io
import json
import sys

import pytest

from proxylang.cli import main

from conftest import CORPUS_DIR, DATA_DIR, MODE_NAMES

TRANSCRIPTS = DATA_DIR / "corpus_transcripts.json"
SCRIPTS = sorted(path.name for path in CORPUS_DIR.glob("*.plx"))


def transcript(script: str, mode: str) -> dict:
    """What `proxylang run tests/corpus/<script> --equality-mode <mode>`
    exits with and writes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["run", str(CORPUS_DIR / script),
                       "--equality-mode", mode])
    return {"status": status, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def all_transcripts() -> dict:
    return {script: {mode: transcript(script, mode) for mode in MODE_NAMES}
            for script in SCRIPTS}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))


def test_every_script_has_a_transcript(golden):
    assert sorted(golden) == SCRIPTS
    for script in SCRIPTS:
        assert sorted(golden[script]) == sorted(MODE_NAMES), script


@pytest.mark.parametrize("mode", MODE_NAMES)
@pytest.mark.parametrize("script", SCRIPTS)
def test_transcript(golden, script, mode):
    assert transcript(script, mode) == golden[script][mode]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    TRANSCRIPTS.write_text(json.dumps(all_transcripts(), indent=1,
                                      sort_keys=True) + "\n",
                           encoding="utf-8")
