"""Smoke test of the shipped scripts: each runs to completion, and every
diagram file the corpus script writes loads and evaluates."""

import subprocess
import sys
from pathlib import Path

from milnor.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_corpus_and_demo_run(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    subprocess.run(
        [sys.executable, str(SCRIPTS / "generate_corpus.py"), str(corpus)],
        check=True,
        capture_output=True,
    )
    files = sorted(str(p) for p in corpus.glob("*.json"))
    assert len(files) == 22
    assert main(["invariants", *files, "--max-length", "3"]) == 0
    subprocess.run(
        [sys.executable, str(SCRIPTS / "classification_demo.py")],
        check=True,
        capture_output=True,
    )
