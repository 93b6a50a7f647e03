#!/usr/bin/env python3
"""Record the reference outputs the benchmark compares against.

Usage: python3 perfbench/record_reference.py

Runs the ``milnor`` CLI on every corpus link (its self-delta report where
the doubling check fits in memory, and its link-homotopy verdict) and
writes digests of the results to perfbench/reference.json.  Rerun it only
when a change of output is intended, and say so in the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import digest  # noqa: E402


def cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, "-m", "milnor.cli", *argv],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def main() -> int:
    reference = {"selfdelta": {}, "homotopy_trivial": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "generate_corpus.py"), tmp],
            check=True, capture_output=True,
        )
        for path in sorted(Path(tmp).glob("*.json")):
            data = json.loads(path.read_text())
            name, n = data["name"], data["components"]
            print(name, file=sys.stderr)
            verdict = cli("classify", "--homotopy", str(path))
            reference["homotopy_trivial"][name] = verdict["link_homotopy_trivial"]
            if n > 3:
                continue  # the doubling check exceeds any reasonable memory cap
            report = cli("classify", "--self-delta", str(path))
            vector = report["vectors"][name]
            reference["selfdelta"][name] = {
                "vector": digest(vector),
                "entries": digest(vector["entries"]),
                "trivial": report["selfdelta_trivial"][name],
            }
    (HERE / "reference.json").write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
