"""The repository's configuration.  Under its pytest settings a failing
hypothesis property is reported as one failure and the run goes on, while a
deprecation warning that a test raises is still an error; its console
script is the CLI's process entry."""

import importlib
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_does_not_stop_the_run(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True,
    )
    summary = run.stdout.strip().splitlines()[-1]
    assert run.returncode == 1 and summary.startswith("1 failed, 1 passed"), run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


def test_a_deprecation_warning_is_an_error():
    with pytest.raises(DeprecationWarning):
        warnings.warn("gone", DeprecationWarning)


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    module, _, name = project["scripts"]["milnor"].partition(":")
    assert (module, name) == ("milnor.cli", "run")
    assert callable(getattr(importlib.import_module(module), name))
