"""Byte identity of saturated packings and reports on fixed inputs.

`tests/data/report_digests.txt` holds the output of
`benchmarks/report_digests.py`: per input, the sha256 of the saturated
packing JSON and of the verification report JSON. A change that is meant
to keep every result byte-identical must keep these lines; a change that
alters results on purpose regenerates the file with

    PYTHONPATH=src python3 benchmarks/report_digests.py > tests/data/report_digests.txt

Both kernels must give these lines: the test process runs the kernel the
backend picks at import, and a child process runs the pure-Python one.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_report_digests():
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "benchmarks" / "report_digests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _golden():
    return (ROOT / "tests" / "data" / "report_digests.txt").read_text().splitlines()


def test_report_digests_unchanged():
    assert list(_load_report_digests().digest_lines()) == _golden()


def test_report_digests_unchanged_python_kernel():
    # the backend is chosen once per process, at import
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "report_digests.py")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, THUE_LAB_BACKEND="python"),
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == _golden()
