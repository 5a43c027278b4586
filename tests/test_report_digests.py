"""Byte identity of saturated packings and reports on fixed inputs.

`tests/data/report_digests.txt` holds the output of
`benchmarks/report_digests.py`: per input, the sha256 of the saturated
packing JSON and of the verification report JSON. A change that is meant
to keep every result byte-identical must keep these lines; a change that
alters results on purpose regenerates the file with

    PYTHONPATH=src python3 benchmarks/report_digests.py > tests/data/report_digests.txt
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_report_digests():
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "benchmarks" / "report_digests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digests_unchanged():
    golden = (ROOT / "tests" / "data" / "report_digests.txt").read_text().splitlines()
    assert list(_load_report_digests().digest_lines()) == golden
