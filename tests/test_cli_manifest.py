"""Every run pinned in tests/cli_manifest.json gives the same exit code,
stdout, stderr and output bytes.

A change that moves an output on purpose regenerates the manifest with
tests/regen_cli_manifest.py and shows the printed diff.
"""

import json

import pytest

from regen_cli_manifest import MANIFEST, run_entry

ENTRIES = json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_cli_run_matches_the_manifest(tmp_path, monkeypatch, entry):
    monkeypatch.delenv("PESINLAB_SEED", raising=False)
    assert run_entry(entry["argv"], tmp_path / "out") == entry
