"""Every run pinned in tests/cli_manifest.json gives the same exit code,
stdout, stderr and output bytes.

A change that moves an output on purpose regenerates the manifest with
tests/regen_cli_manifest.py and shows the printed diff.
"""

import json
import os

import pytest

from regen_cli_manifest import MANIFEST, run_entry

ENTRIES = json.loads(MANIFEST.read_text())


def _entry_id(entry):
    return " ".join(entry["argv"])


@pytest.mark.parametrize("entry", ENTRIES, ids=_entry_id)
def test_cli_run_matches_the_manifest(tmp_path, monkeypatch, entry):
    monkeypatch.delenv("PESINLAB_SEED", raising=False)
    assert run_entry(entry["argv"], tmp_path / "out") == entry


def _let_fork(monkeypatch, fork):
    """Make may_fork() answer fork where partitions and gamow call it;
    return the pids of the children forked."""
    from pesinlab import gamow, partitions

    for module in (partitions, gamow):
        monkeypatch.setattr(module, "may_fork", lambda: fork)
    pids, real = [], os.fork

    def counted():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
@pytest.mark.parametrize("entry", ENTRIES, ids=_entry_id)
def test_cli_run_matches_the_manifest_forked_or_not(tmp_path, monkeypatch,
                                                    entry, fork):
    # one set of bytes whatever the host's CPU count
    monkeypatch.delenv("PESINLAB_SEED", raising=False)
    pids = _let_fork(monkeypatch, fork)
    assert run_entry(entry["argv"], tmp_path / "out") == entry
    if not fork:
        assert pids == []


def test_the_monte_carlo_prescription_entry_forks_a_child(tmp_path,
                                                          monkeypatch):
    # its full records make the child send codes as well as counts
    entry, = (e for e in ENTRIES
              if e["argv"][0] == "prescription" and "mc" in e["argv"])
    monkeypatch.delenv("PESINLAB_SEED", raising=False)
    pids = _let_fork(monkeypatch, True)
    assert run_entry(entry["argv"], tmp_path / "out") == entry
    assert len(pids) == 1
