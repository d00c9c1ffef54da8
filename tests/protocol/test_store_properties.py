"""Cell-key properties that resuming from the results store rests on.

A stored record is found again only through its key, so keys must never
depend on process state, must flip with every run-affecting parameter, and
must be unique per cell.  The store itself is tested in ``test_store.py``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.protocol.spec import ProtocolSpec


def test_cell_keys_stable_across_process_restarts(tmp_path: Path):
    """Keys are pure content hashes: a fresh interpreter derives them bit-equal.

    This is the property resumability rests on — if keys drifted between
    processes (e.g. hash randomisation, dict ordering, repr formatting), a
    resumed run would recompute everything or, worse, mis-attribute records.
    """
    spec = ProtocolSpec.quick()
    keys_here = [spec.cell_key(cell) for cell in spec.expand()]

    script = (
        "from repro.protocol.spec import ProtocolSpec\n"
        "spec = ProtocolSpec.quick()\n"
        "print('\\n'.join(spec.cell_key(c) for c in spec.expand()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": "src", "PYTHONHASHSEED": "31337", "PATH": ""},
        cwd=Path(__file__).resolve().parents[2],
    )
    keys_there = out.stdout.strip().splitlines()
    assert keys_there == keys_here


def test_cell_keys_change_with_run_parameters():
    """Any run-affecting field flips every key (stale-cache protection)."""
    base = ProtocolSpec.quick()
    longer = ProtocolSpec.quick()
    longer.n_instances += 1
    cells = base.expand()
    assert [base.cell_key(c) for c in cells] != [longer.cell_key(c) for c in cells]


def test_cell_keys_unique_per_cell():
    spec = ProtocolSpec(
        name="grid",
        families=("rbf", "agrawal"),
        class_counts=(5, 10),
        scenarios=(1, 2, 3),
        detectors=("DDM", "ADWIN"),
        seeds=(0, 1),
        n_instances=500,
    )
    keys = [spec.cell_key(cell) for cell in spec.expand()]
    assert len(set(keys)) == len(keys) == len(spec)
