"""Golden regression tests: exact bytes emitted by the scenario streams.

The batch/instance parity suites compare two read paths of the *same* code,
so a rewrite of the stream engine that changes both paths together passes
them; the detector goldens see only one stream.  This file pins the sha256
of the emitted ``X`` (float64) and ``y`` (int64) bytes of every artificial
family × class count × scenario family × seed in ``streams.json``, and reads
each stream in several chunkings — every chunking must reproduce the same
pinned bytes.

After an *intentional* change to what the streams emit, regenerate with::

    pytest tests/golden --regen-golden

and commit the resulting diff.  Regeneration refuses to write while the
chunkings disagree.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.streams.scenarios import SCENARIO_BUILDERS, build_scenario_stream

GOLDEN_PATH = Path(__file__).parent / "streams.json"

#: Frozen input parameters.  Changing ANY of these invalidates the golden
#: file; bump only together with --regen-golden.
FAMILIES = ("agrawal", "hyperplane", "rbf", "randomtree")
CLASS_COUNTS = (5, 20)
SEEDS = (3, 41)
N_INSTANCES = 400  # scenario length: drifts/segments fall inside the read
N_DRIFTS = 3
MAX_IMBALANCE_RATIO = 100.0
N_READ = 520  # reads past the open-ended tail, so chunk 512 really splits
CHUNKINGS = (1, 7, 512, N_READ)

SCENARIOS = tuple(sorted(SCENARIO_BUILDERS))


def _meta() -> dict:
    return {
        "families": list(FAMILIES),
        "class_counts": list(CLASS_COUNTS),
        "scenarios": list(SCENARIOS),
        "seeds": list(SEEDS),
        "n_instances": N_INSTANCES,
        "n_drifts": N_DRIFTS,
        "max_imbalance_ratio": MAX_IMBALANCE_RATIO,
        "n_read": N_READ,
    }


def _key(family: str, k: int, scenario: int, seed: int) -> str:
    return f"{family}/k{k}/s{scenario}/seed{seed}"


def stream_digest(family: str, k: int, scenario: int, seed: int, chunk: int) -> dict:
    """sha256 of the first ``N_READ`` emitted rows, read ``chunk`` at a time."""
    stream = build_scenario_stream(
        scenario, family, k, N_INSTANCES, N_DRIFTS, MAX_IMBALANCE_RATIO, seed
    ).stream
    xs, ys = [], []
    produced = 0
    while produced < N_READ:
        x, y = stream.generate_batch(min(chunk, N_READ - produced))
        xs.append(x)
        ys.append(y)
        produced += y.shape[0]
    features = np.ascontiguousarray(np.concatenate(xs), dtype="<f8")
    labels = np.ascontiguousarray(np.concatenate(ys), dtype="<i8")
    assert features.shape == (N_READ, stream.n_features)
    return {
        "x": hashlib.sha256(features.tobytes()).hexdigest(),
        "y": hashlib.sha256(labels.tobytes()).hexdigest(),
    }


def _family_digests(family: str) -> dict[str, list[dict]]:
    """Per configuration of ``family``: one digest per chunking."""
    return {
        _key(family, k, scenario, seed): [
            stream_digest(family, k, scenario, seed, chunk) for chunk in CHUNKINGS
        ]
        for k in CLASS_COUNTS
        for scenario in SCENARIOS
        for seed in SEEDS
    }


def _load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"no stream golden at {GOLDEN_PATH}.\n"
            f"Generate it with: pytest tests/golden --regen-golden"
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _write_family(family: str, digests: dict[str, dict]) -> None:
    """Replace ``family``'s entries in the golden file (regeneration only)."""
    golden = {"input": _meta(), "digests": {}}
    if GOLDEN_PATH.exists():
        current = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        if current.get("input") == golden["input"]:
            golden = current
    kept = {
        key: value
        for key, value in golden["digests"].items()
        if not key.startswith(f"{family}/")
    }
    golden["digests"] = dict(sorted({**kept, **digests}.items()))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


@pytest.mark.parametrize("family", FAMILIES)
def test_stream_bytes_match_golden(family: str, request) -> None:
    digests = _family_digests(family)
    divergent = {
        key: per_chunk
        for key, per_chunk in digests.items()
        if any(d != per_chunk[-1] for d in per_chunk)
    }
    if request.config.getoption("--regen-golden"):
        if divergent:
            pytest.fail(
                f"REFUSING to regenerate the stream golden: chunkings "
                f"{CHUNKINGS} disagree on {sorted(divergent)}"
            )
        _write_family(family, {key: d[-1] for key, d in digests.items()})
        return

    golden = _load_golden()
    assert golden["input"] == _meta(), (
        "stream golden input parameters do not match the harness; "
        "regenerate with --regen-golden"
    )
    mismatches = []
    for key, per_chunk in digests.items():
        expected = golden["digests"][key]
        for chunk, digest in zip(CHUNKINGS, per_chunk):
            if digest != expected:
                fields = [f for f in ("x", "y") if digest[f] != expected[f]]
                mismatches.append(f"{key} chunk={chunk}: {'/'.join(fields)} changed")
    assert not mismatches, (
        f"{len(mismatches)} emitted-stream digests changed:\n  "
        + "\n  ".join(mismatches[:20])
        + "\nIf this change is intentional, regenerate with "
        "`pytest tests/golden --regen-golden` and commit the diff."
    )


def test_stream_golden_covers_the_grid() -> None:
    golden = _load_golden()
    expected = {
        _key(family, k, scenario, seed)
        for family in FAMILIES
        for k in CLASS_COUNTS
        for scenario in SCENARIOS
        for seed in SEEDS
    }
    assert set(golden["digests"]) == expected
