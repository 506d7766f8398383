"""Repro artifact JSON round trips and determinism."""

from __future__ import annotations

import json

import pytest

from repro.fuzz.artifact import ARTIFACT_FORMAT, ReproArtifact
from repro.fuzz.harness import FuzzCase
from repro.net.replay import ChurnEvent, RebalanceEvent


def _artifact() -> ReproArtifact:
    return ReproArtifact(
        case=FuzzCase(
            transport="async",
            seed=20040324,
            delivery_seed=7,
            churn_seed=3,
            join_rate=0.01,
            fail_rate=0.01,
            shards=2,
            partition="adaptive",
            scale_factor=100,
            phase_periods=2,
        ),
        oracle="tie-witness",
        oracle_params={"indices": [2, 9], "threshold": 0.0},
        failure_check="tie-witness",
        failure_message="tie draws at [2, 9] all exceed 0.0 at t=300.0",
        ties={2: 0.125, 9: 0.75},
        churn=(
            ChurnEvent(when=120.0, kind="join", server="j0", node_id=12345),
            ChurnEvent(when=240.0, kind="fail", server="s17", node_id=None),
        ),
        rebalances=(
            RebalanceEvent(when=300.0, version=1, boundaries=(0, 1024, 4096)),
            RebalanceEvent(when=600.0, version=2, boundaries=(0, 2048, 4096)),
        ),
        original_events=110,
        minimal_events=4,
        shrink_tests=31,
        shrink_minimal=True,
        delivery_tail=((299.5, "s3", "LoadReport"),),
    )


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self):
        artifact = _artifact()
        restored = ReproArtifact.from_json(artifact.to_json())
        assert restored == artifact

    def test_file_round_trip(self, tmp_path):
        artifact = _artifact()
        path = artifact.save(tmp_path / "nested" / "repro.json")
        assert path.exists()
        assert ReproArtifact.load(path) == artifact

    def test_json_is_deterministic(self):
        assert _artifact().to_json() == _artifact().to_json()

    def test_json_carries_format_version(self):
        payload = json.loads(_artifact().to_json())
        assert payload["format"] == ARTIFACT_FORMAT

    def test_unsupported_format_rejected(self):
        payload = json.loads(_artifact().to_json())
        payload["format"] = ARTIFACT_FORMAT + 1
        with pytest.raises(ValueError):
            ReproArtifact.from_json(json.dumps(payload))

    def test_none_churn_round_trips(self):
        artifact = _artifact()
        artifact.churn = None
        restored = ReproArtifact.from_json(artifact.to_json())
        assert restored.churn is None

    def test_none_rebalances_round_trip(self):
        artifact = _artifact()
        artifact.rebalances = None
        restored = ReproArtifact.from_json(artifact.to_json())
        assert restored.rebalances is None

    def test_format_one_artifacts_rejected(self):
        # Format 1 predates the pinned rebalance schedule; replaying one
        # against a rebalancing build would silently drop that dimension.
        payload = json.loads(_artifact().to_json())
        payload["format"] = 1
        with pytest.raises(ValueError, match="format"):
            ReproArtifact.from_json(json.dumps(payload))

    def test_format_two_artifacts_rejected(self):
        # Format 2 cases carry the retired balance-pass-mode axis, which no
        # longer selects anything; replaying one would run a different case.
        payload = json.loads(_artifact().to_json())
        payload["format"] = 2
        with pytest.raises(ValueError, match="format"):
            ReproArtifact.from_json(json.dumps(payload))

    def test_tie_keys_restored_as_ints(self):
        restored = ReproArtifact.from_json(_artifact().to_json())
        assert all(isinstance(index, int) for index in restored.ties)
        assert restored.ties == {2: 0.125, 9: 0.75}


class TestSchedule:
    def test_schedule_reflects_ties_churn_and_rebalances(self):
        artifact = _artifact()
        schedule = artifact.schedule()
        assert dict(schedule.ties) == artifact.ties
        assert schedule.churn == artifact.churn
        assert schedule.rebalances == artifact.rebalances

    def test_churn_event_json_round_trip(self):
        event = ChurnEvent(when=12.5, kind="fail", server="s9", node_id=None)
        assert ChurnEvent.from_json(event.to_json()) == event

    def test_rebalance_event_json_round_trip(self):
        event = RebalanceEvent(when=300.0, version=3, boundaries=(0, 512, 4096))
        assert RebalanceEvent.from_json(event.to_json()) == event

    def test_churn_event_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            ChurnEvent(when=1.0, kind="reboot", server="s0")
