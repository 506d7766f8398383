"""The span recorder on a toy class, and the checks that must count failures."""

from __future__ import annotations

import dataclasses
import json
from array import array

import pytest

from perf import harness
from perf.trace import Target, Tracer, wrappers_installed
from perf.workloads import MINI, WORKLOADS


class FakeClock:
    """A clock the code under trace advances by hand."""

    def __init__(self) -> None:
        self.now = 1000

    def __call__(self) -> int:
        return self.now


class Toy:
    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def outer(self, fail: bool = False) -> str:
        self.clock.now += 5
        self.inner()
        self.clock.now += 7
        self.inner(fail=fail)
        self.clock.now += 11
        return "done"

    def inner(self, fail: bool = False) -> None:
        self.clock.now += 100
        self.leaf()
        if fail:
            raise ValueError("inner failed")

    def leaf(self) -> None:
        self.clock.now += 30


TARGETS = [
    Target(Toy, "outer", "toy.outer"),
    Target(Toy, "inner", "toy.inner"),
    Target(Toy, "leaf", "toy.leaf"),
]


def test_parent_self_time_is_total_minus_children():
    clock = FakeClock()
    with Tracer(TARGETS, clock=clock) as tracer:
        assert Toy(clock).outer() == "done"
    totals = tracer.layer_totals()
    assert totals["toy.leaf"] == (2, 60, 60)
    assert totals["toy.inner"] == (2, 260, 200)
    assert totals["toy.outer"] == (1, 283, 23)
    # Self times add up to the duration of the outermost span.
    assert sum(layer.self_ns for layer in totals.values()) == 283
    spans = {span.id: span for span in tracer.spans()}
    assert [spans[i].parent_id for i in sorted(spans)] == [-1, 0, 1, 0, 3]


def test_since_drops_earlier_spans():
    clock = FakeClock()
    with Tracer(TARGETS, clock=clock) as tracer:
        toy = Toy(clock)
        toy.inner()
        boundary = clock.now
        toy.outer()
    assert tracer.layer_totals(since_ns=boundary)["toy.inner"].calls == 2
    assert tracer.layer_totals()["toy.inner"].calls == 3


def test_exception_unwinds_the_span_stack():
    clock = FakeClock()
    with Tracer(TARGETS, clock=clock) as tracer:
        toy = Toy(clock)
        with pytest.raises(ValueError, match="inner failed"):
            toy.outer(fail=True)
        toy.leaf()
    spans = list(tracer.spans())
    # Every span that was entered was closed, the raising ones included ...
    assert [span.layer for span in spans].count("toy.inner") == 2
    assert [span.layer for span in spans].count("toy.outer") == 1
    # ... and the next call starts from an empty stack.
    assert spans[-1].layer == "toy.leaf" and spans[-1].parent_id == -1
    assert tracer.layer_totals()["toy.outer"].self_ns == 12


def test_spans_group_by_operation():
    clock = FakeClock()
    with Tracer(TARGETS, clock=clock) as tracer:
        toy = Toy(clock)
        for op_id in (4, 4, 9):
            tracer.op_id = op_id
            toy.inner()
    per_op = tracer.op_self_times()
    assert per_op == {
        4: {"toy.inner": 200, "toy.leaf": 60},
        9: {"toy.inner": 100, "toy.leaf": 30},
    }


def test_wrappers_are_installed_only_inside_the_context():
    before = [vars(Toy)[name] for _, name, _ in TARGETS]
    tracer = Tracer(TARGETS)
    assert wrappers_installed(TARGETS) == []
    with tracer:
        assert wrappers_installed(TARGETS) == ["Toy.outer", "Toy.inner", "Toy.leaf"]
        with pytest.raises(RuntimeError, match="already installed"):
            Tracer(TARGETS).__enter__()
    assert wrappers_installed(TARGETS) == []
    assert all(vars(Toy)[name] is original for (_, name, _), original in zip(TARGETS, before))


def test_written_spans_read_back(tmp_path):
    clock = FakeClock()
    with Tracer(TARGETS, clock=clock) as tracer:
        Toy(clock).outer()
    path = tmp_path / "results" / "toy.spans"
    tracer.write(path)
    header, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(header)
    records = array("q")
    records.frombytes(body)
    assert header["spans"] == len(tracer) == 5
    assert len(records) == header["spans"] * len(header["fields"])
    first = dict(zip(header["fields"], records[:6]))
    assert header["layers"][first["layer_index"]] == "toy.leaf"
    assert first["end_ns"] - first["start_ns"] == 30


# ---------------------------------------------------------------------- #
# Wrong outputs must show up as failed operations
# ---------------------------------------------------------------------- #


def test_a_lookup_sent_to_the_wrong_owner_is_counted_failed(monkeypatch):
    from repro.core.client import ClashClient

    original = ClashClient.find_group
    calls = 0

    def find_group(self, key, use_cache=True):
        nonlocal calls
        calls += 1
        result = original(self, key, use_cache=use_cache)
        return dataclasses.replace(result, server="nobody") if calls % 10 == 0 else result

    monkeypatch.setattr(ClashClient, "find_group", find_group)
    measurement = harness.measure_end_to_end(WORKLOADS["lookup_storm"], 5, 0.0, MINI, rounds=1)
    assert measurement.attempted == MINI.lookups
    assert measurement.failed == MINI.lookups // 10
    assert measurement.failed_op_share == pytest.approx(0.1)
    assert "disagree with find_active_group" in measurement.problems[0]


def test_a_perturbed_simulation_result_is_counted_failed():
    workload = WORKLOADS["async_churn"]
    reference = workload.reference(5, MINI)
    clean = workload.run_round(5, MINI, None, reference)
    assert clean.failed == 0
    perturbed = dataclasses.replace(reference, total_splits=reference.total_splits + 1)
    again = workload.run_round(5, MINI, None, perturbed)
    assert again.failed == again.operations
    assert "total_splits" in again.problems[0]
    measurement = harness.Measurement()
    measurement.add(clean)
    measurement.add(again)
    assert measurement.failed_op_share == pytest.approx(0.5)
