"""The naive CLASH twins: every-server scan, full exchange, full rebuild, full assignment.

Each twin replaces one incremental path of a real object, on that object
only, with the version the incremental path was derived from:

* :func:`install_naive_balance` — the load check becomes
  :class:`NaiveScan`: every server probed fresh on every pass, in
  ``servers()`` order, around a full load-report exchange (the transport is
  stamped as not supporting the report diff).
* :func:`install_naive_ring` / :func:`rebuild_on_every_event` — every ring
  rebuilds every node's routing state on every stabilise that has events.
* :class:`NaiveAssignmentSimulator` — every period synchronisation assigns
  every group's rate from scratch instead of refreshing the dirty groups.

Every override first asserts that the attribute it replaces exists on the
class, so a renamed production method fails here instead of leaving a twin
that silently compares production with itself.  Each twin also counts its
own work, which the suites check to prove the naive path really ran.
"""

from __future__ import annotations

from repro.core.protocol import ClashSystem, _LoadCheckReport
from repro.dht.ring import ChordRing
from repro.sim.simulator import FlowSimulator

__all__ = [
    "NaiveAssignmentSimulator",
    "NaiveScan",
    "install_naive_balance",
    "install_naive_ring",
    "naive_clash",
    "naive_load_check",
    "rebuild_on_every_event",
]


def _override(obj: object, name: str, value: object) -> None:
    """Set ``obj.name`` on this instance, if its class really has ``name``."""
    assert hasattr(type(obj), name), f"{type(obj).__name__} has no {name!r} to replace"
    setattr(obj, name, value)


# --------------------------------------------------------------------- #
# Balance pass
# --------------------------------------------------------------------- #


def naive_load_check(system: ClashSystem, max_splits_per_server: int = 4) -> _LoadCheckReport:
    """One LOAD_CHECK_PERIOD pass as the paper states it, visiting everyone.

    Split every overloaded server (up to ``max_splits_per_server`` times, as
    long as each split sheds load), exchange every load report, then let
    every active under-loaded server consolidate.  Both scans walk a snapshot
    of ``servers()`` and skip a server that failed mid-pass (an event
    transport can deliver churn while a report is in flight).  Every verdict
    is probed fresh and counted in ``system.load_probes``.
    """
    report = _LoadCheckReport()
    for name, server in system.servers().items():
        if name not in system.server_names():
            continue
        system.load_probes += 1
        attempts = 0
        while (
            name in system.server_names()
            and server.is_overloaded()
            and attempts < max_splits_per_server
        ):
            outcome = system.split_server(name)
            attempts += 1
            if outcome is None:
                break
            report.splits.append(outcome)
            if not outcome.shed:
                break
    system.exchange_load_reports()
    for name, server in system.servers().items():
        if name not in system.server_names() or not server.is_active():
            continue
        system.load_probes += 1
        if server.is_underloaded():
            report.merges.extend(system.consolidate_server(name))
    report.touched_groups |= system.drain_touched_groups()
    report.retired_assignments.extend(system.drain_retired_assignments())
    return report


class NaiveScan:
    """:func:`naive_load_check` bound to one system, counting its passes."""

    def __init__(self, system: ClashSystem) -> None:
        self.system = system
        self.checks = 0

    def __call__(self, max_splits_per_server: int = 4) -> _LoadCheckReport:
        self.checks += 1
        return naive_load_check(self.system, max_splits_per_server)


def install_naive_balance(system: ClashSystem) -> NaiveScan:
    """Make ``system.run_load_check`` the naive scan with the full exchange.

    Must run before the system's first exchange: a diff exchange already run
    would leave bookkeeping the full exchange never clears.
    """
    assert not system._delivered_reports, "a report-diff exchange already ran"
    _override(system.transport, "supports_report_diff", False)
    scan = NaiveScan(system)
    _override(system, "run_load_check", scan)
    return scan


# --------------------------------------------------------------------- #
# Ring repair
# --------------------------------------------------------------------- #


def rebuild_on_every_event(ring: ChordRing) -> ChordRing:
    """Make every stabilise of ``ring`` that has events rebuild from scratch."""
    _override(ring, "_needs_rebuild", lambda _events: True)
    return ring


def install_naive_ring(system: ClashSystem) -> None:
    """Make every shard ring of ``system`` rebuild on every membership event.

    Routers never create rings after construction, so this reaches every
    ring the deployment will stabilise.
    """
    for ring in system.router.rings():
        rebuild_on_every_event(ring)


# --------------------------------------------------------------------- #
# Rate assignment
# --------------------------------------------------------------------- #


assert hasattr(FlowSimulator, "_sync_assignments"), "FlowSimulator has no _sync_assignments"


class NaiveAssignmentSimulator(FlowSimulator):
    """A ``FlowSimulator`` that assigns every group's rate from scratch.

    Every synchronisation resets every server's interval and writes every
    active group's expected rate, whether or not anything moved since the
    last one.  ``full_assignments`` counts them.
    """

    full_assignments = 0

    def _sync_assignments(self, measure) -> None:
        # The incremental path's work lists are dropped: a full pass makes
        # every entry in them moot.
        self._pending_dirty = set()
        self._pending_retired = []
        self._system.drain_touched_groups()
        self._system.drain_retired_assignments()
        self._assign_loads(measure)
        self.full_assignments += 1


def naive_clash(*args, **kwargs) -> tuple[NaiveAssignmentSimulator, NaiveScan]:
    """A simulator with every naive twin installed: scan, exchange, ring, rates."""
    simulator = NaiveAssignmentSimulator(*args, **kwargs)
    install_naive_ring(simulator.system)
    return simulator, install_naive_balance(simulator.system)
