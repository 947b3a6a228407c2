"""The benchmark's three sim-arm workloads, as seeded ``Scenario`` values.

Every workload is an open loop in virtual rounds: a fixed number of
requests enters at the start of each injection round whether or not the
earlier ones are done.  Links have jitter latency uniform in 0.5–1.5
inside a 6.0 round, and the entry server of each request is drawn from
the scenario's seeded RNG (``sender="random"``), so the seed changes the
inputs.  Run length is fixed per workload: checkpoint size grows with
it, so it sets the storage share and must not vary between commits.
"""

from __future__ import annotations

from repro.scenario import (
    AllDelivered,
    And,
    ByzantineFault,
    CrashFault,
    DagsConverged,
    FaultSchedule,
    LatencySpec,
    OpenLoopWorkload,
    Scenario,
    StorageSpec,
    Topology,
)

_JITTER = LatencySpec(model="jitter", low=0.5, high=1.5)
_STOP = And((AllDelivered(), DagsConverged()))


def _brb_burst(seed: int) -> Scenario:
    # Storage off: storage, gc, horizon and obs must read idle here.
    return Scenario(
        name="brb-burst",
        protocol="brb",
        description="brb n=4, storage off, 16 requests/round, one label "
        "per request: interpreter, protocol handlers and the <_M sort key.",
        seed=seed,
        topology=Topology(n=4, round_duration=6.0, latency=_JITTER),
        workload=OpenLoopWorkload(rate=16, rounds=12, sender="random"),
        stop=_STOP,
        max_rounds=40,
    )


def _ledger_faults(seed: int) -> Scenario:
    return Scenario(
        name="ledger-faults",
        protocol="counter",
        description="counter on one shared label, n=7, checkpoint every 8 "
        "blocks with prune + horizon GC, an equivocator seat (two forks) "
        "and a crash/restart from disk: storage write and read paths, "
        "horizon, gossip validity at n=7.",
        seed=seed,
        topology=Topology(
            n=7,
            round_duration=6.0,
            latency=_JITTER,
            storage=StorageSpec(checkpoint_interval=8, prune=True, horizon_gc=True),
        ),
        workload=OpenLoopWorkload(
            rate=4, rounds=25, sender="random", shared_label="ledger"
        ),
        faults=FaultSchedule(
            (
                ByzantineFault(
                    server="s7", behaviour="equivocator", equivocate_at=(2, 9)
                ),
                CrashFault(server="s3", crash_round=5, restart_round=10),
            )
        ),
        stop=_STOP,
        max_rounds=60,
    )


def _brb_store_traced(seed: int) -> Scenario:
    return Scenario(
        name="brb-store-traced",
        protocol="brb",
        description="brb n=4, checkpoint every 8 blocks with prune, flight "
        "recorder on, no faults, 4 requests/round: checkpoints carrying "
        "large message-buffer annotations, and the only obs workload.",
        seed=seed,
        topology=Topology(
            n=4,
            round_duration=6.0,
            latency=_JITTER,
            trace=True,
            storage=StorageSpec(checkpoint_interval=8, prune=True),
        ),
        workload=OpenLoopWorkload(rate=4, rounds=25, sender="random"),
        stop=_STOP,
        max_rounds=60,
    )


#: Workload name -> scenario builder taking the workload seed.
WORKLOADS = {
    "brb-burst": _brb_burst,
    "ledger-faults": _ledger_faults,
    "brb-store-traced": _brb_store_traced,
}


def build(name: str, seed: int) -> Scenario:
    """The named workload's scenario under ``seed``."""
    return WORKLOADS[name](seed)
