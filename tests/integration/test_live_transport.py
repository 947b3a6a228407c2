"""The live transport, end to end: real processes, real sockets.

Three claims, in ascending order of ambition:

1. a 4-server UDS cluster driven from a registry scenario reaches
   delivery-and-convergence (the live analogue of AllDelivered);
2. the live arm admits exactly the per-builder chains the simulated
   arm admits — ``trace diff --mode chains`` between the two arms of
   the same scenario document is silent, for every server;
3. ``kill -9`` of one node mid-run followed by a restart-from-disk
   converges: recovery resumes the chain, peers' retained queues and
   the tip beacon replay what was missed.

One more claim needs no processes: an orderly stop is not a connection
loss, and a silent one is (``TestOrderlyStop``, two in-process
transports over UDS).

These spawn OS processes (``python -m repro.node``) and sleep on real
sockets, so they are integration-priced: seconds, not milliseconds.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.net.live import LiveTransport
from repro.net.message import FwdRequestEnvelope
from repro.obs.diverge import first_chain_divergence
from repro.obs.export import read_jsonl
from repro.runtime.live.cluster import LiveCluster
from repro.scenario import registry
from repro.scenario.live import compile_live_configs
from repro.scenario.runner import run_scenario
from repro.scenario.spec import Scenario, StorageSpec, Topology
from repro.scenario.stop import RoundsElapsed
from repro.scenario.workload import OpenLoopWorkload
from repro.types import BlockRef, ServerId


class TestLiveMatchesSimulated:
    def test_live_cluster_converges_and_chains_match_simulator(self, tmp_path):
        scenario = registry.get("live-smoke", smoke=True)
        sim_trace = tmp_path / "sim"
        live_trace = tmp_path / "live"

        sim_result = run_scenario(scenario, trace_dir=sim_trace)
        live_result = run_scenario(scenario, trace_dir=live_trace, live=True)

        # Claim 1: the live fleet reached completion on one fingerprint.
        assert live_result.converged
        assert live_result.stopped_by == "live-complete"
        assert live_result.requests_delivered == sim_result.requests_issued
        assert live_result.total_blocks == sim_result.total_blocks

        # Claim 2: same document, same chains — per server, the live
        # run validated exactly the blocks the simulated run validated,
        # builder by builder, (k, ref) by (k, ref).
        for server in scenario.topology.servers():
            sim_events = read_jsonl(sim_trace / f"{server}.jsonl")
            live_events = read_jsonl(live_trace / f"{server}.jsonl")
            divergence = first_chain_divergence(sim_events, live_events)
            assert divergence is None, f"{server}: {divergence}"


class TestKillMinusNineRecovery:
    def test_sigkill_one_node_restart_from_disk_converges(self, tmp_path):
        scenario = Scenario(
            name="live-restart",
            protocol="counter",
            description="live kill -9 + restart-from-disk fixture",
            topology=Topology(
                n=4, storage=StorageSpec(checkpoint_interval=4)
            ),
            workload=OpenLoopWorkload(rate=1, rounds=2, shared_label="ledger"),
            stop=RoundsElapsed(8),
            max_rounds=8,
        )
        run_dir = tmp_path / "run"
        configs = compile_live_configs(
            scenario, run_dir, tick_timeout=15.0, settle_timeout=60.0
        )
        # Slow the fleet down so "mid-run" is a real window: the
        # workload lands at ticks 0–1, the kill at tick ≥ 3, and the
        # budget is 8 ticks.
        configs = {
            server: replace(config, tick_interval=0.25)
            for server, config in configs.items()
        }
        victim = ServerId("s3")
        cluster = LiveCluster(configs, run_dir)

        async def drive() -> bool:
            loop = asyncio.get_running_loop()
            await cluster.start_all()
            try:
                deadline = loop.time() + 30.0
                while loop.time() < deadline:
                    status = cluster.status(victim)
                    if status is not None and status.tick >= 3:
                        break
                    await asyncio.sleep(0.05)
                else:
                    raise AssertionError("victim never reached tick 3")
                cluster.kill(victim)
                await cluster.processes[victim].wait()
                await cluster.start(victim)
                return await cluster.wait_converged(timeout=90.0)
            finally:
                await cluster.shutdown()

        converged = asyncio.run(drive())
        assert converged, f"statuses: {cluster.statuses()}"

        statuses = cluster.statuses()
        assert statuses[str(victim)].recovered, "restart did not hit recovery"
        assert len({s.fingerprint for s in statuses.values()}) == 1
        for status in statuses.values():
            assert status.delivered.get("ledger", 0) >= 2
        assert cluster.restarts == 1


A, B = ServerId("a"), ServerId("b")
PROBE = FwdRequestEnvelope(BlockRef("00" * 32))


async def _until(predicate, timeout=10.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "timed out"
        await asyncio.sleep(0.01)


async def _silently():
    """Stand-in for ``_farewell``: close without a goodbye."""


class _Pair:
    def __init__(self, directory):
        self.addresses = {
            A: f"unix:{directory}/a.sock", B: f"unix:{directory}/b.sock",
        }
        self.received = {A: 0, B: 0}
        self.a = self.transport(A)

    def transport(self, me):
        def handler(src, envelope):
            self.received[me] += 1

        return LiveTransport(
            me, self.addresses, handler=handler,
            reconnect_floor=0.01, reconnect_ceiling=0.2,
        )

    async def connect(self, b):
        """Start ``b`` and wait until traffic flows both ways."""
        await b.start()
        before = dict(self.received)
        self.a.send(B, PROBE)
        b.send(A, PROBE)
        await _until(lambda: all(
            self.received[s] > before[s] for s in (A, B)
        ))

    async def stop_and_probe(self, b, farewell):
        """Stop ``b``, then make ``a`` write to it until the write fails
        and ``a`` has started redialing."""
        if not farewell:
            b._farewell = _silently
        await b.stop()
        meters = self.a._egress(B)
        retries = meters.connect_retries.value
        self.a.send(B, PROBE)
        await _until(lambda: meters.connect_retries.value > retries)
        return meters


class TestOrderlyStop:
    """When ``b`` stops through ``stop()`` it sends a goodbye first, so
    ``a``'s failed write to ``b`` is not ``transport.conn-lost``.  When
    ``b``'s sockets close without it (what a SIGKILL looks like from the
    outside), the same failed write is a loss.  A goodbye covers only
    the incarnation that sent it."""

    @pytest.mark.parametrize("farewell, losses", [(True, 0), (False, 1)])
    def test_only_a_silent_stop_counts_as_a_loss(
        self, tmp_path, farewell, losses
    ):
        async def scenario():
            pair = _Pair(tmp_path)
            await pair.a.start()
            b = pair.transport(B)
            await pair.connect(b)
            meters = await pair.stop_and_probe(b, farewell)
            await pair.a.stop()
            return meters

        meters = asyncio.run(scenario())
        assert meters.conn_lost.value == losses
        assert meters.reconnects.value == 0

    def test_a_goodbye_covers_only_the_incarnation_that_sent_it(self, tmp_path):
        async def scenario():
            pair = _Pair(tmp_path)
            await pair.a.start()
            first = pair.transport(B)
            await pair.connect(first)
            meters = await pair.stop_and_probe(first, farewell=True)
            assert meters.conn_lost.value == 0

            second = pair.transport(B)  # the restarted peer says hello
            await pair.connect(second)
            await pair.stop_and_probe(second, farewell=False)
            await pair.a.stop()
            return meters

        meters = asyncio.run(scenario())
        assert meters.conn_lost.value == 1
        # The restart after an orderly stop re-established nothing lost.
        assert meters.reconnects.value == 0
