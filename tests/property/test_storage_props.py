"""Property tests for the storage subsystem.

The core property is the one the whole design rests on: *persisting is
lossless*.  Any DAG, round-tripped through WAL write → close → reopen →
rebuild, yields an identical ``BlockDag``, and (Lemma 4.2) an
interpreter over the rebuilt DAG computes byte-identical annotations.

The checkpoint writer's shortcuts (reused entry objects, spliced cached
encodings) are checked against a from-scratch oracle over sampled fault
schedules, crash/restart included.
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import ManualDagBuilder, fresh_interpreter
from repro.dag import codec
from repro.dag.blockdag import BlockDag
from repro.interpret.interpreter import Interpreter
from repro.protocols.brb import Broadcast, brb_protocol
from repro.scenario import registry
from repro.scenario import (
    AllDelivered,
    And,
    ByzantineFault,
    CrashFault,
    DagsConverged,
    FaultSchedule,
    OpenLoopWorkload,
    PartitionFault,
    Scenario,
    ScenarioRunner,
    StorageSpec,
    Topology,
)
from repro.shim import shim as shim_module
from repro.storage import checkpoint as checkpoint_module
from repro.storage.blockstore import ServerStorage, StorageConfig
from repro.storage.checkpoint import _FRAME, _live_entry, _to_wire
from repro.storage.state_codec import annotation_fingerprint, freeze, thaw
from repro.storage.wal import WriteAheadLog
from repro.types import Label


def build_random_dag(draw_rounds, requests, fork_round):
    """A valid shared DAG with a random layered shape, random request
    placement, and optionally one equivocation fork."""
    builder = ManualDagBuilder(4)
    for round_index in range(draw_rounds):
        rs_for = {}
        for server_index, value in requests.get(round_index, []):
            server = builder.servers[server_index]
            rs_for.setdefault(server, []).append(
                (Label(f"l{server_index}-{round_index}"), Broadcast(value))
            )
        builder.round_all(rs_for=rs_for)
        if fork_round == round_index:
            builder.fork(
                builder.servers[3], rs=[(Label("forked"), Broadcast("fork"))]
            )
    return builder


rounds_strategy = st.integers(min_value=1, max_value=4)
requests_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=3),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers()),
        max_size=2,
    ),
    max_size=3,
)
fork_strategy = st.one_of(st.none(), st.integers(min_value=0, max_value=2))


class TestWalRoundTrip:
    @given(rounds_strategy, requests_strategy, fork_strategy)
    @settings(max_examples=20, deadline=None)
    def test_rebuilt_dag_and_annotations_identical(
        self, tmp_path_factory, rounds, requests, fork_round
    ):
        tmp_path = tmp_path_factory.mktemp("wal-prop")
        builder = build_random_dag(rounds, requests, fork_round)
        original = fresh_interpreter(builder, brb_protocol)
        original.run()

        # Write every block in insertion order, crash-close, reopen.
        storage = ServerStorage(tmp_path, StorageConfig(segment_max_bytes=2048))
        for block in builder.dag.blocks():
            storage.append_block(block)
        storage.close()

        reopened = ServerStorage(tmp_path)
        rebuilt = BlockDag()
        for block in reopened.load_blocks():
            rebuilt.insert(block)

        assert rebuilt.refs == builder.dag.refs
        assert rebuilt.graph.edges == builder.dag.graph.edges
        assert {b.ref: b.rs for b in rebuilt} == {
            b.ref: b.rs for b in builder.dag
        }

        replayed = Interpreter(rebuilt, brb_protocol, builder.servers)
        replayed.run()
        assert replayed.interpreted == original.interpreted
        for block in builder.dag:
            assert annotation_fingerprint(
                replayed, block.ref
            ) == annotation_fingerprint(original, block.ref)

    @given(st.lists(st.binary(min_size=0, max_size=200), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_wal_preserves_arbitrary_payloads_in_order(
        self, tmp_path_factory, records
    ):
        tmp_path = tmp_path_factory.mktemp("wal-bytes")
        log = WriteAheadLog(tmp_path, segment_max_bytes=256)
        for record in records:
            log.append(record)
        log.close()
        assert [p for _, p in WriteAheadLog(tmp_path).replay()] == records

    @given(
        st.lists(st.binary(min_size=1, max_size=60), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_torn_tail_loses_at_most_the_last_record(
        self, tmp_path_factory, records, torn
    ):
        tmp_path = tmp_path_factory.mktemp("wal-torn")
        log = WriteAheadLog(tmp_path, segment_max_bytes=1 << 20)
        for record in records:
            log.append(record)
        log.close()
        (path,) = list(tmp_path.glob("wal-*.log"))
        data = path.read_bytes()
        # A crash tears at most the record being appended: bound the cut
        # to the final record's frame.
        cut = min(torn, 8 + len(records[-1]))
        path.write_bytes(data[: len(data) - cut])
        recovered = [p for _, p in WriteAheadLog(tmp_path).replay()]
        assert recovered in (records, records[:-1])


# Encodable value trees for the freeze/thaw property (mirrors
# test_codec_props.trees, plus the mutable containers freeze exists for).
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=20),
    st.binary(max_size=20),
)


def mutable_trees(depth=3):
    if depth == 0:
        return scalars
    sub = mutable_trees(depth - 1)
    return st.one_of(
        scalars,
        st.lists(sub, max_size=3),
        st.lists(sub, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), sub, max_size=3),
        st.sets(st.integers(), max_size=4),
        st.frozensets(st.text(max_size=4), max_size=4),
    )


class TestFreezeThaw:
    @given(mutable_trees())
    @settings(max_examples=150)
    def test_roundtrip_value_and_types(self, value):
        wire = freeze(value)
        codec.decode(codec.encode(wire))  # wire form must be encodable
        thawed = thaw(wire)
        assert thawed == value
        assert type(thawed) is type(value)

    @given(mutable_trees())
    @settings(max_examples=100)
    def test_roundtrip_through_codec(self, value):
        thawed = thaw(codec.decode(codec.encode(freeze(value))))
        assert thawed == value
        assert type(thawed) is type(value)


def checkpoint_schedule(partition_start, crash_round, crash_len, equivocate_at, seed):
    """A partition x crash/restart x equivocator run with frequent
    checkpoints and coordinated GC (released, carried and rehydrated
    entries all occur)."""
    return Scenario(
        name="checkpoint-cache-prop",
        protocol="brb",
        description="sampled partition x crash x equivocator schedule",
        seed=seed,
        topology=Topology(
            n=5, storage=StorageSpec(checkpoint_interval=6, prune=True)
        ),
        workload=OpenLoopWorkload(rate=1, rounds=4),
        faults=FaultSchedule((
            ByzantineFault(
                server="s5", behaviour="equivocator",
                equivocate_at=(equivocate_at,),
            ),
            PartitionFault(
                start_round=partition_start,
                heal_round=partition_start + 2,
                group_a=("s1", "s2"),
                group_b=("s3", "s4", "s5"),
            ),
            CrashFault(
                server="s3",
                crash_round=crash_round,
                restart_round=crash_round + crash_len,
            ),
        )),
        stop=And((AllDelivered(), DagsConverged())),
        max_rounds=48,
    )


class TestCheckpointCacheOracle:
    @given(
        partition_start=st.integers(min_value=1, max_value=2),
        crash_round=st.integers(min_value=2, max_value=4),
        crash_len=st.integers(min_value=2, max_value=4),
        equivocate_at=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=3),
    )
    @example(
        partition_start=2, crash_round=3, crash_len=2, equivocate_at=2, seed=0,
    )
    @settings(max_examples=6, deadline=None)
    def test_cached_writes_equal_from_scratch_encoding(
        self, tmp_path_factory, partition_start, crash_round, crash_len,
        equivocate_at, seed,
    ):
        scenario = checkpoint_schedule(
            partition_start, crash_round, crash_len, equivocate_at, seed
        )
        captured = []  # every checkpoint capture produced (kept alive)
        stats = {"writes": 0, "reused": 0, "reused_from_disk": 0}
        real_capture = checkpoint_module.capture_checkpoint
        real_write = checkpoint_module.CheckpointManager.write

        def checked_capture(seq, interpreter, dag, owner=None, previous=None):
            checkpoint = real_capture(
                seq, interpreter, dag, owner=owner, previous=previous
            )
            from_disk = previous is not None and not any(
                previous is c for c in captured
            )
            captured.append(checkpoint)
            for ref, entry in checkpoint.states.items():
                if ref in interpreter.released:
                    continue  # carried for rehydration, not resident
                if previous is None or previous.states.get(ref) is not entry:
                    continue
                fresh = _live_entry(interpreter, ref, entry["base"])
                assert codec.encode(entry) == codec.encode(fresh), ref
                stats["reused"] += 1
                stats["reused_from_disk"] += from_disk
            return checkpoint

        def checked_write(manager, checkpoint):
            verified = real_write(manager, checkpoint)
            assert verified
            data = manager._path(checkpoint.seq).read_bytes()
            assert data[_FRAME.size:] == codec.encode(_to_wire(checkpoint))
            stats["writes"] += 1
            return verified

        with mock.patch.object(
            shim_module, "capture_checkpoint", checked_capture
        ), mock.patch.object(
            checkpoint_module.CheckpointManager, "write", checked_write
        ):
            runner = ScenarioRunner(
                scenario, storage_root=tmp_path_factory.mktemp("ckpt-cache")
            )
            result = runner.run()

        assert result.stopped_by == "stop-condition"
        assert runner.cluster.restarts_performed == 1
        assert stats["writes"] > 0 and stats["reused"] > 0, stats
        recovered = runner.cluster.shim("s3").recovery
        if recovered.checkpoint_seq is not None:
            # ``previous`` was decoded from disk for the first capture
            # after the restart; its entries were reused and must
            # encode exactly like fresh ones.
            assert stats["reused_from_disk"] > 0, stats

    def test_materialized_writes_equal_from_scratch_encoding(
        self, tmp_path
    ):
        """The sampled schedules above materialize entries but never one
        that inherits a label it does not own; full-size flight-recorder
        does, 128 times, so it exercises the inherited-snapshot splice."""
        scenario = registry.get("flight-recorder")
        stats = {"writes": 0, "inherited": 0, "spliced": 0}
        real_write = checkpoint_module.CheckpointManager.write
        real_splice = checkpoint_module._InheritedSnapshots.splice

        def checked_write(manager, checkpoint):
            verified = real_write(manager, checkpoint)
            assert verified
            data = manager._path(checkpoint.seq).read_bytes()
            assert data[_FRAME.size:] == codec.encode(_to_wire(checkpoint))
            stats["writes"] += 1
            return verified

        def counting_splice(inherited, entry):
            spliced = real_splice(inherited, entry)
            for lbl, value in spliced["pis"].items():
                if lbl not in entry["own"]:
                    stats["inherited"] += 1
                    stats["spliced"] += isinstance(value, codec.Encoded)
            return spliced

        with mock.patch.object(
            checkpoint_module.CheckpointManager, "write", checked_write
        ), mock.patch.object(
            checkpoint_module._InheritedSnapshots, "splice", counting_splice
        ):
            result = ScenarioRunner(scenario, storage_root=tmp_path).run()

        assert result.stopped_by == "stop-condition"
        assert stats["writes"] > 0 and stats["inherited"] > 0, stats
        # No crash, so every write after the first has a warm cache and
        # every inherited snapshot is spliced.
        assert stats["spliced"] == stats["inherited"], stats
