"""Unit tests for interpreter checkpoints: capture, persist, install."""

import dataclasses

import pytest

from helpers import LyingDisk, ManualDagBuilder, fresh_interpreter
from repro.dag import codec
from repro.errors import CheckpointError
from repro.interpret.interpreter import Interpreter
from repro.protocols.brb import Broadcast, brb_protocol
from repro.protocols.counter import Inc, counter_protocol
from repro.storage.checkpoint import (
    CheckpointManager,
    _FRAME,
    _live_entry,
    _materialize_entry,
    _to_wire,
    capture_checkpoint,
    install_checkpoint,
)
from repro.storage.state_codec import (
    annotation_fingerprint,
    freeze,
    restore_process,
    snapshot_process,
    thaw,
)
from repro.types import Label

L = Label("l")


def interpreted_dag(protocol=brb_protocol, rounds=3, request=Broadcast("v")):
    builder = ManualDagBuilder(4)
    builder.round_all(rs_for={builder.servers[0]: [(L, request)]})
    for _ in range(rounds - 1):
        builder.round_all()
    interpreter = fresh_interpreter(builder, protocol)
    interpreter.run()
    return builder, interpreter


class TestStateCodec:
    def test_freeze_thaw_preserves_mutability(self):
        value = {"senders": {"s1", "s2"}, "frozen": frozenset({1}), "seq": [1, (2, 3)]}
        thawed = thaw(freeze(value))
        assert thawed == value
        assert isinstance(thawed["senders"], set)
        assert not isinstance(thawed["senders"], frozenset)
        assert isinstance(thawed["frozen"], frozenset)
        assert isinstance(thawed["seq"], list)
        assert isinstance(thawed["seq"][1], tuple)

    def test_process_snapshot_roundtrip_continues_identically(self):
        builder, interpreter = interpreted_dag()
        ref = builder.dag.tip(builder.servers[1]).ref
        state = interpreter.state_of(ref)
        instance = state.pis[L]
        snapshot = snapshot_process(instance)
        restored = restore_process(brb_protocol, builder.servers, snapshot)
        assert type(restored) is type(instance)
        assert restored.ctx.self_id == instance.ctx.self_id
        assert snapshot_process(restored) == snapshot

    def test_restore_rejects_wrong_protocol(self):
        builder, interpreter = interpreted_dag()
        ref = builder.dag.tip(builder.servers[1]).ref
        snapshot = snapshot_process(interpreter.state_of(ref).pis[L])
        with pytest.raises(CheckpointError):
            restore_process(counter_protocol, builder.servers, snapshot)


class TestCaptureInstall:
    def test_roundtrip_preserves_all_annotations(self, tmp_path):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path)
        checkpoint = capture_checkpoint(1, interpreter, builder.dag)
        manager.write(checkpoint)
        loaded = manager.load(1)

        fresh = Interpreter(builder.dag, brb_protocol, builder.servers)
        install_checkpoint(loaded, fresh, brb_protocol)
        assert fresh.interpreted == interpreter.interpreted
        assert fresh.blocks_interpreted == interpreter.blocks_interpreted
        for block in builder.dag:
            assert annotation_fingerprint(
                fresh, block.ref
            ) == annotation_fingerprint(interpreter, block.ref)

    def test_restored_interpreter_continues_like_the_original(self, tmp_path):
        builder, interpreter = interpreted_dag(rounds=2)
        manager = CheckpointManager(tmp_path)
        manager.write(capture_checkpoint(1, interpreter, builder.dag))

        fresh = Interpreter(builder.dag, brb_protocol, builder.servers)
        install_checkpoint(manager.load(1), fresh, brb_protocol)
        # Both interpret the same new layer; annotations must agree.
        builder.round_all()
        interpreter.run()
        fresh.run()
        for block in builder.dag:
            assert annotation_fingerprint(
                fresh, block.ref
            ) == annotation_fingerprint(interpreter, block.ref)

    def test_events_survive(self, tmp_path):
        builder, interpreter = interpreted_dag(rounds=4)
        assert interpreter.events  # BRB delivered somewhere
        manager = CheckpointManager(tmp_path)
        manager.write(capture_checkpoint(1, interpreter, builder.dag))
        fresh = Interpreter(builder.dag, brb_protocol, builder.servers)
        install_checkpoint(manager.load(1), fresh, brb_protocol)
        assert fresh.events == interpreter.events

    def test_install_refuses_nonfresh_interpreter(self, tmp_path):
        builder, interpreter = interpreted_dag()
        checkpoint = capture_checkpoint(1, interpreter, builder.dag)
        with pytest.raises(CheckpointError):
            install_checkpoint(checkpoint, interpreter, brb_protocol)

    def test_install_refuses_missing_dag_blocks(self, tmp_path):
        builder, interpreter = interpreted_dag()
        checkpoint = capture_checkpoint(1, interpreter, builder.dag)
        from repro.dag.blockdag import BlockDag

        empty = Interpreter(BlockDag(), brb_protocol, builder.servers)
        with pytest.raises(CheckpointError):
            install_checkpoint(checkpoint, empty, brb_protocol)


class TestManager:
    def test_retention(self, tmp_path):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path, retain=2)
        for seq in (1, 2, 3, 4):
            manager.write(capture_checkpoint(seq, interpreter, builder.dag))
        assert manager.sequences() == [3, 4]
        assert manager.latest().seq == 4

    def test_latest_skips_corrupt_newest(self, tmp_path):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path, retain=3)
        manager.write(capture_checkpoint(1, interpreter, builder.dag))
        manager.write(capture_checkpoint(2, interpreter, builder.dag))
        newest = tmp_path / "ckpt-00000002.bin"
        newest.write_bytes(newest.read_bytes()[:10])  # truncate
        assert manager.latest().seq == 1

    def test_latest_none_when_empty(self, tmp_path):
        assert CheckpointManager(tmp_path).latest() is None

    def test_next_seq_monotonic(self, tmp_path):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path, retain=1)
        assert manager.next_seq() == 1
        manager.write(capture_checkpoint(1, interpreter, builder.dag))
        manager.write(capture_checkpoint(2, interpreter, builder.dag))
        # Retention dropped seq 1, but numbering never goes backwards.
        assert manager.next_seq() == 3

    def test_counter_protocol_checkpoint(self, tmp_path):
        builder = ManualDagBuilder(4)
        builder.round_all(
            rs_for={s: [(L, Inc(i + 1))] for i, s in enumerate(builder.servers)}
        )
        builder.round_all()
        builder.round_all()
        interpreter = fresh_interpreter(builder, counter_protocol)
        interpreter.run()
        manager = CheckpointManager(tmp_path)
        manager.write(capture_checkpoint(1, interpreter, builder.dag))
        fresh = Interpreter(builder.dag, counter_protocol, builder.servers)
        install_checkpoint(manager.load(1), fresh, counter_protocol)
        for block in builder.dag:
            assert annotation_fingerprint(
                fresh, block.ref
            ) == annotation_fingerprint(interpreter, block.ref)


class TestVerifiedWrite:
    def test_clean_write_compares_equal(self, tmp_path):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path)
        assert manager.write(capture_checkpoint(1, interpreter, builder.dag))

    def test_garbled_write_keeps_the_only_intact_checkpoint(
        self, tmp_path, monkeypatch
    ):
        builder, interpreter = interpreted_dag()
        manager = CheckpointManager(tmp_path, retain=1)
        assert manager.write(capture_checkpoint(1, interpreter, builder.dag))
        disk = LyingDisk(monkeypatch, tmp_path)
        assert not manager.write(capture_checkpoint(2, interpreter, builder.dag))
        assert disk.garbled == 1
        # Retention waits for a verified write: seq 1 survives.
        assert manager.sequences() == [1, 2]
        with pytest.raises(CheckpointError):
            manager.load(2)
        assert manager.load(1).seq == 1
        assert manager.latest().seq == 1

        disk.armed = False
        assert manager.write(capture_checkpoint(3, interpreter, builder.dag))
        assert manager.sequences() == [3]


def _payload(manager, seq):
    data = manager._path(seq).read_bytes()
    return data[_FRAME.size:]


class TestEntryReuse:
    def grown(self):
        """A checkpoint, then one more interpreted layer."""
        builder, interpreter = interpreted_dag()
        first = capture_checkpoint(1, interpreter, builder.dag)
        builder.round_all()
        interpreter.run()
        return builder, interpreter, first

    def test_unchanged_entries_are_reused_by_identity(self):
        builder, interpreter, first = self.grown()
        second = capture_checkpoint(2, interpreter, builder.dag, previous=first)
        new = set(second.states) - set(first.states)
        assert new and set(first.states) <= set(second.states)
        for ref, entry in second.states.items():
            if ref in new:
                assert entry is not first.states.get(ref)
                continue
            assert entry is first.states[ref]
            fresh = _live_entry(interpreter, ref, entry["base"])
            assert codec.encode(entry) == codec.encode(fresh)

    def test_changed_base_gets_a_fresh_entry(self):
        builder, interpreter, first = self.grown()
        ref = next(r for r, e in first.states.items() if e["base"] is not None)
        stale = {**first.states[ref], "base": None}
        previous = dataclasses.replace(first, states={**first.states, ref: stale})
        second = capture_checkpoint(2, interpreter, builder.dag, previous=previous)
        assert second.states[ref] is not stale
        assert second.states[ref] == _live_entry(
            interpreter, ref, first.states[ref]["base"]
        )

    def test_entry_released_in_previous_is_rebuilt(self):
        builder, interpreter, first = self.grown()
        ref = next(iter(first.states))
        previous = dataclasses.replace(first, released=frozenset({ref}))
        second = capture_checkpoint(2, interpreter, builder.dag, previous=previous)
        assert second.states[ref] is not first.states[ref]
        assert second.states[ref] == first.states[ref]

    def test_write_splices_reused_entries_and_encodes_only_new_ones(
        self, tmp_path, monkeypatch
    ):
        builder, interpreter, first = self.grown()
        manager = CheckpointManager(tmp_path)
        manager.write(first)
        second = capture_checkpoint(2, interpreter, builder.dag, previous=first)

        entries = {id(entry): ref for ref, entry in second.states.items()}
        encoded = []
        real_encode = codec.encode

        def counting_encode(value):
            if id(value) in entries:
                encoded.append(entries[id(value)])
            return real_encode(value)

        monkeypatch.setattr(codec, "encode", counting_encode)
        assert manager.write(second)
        monkeypatch.undo()

        assert set(encoded) == set(second.states) - set(first.states)
        assert _payload(manager, 2) == codec.encode(_to_wire(second))
        # The cache holds exactly the last checkpoint's entries.
        assert set(manager._encoded) == set(second.states)

    def test_cache_forgets_refs_that_left_the_checkpoint(self, tmp_path):
        builder, interpreter, first = self.grown()
        manager = CheckpointManager(tmp_path)
        manager.write(first)
        dropped = next(iter(first.states))
        smaller = dataclasses.replace(
            first,
            seq=2,
            states={r: e for r, e in first.states.items() if r != dropped},
        )
        manager.write(smaller)
        assert dropped not in manager._encoded
        assert _payload(manager, 2) == codec.encode(_to_wire(smaller))


M = Label("m")


def two_label_checkpoint():
    """A written-ready checkpoint whose late blocks own only label ``m``
    and inherit ``l`` along their chain (delta entries)."""
    builder = ManualDagBuilder(4)
    builder.round_all(rs_for={builder.servers[0]: [(L, Broadcast("v"))]})
    for _ in range(4):
        builder.round_all()
    builder.round_all(rs_for={builder.servers[1]: [(M, Broadcast("w"))]})
    builder.round_all()
    interpreter = fresh_interpreter(builder, brb_protocol)
    interpreter.run()
    checkpoint = capture_checkpoint(1, interpreter, builder.dag)
    tip = builder.dag.tip(builder.servers[0]).ref
    assert checkpoint.states[tip]["own"] == (str(M),)
    assert str(L) in _materialize_entry(checkpoint.states, tip)["pis"]
    return builder, checkpoint, tip


def retire(checkpoint, seq, gone):
    """``checkpoint`` after the horizon retired ``gone``: every entry
    based on it is materialized, as :func:`capture_checkpoint` does."""
    states = {}
    for ref, entry in checkpoint.states.items():
        if ref == gone:
            continue
        if entry["base"] == gone:
            entry = _materialize_entry(checkpoint.states, ref)
        states[ref] = entry
    return dataclasses.replace(checkpoint, seq=seq, states=states)


def encoded_ids(monkeypatch):
    """Start recording the id of every value passed to ``codec.encode``."""
    seen = set()
    real_encode = codec.encode

    def recording_encode(value):
        seen.add(id(value))
        return real_encode(value)

    monkeypatch.setattr(codec, "encode", recording_encode)
    return seen


class TestInheritedSnapshotSplice:
    def test_materialized_entry_splices_inherited_snapshots(
        self, tmp_path, monkeypatch
    ):
        _, first, tip = two_label_checkpoint()
        manager = CheckpointManager(tmp_path)
        assert manager.write(first)
        second = retire(first, 2, first.states[tip]["base"])
        entry = second.states[tip]
        assert entry["base"] is None
        inherited = {
            lbl: snapshot for lbl, snapshot in entry["pis"].items()
            if lbl not in entry["own"]
        }
        assert inherited

        seen = encoded_ids(monkeypatch)
        assert manager.write(second)
        monkeypatch.undo()

        assert _payload(manager, 2) == codec.encode(_to_wire(second))
        # Every snapshot came from a cached entry's bytes, inherited
        # ones and the entry's own alike: none was encoded again.
        assert not {id(s) for s in entry["pis"].values()} & seen
        assert not {id(s) for s in inherited.values()} & seen

    def test_replaced_entry_is_never_spliced_from_its_old_bytes(
        self, tmp_path, monkeypatch
    ):
        _, first, tip = two_label_checkpoint()
        chain = [tip]
        while first.states[chain[-1]]["base"] is not None:
            chain.append(first.states[chain[-1]]["base"])
        # ``owner`` is the nearest ancestor owning ``l``; ``child`` is
        # based on it and inherits that snapshot.
        owner = next(r for r in chain if str(L) in first.states[r]["own"])
        child = chain[chain.index(owner) - 1]
        manager = CheckpointManager(tmp_path)
        assert manager.write(first)

        # Write 2: ``owner`` gets a new entry object whose ``l`` snapshot
        # differs, while ``child`` materializes from the old one — so
        # this write reads the owner's *old* cached bytes.
        old = first.states[owner]
        altered = {**old["pis"][str(L)], "label": "altered"}
        replaced = {**old, "pis": {**old["pis"], str(L): altered}}
        second = dataclasses.replace(first, seq=2, states={
            **first.states,
            owner: replaced,
            child: _materialize_entry(first.states, child),
        })
        assert manager.write(second)
        assert _payload(manager, 2) == codec.encode(_to_wire(second))

        # Write 3: ``child`` materializes against the replacement; its
        # snapshot must come from the owner's new bytes, not the old.
        delta = {**second.states, child: first.states[child]}
        third = dataclasses.replace(second, seq=3, states={
            **second.states, child: _materialize_entry(delta, child),
        })
        assert third.states[child]["pis"][str(L)] is altered
        seen = encoded_ids(monkeypatch)
        assert manager.write(third)
        monkeypatch.undo()
        assert id(altered) not in seen  # spliced, from the new bytes
        assert _payload(manager, 3) == codec.encode(_to_wire(third))
