"""Unit tests for validity (Definition 3.3) and BlockDag (Definition 3.4)."""

import pytest

from repro.crypto.keys import KeyRing
from repro.crypto.signatures import Signature
from repro.dag.block import Block
from repro.dag.blockdag import BlockDag, Validator, Validity
from repro.errors import InvalidBlockError, MissingPredecessorError
from repro.protocols.brb import Broadcast
from repro.types import Label, ServerId, make_servers

from helpers import ManualDagBuilder

S1, S2, S3, S4 = (ServerId(f"s{i}") for i in range(1, 5))


def signed(ring: KeyRing, server, k, preds=(), rs=()):
    unsigned = Block(n=server, k=k, preds=tuple(preds), rs=tuple(rs))
    return Block(
        n=unsigned.n,
        k=unsigned.k,
        preds=unsigned.preds,
        rs=unsigned.rs,
        sigma=ring.sign(server, unsigned.signing_payload()),
    )


@pytest.fixture
def ring():
    return KeyRing(make_servers(4))


@pytest.fixture
def store():
    return {}


@pytest.fixture
def validator(ring, store):
    return Validator(verify=ring.verify, resolve=store.get)


class TestDefinition33Validity:
    def test_valid_genesis(self, ring, validator):
        block = signed(ring, S1, 0)
        assert validator.validity(block) is Validity.VALID

    def test_check_i_bad_signature(self, ring, validator):
        block = Block(n=S1, k=0, preds=(), rs=(), sigma=Signature(b"junk"))
        assert validator.validity(block) is Validity.INVALID

    def test_check_i_signature_by_other_server(self, ring, validator):
        unsigned = Block(n=S1, k=0, preds=(), rs=())
        forged = Block(
            n=S1,
            k=0,
            preds=(),
            rs=(),
            sigma=ring.sign(S2, unsigned.signing_payload()),
        )
        assert validator.validity(forged) is Validity.INVALID

    def test_check_ii_nongenesis_needs_parent(self, ring, validator, store):
        other = signed(ring, S2, 0)
        store[other.ref] = other
        orphan = signed(ring, S1, 1, preds=(other.ref,))
        assert validator.validity(orphan) is Validity.INVALID

    def test_check_ii_exactly_one_parent_ok(self, ring, validator, store):
        parent = signed(ring, S1, 0)
        store[parent.ref] = parent
        child = signed(ring, S1, 1, preds=(parent.ref,))
        assert validator.validity(child) is Validity.VALID

    def test_check_ii_two_parents_invalid(self, ring, validator, store):
        # An equivocating pair both claimed as parents ⇒ invalid.
        parent_a = signed(ring, S1, 0)
        parent_b = signed(ring, S1, 0, rs=((Label("l"), Broadcast(1)),))
        store[parent_a.ref] = parent_a
        store[parent_b.ref] = parent_b
        child = signed(ring, S1, 1, preds=(parent_a.ref, parent_b.ref))
        assert validator.validity(child) is Validity.INVALID

    def test_check_iii_recurses(self, ring, validator, store):
        # A content-invalid predecessor (properly signed, but claiming
        # k=1 with no parent) poisons every descendant.
        bad = signed(ring, S2, 1)  # non-genesis, no parent: violates (ii)
        store[bad.ref] = bad
        parent = signed(ring, S1, 0)
        store[parent.ref] = parent
        child = signed(ring, S1, 1, preds=(parent.ref, bad.ref))
        store[child.ref] = child
        assert validator.validity(child) is Validity.INVALID
        grandchild = signed(ring, S1, 2, preds=(child.ref,))
        assert validator.validity(grandchild) is Validity.INVALID

    def test_bad_signature_pred_is_pending_not_poisoned(self, ring, validator, store):
        # A stored copy of a predecessor with a mangled signature acts
        # as *missing*: the descendant stays PENDING, and once the
        # honest copy replaces it, validation succeeds — no poisoning.
        parent = signed(ring, S1, 0)
        store[parent.ref] = parent
        other = signed(ring, S2, 0)
        mangled = Block(
            n=other.n, k=other.k, preds=other.preds, rs=other.rs,
            sigma=Signature(b"junk"),
        )
        store[other.ref] = mangled
        child = signed(ring, S1, 1, preds=(parent.ref, other.ref))
        assert validator.validity(child) is Validity.PENDING
        store[other.ref] = other  # honest copy arrives
        assert validator.validity(child) is Validity.VALID

    def test_missing_predecessor_is_pending(self, ring, validator, store):
        parent = signed(ring, S1, 0)
        missing = signed(ring, S2, 0)  # never stored
        store[parent.ref] = parent
        child = signed(ring, S1, 1, preds=(parent.ref, missing.ref))
        assert validator.validity(child) is Validity.PENDING

    def test_pending_becomes_valid_when_pred_arrives(self, ring, validator, store):
        parent = signed(ring, S1, 0)
        other = signed(ring, S2, 0)
        store[parent.ref] = parent
        child = signed(ring, S1, 1, preds=(parent.ref, other.ref))
        assert validator.validity(child) is Validity.PENDING
        store[other.ref] = other
        assert validator.validity(child) is Validity.VALID

    def test_content_verdicts_are_cached(self, ring, store):
        # The queried copy's signature is re-checked per call (copies
        # sharing a ref may differ in σ), but the content closure is
        # walked once: a deep chain costs one verification pass, then
        # one signature check per subsequent query of the tip.
        calls = []

        def counting_verify(server, payload, sig):
            calls.append(server)
            return ring.verify(server, payload, sig)

        validator = Validator(verify=counting_verify, resolve=store.get)
        parent = signed(ring, S1, 0)
        store[parent.ref] = parent
        child = signed(ring, S1, 1, preds=(parent.ref,))
        validator.validity(child)
        first_pass = len(calls)
        validator.validity(child)
        assert first_pass >= 2  # parent + child verified on first pass
        assert len(calls) == first_pass + 1  # only the tip re-checked

    def test_pending_region_is_walked_once_per_query(self, ring, store):
        # Every block references the whole previous layer, so each block
        # is reachable along 4^depth paths; the missing genesis of s4
        # keeps the entire region PENDING (nothing gets cached).  One
        # query must still expand each block once, not once per path.
        calls = []

        def counting_verify(server, payload, sig):
            calls.append(server)
            return ring.verify(server, payload, sig)

        validator = Validator(verify=counting_verify, resolve=store.get)
        servers = (S1, S2, S3, S4)
        layer = [signed(ring, s, 0) for s in servers]
        hole = layer[3]
        for block in layer[:3]:
            store[block.ref] = block
        for k in range(1, 9):
            refs = tuple(b.ref for b in layer)
            layer = [signed(ring, s, k, preds=refs) for s in servers]
            for block in layer:
                store[block.ref] = block
        tip = signed(ring, S1, 9, preds=tuple(b.ref for b in layer))
        assert validator.validity(tip) is Validity.PENDING
        assert len(calls) <= len(store) + 1
        calls.clear()
        assert validator.validity(tip) is Validity.PENDING  # re-derived
        assert len(calls) <= len(store) + 1
        store[hole.ref] = hole
        assert validator.validity(tip) is Validity.VALID

    def test_genesis_may_reference_other_genesis(self, ring, validator, store):
        # Figure 2's B3 pattern at k=0: references permitted as long as
        # none is a parent (k = -1 is impossible).
        other = signed(ring, S2, 0)
        store[other.ref] = other
        block = signed(ring, S1, 0, preds=(other.ref,))
        assert validator.validity(block) is Validity.VALID

    def test_long_chain_validates_iteratively(self, ring, validator, store):
        # Deep recursion must not hit Python's stack limit.
        previous = signed(ring, S1, 0)
        store[previous.ref] = previous
        for k in range(1, 2001):
            block = signed(ring, S1, k, preds=(previous.ref,))
            store[block.ref] = block
            previous = block
        assert validator.validity(previous) is Validity.VALID

    def test_is_valid_boolean_view(self, ring, validator):
        assert validator.is_valid(signed(ring, S1, 0))
        assert not validator.is_valid(
            Block(n=S1, k=0, preds=(), rs=(), sigma=Signature(b"bad"))
        )


class TestBlockDagDefinition34:
    def test_insert_and_lookup(self, ring):
        dag = BlockDag()
        block = signed(ring, S1, 0)
        assert dag.insert(block)
        assert block in dag
        assert dag.get(block.ref) == block
        assert len(dag) == 1

    def test_insert_is_idempotent_lemma_a2(self, ring):
        dag = BlockDag()
        block = signed(ring, S1, 0)
        assert dag.insert(block)
        assert not dag.insert(block)
        assert len(dag) == 1

    def test_insert_requires_predecessors_present(self, ring):
        dag = BlockDag()
        parent = signed(ring, S1, 0)
        child = signed(ring, S1, 1, preds=(parent.ref,))
        with pytest.raises(MissingPredecessorError):
            dag.insert(child)

    def test_insert_validates_when_given_validator(self, ring):
        dag = BlockDag()
        validator = Validator(verify=ring.verify, resolve=dag.get)
        bad = Block(n=S1, k=0, preds=(), rs=(), sigma=Signature(b"bad"))
        with pytest.raises(InvalidBlockError):
            dag.insert(bad, validator)

    def test_edges_follow_preds(self, ring):
        dag = BlockDag()
        a = signed(ring, S1, 0)
        b = signed(ring, S2, 0)
        dag.insert(a)
        dag.insert(b)
        c = signed(ring, S1, 1, preds=(a.ref, b.ref))
        dag.insert(c)
        assert dag.graph.has_edge(a.ref, c.ref)
        assert dag.graph.has_edge(b.ref, c.ref)

    def test_duplicate_pred_entries_deduped(self, ring):
        dag = BlockDag()
        a = signed(ring, S1, 0)
        dag.insert(a)
        weird = signed(ring, S2, 0, preds=(a.ref, a.ref))
        dag.insert(weird)
        assert dag.graph.predecessors(weird.ref) == {a.ref}

    def test_by_server_ordering(self, dag_builder):
        blocks = [dag_builder.block(S1) for _ in range(3)]
        assert dag_builder.dag.by_server(S1) == blocks

    def test_tip(self, dag_builder):
        dag_builder.block(S1)
        latest = dag_builder.block(S1)
        assert dag_builder.dag.tip(S1) == latest
        assert dag_builder.dag.tip(S4) is None

    def test_require_raises_for_missing(self):
        dag = BlockDag()
        with pytest.raises(MissingPredecessorError):
            dag.require("nope")


class TestForksExample35:
    def test_fork_detected(self, dag_builder):
        dag_builder.block(S1)
        dag_builder.block(S1)
        dag_builder.fork(S1, rs=((Label("l"), Broadcast(9)),))
        forks = dag_builder.dag.forks()
        assert (S1, 1) in forks
        assert len(forks[(S1, 1)]) == 2

    def test_no_false_fork_reports(self, dag_builder):
        dag_builder.round_all()
        dag_builder.round_all()
        assert dag_builder.dag.forks() == {}

    def test_forked_blocks_are_both_valid(self, dag_builder):
        # Figure 3: both B3 and B4 are valid — equivocation is not a
        # validity violation, it's a behaviour the interpretation splits.
        first = dag_builder.block(S1)
        second = dag_builder.block(S1)
        forked = dag_builder.fork(S1, rs=((Label("l"), Broadcast(1)),))
        for block in (first, second, forked):
            assert dag_builder.validator.validity(block) is Validity.VALID


class TestDagRelations:
    def test_union_joint_dag_lemma_a7(self):
        left = ManualDagBuilder(4)
        right = ManualDagBuilder(4)
        # Same genesis layer (deterministic contents ⇒ same refs).
        left_genesis = left.block(S1)
        right_genesis = right.block(S1)
        assert left_genesis.ref == right_genesis.ref
        left.block(S2, refs=[left_genesis])
        right.block(S3, refs=[right_genesis])
        joint = left.dag.union(right.dag)
        assert left.dag.refs <= joint.refs
        assert right.dag.refs <= joint.refs
        assert joint.graph.is_acyclic()

    def test_prefix_relation(self, dag_builder):
        dag_builder.round_all()
        snapshot = dag_builder.dag.copy()
        dag_builder.round_all()
        assert snapshot.is_prefix_of(dag_builder.dag)
        assert not dag_builder.dag.is_prefix_of(snapshot)

    def test_copy_is_independent(self, dag_builder):
        dag_builder.block(S1)
        snapshot = dag_builder.dag.copy()
        dag_builder.block(S1)
        assert len(snapshot) == 1
        assert len(dag_builder.dag) == 2

    def test_predecessors_resolved(self, dag_builder):
        a = dag_builder.block(S1)
        b = dag_builder.block(S2, refs=[a])
        preds = dag_builder.dag.predecessors(b)
        assert preds == [a]
