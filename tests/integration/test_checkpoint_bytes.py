"""Checkpoint files are a durable format: pin their bytes.

The writer takes shortcuts (reused entry objects, spliced cached entry
bytes, label snapshots sliced out of cached entries), and the codec is
tuned for speed; none of that may change a single byte on disk.  This
test runs one fixed-seed storage scenario whose horizon GC materializes
entries that inherit labels, hashes every checkpoint file as it is
written, and compares the digest with one recorded when the format was
last deliberately left unchanged.  A real format change must update the
digest in the same commit and say why.
"""

import hashlib
from unittest import mock

from repro.scenario import ScenarioRunner, registry
from repro.storage import checkpoint as checkpoint_module

#: SHA-256 over the bytes of every checkpoint file full-size
#: ``gc-horizon-soak`` (seed 0) writes, in write order.
GC_HORIZON_SOAK_DIGEST = (
    "50c24f55fc05eaf2a1b60411c22151103da903e6d8a21ae52ef29eda53367396"
)
GC_HORIZON_SOAK_FILES = 115


def test_checkpoint_bytes_match_the_pinned_digest(tmp_path):
    scenario = registry.get("gc-horizon-soak")
    assert scenario.seed == 0
    digest = hashlib.sha256()
    files = 0
    real_write = checkpoint_module.CheckpointManager.write

    def hashing_write(manager, checkpoint):
        nonlocal files
        verified = real_write(manager, checkpoint)
        # Retention deletes old files, so hash each one as it lands.
        digest.update(manager._path(checkpoint.seq).read_bytes())
        files += 1
        return verified

    with mock.patch.object(
        checkpoint_module.CheckpointManager, "write", hashing_write
    ):
        result = ScenarioRunner(scenario, storage_root=tmp_path).run()

    assert result.stopped_by == "stop-condition"
    assert files == GC_HORIZON_SOAK_FILES
    assert digest.hexdigest() == GC_HORIZON_SOAK_DIGEST
