"""CODEC — the canonical encoder against its reference ``isinstance`` chain.

Two hot callers of :func:`repro.dag.codec.encode`:

* the ``<_M`` sort key (Algorithm 2 line 10) encodes one protocol
  ``Message`` per buffered message on every interpreted block;
* the checkpoint writer encodes every fresh state entry (a block's
  process snapshots and message buffers) of every checkpoint.

This benchmark encodes both corpora, in one process, with the
production encoder and with the reference encoder kept in
``tests/reference_codec.py`` (the ``isinstance`` chain the codec used
before it dispatched on exact type).  The checkpoint corpus is captured
from a short run shaped like perfbench's ``brb-store-traced`` workload:
brb on four servers, a checkpoint every 8 blocks with pruning, the
flight recorder on, four requests per round.

It fails when the two encoders disagree on a single byte, or when the
production encoder is not at least ``MIN_SPEEDUP`` times as fast as the
reference on either corpus.  Both encoders run on the same host at the
same time, interleaved, so the ratio needs no machine calibration.

Run:  PYTHONPATH=src python benchmarks/bench_codec.py [--smoke]
  or: PYTHONPATH=src python -m pytest benchmarks/bench_codec.py -q
"""

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parents[1] / "tests"))

from bench_util import emit, emit_json, reset

import reference_codec
from repro.dag import codec
from repro.protocols.base import Message
from repro.protocols.brb import Echo
from repro.scenario import (
    AllDelivered,
    And,
    DagsConverged,
    LatencySpec,
    OpenLoopWorkload,
    Scenario,
    ScenarioRunner,
    StorageSpec,
    Topology,
)
from repro.storage.checkpoint import CheckpointManager
from repro.types import ServerId

EXPERIMENT = "CODEC"

#: The production encoder must beat the reference by this factor.
MIN_SPEEDUP = 1.5

#: Timing passes per encoder; the two encoders alternate pass by pass.
PASSES = 15
SMOKE_PASSES = 9

#: ``<_M`` keys encoded per pass.
MESSAGE_REPEATS = 20_000
SMOKE_MESSAGE_REPEATS = 5_000

#: Workload rounds of the checkpoint-capture run.
ROUNDS = 25
SMOKE_ROUNDS = 10


def sample_message() -> Message:
    """A brb ``ECHO`` as the interpreter orders it under ``<_M``."""
    return Message(ServerId("s1"), ServerId("s2"), Echo(17))


def capture_checkpoint_entries(rounds: int) -> list[dict]:
    """The distinct state entries of every checkpoint written by one
    brb-store-traced-shaped run, in write order."""
    scenario = Scenario(
        name="codec-capture",
        protocol="brb",
        description="brb n=4, checkpoint every 8 blocks with prune, "
        "flight recorder on, 4 requests/round.",
        seed=0,
        topology=Topology(
            n=4,
            round_duration=6.0,
            latency=LatencySpec(model="jitter", low=0.5, high=1.5),
            trace=True,
            storage=StorageSpec(checkpoint_interval=8, prune=True),
        ),
        workload=OpenLoopWorkload(rate=4, rounds=rounds, sender="random"),
        stop=And((AllDelivered(), DagsConverged())),
        max_rounds=rounds + 35,
    )
    entries: list[dict] = []
    seen: set[int] = set()
    write = CheckpointManager.write

    def capturing_write(manager, checkpoint):
        for entry in checkpoint.states.values():
            if id(entry) not in seen:
                seen.add(id(entry))
                entries.append(entry)
        return write(manager, checkpoint)

    CheckpointManager.write = capturing_write
    try:
        with tempfile.TemporaryDirectory() as root:
            result = ScenarioRunner(scenario, storage_root=root).run()
    finally:
        CheckpointManager.write = write
    if result.stopped_by != "stop-condition":
        raise RuntimeError(f"capture run did not finish: {result.stopped_by}")
    if not entries:
        raise RuntimeError("capture run wrote no checkpoint")
    return entries


def timed_pass(encode, corpus: list) -> float:
    """Seconds to encode the whole corpus once."""
    start = time.perf_counter()
    for value in corpus:
        encode(value)
    return time.perf_counter() - start


def compare(corpus: list, passes: int) -> dict:
    """Byte identity and interleaved timings of both encoders.

    The speedup is the median, over passes, of the reference pass's
    time over the production pass's time right after it: a host that
    slows down for a while slows both sides of a pass alike.
    """
    mismatches = sum(
        codec.encode(value) != reference_codec.encode(value) for value in corpus
    )
    reference, production = [], []
    for _ in range(passes):
        reference.append(timed_pass(reference_codec.encode, corpus))
        production.append(timed_pass(codec.encode, corpus))
    ratios = [ref / prod for ref, prod in zip(reference, production)]
    return {
        "values": len(corpus),
        "bytes": sum(len(codec.encode(value)) for value in corpus),
        "mismatches": mismatches,
        "reference_us_per_value": round(min(reference) / len(corpus) * 1e6, 3),
        "production_us_per_value": round(min(production) / len(corpus) * 1e6, 3),
        "speedup": round(statistics.median(ratios), 2),
    }


def run(smoke: bool = False) -> dict:
    reset(EXPERIMENT)
    passes = SMOKE_PASSES if smoke else PASSES
    messages = [sample_message()] * (
        SMOKE_MESSAGE_REPEATS if smoke else MESSAGE_REPEATS
    )
    entries = capture_checkpoint_entries(SMOKE_ROUNDS if smoke else ROUNDS)
    corpora = {
        "message_key": compare(messages, passes),
        "checkpoint_entries": compare(entries, passes),
    }
    failures = [
        f"{name}: {row['mismatches']} values encode differently"
        for name, row in corpora.items()
        if row["mismatches"]
    ] + [
        f"{name}: speedup {row['speedup']} < {MIN_SPEEDUP}"
        for name, row in corpora.items()
        if row["speedup"] < MIN_SPEEDUP
    ]
    result = {
        "experiment": EXPERIMENT,
        "scenario": "brb-store-traced-shaped capture"
        + (" (smoke)" if smoke else ""),
        "min_speedup": MIN_SPEEDUP,
        "corpora": corpora,
        "failures": failures,
    }
    emit(EXPERIMENT, json.dumps(result, indent=2))
    emit_json(
        EXPERIMENT,
        scenario=result["scenario"],
        metrics={
            f"{name}.{key}": value
            for name, row in corpora.items()
            for key, value in row.items()
        },
    )
    return result


def test_production_encoder_is_identical_and_faster():
    result = run(smoke=True)
    assert not result["failures"], result["failures"]


if __name__ == "__main__":
    outcome = run(smoke="--smoke" in sys.argv[1:])
    print(json.dumps(outcome, indent=2))
    if outcome["failures"]:
        sys.exit(1)
