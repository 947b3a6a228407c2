"""Scenario benchmark: wall-clock throughput and commit latency of the
simulated arm on three seeded workloads, split by layer from outside.

Run from the repository root::

    python3 perfbench/run.py --workload brb-burst --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer wrappers
installed; ``--trace 1`` runs the same workload untraced, then with the
wrappers of :mod:`layers` installed, and reports the per-layer metrics.
Within ``--seconds`` the workload's scenario runs again and again under
``SUBSEEDS`` scenario seeds derived from ``--seed``, the first of them
twice in a row.  Throughputs are medians over those runs; commit
latency percentiles are taken over the requests of all of them.  Every time
is scaled to a reference host speed measured between rounds (see
:mod:`calibrate`); the report keeps the raw wall times too.  Every run
passes through the correctness gate (:func:`gate`), and every run of a
scenario seed must reproduce the first run's result JSON byte for byte.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full report (provenance, the workload's Scenario JSONs, per-run
figures), also written to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Fresh-interpreter set-up probes per run (median reported).
SETUP_PROBES = 7
#: Scenario seeds per benchmark seed.  The cost of some rounds depends
#: on the inputs (ledger-faults' catch-up round after the restart took
#: 265-643 ms across seeds), so a run mixes several.
SUBSEEDS = 4
#: Share of ``--seconds`` spent on untraced runs before a traced one.
UNTRACED_SHARE = 0.4
#: Units of the metrics that :mod:`calibrate` scales.
TIME_UNITS = ("s", "ms", "us")


@dataclass
class RunRecord:
    """One execution of the workload's scenario."""

    traced: bool
    seed: int
    #: Wall seconds of ``ScenarioRunner.run``, calibration excluded.
    wall_s: float = 0.0
    #: Seconds of each calibration sample taken during the run.
    kernel_s: list[float] = field(default_factory=list)
    issued: int = 0
    delivered: int = 0
    blocks: int = 0
    commit_ms: list[float] = field(default_factory=list)
    #: Wall milliseconds of each ``Cluster.round`` call, in order.
    round_ms: list[float] = field(default_factory=list)
    #: ``(issue_round, delivered_round)`` of each delivered request.
    request_rounds: list[tuple[int, int]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def speed(self) -> float:
        """Host-speed factor: multiply a raw time by it to scale it."""
        return calibrate.speed(_median(self.kernel_s)) if self.kernel_s else 1.0

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.speed

    def summary(self) -> dict[str, object]:
        samples = sorted(self.commit_ms)
        return {
            "traced": self.traced,
            "seed": self.seed,
            "wall_s": self.wall_s,
            "speed": self.speed,
            "scaled_s": self.scaled_s,
            "issued": self.issued,
            "delivered": self.delivered,
            "blocks": self.blocks,
            "commit_samples": len(samples),
            "commit_p50_ms": _percentile(samples, 0.50),
            "commit_p90_ms": _percentile(samples, 0.90),
            "failures": self.failures,
            "round_ms": self.round_ms,
            "kernel_s": self.kernel_s,
            "request_rounds": self.request_rounds,
        }


def _percentile(samples: list[float], fraction: float) -> float:
    from repro.scenario import percentile

    return percentile(samples, fraction) if samples else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- correctness gate ------------------------------------------------------------


def _increments(indications: list[Any]) -> tuple[int, ...]:
    # A counter raises its running total after each addition, in the
    # order its own chain delivered them; what must agree is the set of
    # additions applied, not the intermediate totals.
    totals = [0] + [i.value for i in indications]
    return tuple(sorted(b - a for a, b in zip(totals, totals[1:])))


#: Per protocol: the view of one server's indications for one label
#: that every correct server must agree on.
AGREEMENT: dict[str, Callable[[list[Any]], object]] = {
    "brb": tuple,
    "counter": _increments,
}


def gate(runner: Any, result: Any) -> list[str]:
    """Every check a run must pass; the failures, empty when correct."""
    failures = []
    if result.stopped_by != "stop-condition":
        failures.append(f"stopped_by={result.stopped_by}")
    if not result.converged:
        failures.append("DAGs of the correct servers did not converge")
    if result.requests_delivered != result.requests_issued:
        failures.append(
            f"delivered {result.requests_delivered} of {result.requests_issued}"
        )
    if result.interpreter.below_horizon:
        failures.append(f"below_horizon={result.interpreter.below_horizon}")
    cluster = runner.cluster
    shims = [cluster.shims[s] for s in cluster.correct_servers]
    view = AGREEMENT[runner.scenario.protocol]
    labels = sorted({label for shim in shims for label, _ in shim.indications})
    for label in labels:
        views = {view(shim.indications_for(label)) for shim in shims}
        if len(views) != 1:
            failures.append(f"correct servers disagree on label {label}")
    return failures


# -- one execution ---------------------------------------------------------------


def run_once(
    scenario: Any, storage_root: Path, tracer: Any = None
) -> tuple[RunRecord, str]:
    """Run ``scenario`` once; its record and its result JSON without
    wall-clock fields (the byte-identity reference)."""
    from repro.scenario import ScenarioRunner

    record = RunRecord(traced=tracer is not None, seed=scenario.seed)
    resident_peak = 0
    try:
        runner = ScenarioRunner(scenario, storage_root=storage_root)
        cluster = runner.cluster
        plain_round = cluster.round
        stamps: list[tuple[float, float]] = []

        def stamped_round() -> None:
            nonlocal resident_peak
            start = perf_counter()
            plain_round()
            stamps.append((start, perf_counter()))
            record.kernel_s.append(calibrate.sample())
            if tracer is not None:
                resident_peak = max(
                    resident_peak,
                    sum(s.interpreter.resident_states for s in cluster.shims.values()),
                )

        # Wall stamps around each Cluster.round call: a request's commit
        # latency runs from the start of its issue round to the end of
        # the round after which it was delivered everywhere.
        cluster.round = stamped_round  # type: ignore[method-assign]
        if tracer is not None:
            tracer.reset()
        gc.collect()
        start = perf_counter()
        result = runner.run()
        record.wall_s = perf_counter() - start - sum(record.kernel_s)
        record.issued = result.requests_issued
        record.delivered = result.requests_delivered
        record.blocks = result.interpreter.blocks_interpreted
        record.round_ms = [(end - begin) * 1e3 for begin, end in stamps]
        record.request_rounds = [
            (r.issue_round, r.delivered_round)
            for r in runner.driver.records
            if r.delivered_round is not None and r.delivered_round < len(stamps)
        ]
        record.commit_ms = [
            (stamps[done][1] - stamps[issued][0]) * 1e3
            for issued, done in record.request_rounds
        ]
        record.failures = gate(runner, result)
        if tracer is not None:
            speed = record.speed
            record.layers = {
                name: value * speed if unit_of(name) in TIME_UNITS else value
                for name, value in layer_metrics(tracer, runner, result, resident_peak).items()
            }
        return record, result.to_json(include_wall_clock=False)
    except Exception:  # a crashed run is a failed run, reported, not dropped
        record.failures.append(traceback.format_exc(limit=8))
        return record, ""
    finally:
        shutil.rmtree(storage_root, ignore_errors=True)


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(
    tracer: Any, runner: Any, result: Any, resident_peak: int
) -> dict[str, float]:
    """The per-layer figures of one traced run."""
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    issued = max(1, result.requests_issued)
    shims = list(runner.cluster.shims.values())
    received = sum(s.gossip.metrics.blocks_received for s in shims)
    duplicates = sum(s.gossip.metrics.duplicate_blocks for s in shims)
    storage = result.storage
    interp = result.interpreter
    rounds_ms = sorted(d * 1e3 for d in tracer.round_durations)
    checkpoints = storage.checkpoints_written

    def c(name: str) -> float:
        return float(calls.get(name, 0))

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def t(name: str) -> float:
        return total_s.get(name, 0.0)

    return {
        "runtime.round_p50_ms": _percentile(rounds_ms, 0.50),
        "runtime.round_p90_ms": _percentile(rounds_ms, 0.90),
        "runtime.restart_s": t("runtime.restart"),
        "net.step_self_s": s("net.step"),
        "net.messages_per_request": result.wire.messages / issued,
        "net.bytes_per_request": result.wire.bytes / issued,
        "gossip.receive_calls": c("gossip.receive"),
        "gossip.receive_self_s": s("gossip.receive"),
        "gossip.disseminate_self_s": s("gossip.disseminate"),
        "gossip.duplicate_share": duplicates / received if received else 0.0,
        "gossip.fwd_requests": float(
            sum(s_.gossip.metrics.fwd_requests_sent for s_ in shims)
        ),
        "dag.validity_calls": c("dag.validity"),
        "dag.validity_self_s": s("dag.validity"),
        "dag.insert_self_s": s("dag.insert"),
        "codec.encode_calls": c("codec.encode"),
        "codec.encode_bytes": float(tracer.bytes.get("codec.encode", 0)),
        "codec.encode_self_s": s("codec.encode"),
        "codec.decode_calls": c("codec.decode"),
        "codec.decode_bytes": float(tracer.bytes.get("codec.decode", 0)),
        "codec.decode_self_s": s("codec.decode"),
        "codec.key_calls": c("codec.key"),
        "codec.key_self_s": s("codec.key"),
        "crypto.sign_calls": c("crypto.sign"),
        "crypto.verify_calls": c("crypto.verify"),
        "crypto.verify_self_s": s("crypto.verify"),
        "interpret.blocks": float(interp.blocks_interpreted),
        "interpret.run_self_s": s("interpret.run"),
        "interpret.us_per_block": (
            t("interpret.run") / interp.blocks_interpreted * 1e6
            if interp.blocks_interpreted
            else 0.0
        ),
        "interpret.order_self_s": s("interpret.order"),
        "interpret.resident_states_peak": float(resident_peak),
        "interpret.rehydrated": float(interp.rehydrated),
        "protocols.handler_calls": c("protocols.handler"),
        "protocols.handler_self_s": s("protocols.handler"),
        "storage.wal_flush_calls": c("storage.wal_flush"),
        "storage.wal_flush_self_s": s("storage.wal_flush"),
        "storage.wal_bytes": float(storage.wal_bytes),
        "storage.checkpoints": float(checkpoints),
        "storage.checkpoint_bytes_mean": (
            storage.checkpoint_bytes / checkpoints if checkpoints else 0.0
        ),
        "storage.checkpoint_capture_s": t("storage.checkpoint_capture"),
        "storage.checkpoint_write_s": t("storage.checkpoint_write"),
        "storage.checkpoint_verify_s": t("storage.checkpoint_verify"),
        "storage.checkpoint_read_s": t("storage.checkpoint_read"),
        "storage.wal_replay_s": t("storage.wal_replay"),
        "storage.recover_s": t("storage.recover"),
        "storage.restore_calls": c("storage.restore"),
        "storage.restore_s": t("storage.restore"),
        "storage.prune_self_s": s("storage.prune"),
        "storage.rehydrate_share": (
            interp.rehydrated / storage.states_released
            if storage.states_released
            else 0.0
        ),
        "horizon.observe_self_s": s("horizon.observe"),
        "horizon.below_horizon": float(interp.below_horizon),
        "horizon.condemned": float(interp.condemned_below_horizon),
        "obs.emit_calls": c("obs.emit"),
        "obs.emit_self_s": s("obs.emit"),
        "shim.checkpoint_now_s": t("shim.checkpoint_now"),
    }


# -- set-up time -----------------------------------------------------------------


def setup_seconds(workload: str, seed: int, work: Path) -> list[float]:
    """Set-up time in fresh interpreters: import the program and build
    the ``ScenarioRunner``/``Cluster``, scaled by calibration samples
    the probe takes around it.  One unmeasured probe first, so that
    byte-compiling the sources is not counted."""
    times = []
    for probe in range(SETUP_PROBES + 1):
        root = work / f"setup-{probe}"
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(root)],
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if probe:
            seconds, kernel = map(float, done.stdout.split()[-2:])
            times.append(seconds * calibrate.speed(kernel))
    return times


# -- provenance ------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout's own ``.git``, or ``None`` outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over every program source file (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# -- the benchmark ---------------------------------------------------------------


def scenario_order(index: int) -> int:
    """Which of the ``SUBSEEDS`` scenarios run ``index`` executes: the
    first twice (the byte-identity check), then each in turn."""
    return 0 if index < 2 else (index - 1) % SUBSEEDS


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Measure one workload under one seed; the full report."""
    import workloads
    from layers import SpanTracer

    scenarios = [workloads.build(workload, seed * SUBSEEDS + k) for k in range(SUBSEEDS)]
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    report: dict[str, Any] = {
        "benchmark": "perfbench",
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(seed),
        "scenarios": [scenario.to_json_dict() for scenario in scenarios],
    }
    try:
        setup = [] if trace else setup_seconds(workload, scenarios[0].seed, work)
        records: list[RunRecord] = []
        references: dict[int, str] = {}
        peak_rss_mb = 0.0
        tracer = SpanTracer()
        started = perf_counter()

        def execute(traced: bool) -> None:
            scenario = scenarios[scenario_order(len(records))]
            root = work / f"run-{len(records)}"
            if traced:
                with tracer:
                    record, text = run_once(scenario, root, tracer)
            else:
                record, text = run_once(scenario, root)
            reference = references.setdefault(scenario.seed, text)
            if text != reference:
                record.failures.append(
                    "result JSON differs from the first run of this seed"
                )
            records.append(record)

        def fits(traced: bool, budget: float) -> bool:
            same = [r.wall_s + sum(r.kernel_s) for r in records if r.traced == traced]
            if not same:
                return True
            return perf_counter() - started + _median(same) <= budget

        if trace:
            execute(False)
            while fits(False, seconds * UNTRACED_SHARE):
                execute(False)
            execute(True)
            while fits(True, seconds):
                execute(True)
        else:
            execute(False)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            while len(records) < 2 or fits(False, seconds):
                execute(False)
        report["patched_sites"] = sorted(set(tracer.patched_sites))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in records if not r.traced]
    traced_runs = [r for r in records if r.traced]
    failures = [f for r in records for f in r.failures]
    attempted = sum(r.issued for r in records) or scenarios[0].workload.planned_total()
    delivered = sum(r.delivered for r in records if not r.failures)
    runs = [r.summary() for r in records]
    # A run that crashed has no timings; it still counts as failed.
    timed = [r for r in plain if r.wall_s]
    # Commit latencies of every request of every untraced run, each
    # scaled by its own run's host-speed factor.
    commits = sorted(ms * r.speed for r in timed for ms in r.commit_ms)
    if trace:
        names = traced_runs[0].layers if traced_runs else {}
        metrics = {
            name: _median([r.layers[name] for r in traced_runs if r.layers])
            for name in names
        }
        metrics["trace_overhead"] = _median([r.scaled_s for r in traced_runs]) / max(
            1e-9, _median([r.scaled_s for r in plain])
        )
        spans = WORK / f"spans-{workload}-s{seed}.jsonl"
        tracer.write_spans(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
        report["self_s_by_layer"] = tracer.self_by_layer()
    else:
        metrics = {
            "setup_s": _median(setup),
            "requests_per_s": _median([r.delivered / r.scaled_s for r in timed]),
            "blocks_per_s": _median([r.blocks / r.scaled_s for r in timed]),
            "commit_p50_ms": _percentile(commits, 0.50),
            "commit_p90_ms": _percentile(commits, 0.90),
            "peak_rss_mb": peak_rss_mb,
            "delivered_share": delivered / attempted,
        }
        report["setup_s_samples"] = setup
    report["commit_samples"] = len(commits)
    report["runs"] = runs
    report["failures"] = failures
    report["metrics"] = metrics
    report["result"] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted - delivered,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }
    return report


def unit_of(name: str) -> str:
    """A metric's unit, from its name's suffix."""
    for suffix, unit in (
        ("_per_s", "1/s"),
        ("_ms", "ms"),
        ("us_per_block", "us"),
        ("_s", "s"),
        ("_mb", "MB"),
        ("bytes_per_request", "bytes"),
        ("_bytes", "bytes"),
        ("_bytes_mean", "bytes"),
        ("_share", "ratio"),
        ("_overhead", "ratio"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(known: {sorted(workloads.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(parents=True, exist_ok=True)
    name = f"report-{args.workload}-s{args.seed}-t{args.trace}.json"
    (WORK / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
