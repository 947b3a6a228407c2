"""Self-test of the benchmark's layer wrappers and correctness gate.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

Each workload runs once untraced and once traced (module-scoped
fixtures); the checks then read those runs.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from repro.scenario import Scenario, run_scenario  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: (untraced record, its JSON, traced record, its JSON)."""
    root = tmp_path_factory.mktemp("runs")
    out = {}
    for name in workloads.WORKLOADS:
        scenario = workloads.build(name, SEED)
        plain, plain_json = bench.run_once(scenario, root / f"{name}-plain")
        with layers.SpanTracer() as tracer:
            traced, traced_json = bench.run_once(scenario, root / f"{name}-traced", tracer)
        out[name] = (plain, plain_json, traced, traced_json)
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_runs_pass_the_gate_and_wrappers_change_no_result(runs, name):
    plain, plain_json, traced, traced_json = runs[name]
    assert plain.failures == [] and traced.failures == []
    assert plain.issued >= 100
    assert traced_json == plain_json


def test_removing_the_wrappers_restores_the_program(runs, tmp_path):
    from repro.dag import codec
    from repro.interpret import order
    from repro.shim import shim

    _, plain_json, _, _ = runs["brb-burst"]
    _, after_json = bench.run_once(workloads.build("brb-burst", SEED), tmp_path / "s")
    assert after_json == plain_json
    assert order.encoding_key is codec.encoding_key
    assert not hasattr(codec.encode, "__wrapped__")
    assert not hasattr(shim.capture_checkpoint, "__wrapped__")
    for target in layers.TARGETS:
        if target.owner is not None:
            module = sys.modules[target.module]
            method = vars(getattr(module, target.owner))[target.attr]
            assert not hasattr(method, "__wrapped__"), target


def test_by_name_bindings_are_traced(runs):
    traced = runs["brb-burst"][2].layers
    # interpret.order binds encoding_key by name: missed, this reads 0.
    assert traced["codec.key_calls"] > 0
    assert traced["interpret.order_self_s"] > 0


def test_idle_pattern(runs):
    burst = runs["brb-burst"][2].layers
    ledger = runs["ledger-faults"][2].layers
    store = runs["brb-store-traced"][2].layers
    for name, value in burst.items():
        if name.startswith(("storage.", "obs.")):
            assert value == 0, name
    assert burst["horizon.below_horizon"] == burst["horizon.condemned"] == 0
    # HorizonTracker.observe is a DAG insert listener on every server;
    # with no claims in any block it returns at once, so it is called
    # but does no work.
    assert burst["horizon.observe_self_s"] < 0.01 * runs["brb-burst"][2].wall_s
    for name, value in ledger.items():
        if name.startswith("obs."):
            assert value == 0, name
    assert ledger["storage.checkpoints"] > 0
    assert ledger["storage.recover_s"] > 0 and ledger["storage.restore_calls"] > 0
    assert ledger["horizon.below_horizon"] == 0
    assert store["obs.emit_calls"] > 0 and store["storage.checkpoints"] > 0
    assert store["storage.recover_s"] == store["storage.checkpoint_read_s"] == 0


def test_reported_scenario_replays(runs, tmp_path):
    scenario = workloads.build("brb-burst", SEED)
    replayed = Scenario.from_json(scenario.to_json())
    assert replayed == scenario
    result = run_scenario(replayed, storage_root=tmp_path / "replay")
    assert result.to_json(include_wall_clock=False) == runs["brb-burst"][1]


def test_gate_reports_disagreement():
    def shim(*values):
        indications = [("l", v) for v in values]
        return SimpleNamespace(
            indications=indications,
            indications_for=lambda label: [v for (l, v) in indications if l == label],
        )

    runner = SimpleNamespace(
        scenario=SimpleNamespace(protocol="brb"),
        cluster=SimpleNamespace(
            shims={"s1": shim(1), "s2": shim(2)}, correct_servers=["s1", "s2"]
        ),
    )
    result = SimpleNamespace(
        stopped_by="stop-condition",
        converged=True,
        requests_issued=1,
        requests_delivered=1,
        interpreter=SimpleNamespace(below_horizon=0),
    )
    assert bench.gate(runner, result) == ["correct servers disagree on label l"]
