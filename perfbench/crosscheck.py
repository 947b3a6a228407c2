"""Cross-check the traced layer split against cProfile.

Run from the repository root::

    python3 perfbench/crosscheck.py --seed 1 brb-burst brb-store-traced

Each workload runs once under cProfile and once with the layer
wrappers.  cProfile self time is grouped by layer: the ``repro``
package a function lives in, with ``dag/codec.py`` as its own ``codec``
layer.  Self time of code outside the program (builtins, the standard
library) goes to the layers of its callers, split by the time each
caller spent in it, because a traced span's self time includes such
calls too.  Both splits are printed as shares of their run's total.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

COMPARED = ("codec", "interpret", "storage")
WORK = bench.WORK / "crosscheck"


def _layer_of(filename: str) -> str | None:
    """The program layer a source file belongs to; ``None`` outside it."""
    path = filename.replace("\\", "/")
    if "/src/repro/" not in path:
        return None
    inner = path.split("/src/repro/", 1)[1]
    if inner == "dag/codec.py":
        return "codec"
    return inner.split("/", 1)[0] if "/" in inner else "other"


def profile_split(stats: dict[Any, Any]) -> dict[str, float]:
    """Self seconds per layer from raw ``pstats`` data."""
    memo: dict[Any, dict[str, float]] = {}

    def shares(func: Any, seen: frozenset) -> dict[str, float]:
        layer = _layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4]
        weights = {c: edge[2] or edge[3] for c, edge in callers.items() if c not in seen}
        total = sum(weights.values())
        out: dict[str, float] = {}
        if not total:
            out = {"other": 1.0}
        else:
            for caller, weight in weights.items():
                for name, share in shares(caller, seen | {func}).items():
                    out[name] = out.get(name, 0.0) + share * weight / total
        memo[func] = out
        return out

    split: dict[str, float] = {}
    for func, (_, _, self_time, _, _) in stats.items():
        for name, share in shares(func, frozenset()).items():
            split[name] = split.get(name, 0.0) + self_time * share
    return split


def _shares(split: dict[str, float]) -> dict[str, float]:
    total = sum(split.values())
    return {name: value / total for name, value in split.items()}


def crosscheck(workload: str, seed: int) -> dict[str, dict[str, float]]:
    scenario = workloads.build(workload, seed)
    profiler = cProfile.Profile()
    profiler.enable()
    record, _ = bench.run_once(scenario, WORK / "profiled")
    profiler.disable()
    if record.failures:
        raise SystemExit(f"{workload}: profiled run failed: {record.failures}")
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    profiled = _shares(profile_split(stats))
    with layers.SpanTracer() as tracer:
        record, _ = bench.run_once(scenario, WORK / "traced", tracer)
    if record.failures:
        raise SystemExit(f"{workload}: traced run failed: {record.failures}")
    traced = _shares(tracer.self_by_layer())
    return {"cprofile": profiled, "traced": traced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=["brb-burst", "brb-store-traced"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for workload in args.workloads:
        split = crosscheck(workload, args.seed)
        print(f"\n{workload} (seed {args.seed}): self-time share of the run")
        print("| layer | cProfile | traced | difference |")
        print("|---|---|---|---|")
        shown = set(COMPARED) | {
            layer
            for side in split.values()
            for layer, share in side.items()
            if share >= 0.005
        }
        for layer in sorted(shown, key=lambda name: (name not in COMPARED, name)):
            profiled = split["cprofile"].get(layer, 0.0) * 100
            traced = split["traced"].get(layer, 0.0) * 100
            print(
                f"| {layer} | {profiled:.1f} % | {traced:.1f} % "
                f"| {traced - profiled:+.1f} points |"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
