"""Seeded benchmark of the mvnabs library and CLI.

    python3 perfbench/run.py --workload check --seed 1 --trace 0
    python3 perfbench/run.py --smoke

One process and one thread run one workload as a closed loop: after
one untimed warm-up pass, whole passes over the seeded batch, each item
started when the previous one has finished, until ``--seconds`` have
passed.  Outputs are checked against independent references after the
timed section.  With ``--trace 0`` the last line is the JSON result
with the end-to-end metrics; with ``--trace 1`` half the time runs
untraced and half with the span tracer installed, and the JSON carries
the per-layer metrics.
A run record (drift loop, samples, per-layer numbers, spans of the last
traced pass) is written to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_MIN_S = 1.0  # set-ups are repeated for this long, before and after the passes
LIB_MODULES = (
    "errors", "model", "modelio", "semantics", "traces", "abstraction",
    "checker", "oracle", "cli", "fixtures",
)

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    import tracer

    units = {f"{name}_s": "s" for name in tracer.SPAN_METRICS}
    units.update(dict.fromkeys(tracer.SELF_METRICS.values(), "s"))
    units.update(tracer.COUNT_METRICS)
    units.update({"checker.valid_term_ratio": "ratio", "trace.wall_s": "s",
                  "trace.spans_self_s": "s", "trace.overhead_s": "s"})
    return units


class ItemError:
    """An item that raised; kept in place of its output."""

    def __init__(self, text: str):
        self.text = text


class CountDrift(Exception):
    """Per-layer counts differed between traced passes over the same batch."""


def drift_loop() -> float:
    """A fixed pure-Python loop, timed to tell machine drift from program change."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def import_library():
    """Import mvnabs from this checkout afresh and return its modules."""
    for name in [k for k in sys.modules if k == "mvnabs" or k.startswith("mvnabs.")]:
        del sys.modules[name]
    importlib.import_module("mvnabs")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"mvnabs.{name}") for name in LIB_MODULES}
    )


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def timed_setup(workload, seed, size, min_s):
    """Cold set-ups (import plus input generation), repeated for at least ``min_s``."""
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < min_s:
        t0 = time.perf_counter()
        lib = import_library()
        items = workload.setup(lib, seed, size, OUT / f"{workload.name}-work")
        samples.append(time.perf_counter() - t0)
    return samples, lib, items


def run_passes(workload, lib, items, budget, min_passes, first, unstable, tracer=None):
    """Whole passes over ``items`` for about ``budget`` seconds, at least ``min_passes``.

    A further pass starts while the budget lasts, and only if it is
    expected to end within a quarter of the budget past it, so long passes
    do not double the run.  The first pass of the run fills ``first``; an
    item whose later output differs from it is added to ``unstable``.
    """
    walls, samples, summaries = [], [], []
    start = time.perf_counter()
    while len(walls) < min_passes or (
        (elapsed := time.perf_counter() - start) < budget
        and elapsed + walls[-1] <= 1.25 * budget
    ):
        gc.collect()
        if tracer is not None:
            tracer.reset()
        outs, times = [], []
        for item in items:
            t0 = time.perf_counter()
            try:
                out = workload.run(lib, item)
            except Exception:  # an item that raises is a failed item, not a stop
                out = ItemError(traceback.format_exc())
            times.append(time.perf_counter() - t0)
            outs.append(out if isinstance(out, ItemError) else workload.condense(out))
            del out  # free the raw result before the next item runs
        walls.append(sum(times))
        samples.append(times)
        if tracer is not None:
            summaries.append(tracer.pass_summary())
        if not first:
            first.extend(outs)
        else:
            for k, (a, b) in enumerate(zip(first, outs)):
                if isinstance(a, ItemError) or isinstance(b, ItemError) or not workload.same(a, b):
                    unstable.add(k)
    return walls, samples, summaries


def gate_outputs(workload, lib, items, first, unstable, seed, size, problems):
    """Failed instances per item of the first pass (all of an unstable item)."""
    rng = random.Random(f"gate:{workload.name}:{seed}")
    failed = []
    for k, (item, out) in enumerate(zip(items, first)):
        if isinstance(out, ItemError):
            problems.append(f"item {k} raised:\n{out.text}")
            failed.append(workload.instances(item))
            continue
        try:
            bad = workload.gate(lib, item, out, problems, rng)
        except Exception:  # a gate that cannot finish means a wrong output
            problems.append(f"item {k}: gate raised:\n{traceback.format_exc()}")
            bad = False
        if isinstance(bad, bool):
            bad = 0 if bad else workload.instances(item)
        if k in unstable:
            problems.append(f"item {k}: output changed between passes")
            bad = workload.instances(item)
        failed.append(bad)
    for k in workload.gate_batch(first, seed, size, problems):
        failed[k] = workload.instances(items[k])
    return failed


def quantile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def layer_metrics(walls_u, walls_t, summaries):
    """Per-layer times (mean of the traced passes) and counts, which must repeat exactly."""
    counts = summaries[0][1]
    for _times, other, _top in summaries[1:]:
        if other != counts:
            diff = {k: (counts[k], other[k]) for k in counts if counts[k] != other[k]}
            raise CountDrift(f"per-layer counts changed between traced passes: {diff}")
    metrics = {k: statistics.mean(s[0][k] for s in summaries) for k in summaries[0][0]}
    metrics.update(counts)
    subsets = counts["checker.subsets_considered"]
    metrics["checker.valid_term_ratio"] = counts["checker.initial_terms"] / subsets if subsets else 0.0
    metrics["trace.wall_s"] = statistics.mean(walls_t)
    metrics["trace.spans_self_s"] = statistics.mean(s[2] for s in summaries)
    metrics["trace.overhead_s"] = statistics.mean(walls_t) - statistics.mean(walls_u)
    return metrics


def run_workload(name, seed, seconds, trace, smoke=False):
    """Run one workload; return (result JSON object, human lines, run record)."""
    import tracer as tracer_mod
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    size = workload.smoke_sizes if smoke else workload.sizes
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "drift_loop_s": drift_loop()}
    min_s = 0 if smoke else SETUP_MIN_S
    setup_samples, lib, items = timed_setup(workload, seed, size, min_s)
    per_pass = sum(workload.instances(item) for item in items)

    first, unstable = [], set()
    # An untimed warm-up pass: its outputs are the ones the gates judge, and
    # the heap has grown to the batch's size before the timed passes start.
    warmup_wall_s = run_passes(workload, lib, items, 0, 1, first, unstable)[0][0]
    untraced_budget = seconds / 2 if trace else seconds
    walls_u, samples_u, _ = run_passes(workload, lib, items, untraced_budget, 1, first, unstable)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls_t, summaries, spans = [], [], []
    if trace:
        tracer = tracer_mod.Tracer(lib)
        tracer.install()
        try:
            walls_t, _, summaries = run_passes(
                workload, lib, items, seconds / 2, 2, first, unstable, tracer)
            spans = tracer.spans
        finally:
            tracer.uninstall()

    problems = []
    failed_per_item = gate_outputs(workload, lib, items, first, unstable, seed, size, problems)
    # A second block of set-ups, some tens of seconds after the first, so
    # that setup_s spans the machine's slow and fast spells as wall_s does.
    setup_samples += timed_setup(workload, seed, size, min_s)[0]
    passes = 1 + len(walls_u) + len(walls_t)
    attempted = per_pass * passes
    failed = sum(failed_per_item) * passes

    wall_s = statistics.mean(walls_u)
    human = {
        "setup_s": (statistics.mean(setup_samples), "s"),
        "wall_s": (wall_s, "s"),
        "items_per_s": (per_pass / wall_s, "1/s"),
    }
    latency_samples = 0
    for part, indices, part_items, part_size in workload.split(items, size):
        part_wall = statistics.mean(sum(times[i] for i in indices) for times in samples_u)
        part_count = sum(part.instances(item) for item in part_items)
        rate = part_count * part.rate_scale(part_size) / part_wall
        human[part.rate_name] = (rate, part.rate_unit)
        if part.latency:
            part_samples = [times[i] for times in samples_u for i in indices]
            latency_samples += len(part_samples)
            human[f"{part.latency}_p50_ms"] = (1000 * statistics.median(part_samples), "ms")
            human[f"{part.latency}_p90_ms"] = (1000 * quantile(part_samples, 90), "ms")
    human["peak_rss_mb"] = (peak_rss_mb, "MB")
    human["error_rate"] = (failed / attempted, "failed/attempted")

    if trace:
        metrics = layer_metrics(walls_u, walls_t, summaries)
        units = per_layer_units()
        result_metrics = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    else:
        metrics = {}
        result_metrics = {k: {"value": human[k][0], "unit": u} for k, u in END_TO_END.items()}

    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": result_metrics}
    lines = [f"perfbench {name} seed={seed} seconds={seconds} trace={trace} "
             f"passes=1+{len(walls_u)}+{len(walls_t)} {workload.noun}/pass={per_pass} "
             f"setups={len(setup_samples)}",
             f"  {'drift_loop_s':<24}{record['drift_loop_s']:.4f} s (information only)"]
    for key, (value, unit) in human.items():
        lines.append(f"  {key:<24}{value:.6g} {unit}")
    if latency_samples:
        lines.append(f"  ({latency_samples} latency samples)")
    if trace:
        lines.append("  per-layer (mean of the traced passes):")
        for key, unit in per_layer_units().items():
            lines.append(f"    {key:<32}{metrics[key]:.6g} {unit}")
        share = metrics["checker.check_s"] / metrics["trace.wall_s"]
        cover = metrics["trace.spans_self_s"] / metrics["trace.wall_s"]
        lines.append(f"  check_asyn_abs share of traced wall: {share:.1%}")
        lines.append(f"  span self times cover {cover:.1%} of traced wall_s; "
                     "the rest is the benchmark's own overhead")
    for problem in problems:
        lines.append(f"  FAILED: {problem}")

    record.update({
        "setup_samples_s": setup_samples, "warmup_wall_s": warmup_wall_s,
        "untraced_walls_s": walls_u,
        "traced_walls_s": walls_t, "metrics": {k: v for k, (v, _u) in human.items()},
        "per_layer": metrics, "problems": problems, "result": result,
        "spans_last_traced_pass": spans,
    })
    return result, lines, record


def write_record(record) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")


def check_schema(result, trace, spec) -> list[str]:
    """Compare one result with the contract in BENCHMARK.json."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        errors.append(f"metrics/units differ: {sorted(set(got) ^ set(wanted))}")
    for key, value in result["metrics"].items():
        if not isinstance(value["value"], (int, float)) or not math.isfinite(value["value"]):
            errors.append(f"{key} is not a finite number")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("attempted must be a whole number >= 1")
    if not result["correct"] or result["failed"]:
        errors.append("outputs failed their correctness gates")
    return errors


def smoke() -> int:
    """Run every workload at tiny sizes through the real code path and check it."""
    import workloads

    spec = load_spec()
    errors = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result, lines, record = run_workload(name, 1, 0, trace, smoke=True)
            write_record(record)
            for error in check_schema(result, trace, spec):
                errors.append(f"{name} trace={trace}: {error}")
            print(f"smoke {name} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']}")
    errors += workloads.gate_self_test(import_library())
    for error in errors:
        print(f"smoke FAILED: {error}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problems")
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("statespace_cli", "check"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run all workloads at tiny sizes and check the output schema")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    if not (ROOT / "src" / "mvnabs" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'mvnabs'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.smoke:
        return smoke()
    seconds = load_spec()["run_seconds"] if args.seconds is None else args.seconds
    try:
        result, lines, record = run_workload(args.workload, args.seed, seconds, args.trace)
    except CountDrift as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    write_record(record)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
