#!/usr/bin/env python3
"""verseqa benchmark: one workload per run, timed in one process.

    python3 bench/run.py --workload train-window3 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. The run generates its inputs from ``--seed``, prepares what the
workload loads (untimed), sets up the workload several times (``setup_s``
is the median), then calls the workload's lanes in a closed loop, one
call after the other, until ``--seconds`` have passed and the calls the
loss needs are made. Every call's outputs are checked; a call that raises
or fails a check counts as failed.

stdout gets two JSON lines. The first holds provenance and the detailed
figures (per-lane rates, latency percentiles with sample counts). The last
is the result: ``correct``, ``attempted``, ``failed`` and ``metrics``, which
holds the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0`` and
its ``per_layer`` metrics with ``--trace 1``. The traced run makes every
call untraced and then traced, and reports the tracing overhead between the
two.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads: unpinned runs on a small
# shared machine swing by about 2x.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
import tracing  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from workloads import NAMES, VerseqaModules, make  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def _import_program():
    sys.path.insert(0, SRC)
    try:
        import verseqa
    except ImportError as exc:
        raise SystemExit(f"cannot import verseqa from {SRC}: {exc}")
    if not os.path.abspath(verseqa.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"verseqa imported from {verseqa.__file__}, not {SRC}")


def _metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(seed: int) -> dict:
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except Exception:  # noqa: BLE001 - provenance is best effort
        pass
    src_lines = 0
    pkg = os.path.join(SRC, "verseqa")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                src_lines += sum(1 for _ in f)
    return {
        "thread_pins": THREAD_PINS,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "git_commit": _git_commit(),
        "seed": seed,
        "src_verseqa_lines": src_lines,
    }


class Lane:
    """The untraced calls of one lane."""

    def __init__(self):
        self.seconds: list[float] = []
        self.rates: list[float] = []    # tokens per second of each call
        self.norm_rates: list[float] = []  # the same at the nominal machine speed
        self.done: Counter = Counter()  # tokens, pairs, groups
        self.timings: Counter = Counter()
        self.quality: dict[str, list[float]] = {}  # loss, f1, mrr of the calls that count

    def add(self, call, timing) -> None:
        self.seconds.append(timing.seconds)
        self.rates.append(call.tokens / timing.seconds)
        self.norm_rates.append(call.tokens / timing.norm_seconds)
        self.done["tokens"] += call.tokens
        self.done.update(call.counts)
        self.timings.update(call.timings)
        for name, value in call.quality.items():
            self.quality.setdefault(name, []).append(value)

    def rate(self, unit: str = "tokens", part: str | None = None) -> float:
        """``unit`` done per second of whole calls, or of the named part."""
        seconds = self.timings[part] if part else sum(self.seconds)
        return self.done[unit] / seconds if seconds else 0.0

    def median_rate(self, normalized: bool = False) -> float:
        rates = self.norm_rates if normalized else self.rates
        return statistics.median(rates) if rates else 0.0

    def mean(self, name: str) -> float:
        values = self.quality.get(name)
        return statistics.fmean(values) if values else float("nan")


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _detail(name: str, lanes: dict, calls_ms: list[float]) -> dict:
    d = {}
    if name == "train-window3":
        for kind, lane in lanes.items():
            d[f"pairs_per_s.{kind}"] = (lane.rate("pairs", "train"), "pairs/s")
            d[f"val_loss.{kind}"] = (lane.mean("loss"), "nats")
    elif name == "rank-chapter":
        for kind, lane in lanes.items():
            d[f"pairs_per_s.{kind}"] = (lane.rate("pairs"), "pairs/s")
            d[f"f1.{kind}"] = (lane.mean("f1"), "share")
            d[f"mrr.{kind}"] = (lane.mean("mrr"), "share")
        d["query_ms.p50"] = (_percentile(calls_ms, 50), "ms")
        d["query_ms.p90"] = (_percentile(calls_ms, 90), "ms")
        d["query_ms.samples"] = (len(calls_ms), "count")
    else:
        builds = [lanes["window-10"], lanes["chapter"]]
        build_s = sum(lane.timings["build"] for lane in builds)
        d["groups_per_s"] = (sum(lane.done["groups"] for lane in builds) / build_s
                             if build_s else 0.0, "groups/s")
        d["cbow_tokens_per_s"] = (lanes["cbow"].rate("tokens", "cbow"), "tokens/s")
        d["cbow_loss"] = (lanes["cbow"].mean("loss"), "nats")
        d["cbow_vocab"] = (lanes["cbow"].mean("vocab"), "types")
    for lane_name, lane in lanes.items():
        d[f"lane.{lane_name}.calls"] = (len(lane.seconds), "count")
        d[f"lane.{lane_name}.tokens_per_s"] = (lane.rate(), "tokens/s")
        d[f"lane.{lane_name}.median_tokens_per_s"] = (lane.median_rate(), "tokens/s")
        d[f"lane.{lane_name}.norm_tokens_per_s"] = (lane.median_rate(True), "tokens/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in d.items()}


def _timed_call(wl, lane: str, k: int, vq, sampler, tracer=None):
    """One closed-loop call, traced when ``tracer`` is given and else timed
    with machine-speed sampling; its outputs are checked after the clock
    stops. Returns (call, timing, problems)."""
    if tracer is not None:
        undo = tracing.install(tracer, vq)
        tracer.op += 1
        tracer.model = lane
        root = tracer.open(f"op.{lane}", "harness")
    call, problems = None, []
    with sampler.measure(sample=tracer is None) as timing:
        try:
            call = wl.call(lane, k)
        except Exception:  # noqa: BLE001 - a raising call is a failed call
            problems = [traceback.format_exc()]
    if tracer is not None:
        tracer.close(root)
        tracing.uninstall(undo)
    if call is not None:
        try:
            problems = call.verify()
        except Exception:  # noqa: BLE001 - a failing check is a failed call
            problems = [traceback.format_exc()]
    return call, timing, problems


def run(args) -> int:
    specs = _metric_specs()
    vq = VerseqaModules()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)  # inside the checkout
    try:
        wl = make(args.workload, vq, workdir)
        tracer = tracing.Tracer() if args.trace else None
        sampler = SpeedSampler()
        wl.prepare(args.seed)
        setup_s, setup_norm_s = [], []
        for i in range(SETUP_REPEATS):
            traced = tracer is not None and i == SETUP_REPEATS - 1
            if traced:  # the last set-up is traced as operation 0
                undo = tracing.install(tracer, vq)
                root = tracer.open("setup", "harness")
            with sampler.measure(sample=not traced) as timing:
                wl.setup(args.seed)
            setup_s.append(timing.seconds)
            setup_norm_s.append(timing.norm_seconds)
            if traced:
                tracer.close(root)
                tracing.uninstall(undo)
                kept = {k: tracer.counts[k] for k in ("checkpoint_bytes", "checkpoint_loads")}
                tracer.counts.clear()
                tracer.counts.update(kept)
                tracer.validation_s = 0.0

        lanes = {name: Lane() for name in wl.lanes}
        overhead: list[float] = []    # traced / untraced seconds of the same call
        calls_ms: list[float] = []
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        k = 0
        while True:
            for lane_name in wl.lanes:
                untraced_s = None
                for traced in ((False, True) if tracer else (False,)):
                    attempted += 1
                    call, timing, problems = _timed_call(wl, lane_name, k, vq, sampler,
                                                         tracer if traced else None)
                    if problems:
                        failed += 1
                        print(f"FAILED {lane_name} call {k}: " + "; ".join(problems),
                              file=sys.stderr)
                    elif traced:
                        if untraced_s:
                            overhead.append(timing.seconds / untraced_s - 1.0)
                    else:
                        untraced_s = timing.seconds
                        lanes[lane_name].add(call, timing)
                        calls_ms.append(timing.seconds * 1e3)
            k += 1
            if time.perf_counter() >= deadline and k >= wl.loss_calls:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = _detail(args.workload, lanes, calls_ms)
    detail["setup_s.samples"] = {"value": setup_s, "unit": "s"}
    detail["failed_share"] = {"value": failed / attempted, "unit": "share"}
    print(json.dumps({"workload": args.workload, "provenance": _provenance(args.seed),
                      "detail": detail}))

    if tracer:
        values = tracing.layer_metrics(tracer, k)
        values["trace.overhead"] = statistics.median(overhead) if overhead else 0.0
        roots = sum(s[3] - s[2] for s in tracer.spans if s[4] < 0 and s[5] > 0)
        layer_self = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
        values["trace.attributed_share"] = layer_self * k / roots if roots else 0.0
        values["trace.spans"] = float(len(tracer.spans))
        wanted = specs["per_layer"]
    else:
        losses = [lane.mean("loss") for lane in lanes.values() if "loss" in lane.quality]
        values = {
            "setup_s": statistics.median(setup_norm_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "loss": statistics.fmean(losses) if losses else 0.0,
        }
        for i, lane in enumerate(lanes.values(), start=1):
            values[f"lane{i}_norm_tokens_per_s"] = lane.median_rate(True)
        wanted = specs["end_to_end"]
    if set(values) != set(wanted):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(wanted))} do not match "
                         "BENCHMARK.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
