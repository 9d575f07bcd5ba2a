"""Best-of-N (BoN) benchmark for latentscale.

One closed-loop client in one process: the next prompt is served only
after the previous request's selected image has been returned. A request
runs prompt -> N candidates -> verifier scores -> select_best -> the
winner resumed/decoded, and is timed up to that image; the oracle check
that follows is not timed.

The request list is a function of ``--seed`` and ``--seconds`` only, so
quality metrics and FLOPs repeat exactly for the same arguments. Its
length is sized so that one pass takes less than ``--seconds`` on a
2-core Xeon; the time left is filled by serving the list again from its
start, for timing only.

Run from the repository root:

    python3 bonbench/run.py --workload bon_hidden --seed 1 --seconds 35 --trace 0

The last line of standard output is the result JSON; the line before it
is the full record (environment, counts, all metrics). ``--trace 1``
serves the first half of the list twice, each request untraced and then
traced, and reports the per-layer metrics; its spans are written to
``bonbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

try:
    import adapter
except ImportError as exc:
    sys.exit(f"bonbench: {exc}")
from spans import Tracer, qualified_name

DEFAULT_SEED = 1
HELD_OUT_SEED = 2   # kept out of tuning; a later speed claim must also hold here
SETUP_REPEATS = 5
WARMUP_REQUESTS = 2
MIN_REQUESTS = 100  # so request_ms_p90 has at least ten samples beyond it
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    n: int                      # candidates per request
    verifier_mode: str | None   # None: no verifier, the single candidate is served
    metered: bool               # a MeterContext per request
    requests_per_s: float       # list length per second of --seconds


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    "bon_hidden": Workload(32, "hidden_state", True, 6.0),
    "bon_pixel": Workload(8, "pixel_reencode", True, 11.0),
    "gen_single": Workload(1, None, False, 150.0),
}


@dataclass
class Pass:
    """What one replay of a request list observed."""
    latencies_s: list[float] = field(default_factory=list)
    best: list[int | None] = field(default_factory=list)
    flops: list[int] = field(default_factory=list)
    bytes_peak: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    passed: int = 0
    any_pass: int = 0
    yes: int = 0
    yes_clean: int = 0

    @property
    def attempted(self) -> int:
        return len(self.best)


def request_count(wl: Workload, seconds: int) -> int:
    return max(MIN_REQUESTS, round(seconds * wl.requests_per_s))


def serve_one(stack, wl: Workload, i: int, req, res: Pass,
              tracer: Tracer | None = None) -> None:
    """Serve request ``i``, time it up to the selected image, then check it."""
    t0 = time.perf_counter()
    try:
        ctx = adapter.new_meter() if wl.metered else None
        if tracer is not None:
            tracer.request, tracer.meter = i, ctx
        with tracer.span("bon.request") if tracer is not None else nullcontext():
            out = adapter.serve(stack, req, ctx)
    except Exception as exc:  # a failed request is counted and the run goes on
        res.failures.append(f"request {i}: {exc!r}")
        res.best.append(None)
        return
    res.latencies_s.append(time.perf_counter() - t0)
    res.best.append(out.best)
    res.flops.append(adapter.meter_flops(ctx))
    res.bytes_peak.append(adapter.meter_bytes_peak(ctx))
    consistent, passed = adapter.check(req, out)
    if not consistent:
        res.failures.append(f"request {i}: selected image disagrees with its candidate")
    res.passed += passed
    res.any_pass += not all(out.corrupted)
    res.yes += sum(out.decisions)
    res.yes_clean += sum(d and not c for d, c in zip(out.decisions, out.corrupted))


def replay(stack, wl: Workload, requests, deadline: float | None = None) -> Pass:
    """Serve ``requests`` in order, stopping early once ``deadline`` passes."""
    res = Pass()
    for i, req in enumerate(requests):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        serve_one(stack, wl, i, req, res)
    return res


def replay_traced(stack, wl: Workload, requests) -> tuple[Pass, Pass, Tracer]:
    """Serve each request untraced and then traced, back to back, so both
    passes see the same machine load; returns (untraced, traced, tracer)."""
    plain, traced, tracer = Pass(), Pass(), Tracer()
    for i, req in enumerate(requests):
        serve_one(stack, wl, i, req, plain)
        with tracer.installed(adapter.TRACE_SPANS, adapter.TRACE_COUNTS):
            serve_one(stack, wl, i, req, traced, tracer)
    return plain, traced, tracer


def flops_per_image(stack, wl: Workload, requests, res: Pass) -> int:
    if wl.metered and res.flops:
        return res.flops[0]
    # unmetered workloads serve their first request once more with a meter, untimed
    ctx = adapter.new_meter()
    adapter.serve(stack, requests[0], ctx)
    return adapter.meter_flops(ctx)


def end_to_end(wl: Workload, res: Pass, latencies_s: list[float],
               setup_s: list[float], flops: int) -> dict:
    """Quality from the list's single pass ``res``; timing from all of
    ``latencies_s``."""
    p50, p90 = np.percentile(latencies_s, [50, 90]) * 1e3
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "candidates_per_s": (wl.n * len(latencies_s) / sum(latencies_s), "1/s"),
        "request_ms_p50": (float(p50), "ms"),
        "request_ms_p90": (float(p90), "ms"),
        "flops_per_image": (flops, "flop"),
        "selected_pass_rate": (res.passed / res.attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_totals(tracer: Tracer) -> dict[str, list[int]]:
    """layer -> [calls, self ns, self FLOPs]. Spans outside the wrapped
    layers (the request itself, so driver and unwrapped library code) go
    to "other"."""
    layer_of = {qualified_name(o, a): label for o, a, label in adapter.TRACE_SPANS}
    totals = {label: [0, 0, 0] for label in [*layer_of.values(), "other"]}
    for name, figures in tracer.self_totals().items():
        acc = totals[layer_of.get(name, "other")]
        for k, v in enumerate(figures):
            acc[k] += v
    return totals


def per_layer(wl: Workload, plain: Pass, traced: Pass, tracer: Tracer,
              spent: int, full: int) -> dict:
    totals = layer_totals(tracer)
    r = traced.attempted

    def self_ms(label):
        return (totals[label][1] / r / 1e6, "ms")

    def flops_of(label):
        return (totals[label][2] / r, "flop")

    return {
        "toygen.blocks.self_ms": self_ms("toygen.blocks"),
        "toygen.blocks.calls": (totals["toygen.blocks"][0] / r, "count"),
        "toygen.blocks.flops": flops_of("toygen.blocks"),
        "toygen.matmul.self_ms": self_ms("toygen.matmul"),
        "toygen.matmul.flops": flops_of("toygen.matmul"),
        "toygen.decode.self_ms": self_ms("toygen.decode"),
        "scenes.candidate_scene.self_ms": self_ms("scenes.candidate_scene"),
        "scenes.render.self_ms": self_ms("scenes.render"),
        "verifier.blocks.self_ms": self_ms("verifier.blocks"),
        "verifier.blocks.flops": flops_of("verifier.blocks"),
        "verifier.connector.self_ms": self_ms("verifier.connector"),
        "verifier.scorer.self_ms": self_ms("verifier.scorer"),
        "verifier.features.self_ms": self_ms("verifier.features"),
        "verifier.encode_pixels.self_ms": self_ms("verifier.encode_pixels"),
        "verifier.yes_precision": (traced.yes_clean / traced.yes if traced.yes else 0.0,
                                   "fraction"),
        "numcore.meter.register_calls": (
            tracer.counts["numcore.meter.register_calls"] / r, "count"),
        "numcore.tensor_inits": (tracer.counts["numcore.tensor_inits"] / r, "count"),
        "numcore.meter.bytes_peak": (max(traced.bytes_peak, default=0), "bytes"),
        "bon.kept_frac": (1 / wl.n, "fraction"),
        "bon.flops_saved_frac": (1 - spent / (wl.n * full), "fraction"),
        "bon.any_pass_frac": (traced.any_pass / r, "fraction"),
        "trace.overhead_frac": (statistics.median(traced.latencies_s)
                                / statistics.median(plain.latencies_s) - 1, "fraction"),
    }


def layer_split(tracer: Tracer) -> dict[str, float]:
    """Share of traced request time spent in each layer's own code."""
    request_ns = sum(s.end - s.start for s in tracer.spans if s.name == "bon.request")
    split = {label: t[1] / request_ns for label, t in layer_totals(tracer).items()}
    return dict(sorted(split.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------- environment

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use; None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str | None:
    git = Path(__file__).resolve().parent.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, requests: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "requests": requests,
    }


# ---------------------------------------------------------------- main

def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Returns (full record, result line)."""
    wl = WORKLOADS[workload]
    setup_s = []
    for _ in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        stack = adapter.setup(wl.verifier_mode)
        setup_s.append(time.perf_counter() - t0)

    requests = adapter.make_requests(seed, request_count(wl, seconds), wl.n)
    replay(stack, wl, requests[:WARMUP_REQUESTS])
    record = {"environment": environment(workload, seed, len(requests)),
              "setup_runs_s": setup_s}

    if not trace:
        start = time.perf_counter()
        res = replay(stack, wl, requests)
        # time left after the list: serve it again from the start, for timing only
        fill = replay(stack, wl, itertools.cycle(requests), deadline=start + seconds)
        spent = flops_per_image(stack, wl, requests, res)
        failures = res.failures + fill.failures
        attempted = res.attempted + fill.attempted
        correct = not failures and len(set(res.flops + fill.flops)) <= 1
        metrics = end_to_end(wl, res, res.latencies_s + fill.latencies_s, setup_s, spent)
        record["timed_requests"] = len(res.latencies_s) + len(fill.latencies_s)
    else:
        # half of the list, each request served untraced and then traced
        plain, traced, tracer = replay_traced(stack, wl, requests[:len(requests) // 2])
        spent = flops_per_image(stack, wl, requests, plain)
        full = adapter.full_candidate_flops(stack, requests[0])
        same = traced.best == plain.best and traced.flops == plain.flops
        failures = plain.failures + traced.failures
        attempted = plain.attempted + traced.attempted
        correct = not failures and same and len(set(plain.flops)) <= 1
        metrics = per_layer(wl, plain, traced, tracer, spent, full)
        record.update(traced_requests=traced.attempted, absent=tracer.absent,
                      split=layer_split(tracer), traced_selects_same=same)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")

    record.update(failed_frac=len(failures) / attempted, failures=failures[:10])
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["metrics"] = metrics
    result = {"correct": bool(correct), "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
