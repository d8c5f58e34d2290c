"""Run one strictcat benchmark workload and print its metrics.

    python3 bench/run.py --workload adapter-walks --seed 1 --seconds 20 --trace 0

One caller in one thread runs ops back to back (a closed loop) on inputs
made from ``--seed``.  With ``--trace 0`` the ops run until they have
taken ``--seconds``, rounded up to a whole block of inputs; each op's
time is scaled to a reference host speed (see ``speed``) and each output
is checked between ops, off the clock.  The last line of output holds
the end-to-end metrics.  With ``--trace 1`` each op of a fixed prefix of
the inputs runs untraced and then traced, and the last line holds the
per-layer metrics.  The line before the last holds information that is
not gated.  See ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import speed
from checkout import BENCH, PACKAGE, use_checkout_src
from spans import OFF, Spans

SETUP_SAMPLES = 7
LIMIT_TIMEOUT_S = 10


def set_up(name: str):
    """Import the engine, build the workload's signatures and models and run
    the warm-up pass.  Returns the workload and the seconds taken, not
    counting the making of the warm-up inputs."""
    start = perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name]()
    built = perf_counter()
    blocks = -(-workloads.WARMUP_OPS // wl.block)
    warm = wl.make_inputs(workloads.WARMUP_SEED, blocks)[:workloads.WARMUP_OPS]
    resumed = perf_counter()
    for inp in warm:
        wl.op(inp, OFF)
    return wl, (built - start) + (perf_counter() - resumed)


def child(*args: str, timeout: float) -> str:
    done = subprocess.run([sys.executable, str(BENCH / "probe.py"), *args],
                          capture_output=True, text=True, timeout=timeout,
                          check=True)
    return done.stdout


def run_op(wl, inp, tr):
    try:
        return wl.op(inp, tr)
    except Exception as err:  # a failed op is counted, not fatal
        return err


class Tally:
    """Ops attempted and failed, and the equal-by-construction queries they
    posed and the engine answered as equal."""

    def __init__(self):
        self.attempted = self.failed = self.queries = self.decided = 0
        self.first_error = None

    def add(self, wl, inp, out) -> None:
        """Check one op's output against the benchmark's references."""
        self.attempted += 1
        try:
            if isinstance(out, Exception):
                raise out  # an op that raised fails like a wrong answer
            ok, queries, decided = wl.check(inp, out)
        except Exception as err:
            self.first_error = self.first_error or repr(err)[:300]
            ok, queries, decided = False, 0, 0
        self.queries += queries
        self.decided += decided
        self.failed += not ok


def measure(wl, pool: list, seconds: float):
    """Closed loop over whole blocks of the pool until the ops have run for
    ``seconds``.  After each op, off the clock, the host's speed is taken
    (see ``speed``) and the output is checked.

    Returns the tally, the op latencies and the kernel time after each op."""
    tally, latencies, kernels = Tally(), [], []
    busy = 0.0
    while busy < seconds or tally.attempted % wl.block:
        inp = pool[tally.attempted % len(pool)]
        start = perf_counter()
        out = run_op(wl, inp, OFF)
        latencies.append(perf_counter() - start)
        busy += latencies[-1]
        kernels.append(speed.kernel_seconds())
        tally.add(wl, inp, out)
    return tally, latencies, kernels


def measure_traced(wl, pool: list, seconds: float):
    """Each op of a fixed prefix of the pool runs untraced and then traced.

    The prefix is the first ``trace_blocks_per_s * seconds`` blocks, so
    the spans and counts of one seed repeat exactly.  Returns the tally,
    the spans and the traced time over the untraced."""
    tally, tracer = Tally(), Spans()
    plain = traced = 0.0
    ops = max(1, round(seconds * wl.trace_blocks_per_s)) * wl.block
    for op_id in range(ops):
        inp = pool[op_id % len(pool)]
        t0 = perf_counter()
        out = run_op(wl, inp, OFF)
        t1 = perf_counter()
        tracer.begin_op(op_id)
        traced_out = run_op(wl, inp, tracer)
        tracer.end_op()
        t2 = perf_counter()
        plain += t1 - t0
        traced += t2 - t1
        tally.add(wl, inp, out)
        tally.add(wl, inp, traced_out)
    return tally, tracer, traced / plain


def end_to_end(tally: Tally, latencies: list, kernels: list,
               setup_s: float) -> dict:
    """The gated metrics; every time is scaled to the reference host speed."""
    correct = tally.attempted - tally.failed
    scaled = speed.scale(latencies, kernels)
    cuts = statistics.quantiles(scaled, n=100, method="inclusive")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_ops_s": (correct / sum(scaled), "ops/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_p99_ms": (cuts[98] * 1e3, "ms"),
        "correct_ratio": (correct / tally.attempted, "ratio"),
        "decided_ratio": (tally.decided / max(tally.queries, 1), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def unscaled(tally: Tally, latencies: list, kernels: list) -> dict:
    """The same timings as measured, and the host's speed, for the record."""
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {"throughput_ops_s": (tally.attempted - tally.failed) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p99_ms": cuts[98] * 1e3,
            "host_speed": speed.REFERENCE_S / statistics.median(kernels)}


def per_layer(tracer: Spans, overhead: float) -> dict:
    import workloads
    totals = tracer.totals()
    out = {}
    for name in workloads.CALLS:
        calls, seconds = totals.get(name, (0, 0.0))
        out[name + ".calls"] = (calls, "count")
        out[name + ".time_s"] = (seconds, "s")
    for name in workloads.COUNTS:
        unit = "bytes" if name == "render.svg_bytes" else "count"
        out[name] = (tracer.counts[name], unit)
    out["op.calls"] = (totals["op"][0], "count")
    out["op.time_s"] = (totals["op"][1], "s")
    out["op.self_time_s"] = (totals["op.self"][1], "s")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def src_lines() -> dict[str, int]:
    lines = {p.stem: len(p.read_text().splitlines())
             for p in sorted(PACKAGE.glob("*.py"))}
    return {"total": sum(lines.values()), **lines}


def limits() -> dict:
    import probe
    out = {}
    for name in probe.LIMITS:
        try:
            out["limits." + name] = json.loads(
                child("limit", name, timeout=LIMIT_TIMEOUT_S))
        except subprocess.TimeoutExpired:
            out["limits." + name] = {"result": "timeout",
                                     "seconds": LIMIT_TIMEOUT_S}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    use_checkout_src()
    import inputs
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    wl, _ = set_up(args.workload)
    pool = wl.make_inputs(args.seed, wl.pool_blocks)
    info = {"workload": args.workload, "seed": args.seed,
            "pool_size": len(pool),
            "input_fingerprint": inputs.fingerprint(pool),
            "input_sizes": inputs.histogram(pool)}
    gc.collect()
    gc.freeze()

    if args.trace:
        tally, tracer, overhead = measure_traced(wl, pool, args.seconds)
        metrics = per_layer(tracer, overhead)
        trace_dir = BENCH / "out"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_file)
        info["trace_file"] = str(trace_file.relative_to(BENCH.parent))
        info.update(limits())
    else:
        tally, latencies, kernels = measure(wl, pool, args.seconds)
        setup_s = statistics.median(
            float(child("setup", args.workload, timeout=120))
            for _ in range(SETUP_SAMPLES))
        metrics = end_to_end(tally, latencies, kernels, setup_s)
        info["unscaled"] = unscaled(tally, latencies, kernels)

    info.update(ops=tally.attempted,
                fail_ratio=tally.failed / tally.attempted,
                first_error=tally.first_error, src_lines=src_lines())
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
