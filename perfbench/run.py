"""Performance benchmark of the pair-trading platform.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

``sweep``   ``run_sweep`` with every default, all pairs x 42 sets x 1 day,
            then the Tables III-V summaries; one op is one sweep.
``stream``  a supervised Figure-1 session checkpointing every 20
            intervals; one op is one session.
``serve``   a seeded server and two closed-loop keep-alive clients; one
            op is one request.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
no wrappers installed; ``sweep`` and ``stream`` scale their timings by a
machine-speed reference timed between ops (``perfbench/speed.py``).
With ``--trace 1`` it alternates plain ops with
ops run under the layer wrappers of ``perfbench/layers.py``, and reports
the per-layer metrics; the spans go to ``.perfbench/``.  Every op's output
is checked outside the timed region; the last stdout line is the JSON
result and the exit code is 1 if any check failed.  ``--toy`` shrinks
every input for the smoke test.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: End-to-end metrics and their units; every workload reports all of them.
END_TO_END = (
    ("setup_s", "s"), ("work_per_s", "1/s"), ("p50_ms", "ms"),
    ("p99_ms", "ms"), ("peak_rss_mb", "MB"),
)

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(argv: list[str]) -> list[float]:
    """Wall times of fresh interpreters that import and build the inputs.

    A user pays this on every ``repro`` invocation, and work moved into
    import time or input building shows up here rather than in the ops.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), *argv,
             "--setup-only"],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


# -- sweep and stream ---------------------------------------------------------


def measure_ops(workload, seconds: float, tracer=None, min_ops: int = 1,
                speed_samples=None):
    """Run ops until ``seconds`` have passed (and at least ``min_ops``).

    Returns per-op ``(wall, fingerprint, breakdown)``; the fingerprint
    is ``None`` for an op that raised.  With a tracer, every
    op runs under an ``op`` span and its spans and counts are taken
    afterwards.  With a ``speed_samples`` list, a machine-speed
    reference is timed after every op and appended to it.
    """
    from perfbench import speed
    from perfbench.tracer import layer_breakdown

    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < min_ops or time.perf_counter() < deadline:
        gc.collect()
        span = tracer.open("op") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out = workload.op()
        except Exception as exc:  # a failed op counts; the run goes on
            print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            out = None
        wall = time.perf_counter() - t0
        breakdown = None
        if tracer is not None:
            tracer.close(span)
            spans, counts = tracer.take()
            breakdown = dict(layer_breakdown(spans), counts=counts)
        fingerprint = workload.fingerprint(out) if out is not None else None
        del out
        ops.append((wall, fingerprint, breakdown))
        if speed_samples is not None:
            speed_samples.append(speed.reference())
    return ops


def count_failures(workload, ops) -> int:
    return sum(op[1] is None or not workload.check(op[1]) for op in ops)


def run_compute(workload, seconds: float, trace: bool,
                setup_argv: list[str]) -> dict:
    from perfbench import speed

    setups = timed_setups(setup_argv)
    workload.setup()
    measure_ops(workload, 0)  # warm-up: lazy imports and first-call caches
    if not trace:
        speed.reference()
        samples = []
        ops = measure_ops(workload, seconds, speed_samples=samples)
        rss = peak_rss_mb()
        # Timings as on the reference box: see perfbench/speed.py.
        slowdown, quiet = speed.scale(samples)
        if not quiet:
            print("other threads were busy while the speed reference ran",
                  file=sys.stderr)
        lat_ms = [1000.0 * op[0] / slowdown for op in ops]
        raw_per_s = workload.units * len(ops) / sum(op[0] for op in ops)
        metrics = {
            "setup_s": statistics.median(setups),
            "work_per_s": raw_per_s * slowdown,
            "p50_ms": quantile(lat_ms, 0.50),
            "p99_ms": quantile(lat_ms, 0.99),
            "peak_rss_mb": rss,
        }
        return result(len(ops), count_failures(workload, ops), metrics, {
            "ops": len(ops), "latency_samples": len(lat_ms),
            "slowdown": round(slowdown, 4),
            "unscaled_work_per_s": round(raw_per_s, 2),
        }, checks_ok=quiet)

    from perfbench.layers import EXACT_COUNTS, install_compute, time_metric
    from perfbench.tracer import Tracer

    # Plain and traced ops alternate, so drift in machine speed hits both.
    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while min(len(plain), len(traced)) < 2 or time.perf_counter() < deadline:
        if len(plain) <= len(traced):
            plain += measure_ops(workload, 0)
            continue
        install_compute(tracer)
        try:
            traced += measure_ops(workload, 0, tracer)
        finally:
            tracer.unpatch()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, "spans.json"))

    breakdowns = [op[2] for op in traced]
    n = len(breakdowns)
    metrics = {}
    for b in breakdowns:
        for span_name, seconds_self in b["layers"].items():
            name = time_metric(span_name)
            metrics[name] = metrics.get(name, 0.0) + seconds_self / n
    first = breakdowns[0]["counts"]
    repeat_ok = all(
        {k: b["counts"].get(k, 0) for k in EXACT_COUNTS}
        == {k: first.get(k, 0) for k in EXACT_COUNTS}
        for b in breakdowns
    )
    if not repeat_ok:
        print("exact-repeat counts differ between traced ops", file=sys.stderr)
    for key in EXACT_COUNTS:
        metrics[key] = first.get(key, 0)
    metrics["coverage"] = statistics.mean(b["coverage"] for b in breakdowns)
    metrics["rank_skew"] = statistics.mean(b["rank_skew"] for b in breakdowns)
    metrics["trace_overhead"] = statistics.median(
        op[0] for op in traced
    ) / statistics.median(op[0] for op in plain)
    ops = plain + traced
    return result(
        len(ops), count_failures(workload, ops), metrics,
        {"ops": len(ops), "traced_ops": n}, checks_ok=repeat_ok,
    )


# -- serve ----------------------------------------------------------------------

#: Requests per client in one fixed round of the traced run.
ROUND_REQUESTS = 48
#: Length of each client's slice of the seeded mix.
MIX_PER_CLIENT = 1024
#: Fewest replies a plain serve run times, so that p99_ms rests on them.
MIN_LATENCY_SAMPLES = 1000


def run_serve(seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    from perfbench import serve_load as sl

    mix = sl.build_mix(seed, sl.CLIENTS * MIX_PER_CLIENT)
    per_client = [
        mix[c * MIX_PER_CLIENT:(c + 1) * MIX_PER_CLIENT]
        for c in range(sl.CLIENTS)
    ]
    setups = []
    server = None
    peak_kb = 0
    try:
        for i in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            workdir = os.path.join(OUT_DIR, f"serve-{os.getpid()}-{i}")
            gc.collect()
            t0 = time.perf_counter()
            server = sl.Server(ROOT, workdir, seed)
            server.start()
            setups.append(time.perf_counter() - t0)
        if not trace:
            t0 = time.perf_counter()
            samples, connections = sl.drive(
                server.port, per_client, deadline=t0 + seconds,
                min_samples=0 if toy else MIN_LATENCY_SAMPLES,
            )
            wall = time.perf_counter() - t0
        else:
            layer = serve_rounds(server, per_client, seconds)
    finally:
        if server is not None:
            peak_kb = server.stop()

    if not trace:
        lat_ms = [1000.0 * s for _, s, _ in samples]
        failed = sum(not ok for _, _, ok in samples)
        metrics = {
            "setup_s": statistics.median(setups),
            "work_per_s": len(samples) / wall,
            "p50_ms": quantile(lat_ms, 0.50),
            "p99_ms": quantile(lat_ms, 0.99),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        return result(len(samples), failed, metrics, {
            "connections": connections, "latency_samples": len(lat_ms),
        })
    metrics, attempted, failed, repeat_ok = layer
    return result(attempted, failed, metrics, {}, checks_ok=repeat_ok)


def serve_rounds(server, per_client, seconds: float):
    """Fixed request rounds, plain then traced; returns per-layer metrics."""
    from perfbench import serve_load as sl
    from perfbench.layers import ROUTES

    round_lists = [reqs[:ROUND_REQUESTS] for reqs in per_client]
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while min(len(plain), len(traced)) < 2 or time.perf_counter() < deadline:
        if len(plain) <= len(traced):
            plain.append(sl.drive(server.port, round_lists))
            continue
        server.trace(True)
        samples, connections = sl.drive(server.port, round_lists)
        traced.append((samples, connections, server.trace(False)))

    counts = [
        tuple(len(spans["dispatch"].get(r, ())) for r in ROUTES) + (conns,)
        for _, conns, spans in traced
    ]
    repeat_ok = len(set(counts)) == 1
    if not repeat_ok:
        print("exact-repeat counts differ between traced rounds",
              file=sys.stderr)
    dispatch: dict[str, list[float]] = {}
    for _, _, spans in traced:
        for route, durations in spans["dispatch"].items():
            dispatch.setdefault(route, []).extend(durations)

    metrics = {}
    for route in ROUTES:
        durations = dispatch.get(route, [])
        metrics[f"serve.dispatch.{route}.ms"] = (
            1000.0 * statistics.median(durations) if durations else 0.0
        )
        metrics[f"serve.requests.{route}"] = len(durations) // len(traced)
    metrics["serve.connections"] = traced[0][1]
    traced_lat = [s for samples, _, _ in traced for _, s, _ in samples]
    plain_lat = [s for samples, _ in plain for _, s, _ in samples]
    all_dispatch = [d for ds in dispatch.values() for d in ds]
    metrics["serve.transport.ms"] = 1000.0 * (
        statistics.median(traced_lat) - statistics.median(all_dispatch)
    )
    metrics["store.scan.s"] = statistics.mean(
        spans["store_scan_s"] for _, _, spans in traced
    )
    metrics["trace_overhead"] = statistics.median(
        traced_lat
    ) / statistics.median(plain_lat)
    everything = [ok for samples, _ in plain for _, _, ok in samples] + [
        ok for samples, _, _ in traced for _, _, ok in samples
    ]
    failed = sum(not ok for ok in everything)
    return metrics, len(everything), failed, repeat_ok


# -- output ---------------------------------------------------------------------


def result(attempted, failed, metrics, info, checks_ok=True) -> dict:
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and checks_ok,
        "metrics": metrics,
        "info": info,
    }


def report(res: dict, trace: bool) -> dict:
    """Print a readable summary; return the contract's JSON object."""
    from perfbench.layers import per_layer_names

    if trace:
        names = [(n, unit_of(n)) for n in per_layer_names()]
    else:
        names = list(END_TO_END)
    metrics = {}
    for name, unit in names:
        value = res["metrics"].get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<36} {value:>14.6g} {unit}")
    ratio = res["failed"] / res["attempted"]
    print(f"{'error_ratio':<36} {ratio:>14.6g} ({res['failed']} of "
          f"{res['attempted']} failed)  {res['info']}")
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def unit_of(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name in ("coverage", "rank_skew", "trace_overhead"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "stream", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    trace = bool(args.trace)

    if args.workload == "serve":
        res = run_serve(args.seed, args.seconds, trace, args.toy)
    else:
        from perfbench.compute import Stream, Sweep

        cls = {"sweep": Sweep, "stream": Stream}[args.workload]
        workload = cls(args.seed, symbols=3) if args.toy else cls(args.seed)
        setup_argv = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", "0"] + (["--toy"] if args.toy else [])
        if args.setup_only:
            workload.setup()
            return 0
        res = run_compute(workload, args.seconds, trace, setup_argv)
    out = report(res, trace)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
