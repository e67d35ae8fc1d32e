"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload mle-exp-tlr --seed 1 --seconds 20 --trace 0

Runs one workload of ``perfbench/workloads.py`` on inputs drawn from
``--seed``: three timed set-ups, then a closed loop with one caller for
``--seconds`` seconds, then the dense FP64 reference check of sampled
outputs (outside every timed section).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by
name and unit, the host fingerprint and the seed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` reports its per-layer metrics instead: the span wrappers
of ``perfbench/tracing.py`` trace the set-ups and every second
operation of the loop; the operations between pass through untraced,
which gives the tracing overhead.  ``perfbench/README.md`` defines
every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import pathlib
import platform
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3


class SelfCheckError(RuntimeError):
    """The traced run did not observe the layers the workload uses."""


def import_program():
    """Import ``repro`` from this checkout's ``src``, never from an
    installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found under {src}")
    sys.path.insert(0, str(src))
    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# host
# ----------------------------------------------------------------------
def _blas_runtimes() -> list[dict]:
    """Config string and thread count of each OpenBLAS loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({
                line.split()[-1] for line in fh
                if "openblas" in line.lower() and "/" in line
            })
    except OSError:
        return []
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": os.path.basename(path)}
        for suffix in ("", "64_"):
            for prefix in ("openblas_", "scipy_openblas_"):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    info["config"] = get_config().decode().strip()
                    info["threads"] = get_threads()
        out.append(info)
    return out


def host_fingerprint() -> dict:
    import numpy
    import scipy
    from scipy import linalg  # noqa: F401  (loads SciPy's BLAS)

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_runtimes": _blas_runtimes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the host's CPUs so far (Linux):
    steal is time the hypervisor ran someone else on our CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark, so the peak
    excludes input generation (Linux; elsewhere the process peak)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mib() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def _log_failure(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _span(rec, layer):
    """The benchmark's own span around one operation, if tracing."""
    return rec.region(layer) if rec is not None else contextlib.nullcontext()


def run_setups(workload, inp, rec=None, top=None):
    """``SETUPS`` fresh set-ups; keeps the last one's state.  The state
    of a previous set-up is released before the next starts, so the
    peak memory is that of one."""
    times, failed = [], 0
    state = sample = None
    for k in range(SETUPS):
        state = sample = None
        gc.collect()
        if rec is not None:
            rec.phase = f"setup{k}"
        t0 = time.perf_counter()
        try:
            with _span(rec, top):
                state, sample = workload.setup(inp)
            times.append(time.perf_counter() - t0)
        except Exception:
            failed += 1
            _log_failure(f"set-up {k}")
        finally:
            if rec is not None:
                rec.phase = None
    if state is None:
        raise RuntimeError("the last set-up failed; nothing to measure")
    return state, sample, times, failed


def run_stream(workload, state, requests, seconds, min_ops, rec=None, top=None):
    """Closed loop with one caller: the next operation starts when the
    previous one returns.  Runs for ``seconds`` and at least
    ``min_ops`` operations.

    With a recorder, every second operation is traced and the others
    pass straight through the installed wrappers, so the traced and
    untraced latencies (``lat``, ``lat_untraced``) come from the same
    stretch of the stream and their ratio is the tracing overhead.
    """
    latencies, untraced, samples, failed = [], [], [], 0
    start = time.perf_counter()
    for i, request in enumerate(requests):
        if i >= min_ops and time.perf_counter() - start >= seconds:
            break
        traced = rec is not None and i % 2 == 1
        if traced:
            rec.phase = "stream"
        t0 = time.perf_counter()
        try:
            with _span(rec if traced else None, top):
                out = workload.run(state, request)
            elapsed = time.perf_counter() - t0
            (latencies if traced or rec is None else untraced).append(elapsed)
            if i % workload.sample_every == 0:
                samples.append(out)
        except Exception:
            failed += 1
            if failed == 1:
                _log_failure(f"operation {i}")
        finally:
            if traced:
                rec.phase = None
    return {"lat": latencies, "lat_untraced": untraced, "samples": samples,
            "failed": failed, "wall": time.perf_counter() - start}


def measure(workload, inp, seconds, min_ops, rec=None, top=None):
    """Set-ups, untimed warm-up operations, then the timed loop."""
    state, first, setup_times, setup_failed = run_setups(workload, inp, rec, top)
    requests = workload.requests(inp)
    warm = run_stream(workload, state, requests, 0.0, workload.warmup)
    before = workload.counters(state)
    stream = run_stream(workload, state, requests, seconds, min_ops, rec, top)
    stream["counters"] = (before, workload.counters(state))
    stream["samples"].insert(0, first)
    stream["attempted"] = (
        SETUPS + len(warm["lat"]) + warm["failed"] + len(stream["lat"])
        + len(stream["lat_untraced"]) + stream["failed"]
    )
    stream["failed"] += setup_failed + warm["failed"]
    stream["setup_times"] = setup_times
    return state, stream


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """p99 when at least ten samples lie beyond it, else the slowest."""
    if len(latencies) >= 1000:
        return statistics.quantiles(latencies, n=100)[98], "p99"
    return max(latencies), "max"


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def factorize_work(plan) -> tuple[float, float]:
    """Modeled flops and bytes of one factorization under ``plan``
    (op x precision x dense/low-rank, with the plan's ranks)."""
    from repro.perfmodel.kernelmodel import task_bytes, task_flops
    from repro.runtime import cholesky_tasks, shape_for_task

    flops = nbytes = 0.0
    for task in cholesky_tasks(plan.nt):
        shape = shape_for_task(task, plan.layout, plan)
        flops += task_flops(shape)
        nbytes += task_bytes(shape)
    return flops, nbytes


def layer_metrics(workload, rec, stream) -> dict:
    from tracing import LAYERS, ORCHESTRATION, median_or_zero

    busy, calls, top = rec.self_times("stream")
    ops = max(1, len(top))
    count = lambda key: rec.counts.get(("stream", key), 0.0)  # noqa: E731
    m = {}
    m["kernels.busy_s"] = busy["kernels"] / ops
    m["kernels.entries"] = count("kernels.entries") / ops
    m["kernels.entries_per_s"] = (
        count("kernels.entries") / busy["kernels"] if busy["kernels"] else 0.0
    )
    m["geometry.busy_s"] = busy["geometry"] / ops
    for key in ("hits", "misses", "bytes"):
        m[f"geometry.{key}"] = count(f"geometry.{key}") / ops

    plans = rec.plans["stream"]
    factorizations = rec.factorizations["stream"]
    if not plans:  # serving: the plan factored in set-up
        plans = [p for k in range(SETUPS) for p in rec.plans[f"setup{k}"]]
        factorizations = [
            f for k in range(SETUPS) for f in rec.factorizations[f"setup{k}"]
        ]
    tiles = count("compression.tiles")
    lr_stream = sum(sum(p.use_lr.values()) for p in rec.plans["stream"])
    m["compression.busy_s"] = busy["compression"] / ops
    m["compression.tiles"] = tiles / ops
    m["compression.lr_kept_ratio"] = lr_stream / tiles if tiles else 0.0
    m["compression.mean_rank"] = (
        count("compression.rank_sum") / tiles if tiles else 0.0
    )

    m["assembly.self_s"] = busy["assembly"] / ops
    nplans = max(1, len(plans))
    for bits in (64, 32, 16):
        m[f"plan.fp{bits}_tiles"] = sum(
            sum(int(p) == bits for p in plan.precisions.values())
            for plan in plans
        ) / nplans
    m["plan.lr_tiles"] = sum(sum(p.use_lr.values()) for p in plans) / nplans
    m["plan.band_size"] = sum(p.band_size_dense for p in plans) / nplans
    m["plan.factor_bytes"] = (
        sum(f[1] for f in factorizations) / len(factorizations)
        if factorizations else 0.0
    )

    work = [factorize_work(plan) for plan, _ in rec.factorizations["stream"]]
    flops = sum(w[0] for w in work)
    tasks = count("factorize.tasks")
    m["factorize.busy_s"] = busy["factorize"] / ops
    m["factorize.tasks"] = tasks / ops
    m["factorize.us_per_task"] = (
        1e6 * busy["factorize"] / tasks if tasks else 0.0
    )
    m["factorize.computed_gflop"] = flops / 1e9 / ops
    m["factorize.computed_gbytes"] = sum(w[1] for w in work) / 1e9 / ops
    m["factorize.gflops"] = (
        flops / 1e9 / busy["factorize"] if busy["factorize"] else 0.0
    )
    m["factorize.densified_tiles"] = count("factorize.densified_tiles") / ops
    m["factorize.retries"] = count("factorize.retries") / ops

    m["solve.busy_s"] = busy["solve"] / ops
    m["solve.calls"] = calls["solve"] / ops
    m["solve.rhs_columns"] = count("solve.rhs_columns") / ops

    m["engine.self_s"] = busy["engine"] / ops
    m["serving.self_s"] = busy["serving"] / ops
    before, after = stream["counters"]
    delta = lambda key: after.get(key, 0) - before.get(key, 0)  # noqa: E731
    lookups = delta("cross_hits") + delta("cross_misses")
    m["serving.cross_hit_ratio"] = (
        delta("cross_hits") / lookups if lookups else 0.0
    )
    m["serving.cross_cache_bytes"] = float(after.get("cross_cache_bytes", 0))
    m["serving.tile_casts"] = float(after.get("tile_casts", 0))
    m["model.self_s"] = busy["model"] / ops

    total = sum(busy.values())
    orchestration = sum(busy[layer] for layer in ORCHESTRATION)
    m["trace.layer_coverage"] = 1.0 - orchestration / total if total else 0.0
    m["trace.overhead"] = (
        statistics.median(stream["lat"])
        / statistics.median(stream["lat_untraced"])
    )
    for layer in LAYERS:
        m[f"setup.{layer}_s"] = median_or_zero(
            rec.self_times(f"setup{k}")[0][layer] for k in range(SETUPS)
        )

    problems = [
        f"layer {layer!r} recorded no calls in the traced timed section"
        for layer in workload.expect if not calls[layer]
    ]
    phases = ["stream"] + [f"setup{k}" for k in range(SETUPS)]
    problems += [
        f"layer {layer!r} recorded calls, but {workload.name} must bypass it"
        for layer in workload.forbid
        if any(rec.self_times(phase)[1][layer] for phase in phases)
    ]
    if problems:
        raise SelfCheckError("; ".join(problems))
    return m


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool,
        n: int | None = None):
    """One benchmark run; returns ``(result, lines)``: the result object
    of the last output line and the human-readable lines before it.
    ``n`` (training locations) is for the benchmark's own tests; the
    command line always runs ``workloads.N_TRAIN``."""
    import workloads

    workload = workloads.WORKLOADS[name]
    n = workloads.N_TRAIN if n is None else n
    spec = load_spec()
    lines = [
        f"perfbench workload={name} seed={seed} seconds={seconds} "
        f"trace={int(trace)} n={n} tile={workloads.TILE_SIZE}",
        "host " + json.dumps(host_fingerprint(), sort_keys=True),
    ]

    steal0, total0 = cpu_ticks()
    inp = workload.inputs(seed, n)
    gc.collect()
    reset_peak_rss()
    top = "engine" if workload.kind == "mle" else "model"
    if trace:
        from tracing import Instrumentation, Recorder

        rec = Recorder()
        instr = Instrumentation(rec, workload.kernel_cls)
        instr.install()
        try:
            # Per-layer means need far fewer operations than a p99.
            state, stream = measure(
                workload, inp, seconds, max(4, workload.min_ops // 5),
                rec, top,
            )
        finally:
            instr.remove()
        if instr.skipped:
            lines.append("skipped entry points: " + ", ".join(instr.skipped))
    else:
        state, stream = measure(workload, inp, seconds, workload.min_ops)
        peak = peak_rss_mib()

    steal1, total1 = cpu_ticks()
    lines.append(
        f"cpu steal {100.0 * (steal1 - steal0) / max(1, total1 - total0):.2f}% "
        "of host CPU time during the run"
    )
    checks = []
    try:
        checks = workload.check(inp, stream["samples"])
    except Exception:
        _log_failure("reference check")
    check_failed = sum(not ok for ok, _ in checks) + (0 if checks else 1)
    errors: dict[str, float] = {}
    for _, errs in checks:
        for key, value in errs.items():
            errors[key] = max(errors.get(key, 0.0), value)

    attempted = stream["attempted"]
    failed = stream["failed"] + check_failed
    notes = {}
    if trace:
        metrics = layer_metrics(workload, rec, stream)
        for key in ("loglik_relerr", "mean_err", "var_err"):
            metrics[f"accuracy.{key}"] = errors.get(key, 0.0)
        wanted = spec["per_layer"]
        notes["trace.overhead"] = (
            f"traced/untraced median over {len(stream['lat'])}/"
            f"{len(stream['lat_untraced'])} {workload.unit}"
        )
    else:
        lat = stream["lat"]
        tail, how = tail_latency(lat)
        metrics = {
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_p99_ms": 1e3 * tail,
            "locations_per_s": (
                workload.items_per_op(inp) * len(lat) / stream["wall"]
            ),
            "setup_s": statistics.median(stream["setup_times"]),
            "peak_rss_mb": peak,
        }
        wanted = spec["end_to_end"]
        notes["latency_p50_ms"] = f"median of {len(lat)} {workload.unit}"
        notes["latency_p99_ms"] = f"{how} of {len(lat)} {workload.unit}"
        notes["locations_per_s"] = f"over {stream['wall']:.1f} s"
        notes["setup_s"] = f"median of {len(stream['setup_times'])} set-ups"

    out = {}
    for entry in wanted:
        value = float(metrics[entry["name"]])
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        note = notes.get(entry["name"], "")
        lines.append(
            f"{entry['name']:<28} {value:<14.6g} {entry['unit']:<10} {note}"
        )
    lines.append(
        f"error_rate {failed / attempted:.6g} ({failed} failed of "
        f"{attempted} attempted; {len(checks)} reference checks, worst "
        + ", ".join(f"{k}={v:.3g}" for k, v in sorted(errors.items()))
        + ")"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    try:
        result, lines = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except SelfCheckError as exc:
        print(f"perfbench: traced-run self-check failed: {exc}",
              file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
