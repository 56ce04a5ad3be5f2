"""sepdisc benchmark: one closed-loop client driving the library in-process.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

The client sends its next request only when the previous one has returned.
Each request is timed from outside the program, and its output is checked
after its timer stops.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run, whose spans are written under ``perfbench/out/``.  The line
before it is a JSON record of provenance, input digest and sample counts.
"""

from __future__ import annotations

import os

# fixed before numpy loads: every matrix here is at most 9x9, so LAPACK has
# nothing to split across threads and one thread keeps runs repeatable
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("analytic", "rank1", "dykstra", "construct")
# seed used while writing and tuning; claims are confirmed on the held-out one
DEFAULT_SEED = 1
HELD_OUT_SEED = 917
SETUP_REPEATS = 15
# The host's speed drifts by up to 1.8x over minutes, so end-to-end times are
# scaled to a reference speed: the one at which `_calibrate` takes
# CALIBRATION_REF_MS.  It runs after a request whenever another
# CALIBRATION_EVERY_S of request time has been measured.
CALIBRATION_REF_MS = 1.2
CALIBRATION_EVERY_S = 0.05
_CALIBRATION_STACK = np.random.default_rng(0).standard_normal((32, 9, 9, 2)) @ [1, 1j]
_CALIBRATION_STACK = _CALIBRATION_STACK + _CALIBRATION_STACK.conj().transpose(0, 2, 1)
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import sepdisc; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """`import sepdisc` timed inside a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)], capture_output=True, text=True, check=True, timeout=60
    )
    return float(done.stdout.strip())


def _calibrate() -> float:
    """Milliseconds taken by a fixed computation that calls no sepdisc code:
    a batched eigh of 9x9 Hermitian matrices and a pure-Python loop, the two
    kinds of work the requests do."""
    t0 = perf_counter()
    np.linalg.eigh(_CALIBRATION_STACK)
    acc = 0
    for i in range(10_000):
        acc += i * i
    return (perf_counter() - t0) * 1e3


def _reference_ms(samples: list[float], per_input: float) -> float:
    """The calibration's counterpart of the latency statistic: its samples,
    taken through the run, are dealt into groups of `per_input` samples (as
    many as each input has requests), and the median of the groups' best is
    returned, as the latency metrics take the median of each input's best."""
    groups = max(1, round(len(samples) / per_input))
    return statistics.median(min(samples[g::groups]) for g in range(groups))


def _setup(name: str, seed: int):
    """One set-up: `import sepdisc` plus generating and digesting the
    workload's inputs; returns (seconds, cases, digest)."""
    import workloads

    imp = _import_seconds()
    t0 = perf_counter()
    cases = workloads.build_cases(name, seed)
    dig = workloads.digest(cases)
    return imp + perf_counter() - t0, cases, dig


def _provenance(seed: int, name: str, dig: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "sepdisc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "held_out": seed == HELD_OUT_SEED,
        "input_digest": dig,
        "git_sha": sha,
        "source_digest": "sha256:" + src.hexdigest(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "client": "closed loop, 1 client",
    }


def _loop(name: str, cases, seconds: float, limit: int | None = None, tracer=None, between=()):
    """Send requests in schedule order until `seconds` of request time have
    been measured (or `limit` requests sent); check each output after its
    timer stops.  A tracer records the requests only, not the checks.
    `between` holds (period, action) pairs: each `action` runs outside the
    timed window each time another `period` seconds of request time have
    been measured.  Returns (latencies, the schedule index of each request,
    failures, messages)."""
    import workloads

    latencies: list[float] = []
    indices: list[int] = []
    failed = 0
    messages: list[str] = []
    busy = 0.0
    due = [period for period, _ in between]
    i = 0
    while (busy < seconds) if limit is None else (i < limit):
        indices.append(i % len(cases))
        case = cases[indices[-1]]
        i += 1
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            out = workloads.run_request(name, case)
        except Exception:  # a request that raises counts as failed; keep going
            out = None
            messages.append(traceback.format_exc(limit=3))
        latencies.append(perf_counter() - t0)
        busy += latencies[-1]
        if tracer is not None:
            tracer.active = False
        for k, (period, action) in enumerate(between):
            if busy >= due[k]:
                action()
                due[k] += period
        if out is None:
            failed += 1
            continue
        problem = workloads.check(name, case, out)
        if problem is not None:
            failed += 1
            messages.append(problem)
    return latencies, indices, failed, messages


def _warm_up(name: str, cases) -> None:
    """One untimed request per instance class, so lazy set-up is done."""
    import workloads

    seen = set()
    for case in cases:
        if case.cls not in seen:
            seen.add(case.cls)
            workloads.run_request(name, case)


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _best_per_input(latencies, indices) -> dict[int, float]:
    """Schedule index -> that input's fastest request, in milliseconds.

    Every input recurs once per schedule cycle, several seconds apart.  The
    host's speed switches between two modes about 1.7x apart every few
    seconds, so a run's raw per-request figures mostly measure which mode it
    met; an input's best repetition measures the program."""
    best: dict[int, float] = {}
    for idx, lat in zip(indices, latencies):
        best[idx] = min(best.get(idx, lat), lat)
    return {idx: v * 1e3 for idx, v in best.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sepdisc" / "__init__.py").is_file():
        print(f"error: no sepdisc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    setup_s, cases, dig = _setup(args.workload, args.seed)
    setups = [setup_s]
    import sepdisc

    if Path(sepdisc.__file__).resolve().parent != (SRC / "sepdisc").resolve():
        print(f"error: imported sepdisc from {sepdisc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    record = _provenance(args.seed, args.workload, dig)
    record["distinct_inputs"] = len(cases)
    _warm_up(args.workload, cases)
    # the inputs and loaded modules live for the whole run; keep the cyclic
    # collector from rescanning them between requests
    gc.collect()
    gc.freeze()

    if args.trace:
        from tracing import RESULT_TIMES, Tracer

        tracer = Tracer()
        tracer.install()
        try:
            t0 = perf_counter()
            latencies, indices, failed, messages = _loop(args.workload, cases, args.seconds, tracer=tracer)
            traced_wall = perf_counter() - t0
        finally:
            tracer.active = False
            tracer.uninstall()
        every = tracer.metrics()
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in every.items() if u != "ms" or k in RESULT_TIMES}
        record["self_ms"] = {k: v for k, (v, u) in every.items() if u == "ms"}
        record["lapack_by_caller_ms"] = tracer.lapack_by_caller_ms()
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.dump(spans_path)
        record.update(spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)))
        tracer.spans.clear()
        # the same requests again, untraced, give the tracing overhead: one
        # pass over the inputs at each input's best time, traced minus untraced
        t0 = perf_counter()
        again, again_indices, failed_again, _ = _loop(args.workload, cases, 0.0, limit=len(latencies))
        untraced_wall = perf_counter() - t0
        overhead_ms = sum(_best_per_input(latencies, indices).values()) - sum(
            _best_per_input(again, again_indices).values()
        )
        metrics["trace.overhead_s"] = {"value": overhead_ms / 1e3, "unit": "s"}
        record.update(traced_wall_s=traced_wall, untraced_wall_s=untraced_wall)
        failed += failed_again
        attempted = 2 * len(latencies)
    else:
        def set_up_again():
            if len(setups) < SETUP_REPEATS:
                setups.append(_setup(args.workload, args.seed)[0])

        calibrations: list[float] = []
        # set-up is repeated at even steps through the run rather than back to
        # back: this host's speed changes every few seconds, and a median over
        # set-ups spread across the run depends less on when the run started
        latencies, indices, failed, messages = _loop(
            args.workload,
            cases,
            args.seconds,
            between=(
                (args.seconds / SETUP_REPEATS, set_up_again),
                (CALIBRATION_EVERY_S, lambda: calibrations.append(_calibrate())),
            ),
        )
        attempted = len(latencies)
        if not calibrations:  # a run shorter than one calibration period
            calibrations.append(_calibrate())
        best = list(_best_per_input(latencies, indices).values())
        ref_ms = _reference_ms(calibrations, len(latencies) / len(best))
        scale = CALIBRATION_REF_MS / ref_ms
        raw_metrics = {
            "requests_per_s": len(best) / (sum(best) / 1e3),
            "latency_p50_ms": statistics.median(best),
            "latency_p90_ms": _p90(best),
            "setup_s": statistics.median(setups),
        }
        metrics = {
            "requests_per_s": {"value": raw_metrics["requests_per_s"] / scale, "unit": "1/s"},
            "latency_p50_ms": {"value": raw_metrics["latency_p50_ms"] * scale, "unit": "ms"},
            "latency_p90_ms": {"value": raw_metrics["latency_p90_ms"] * scale, "unit": "ms"},
            "setup_s": {"value": raw_metrics["setup_s"] * scale, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        record.update(
            unscaled=raw_metrics,
            calibration_ms=ref_ms,
            calibrations=len(calibrations),
            setup_repeats_s=setups,
        )
        raw = [x * 1e3 for x in latencies]
        record["per_request"] = {
            "requests_per_s": len(raw) / (sum(raw) / 1e3),
            "latency_p50_ms": statistics.median(raw),
            "latency_p90_ms": _p90(raw),
        }
        record["inputs_timed"] = len(best)
    requests: dict[str, int] = {}
    for idx in indices:
        requests[cases[idx].cls] = requests.get(cases[idx].cls, 0) + 1
    by_class: dict[str, list[float]] = {}
    for idx, ms in _best_per_input(latencies, indices).items():
        by_class.setdefault(cases[idx].cls, []).append(ms)
    # the class medians of the same best-per-input figures the end-to-end
    # percentiles are taken over; they set the class weights in workloads.py
    record.update(
        requests=len(latencies),
        class_requests=requests,
        class_p50_ms={c: statistics.median(v) for c, v in by_class.items()},
    )
    for msg in messages[:5]:
        print(f"failure: {msg}", file=sys.stderr)
    print(json.dumps({"perfbench": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
