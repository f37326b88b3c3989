"""realcurve benchmark: time to an exact verdict, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports `realcurve` from `src/`.
Load model: closed loop, one client, one thread, one process; each case
starts when the previous one has finished.  Cases come in cycles of fixed
shapes (see workloads.py); a run executes whole cycles and stops at the cycle
boundary nearest to S seconds.  Every verdict is checked against an answer
known by construction, and a case over the per-case wall limit counts as
failed.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the first half of the time runs untraced and the
second half traced, and the JSON object carries the per-layer metrics.  Run
records and spans are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import WRAPPED, Tracer  # noqa: E402
from workloads import WORKLOADS, cycles, execute  # noqa: E402

CASE_LIMIT_S = 20.0
OVER_LIMIT = "over the {:g} s case limit"
SETUP_REPEATS = 7
TRIVIAL_QUERY = (
    "import sys; sys.path.insert(0, sys.argv[1]); import realcurve; "
    "c = realcurve.classify_point(realcurve.parse_ideal('vars: x, y\\ny - x\\n'), [0, 0]); "
    "sys.exit(c.verdict.value != 'smooth-manifold-point')"
)
ROOT_SPANS = {
    "fourbar-family": ("fourbar.analyze_fourbar",),
    "plane-germs": ("decide.classify_point",),
    "coefficient-height": ("decide.classify_point",),
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


class CaseOverLimit(BaseException):
    """Raised by the wall-limit alarm inside a running case."""


def _on_alarm(signum, frame):
    raise CaseOverLimit


@dataclass(frozen=True)
class CaseResult:
    case: int
    label: str
    seconds: float
    error: str | None


def load_library():
    src = ROOT / "src"
    if not (src / "realcurve" / "__init__.py").is_file():
        raise BenchError(f"no realcurve sources under {src}")
    sys.path.insert(0, str(src))
    import realcurve
    import realcurve.groebner
    import realcurve.report

    if Path(realcurve.__file__).resolve().parent != (src / "realcurve").resolve():
        raise BenchError(f"imported realcurve from {realcurve.__file__}, not from {src}")
    # the acceptance suite turns the Buchberger self-check on; never measure that mode
    if realcurve.groebner._SELF_CHECK:
        raise BenchError("groebner self-check is on; the benchmark measures library defaults")
    return realcurve


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters importing realcurve and answering one query."""
    argv = [sys.executable, "-c", TRIVIAL_QUERY, str(ROOT / "src")]
    samples = []
    for attempt in range(SETUP_REPEATS + 1):
        started = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, timeout=120)
        elapsed = time.perf_counter() - started
        if done.returncode != 0:
            raise BenchError(f"trivial query failed: {done.stderr.decode(errors='replace')}")
        if attempt:  # the first run only warms the bytecode cache
            samples.append(elapsed)
    return samples


def run_one(rc, case, limit: float = CASE_LIMIT_S) -> tuple[float, str | None]:
    """One case under the wall limit: (seconds, None or why it failed)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    started = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            error = execute(rc, case, started)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseOverLimit:
        error = OVER_LIMIT.format(limit)
    except Exception as exc:  # a raising case is a failed case; the run goes on
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - started, error


def run_cases(rc, workload: str, seed: int, seconds: float, tracer=None):
    """Closed loop over the case stream, in whole cycles.

    A cycle starts only if, at the mean cycle time so far, the run would end
    nearer to `seconds` with it than without it, so a run lasts `seconds` on
    average instead of overrunning by up to a whole cycle.
    """
    results: list[CaseResult] = []
    t0 = time.perf_counter()
    for done, cycle in enumerate(cycles(workload, seed, ROOT)):
        so_far = time.perf_counter() - t0
        if done and so_far + so_far / done / 2 > seconds:
            break
        for case in cycle:
            n = len(results)
            if tracer is not None:
                tracer.begin_case(n)
            elapsed, error = run_one(rc, case)
            results.append(CaseResult(n, case.label, elapsed, error))
    return results, time.perf_counter() - t0, t0


def latency_stats(results: list[CaseResult]) -> dict:
    """Median and tail of per-case wall time; a failed case counts as at least the limit."""
    times = sorted(r.seconds if r.error is None else max(r.seconds, CASE_LIMIT_S) for r in results)
    n = len(times)
    if n > 10:  # the highest percentile with ten samples beyond it
        tail, pct = times[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = statistics.median(times), 50.0
    return {"p50": statistics.median(times), "tail": tail, "tail_pct": pct, "n": n}


def source_digest() -> str:
    h = sha256()
    for path in sorted((ROOT / "src" / "realcurve").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.decode().strip() if done.returncode == 0 else None


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "case_limit_s": CASE_LIMIT_S,
        "load_model": "closed loop, 1 client, 1 thread, 1 process",
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(rc, args, record: dict, units: dict) -> tuple[list[CaseResult], dict]:
    setup = measure_setup()
    results, elapsed, _ = run_cases(rc, args.workload, args.seed, args.seconds)
    ok = sum(r.error is None for r in results)
    lat = latency_stats(results)
    metrics = {
        "verdict_p50_s": lat["p50"],
        "verdict_tail_s": lat["tail"],
        "cases_per_s": ok / elapsed,
        "solved_share": ok / len(results),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record.update(
        setup_samples_s=setup,
        elapsed_s=elapsed,
        cases=len(results),
        failed_share=1 - ok / len(results),
        verdict_tail_percentile=lat["tail_pct"],
        percentile_samples=lat["n"],
    )
    print(f"{args.workload}: {len(results)} cases in {elapsed:.2f} s, seed {args.seed}")
    for name, value in metrics.items():
        note = ""
        if name == "verdict_tail_s":
            note = f"  (p{lat['tail_pct']:.1f} of {lat['n']} cases)"
        elif name == "setup_s":
            note = f"  (median of {len(setup)} fresh interpreters)"
        print(f"  {name:<16} {value:.6g} {units.get(name, '')}{note}")
    print(f"  {'failed_share':<16} {1 - ok / len(results):.6g}  ({len(results) - ok} of {len(results)})")
    return results, metrics


def per_layer(rc, args, record: dict, units: dict) -> tuple[list[CaseResult], dict]:
    half = args.seconds / 2
    plain, plain_elapsed, _ = run_cases(rc, args.workload, args.seed, half)
    tracer = Tracer()
    record["wrapped_bindings"] = tracer.install()
    try:
        traced, traced_elapsed, t0 = run_cases(rc, args.workload, args.seed, half, tracer)
    finally:
        tracer.uninstall()
    layer = tracer.metrics()
    untraced_rate = sum(r.error is None for r in plain) / plain_elapsed
    traced_rate = sum(r.error is None for r in traced) / traced_elapsed
    layer["trace.untraced_cases_per_s"] = untraced_rate
    layer["trace.traced_cases_per_s"] = traced_rate
    layer["trace.overhead_share"] = 1 - traced_rate / untraced_rate if untraced_rate else 0.0

    residuals = tracer.self_time_residuals(ROOT_SPANS[args.workload])
    self_total = sum(layer[q + ".self_s"] for q in WRAPPED)
    top_level = sum(s[3] - s[2] for s in tracer.spans if s[4] == -1)
    consistent = bool(residuals) and max(residuals) < 1e-6 and abs(self_total - top_level) < 1e-6
    record.update(
        self_times_add_up=consistent,
        root_spans=len(residuals),
        max_root_residual_s=max(residuals, default=None),
        rationale=rationale(args.workload, layer, self_total),
    )
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans_file, t0)
    record["spans_file"] = str(spans_file.relative_to(ROOT))

    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced cases, seed {args.seed}")
    ranked = sorted(WRAPPED, key=lambda q: -layer[q + ".self_s"])
    for q in ranked[:8]:
        share = layer[q + ".self_s"] / self_total if self_total else 0.0
        print(f"  {q:<34} self {layer[q + '.self_s']:.4f} s ({share:.1%}), {layer[q + '.calls']} calls")
    for line in record["rationale"]:
        print(f"  rationale: {line}")
    print(f"  self times add up to the root spans: {consistent} ({len(residuals)} roots)")
    print(f"  tracing overhead: {untraced_rate:.4g} -> {traced_rate:.4g} cases/s")
    if not consistent:
        raise BenchError("per-layer self times do not add up to the root spans")
    return plain + traced, layer


def rationale(workload: str, layer: dict, self_total: float) -> list[str]:
    """Whether the traced run confirms why the workload was chosen."""
    top = max(WRAPPED, key=lambda q: layer[q + ".self_s"])

    def share(q: str) -> str:
        return f"{layer[q + '.self_s'] / self_total:.1%}" if self_total else "n/a"

    lines = []
    if workload == "fourbar-family":
        verdict = "confirmed" if top == "singular.minors_ideal" else "NOT confirmed"
        lines.append(
            f"{verdict}: largest self time is {top} ({share(top)}); expected singular.minors_ideal"
        )
    elif workload == "plane-germs":
        minors = layer["singular.minors_ideal.self_s"] / self_total if self_total else 0.0
        verdict = "confirmed" if minors < 0.05 else "NOT confirmed"
        lines.append(f"{verdict}: singular.minors_ideal self time is {minors:.1%}; expected < 5%")
    else:
        verdict = "confirmed" if top == "zerodim.rational_roots" else "NOT confirmed"
        lines.append(
            f"{verdict}: largest self time is {top} ({share(top)}); expected zerodim.rational_roots"
        )
    calls = layer["groebner.buchberger.calls"]
    distinct = layer["groebner.buchberger.distinct_inputs"]
    lines.append(
        f"groebner.buchberger.repeat_share {layer['groebner.buchberger.repeat_share']:.3f}"
        f" = 1 - {distinct} distinct inputs / {calls} calls (distinct counted per case)"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        rc = load_library()
        record = run_record(args)
        units = declared_units(args.trace)
        measure = per_layer if args.trace else end_to_end
        results, metrics = measure(rc, args, record, units)
        if set(metrics) != set(units):
            raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    failed = [{"case": r.case, "label": r.label, "error": r.error} for r in results if r.error]
    # a wrong answer or an error makes the run incorrect; a case over the limit only fails
    correct = all(f["error"] == OVER_LIMIT.format(CASE_LIMIT_S) for f in failed)
    record.update(metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    record.update(correct=correct, attempted=len(results), failures=failed)
    OUT.mkdir(exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for f in failed[:10]:
        print(f"  FAILED case {f['case']} {f['label']}: {f['error']}")
    print(f"  run record: {(OUT / name).relative_to(ROOT)}")
    result = {
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
