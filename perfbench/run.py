#!/usr/bin/env python3
"""Benchmark of the energy-attention library: one workload per invocation.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last line of standard output is the result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run. BLAS is pinned to one thread before numpy loads. Result files
and traced spans are written to ``perfbench/results/``.
"""

from __future__ import annotations

import os
import sys

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
os.environ.update(PINS)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from checks import CheckFailed  # noqa: E402
from tracer import Tracer  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPS = 3  # set-ups before the first round; one more follows each round
PACKAGE = "energy_attention"
RESULTS = os.path.join("perfbench", "results")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def import_library():
    """Import the library from src/ afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE)


def build_sections(lib, seed: int, tracer=None) -> dict:
    streams = np.random.SeedSequence(seed).spawn(len(wl.SECTIONS))
    return {name: cls(lib, stream, tracer)
            for (name, cls), stream in zip(wl.SECTIONS.items(), streams)}


def timed_setup(seed: int):
    """Import the library afresh and build every input: (reference seconds,
    library, sections)."""
    def build():
        lib = import_library()
        return lib, build_sections(lib, seed)

    (lib, sections), _, seconds = wl.DISPATCH.time(build)
    return seconds, lib, sections


class Tally:
    """Samples per metric (work, reference seconds) plus operation and check
    outcomes. ``timed_s`` and ``reference_s`` sum the timed calls' measured
    and reference seconds."""

    def __init__(self):
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.timed_s = 0.0
        self.reference_s = 0.0

    def add(self, samples) -> None:
        for s in samples:
            self.samples.setdefault(s.metric, []).append((s.work, s.reference_s))
            self.timed_s += s.seconds
            self.reference_s += s.reference_s

    def rate(self, metric: str) -> float:
        """Work done per reference second spent in the metric's calls, over
        the run.

        A ratio of sums averages over the machine's speed as it drifts
        during the run; the median of per-call rates jumps between slow and
        fast spells, and across runs it spread wider on most metrics."""
        pairs = self.samples[metric]
        return sum(w for w, _ in pairs) / sum(s for _, s in pairs)


def run_round(sections, plan, counters: dict, tally: Tally,
              tracer=None) -> None:
    for name in plan:
        section = sections[name]
        index = counters[name]
        counters[name] += 1
        try:
            result = section.unit(index)
        except Exception:  # an operation raised: count it and keep running
            traceback.print_exc(file=sys.stderr)
            tally.attempted += 1
            tally.failed += 1
            continue
        tally.attempted += result.attempted
        tally.failed += result.failed
        tally.add(result.samples)
        if index % wl.CHECK_EVERY == 0:
            if tracer is not None:
                tracer.active = False
            try:
                section.check(index, result.payload)
            except CheckFailed as err:
                tally.check_failures.append(f"{name} unit {index}: {err}")
            except Exception as err:  # a check that cannot run also fails
                traceback.print_exc(file=sys.stderr)
                tally.check_failures.append(f"{name} unit {index}: {err!r}")
            finally:
                if tracer is not None:
                    tracer.active = True


def run_for(sections, plan, seconds: float, between=None) -> tuple[Tally, int]:
    """Whole rounds while one more, as long as the longest so far, keeps the
    timed calls within ``seconds`` (at least one round). Checks, bookkeeping
    and ``between()``, called after each round, are not counted."""
    tally, counters, rounds, longest = Tally(), dict.fromkeys(sections, 0), 0, 0.0
    while rounds == 0 or tally.timed_s + longest <= seconds:
        before = tally.timed_s
        run_round(sections, plan, counters, tally)
        longest = max(longest, tally.timed_s - before)
        rounds += 1
        if between is not None:
            between()
    return tally, rounds


def run_rounds(sections, plan, rounds: int, tracer) -> Tally:
    tally, counters = Tally(), dict.fromkeys(sections, 0)
    for _ in range(rounds):
        run_round(sections, plan, counters, tally, tracer)
    return tally


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    pins = {key: os.environ.get(key) for key in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "ENERGY_ATTN_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "thread_pins": pins,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "git_commit": git_commit()}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(setup_s: float, tally: Tally) -> dict:
    metrics = {"setup_s": metric(setup_s, "s")}
    for section in wl.SECTIONS.values():
        for name in section.metrics:
            metrics[name] = metric(tally.rate(name), "1/s")
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, sections, rounds: int, overhead: float) -> dict:
    metrics = {}
    for i, name in enumerate(tracer.names):
        metrics[f"{name}.calls"] = metric(tracer.calls[i] / rounds, "count/round")
        metrics[f"{name}.self_s"] = metric(tracer.self_s[i] / rounds, "s/round")
    de = sections["descent"].counters
    loop = sections["loop"].counters
    ver = sections["verify"].counters
    fwd = sections["forward"].counters
    metrics["descent.steps"] = metric(de.get("steps", 0) / rounds, "count/round")
    metrics["descent.converged_ratio"] = metric(
        _ratio(de.get("converged", 0), de.get("runs", 0)), "ratio")
    metrics["energy.evaluate_per_step"] = metric(
        _ratio(de.get("evaluate", 0), de.get("steps", 0)), "ratio")
    metrics["loopsim.evaluate_per_position_update"] = metric(
        _ratio(loop.get("evaluate", 0), loop.get("position_updates", 0)), "ratio")
    metrics["equivalence.sym_eig_per_tied_instance"] = metric(
        _ratio(ver.get("sym_eig", 0), ver.get("tied_instances", 0)), "ratio")
    metrics["equivalence.stationary_skipped"] = metric(
        ver.get("stationary_skipped", 0) / rounds, "count/round")
    for variant in wl.Forward.VARIANTS:
        metrics[f"attention.{variant}.computed_gflop_per_s"] = metric(
            _ratio(fwd.get(f"{variant}.flops", 0),
                   fwd.get(f"{variant}.seconds", 0)) / 1e9, "GFLOP/s")
    metrics["trace.overhead_share"] = metric(overhead, "ratio")
    metrics["trace.rounds"] = metric(rounds, "count")
    return metrics


def spread(tally: Tally) -> dict:
    """Per-metric sample count, median and quartiles of the per-call rates."""
    out = {}
    for name, pairs in sorted(tally.samples.items()):
        rates = [w / s for w, s in pairs]
        q = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
        out[name] = {"samples": len(rates), "median": statistics.median(rates),
                     "q1": q[0], "q3": q[2]}
    return out


def kernel_summary() -> dict:
    """How each reference kernel's time moved over the run."""
    out = {}
    for name, clock in (("dispatch", wl.DISPATCH), ("stream", wl.STREAM)):
        k = clock.kernels
        q = statistics.quantiles(k, n=4) if len(k) > 1 else k * 3
        out[name] = {"runs": len(k), "min": min(k), "q1": q[0], "median": q[1],
                     "q3": q[2], "max": max(k), "ref_s": clock.ref_s}
    return out


def write_result(name: str, doc: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, name), "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", PACKAGE, "__init__.py")):
        print(f"error: src/{PACKAGE} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    plan = wl.round_plan(args.workload)
    env = environment()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if not args.trace:
        # set-up is timed several times, spread over the run like the calls,
        # and the median reported; the rounds use the first set-up's inputs
        setups = [timed_setup(args.seed) for _ in range(SETUP_REPS)]
        sections = setups[0][2]
        setup_times = [seconds for seconds, _, _ in setups]
        del setups
        tally, rounds = run_for(
            sections, plan, args.seconds,
            between=lambda: setup_times.append(timed_setup(args.seed)[0]))
        metrics = end_to_end(statistics.median(setup_times), tally)
        detail = {"rounds": rounds, "setup_times": setup_times,
                  "kernel_s": kernel_summary(), "samples": spread(tally)}
    else:
        # an untraced pass over half the time, then the same rounds traced
        _, lib, sections = timed_setup(args.seed)
        plain, rounds = run_for(sections, plan, args.seconds / 2.0)
        tracer = Tracer()
        tracer.install(lib)
        tracer.active = True
        try:
            sections = build_sections(lib, args.seed, tracer)
            tally = run_rounds(sections, plan, rounds, tracer)
        finally:
            tracer.active = False
            tracer.uninstall()
        tally.attempted += plain.attempted
        tally.failed += plain.failed
        tally.check_failures += plain.check_failures
        overhead = tally.reference_s / plain.reference_s - 1.0
        metrics = per_layer(tracer, sections, rounds, overhead)
        os.makedirs(RESULTS, exist_ok=True)
        tracer.save(os.path.join(RESULTS, f"spans-{stem}.npz"))
        detail = {"rounds": rounds, "spans_recorded": tracer.recorded,
                  "spans_dropped": tracer.dropped,
                  "untraced_timed_s": plain.timed_s,
                  "traced_timed_s": tally.timed_s,
                  "untraced_reference_s": plain.reference_s,
                  "traced_reference_s": tally.reference_s}

    for message in tally.check_failures:
        print(f"check failed: {message}", file=sys.stderr)
    result = {"correct": not tally.check_failures, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        result["correct"] = False
    write_result(stem + ".json", {"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace,
                                  "environment": env, "detail": detail,
                                  "result": result})
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
