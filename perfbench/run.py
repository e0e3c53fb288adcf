"""The repository's benchmark: ``collapse_and_run`` end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload steady-tiny --seed 1 --seconds 10 --trace 0

Each run starts fresh interpreters (see ``child.py``), each with a private
profile store, native cache and temporary directory under
``.bench_build/perfbench``:

1. a reference process fills the reference cache (untimed, skipped when warm);
2. ``--trace 0``: three measuring processes, each for a third of
   ``--seconds`` (a finite cold stream runs to its end) and each with its
   own call order drawn from the seed; the metrics combine their calls.
   ``--trace 1``: an untraced and a traced process with the same order.

The output is a provenance header, one row per metric and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or the per-layer ones with
``--trace 1``).  The names, units and directions are in ``BENCHMARK.json``;
what each metric means is in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "perfbench"
#: fresh measuring processes per untraced run; each measures a third of
#: ``--seconds`` and their calls are pooled, so one process's luck (memory
#: layout, CPU placement) moves the result less.  A cold stream is finite and
#: takes about a third of ``--seconds``; each process may use all of it, so
#: a slow machine never cuts the stream short
PROCESSES = 3
#: every process of a run must end within the harness's 180 s
BUDGET_S = 170.0
#: the quantile of a configuration's call times that stands for it.  A call
#: that another process on the host delays only ever gets slower, so a low
#: quantile reads the program rather than its neighbours as long as a tenth
#: of the calls ran undisturbed; the median moved with the host's load.
QUANTILE = 0.1
#: the calibration's ``QUANTILE`` time on the reference host (a 2-CPU
#: container); call times are reported at that host's speed
REFERENCE_CALIBRATION_MS = 2.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def compiler_info() -> dict:
    """The compiler ``repro.native`` would pick: ``$CC``, then cc/gcc/clang."""
    override = os.environ.get("CC", "").strip()
    candidates = [override] if override else ["cc", "gcc", "clang"]
    for name in candidates:
        path = shutil.which(name)
        if path:
            try:
                version = subprocess.run(
                    [path, "--version"], capture_output=True, text=True, timeout=30
                ).stdout.splitlines()[:1]
            except (OSError, subprocess.TimeoutExpired):
                version = []
            return {"path": path, "version": version[0] if version else "unknown"}
    return {"path": None, "version": None}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "compiler": compiler_info(),
        "git_commit": git_commit(),
        "omp_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(("OMP_", "GOMP_"))},
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "workers": 1,
        "threads": 1,
        "load": "closed loop, one client",
    }


class Children:
    """Starts child processes with private state and waits for each to end."""

    def __init__(self, args, refs: Path, scratch: Path):
        self.args = args
        self.refs = refs
        self.scratch = scratch
        self.deadline = time.monotonic() + BUDGET_S
        self.count = 0
        cold = WORKLOADS[args.workload].cold
        self.seconds = args.seconds if cold else args.seconds / PROCESSES

    def run(self, mode: str, seed: int = 0, traced: bool = False) -> dict:
        self.count += 1
        private = self.scratch / f"{mode}-{self.count}"
        env = dict(os.environ)
        for variable, name in (
            ("REPRO_PROFILE_DIR", "profile"), ("REPRO_NATIVE_CACHE", "native"), ("TMPDIR", "tmp"),
        ):
            (private / name).mkdir(parents=True)
            env[variable] = str(private / name)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # dictionary and set layouts follow the hash seed: fix it like any input
        env["PYTHONHASHSEED"] = "0"
        command = [
            sys.executable, str(HERE / "child.py"), "--mode", mode,
            "--workload", self.args.workload, "--seed", str(seed),
            "--seconds", repr(self.seconds), "--refs", str(self.refs),
            "--t0", repr(time.monotonic()),
        ] + (["--traced"] if traced else [])
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            stdout, _ = process.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise RuntimeError(f"{mode} process exceeded the time budget") from None
        if process.returncode != 0:
            raise RuntimeError(f"{mode} process exited with code {process.returncode}")
        lines = stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"{mode} process printed no result")
        return json.loads(lines[-1])


def source_digest(src: Path) -> str:
    """Digest of the library sources: references are cached per digest."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def config_times(results, backend=None, pooled=False) -> list:
    """Each configuration's time in ms, with its points.

    A configuration is one (source, size, schedule, backend).  Its time is
    the median over the processes of its ``QUANTILE`` call time in each, so
    one process whose plan came out unusually fast or slow does not set it.
    A cold stream runs each configuration once per process; ``pooled``
    takes the ``QUANTILE`` of those calls instead, the fastest of three.
    Summarising per configuration first weighs every configuration once, so
    no result hinges on whichever configuration straddles the middle of a
    multi-modal mix.
    """
    per_config = {}
    for result in results:
        own = {}
        for config, call_backend, seconds, points in result["calls"]:
            if backend is None or call_backend == backend:
                own.setdefault(config, ([], points))[0].append(seconds * 1e3)
        for config, (times, points) in own.items():
            summary = times if pooled else [percentile(times, QUANTILE)]
            per_config.setdefault(config, ([], points))[0].extend(summary)
    summarize = (lambda times: percentile(times, QUANTILE)) if pooled else statistics.median
    return [(summarize(times), points) for times, points in per_config.values()]


def typical_ms(results, backend=None, pooled=False) -> float:
    """Geometric mean over configurations of their times.

    A mean, not a median: one backend has only a few dozen configurations
    on cold-stream, and their median jumped between two of them 25 % apart
    from run to run.
    """
    times = [ms for ms, _points in config_times(results, backend, pooled)]
    return statistics.geometric_mean(times) if times else 0.0


def end_to_end(results, pooled: bool) -> dict:
    calls = [call for result in results for call in result["calls"]]
    attempted = sum(result["attempted"] for result in results)
    metrics = {"call_ms_q10": typical_ms(results, pooled=pooled)}
    for backend in ("engine", "hybrid", "native", "auto"):
        metrics[f"call_ms_q10.{backend}"] = typical_ms(results, backend, pooled)
    # one call of every configuration, each at its time
    per_config = config_times(results, pooled=pooled)
    seconds = sum(ms for ms, _points in per_config) / 1e3
    metrics["iters_per_s"] = sum(points for _ms, points in per_config) / seconds if seconds else 0.0
    metrics["success_rate"] = len(calls) / attempted if attempted else 0.0
    metrics["setup_s"] = statistics.median(result["setup_s"] for result in results)
    metrics["peak_rss_mb"] = statistics.median(result["peak_rss_mb"] for result in results)
    return metrics


def at_reference_speed(result: dict) -> dict:
    """The process's result with its times scaled to the reference host.

    The host's speed drifts by ±15 % over seconds and up to 35 % over
    minutes (a fixed Python loop shows it), and every call and set-up of a
    run moves with it.  Each process therefore times a fixed calibration
    between calls; its set-up and call times are scaled by
    ``REFERENCE_CALIBRATION_MS`` over the calibration's ``QUANTILE`` time in
    the same process.
    """
    factor = REFERENCE_CALIBRATION_MS / calibration_ms(result)
    return dict(result, setup_s=result["setup_s"] * factor, calls=[
        [config, backend, seconds * factor, points]
        for config, backend, seconds, points in result["calls"]
    ])


def calibration_ms(result: dict) -> float:
    return percentile(result["calibration"], QUANTILE) * 1e3


def wall_rows(results, pooled: bool) -> dict:
    """Unscaled wall-clock figures: printed, not bounded.

    ``all_calls.*`` count every successful call in full, including the ones
    another process on the host delayed.
    """
    calls = [call for result in results for call in result["calls"]]
    times = [call[2] * 1e3 for call in calls]
    if not times:
        return {}
    return {
        "calibration_ms": (statistics.median(calibration_ms(r) for r in results), "ms"),
        "wall.call_ms_q10": (typical_ms(results, pooled=pooled), "ms"),
        "wall.setup_s": (statistics.median(result["setup_s"] for result in results), "s"),
        "wall.all_calls.count": (len(times), "count"),
        "wall.all_calls.ms_p50": (statistics.median(times), "ms"),
        "wall.all_calls.ms_p90": (percentile(times, 0.9), "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no repro package under {ROOT / 'src'}; run from a repository checkout")

    refs = STATE / "refs" / source_digest(ROOT / "src" / "repro")
    scratch = STATE / "runs" / f"{os.getpid()}-{time.time_ns()}"
    children = Children(args, refs, scratch)
    seeds = [args.seed * PROCESSES + index for index in range(PROCESSES)]
    try:
        children.run("reference")
        # the reference process may compile bytecode or build references once
        # per checkout; the time budget starts over for the measured processes
        children.deadline = time.monotonic() + BUDGET_S
        if args.trace:
            results = [children.run("measure", seeds[0], traced=traced) for traced in (False, True)]
        else:
            results = [children.run("measure", seed) for seed in seeds]
    except (RuntimeError, ValueError) as error:
        return fail(str(error))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    measured = [at_reference_speed(result) for result in results]
    if args.trace:
        untraced, traced = measured
        metrics = dict(traced["layers"])
        baseline = typical_ms([untraced])
        metrics["trace_overhead"] = typical_ms([traced]) / baseline if baseline else 0.0
    else:
        metrics = end_to_end(measured, WORKLOADS[args.workload].cold)
    attempted = sum(result["attempted"] for result in results)
    failed = sum(len(result["errors"]) for result in results)
    violations = sum(result.get("violations", 0) for result in results)
    for result in results:
        for error in result["errors"][:5]:
            print(f"perfbench: failed call: {error}", file=sys.stderr)
    if violations:
        print(f"perfbench: {violations} spans exceed their parent", file=sys.stderr)
    units = {
        entry["name"]: entry["unit"]
        for section in ("end_to_end", "per_layer")
        for entry in json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    }

    print(f"# perfbench {json.dumps(provenance(args), sort_keys=True)}")
    for result in results:
        print(
            f"# process: {result['attempted']} calls in {result['loop_s']:.2f} s, "
            f"setup {result['setup_s']:.3f} s, peak RSS {result['peak_rss_mb']:.1f} MB"
        )
    print(f"# {'workload':<14} {'metric':<40} {'value':>14} unit")
    rows = {name: (value, units[name]) for name, value in metrics.items() if name in units}
    rows["error_rate"] = (failed / max(1, attempted), "ratio")
    if not args.trace:
        rows.update(wall_rows(results, WORKLOADS[args.workload].cold))
    for name, (value, unit) in rows.items():
        print(f"  {args.workload:<14} {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and violations == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items() if name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
