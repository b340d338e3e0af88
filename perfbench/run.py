"""Benchmark of real billzeta CLI runs, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs the workload's CLI invocation again and again for S seconds (at least
MIN_INVOCATIONS times), closed loop: one fresh child process at a time, with
one BLAS thread.  Every invocation gets an explicit cache directory and
BILLZETA_CACHE_DIR is removed from its environment.  A warm workload fills
its cache with one untimed invocation first; a cold one gets a new empty
cache directory for each invocation.  Each invocation's output is checked
against references.json; one that exits non-zero or fails a check counts
as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, as medians over
the invocations.  Peak RSS and CPU time are the child's own, from os.wait4.
The times are scaled to a reference CPU speed: between invocations the CPU
time of a fixed task is measured (calibrate.py, in a process of its own),
and each invocation's times are multiplied by CALIBRATION_REF_S over the
mean of the task's times just before and just after it.  On a shared host whose CPU
speed drifts by tens of percent over a minute, this removes most of the
drift from the metrics; a change to the program is not scaled away, since
the calibration does not run it.  The unscaled medians are in the summary
and the record.
--trace 1 alternates untraced invocations with traced ones, in which every
public function of every layer module is timed (see tracer.py), and reports
the per-layer metrics of BENCHMARK.json; trace.overhead_s is the traced
minus the untraced median wall time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --workload all each workload runs in
turn and each prints its summary and its result line.  The environment, every invocation and, when
traced, every span are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

from tracer import SIGMA_TABLE, WORK_KEYS, now, self_times
from workloads import WORKLOADS, Workload, check_output, write_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_INVOCATIONS = 4
RUN_LIMIT_S = 150.0  # a run must end within 180 s, whatever the program does
# The calibration task's time at the reference speed: about its median on a 2-vCPU
# x86-64 KVM guest (Python 3.11, numpy with OpenBLAS, 1 thread).
CALIBRATION_REF_S = 0.25


class Calibration:
    """A child process that times calibrate.py's fixed task on request.

    A separate process keeps numpy and the task's arrays out of this one:
    children forked from here would otherwise start with its memory, which
    would then count in their ru_maxrss.
    """

    def __enter__(self) -> "Calibration":
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
        )
        self.environment = json.loads(self.proc.stdout.readline())
        return self

    def __call__(self) -> float:
        """CPU seconds the task takes now."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@dataclass
class Invocation:
    mode: str  # "setup": tracing off; "layers": traced
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    cache_bytes_written: int
    problems: list
    start: float
    trace: dict | None = field(default=None, repr=False)
    scale: float = 1.0  # CALIBRATION_REF_S over the task's time around this invocation

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def setup_s(self) -> float | None:
        """Spawn to the return of the first sigma-table build."""
        ends = [end for name, _, end, _ in (self.trace or {}).get("spans", ()) if name == SIGMA_TABLE]
        return min(ends) - self.start if ends else None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BILLZETA_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def _files(directory: Path) -> dict:
    if not directory.exists():
        return {}
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.rglob("*") if p.is_file()}


def invoke(workload: Workload, args: list, mode: str, work: Path, tag: str,
           cache: Path, reference: dict, timeout: float) -> Invocation:
    """Run one CLI invocation in a child process and check its output."""
    trace_path, out_path, err_path = (work / f"{tag}.{ext}" for ext in ("trace.json", "out", "err"))
    cmd = [sys.executable, str(BENCH / "child.py"), str(trace_path), mode, *args]
    before = _files(cache)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = now()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=work, env=child_env())
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = now()
    after = _files(cache)
    written = sum(size for p, (size, mtime) in after.items() if before.get(p) != (size, mtime))
    problems = []
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        problems.append(f"exit code {proc.returncode}: {' '.join(tail)}")
    else:
        try:
            problems = check_output(workload, out_path.read_text(), reference)
        except (ValueError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    trace = None
    try:
        trace = json.loads(trace_path.read_text())
    except (OSError, ValueError) as exc:
        if not problems:
            problems.append(f"child wrote no trace: {exc!r}")
    return Invocation(
        mode, proc.returncode, end - start, usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0, written, problems, start, trace,
    )


def run_invocations(workload: Workload, seed: int, seconds: float, trace: bool,
                    reference: dict, work: Path, deadline: float, calibrate: Calibration) -> tuple:
    """(warm-up invocation or None, timed invocations)."""
    config = work / "config.json"
    write_config(workload, config)
    shared = work / "cache"
    warmup = None
    if workload.warm:
        args = workload.argv(seed, str(config), str(shared))
        warmup = invoke(workload, args, "setup", work, "warmup", shared, reference, deadline - now())
    invocations = []
    before = calibrate()
    end = now() + seconds
    while (len(invocations) < MIN_INVOCATIONS or now() < end) and now() < deadline:
        index = len(invocations)
        mode = "layers" if trace and index % 2 else "setup"
        cache = shared if workload.warm else work / f"cache-{index}"
        args = workload.argv(seed, str(config), str(cache))
        inv = invoke(workload, args, mode, work, f"run-{index}", cache, reference, deadline - now())
        if not workload.warm:
            shutil.rmtree(cache, ignore_errors=True)
        after = calibrate()
        inv.scale = 2 * CALIBRATION_REF_S / (before + after)
        before = after
        invocations.append(inv)
    return warmup, invocations


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(workload: Workload, runs: list, scaled: bool = True) -> dict:
    """Medians over the invocations; times at the reference speed unless scaled is False."""
    def at_ref(r: Invocation, seconds):
        return None if seconds is None else seconds * (r.scale if scaled else 1.0)

    return {
        "wall_s": _median(at_ref(r, r.wall_s) for r in runs),
        "setup_s": _median(at_ref(r, r.setup_s) for r in runs),
        "zeta_per_s": _median(workload.zeta_values / at_ref(r, r.wall_s) for r in runs),
        "cpu_s": _median(at_ref(r, r.cpu_s) for r in runs),
        "peak_rss_mib": _median(r.peak_rss_mib for r in runs),
    }


def layer_metrics(inv: Invocation) -> dict:
    """Per-layer metrics of one traced invocation."""
    doc = inv.trace
    spans = doc["spans"]
    out = {}
    for name in ["cli.import", *doc["wrapped"]]:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for (name, *_), own in zip(spans, self_times(spans)):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
    for function, (prefix, _) in WORK_KEYS.items():
        keys = doc["work_keys"].get(function, [])
        out[f"{prefix}_distinct"] = len(set(keys))
        out[f"{prefix}_useful_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    hits = doc["cache_hits"]
    out["basis.table_cache_hit_ratio"] = sum(hits) / len(hits) if hits else 0.0
    out["basis.cache_bytes_written"] = inv.cache_bytes_written
    roots = sum(end - start for _, start, end, parent in spans if parent is None)
    out["trace.wall_s"] = inv.wall_s
    out["trace.untraced_s"] = inv.wall_s - roots
    out["trace.self_sum_s"] = sum(self_times(spans))
    out["trace.spans"] = len(spans)
    return out


def per_layer(runs: list) -> dict:
    traced = [r for r in runs if r.mode == "layers" and r.trace is not None]
    plain = [r for r in runs if r.mode == "setup"]
    each = [layer_metrics(r) for r in traced]
    names = set().union(*each) if each else set()
    out = {name: _median(m.get(name) for m in each) for name in sorted(names)}
    out["trace.overhead_s"] = _median(r.wall_s for r in traced) - _median(r.wall_s for r in plain)
    return out


def declared(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        reference: dict, out_dir: Path, deadline: float) -> dict:
    """Run one workload and return its full record; the result line is record['result']."""
    out_dir.mkdir(parents=True, exist_ok=True)
    work = out_dir / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        with Calibration() as calibration:
            warmup, runs = run_invocations(
                workload, seed, seconds, trace, reference, work, deadline, calibration
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checked = ([warmup] if warmup else []) + runs
    failed = sum(r.failed for r in checked)
    measured = per_layer(runs) if trace else end_to_end(workload, runs)
    measured["error_rate"] = failed / len(checked)
    unscaled = {} if trace else end_to_end(workload, runs, scaled=False)
    units = declared("per_layer" if trace else "end_to_end")
    absent = sorted(name for name in units if name not in measured)
    metrics = {name: {"value": measured.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": calibration.environment,
        "measured": measured,
        "unscaled": unscaled,
        "scales": [r.scale for r in runs],
        "absent": absent + sorted({a for r in runs if r.trace for a in r.trace["absent"]}),
        "invocations": [
            {
                "id": index, "mode": r.mode, "code": r.code, "scale": r.scale,
                "wall_s": r.wall_s, "setup_s": r.setup_s,
                "cpu_s": r.cpu_s, "peak_rss_mib": r.peak_rss_mib,
                "cache_bytes_written": r.cache_bytes_written, "problems": r.problems,
                "spans": [
                    [name, s - r.start, e - r.start, parent, index]
                    for name, s, e, parent in r.trace["spans"]
                ] if r.mode == "layers" and r.trace else None,
            }
            for index, r in enumerate(checked)
        ],
        "result": {
            "correct": failed == 0,
            "attempted": len(checked),
            "failed": failed,
            "metrics": metrics,
        },
    }


def report(record: dict, units: dict) -> None:
    """Human-readable summary; the result JSON line is printed after it."""
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['invocations'])} invocations, one at a time")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for r in record["invocations"]:
        for problem in r["problems"]:
            print(f"FAILED ({r['mode']}): {problem}")
    measured = record["measured"]
    unscaled = record["unscaled"]
    if unscaled:
        scales = record["scales"]
        print(f"times scaled to the reference speed (calibration task {CALIBRATION_REF_S} s) by "
              f"median {statistics.median(scales):.3f}, range {min(scales):.3f}-{max(scales):.3f}")
    for name, unit in units.items():
        if name in measured:
            raw = f"   (unscaled {unscaled[name]:.6g})" if name in unscaled and name != "peak_rss_mib" else ""
            print(f"  {name:<48} {measured[name]:.6g} {unit}{raw}")
    if "trace.self_sum_s" in measured:
        print(f"self times add up to {measured['trace.self_sum_s']:.4f} s; with untraced glue "
              f"{measured['trace.untraced_s']:.4f} s that is the traced wall "
              f"{measured['trace.wall_s']:.4f} s (medians)")
    if record["absent"]:
        print("absent: " + ", ".join(record["absent"]))


def main(argv=None) -> int:
    start = now()
    # On SIGTERM, unwind as on Ctrl-C, so the children are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help='one workload, or "all" to run each in turn')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "billzeta" / "cli.py").is_file():
        print(f"error: no billzeta sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)  # byte-compile before timing, not in the first child
    references = json.loads((BENCH / "references.json").read_text())
    units = dict(declared("end_to_end"), error_rate="ratio", **declared("per_layer"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for index, name in enumerate(names):
        deadline = (start if index == 0 else now()) + RUN_LIMIT_S
        record = run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                     references[name], OUT, deadline)
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
        report(record, units)
        print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
