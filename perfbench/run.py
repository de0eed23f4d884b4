"""Seeded benchmark of the shintani CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. One process drives `shintani.cli.main(argv)` as a closed loop with
one client: the next op starts when the previous one has returned. Op
inputs come from `--seed` only (see `workloads.py`), are written as JSON
files under `.perfbench/` and passed with `--input`; reports are captured
from stdout and checked against the benchmark's own oracles.

Workloads: `cocycle_n3` (cocycle and equivariance trials, n=3, M=4),
`pair_sweep` (wedge pairings at n=2,3) and `measure_moments` (measure
criteria and moment tables at n=1..3).

`--trace 0` times ops for `--seconds` seconds, stopping at the end of a
workload block once at least `min_ops` ops ran (cocycle_n3 needs 200, about
a minute), and reports the end-to-end metrics. Op and set-up times are
scaled by the machine speed measured between ops (see `calibrate`); the
raw wall-clock figures are printed beside them.
  setup_s      median over 5 fresh interpreters of importing shintani and
               shintani.cli and parsing the run's first inputs with
               testfunctions.from_json / solomon_hu.pm_from_json
  op_s.p50     median latency of one op
  op_s.p90     90th percentile latency (at least 10 ops lie above it)
  ops_per_s    ops per second of time spent inside cli.main
  peak_rss_mb  ru_maxrss of this process
failed_frac (failed / attempted) is printed beside them and carried by the
result's `attempted` and `failed` fields; any failed op makes `correct`
false.

`--trace 1` ignores `--seconds` and runs the first `trace_ops` ops of the
same stream three times from emptied memo caches: untraced, with every
public package function wrapped in a span (`tracer.py`), and untraced
again. It reports the per-layer metrics and the tracing overhead (traced
time over the mean untraced time).

Determinism guards: the digest of the first `trace_ops` outputs, and in a
traced run every count, are stored in `.perfbench/state.json` per
workload, seed and source digest, and must match across runs; the first
ops are replayed after the timed loop and must reproduce their outputs.
Each run also feeds its checker a wrong output, which it must reject, and
probes two known defects outside the timed loop, reporting 1 while each
persists: `amice.known_pole_accepted` (`--command moments` accepts a
genuine pole the truncated series cannot see) and
`cocycle.known_resample_crash` (a `--corrupt-sign` control whose
deformation vector gets re-sampled exits 2 instead of 6).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Without the package sources the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
SETUP_REPS = 5
REPLAY_SECONDS = 2.0
# Op times are scaled to a machine on which calibrate() takes CAL_REF_S; it
# is measured at least every CAL_EVERY_S seconds between ops.
CAL_REF_S = 0.0022
CAL_EVERY_S = 0.1

SETUP_PROBE = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import shintani, shintani.cli
from shintani import solomon_hu, testfunctions
with open(sys.argv[2], encoding="utf-8") as fh:
    items = json.load(fh)
parsers = {"tf": testfunctions.from_json, "pm": solomon_hu.pm_from_json}
for kind, data in items:
    parsers[kind](data)
print(time.perf_counter() - t0)
"""

# numerator sum_t (-1)^t C(13, t) delta_(0,t) over 1 - delta_(1,0), p = 3:
# a genuine pole that the degree-12 series test cannot see
KNOWN_POLE = {
    "numerator": [{"vector": [0, t], "coeff": str((-1) ** t * comb(13, t))}
                  for t in range(14)],
    "denominator": [[1, 0]],
}
# a --corrupt-sign control whose first deformation vector is not generic:
# verify_cocycle re-samples it, then the offending sum is recomputed at the
# old vector and the run exits 2 instead of 6
KNOWN_RESAMPLE_SEED = 9705


def calibrate() -> float:
    """Seconds for a fixed job of Fraction and dict arithmetic, the kind of
    work the package does, best of three.

    On a shared machine the speed of this one process drifts by up to 40%
    within seconds. Scaling op times by CAL_REF_S over the calibration time
    measured around each op cancels that drift, so runs compare; the
    unscaled times are printed beside them.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 600):
            total += Fraction(i % 7 + 1, i % 11 + 1)
        table = {}
        for i in range(4000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Calibration samples of one run, to scale op times by the speed the
    machine had while each op ran."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def tick(self, force: bool = False):
        now = time.perf_counter()
        if force or not self.samples or now - self.samples[-1][0] >= CAL_EVERY_S:
            self.samples.append((now, calibrate()))

    def scale(self, start: float, end: float) -> float:
        """CAL_REF_S over the mean calibration just before start and just
        after end."""
        times = [t for t, _cal in self.samples]
        before = self.samples[max(0, bisect.bisect_right(times, start) - 1)][1]
        after = self.samples[min(len(times) - 1, bisect.bisect_left(times, end))][1]
        return 2 * CAL_REF_S / (before + after)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(SRC / "shintani").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "source_sha256": source_digest(),
        "seed": seed,
    }


class Runner:
    def __init__(self, workload, seed: int, workdir: Path):
        from shintani import cli

        self.cli = cli
        self.wl = workload
        self.workdir = workdir
        self.stream = workload.ops(seed)
        self.ops: list = []
        self.problems: list[str] = []
        self.setup_done = False

    def op(self, i: int):
        while len(self.ops) <= i:
            op = next(self.stream)
            if op.input_name is not None:
                path = self.workdir / f"{op.input_name}.json"
                if not path.exists():
                    path.write_text(json.dumps(op.payload), encoding="utf-8")
                op.argv = op.argv + ["--input", str(path)]
            # the file holds the input now; keeping every payload in memory
            # would make peak_rss_mb grow with the number of ops
            op.payload = None
            if self.setup_done:
                op.parse = []
            self.ops.append(op)
        return self.ops[i]

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        """One op: exit code, captured report and wall seconds."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a traceback is a failed op, not a crash of the run
                code = -1
                err.write(repr(exc))
            self.last_span = (t0, time.perf_counter())
        return code, out.getvalue(), self.last_span[1] - t0

    def checked(self, i: int, code: int, out: str) -> bool:
        reason = self.wl.check(self.ops[i], code, out) if code != -1 else "raised"
        if reason is not None:
            self.problems.append(f"op {i} ({' '.join(self.ops[i].argv)}): {reason}")
        return reason is None

    def setup_seconds(self, count: int) -> float:
        seen, items = set(), []
        for i in range(count):
            op = self.op(i)
            if op.input_name not in seen:
                seen.add(op.input_name)
                items.extend(op.parse)
        path = self.workdir / "setup.json"
        path.write_text(json.dumps(items), encoding="utf-8")
        self.setup_done = True
        for op in self.ops:
            op.parse = []
        times = []
        for _ in range(SETUP_REPS):
            before = calibrate()
            done = subprocess.run(
                [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(path)],
                capture_output=True, text=True, timeout=120, check=True)
            scale = 2 * CAL_REF_S / (before + calibrate())
            times.append(float(done.stdout.strip().splitlines()[-1]) * scale)
        return statistics.median(times)

    def known_defects(self) -> dict[str, int]:
        """Run the repro of each known defect once, outside any timing:
        1 while the defect persists, 0 once it is fixed."""
        from workloads import Cocycle

        def code(name: str, payload: dict, argv: list[str]) -> int:
            path = self.workdir / f"{name}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            return self.call(argv + ["--input", str(path)])[0]

        pole = code("known_pole", KNOWN_POLE, ["--command", "moments", "--p", "3"])
        resample = code("known_resample", {"test_function": Cocycle().f},
                        ["--command", "cocycle", "--trials", "1", "--corrupt-sign",
                         "--seed", str(KNOWN_RESAMPLE_SEED)])
        return {"amice.known_pole_accepted": int(pole == 0),
                "cocycle.known_resample_crash": int(resample != 6)}


def digest(outputs) -> str:
    h = hashlib.sha256()
    for i, (code, out) in enumerate(outputs):
        h.update(f"{i}:{code}:".encode() + out.encode() + b"\0")
    return h.hexdigest()


def compare_state(key: str, record: dict) -> list[str]:
    """Store this run's digest and counts, or check them against an earlier
    run with the same workload, seed and sources."""
    path = STATE_DIR / "state.json"
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        state = {}
    known = state.setdefault(key, {})
    problems = []
    for field, value in record.items():
        if field in known and known[field] != value:
            problems.append(f"{field} differs from an earlier run with the same seed")
        known.setdefault(field, value)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, sort_keys=True, indent=1), encoding="utf-8")
    os.replace(tmp, path)
    return problems


def timed_run(runner: Runner, seconds: float) -> tuple[dict, int, int]:
    wl = runner.wl
    prefix = wl.trace_ops
    setup = runner.setup_seconds(prefix)
    clock = Clock()
    walls, spans, outputs, failed = [], [], [], 0
    i = 0
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or i < wl.min_ops
           or i % len(wl.BLOCK)):
        runner.op(i)
        clock.tick()
        code, out, wall = runner.call(runner.ops[i].argv)
        walls.append(wall)
        spans.append(runner.last_span)
        if i < prefix:
            outputs.append((code, out))
        failed += not runner.checked(i, code, out)
        i += 1
    clock.tick(force=True)
    latencies = [w * clock.scale(*span) for w, span in zip(walls, spans)]
    # replay the first ops with warm caches: outputs must not change
    replay_start = time.perf_counter()
    for j in range(prefix):
        code, out, _dt = runner.call(runner.ops[j].argv)
        if (code, out) != outputs[j]:
            runner.problems.append(f"op {j} gave a different report when replayed")
        if time.perf_counter() - replay_start > REPLAY_SECONDS:
            break
    q = statistics.quantiles(latencies, n=100, method="inclusive")
    metrics = {
        "setup_s": (setup, "s"),
        "op_s.p50": (q[49], "s"),
        "op_s.p90": (q[89], "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    cals = [cal for _t, cal in clock.samples]
    print(f"# calibration {len(cals)} samples, median {statistics.median(cals) * 1e3:.3f} ms, "
          f"range {min(cals) * 1e3:.3f}..{max(cals) * 1e3:.3f} ms")
    qw = statistics.quantiles(walls, n=100, method="inclusive")
    print(f"# wall op_s.p50 {qw[49]:.6g} op_s.p90 {qw[89]:.6g} ops_per_s {len(walls) / sum(walls):.6g}")
    print(f"# ops {len(latencies)} (p90 has {len(latencies) - round(0.9 * len(latencies))} "
          f"samples above it), failed_frac {failed / len(latencies):.4f}")
    runner.record = {"digest": digest(outputs)}
    return metrics, len(latencies), failed


def untraced_pass(runner: Runner, tracer, count: int) -> tuple[str, float]:
    """The first count ops from cold caches: digest and scaled seconds."""
    tracer.clear_caches()
    clock, outputs, spans = Clock(), [], []
    for i in range(count):
        clock.tick()
        code, out, wall = runner.call(runner.ops[i].argv)
        spans.append((runner.last_span, wall))
        outputs.append((code, out))
    clock.tick(force=True)
    return digest(outputs), sum(wall * clock.scale(*span) for span, wall in spans)


def traced_run(runner: Runner) -> tuple[dict, int, int]:
    from tracer import Tracer

    wl = runner.wl
    count = wl.trace_ops
    for i in range(count):
        runner.op(i)
    tracer = Tracer()
    # untraced passes before and after the traced one, so that warm-up
    # favours neither side of the overhead ratio
    first = untraced_pass(runner, tracer, count)
    tracer.clear_caches()
    tracer.install()
    missed = tracer.unwrapped_bindings()
    if missed:
        runner.problems.append("unwrapped bindings: " + ", ".join(missed))
    for key in tracer.uncounted():
        print(f"# note: {key} is not defined any more; its call count reads 0")
    # per op: span, wall, and the self and cell-enumeration time it added,
    # to be scaled by the machine speed while it ran (see calibrate)
    clock, traced, per_op, report_bytes = Clock(), [], [], 0
    cells = "solomon_hu.enumerate_fundamental_domain"
    for i in range(count):
        clock.tick()
        self_before, cells_before = dict(tracer.self_s), tracer.incl[cells]
        tracer.begin_op()
        code, out, wall = runner.call(runner.ops[i].argv)
        tracer.end_op()
        added = {m: v - self_before.get(m, 0.0) for m, v in tracer.self_s.items()}
        per_op.append((runner.last_span, wall, tracer.incl[cells] - cells_before, added))
        traced.append((code, out))
        report_bytes += len(out.encode())
    clock.tick(force=True)
    tracer.uninstall()
    traced_wall, cells_s = 0.0, 0.0
    self_s = dict.fromkeys(tracer.self_s, 0.0)
    for span, wall, cells_added, added in per_op:
        scale = clock.scale(*span)
        traced_wall += wall * scale
        cells_s += cells_added * scale
        for module, value in added.items():
            self_s[module] += value * scale
    tracer.self_s.update(self_s)
    tracer.incl[cells] = cells_s
    failed = sum(not runner.checked(i, code, out) for i, (code, out) in enumerate(traced))
    plain = untraced_pass(runner, tracer, count)
    if plain[0] != digest(traced):
        runner.problems.append("tracing changed a report")
    metrics = tracer.layer_metrics()
    metrics["cli.report_bytes"] = (report_bytes, "bytes")
    metrics["bench.trace_overhead"] = (traced_wall / ((first[1] + plain[1]) / 2), "ratio")
    runner.record = {"digest": plain[0], "counts": {
        name: value for name, (value, unit) in sorted(metrics.items())
        if unit not in ("s", "us") and name != "bench.trace_overhead"}}
    return metrics, count, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shintani" / "cli.py").is_file():
        print(f"error: no shintani sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    STATE_DIR.mkdir(exist_ok=True)
    workdir = STATE_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(wl, args.seed, workdir)
        try:
            wl.self_test()
        except AssertionError as exc:
            runner.problems.append(f"checker self-test: {exc}")
        if args.trace:
            metrics, attempted, failed = traced_run(runner)
        else:
            metrics, attempted, failed = timed_run(runner, args.seconds)
        defects = runner.known_defects()
        if args.trace:
            metrics.update({name: (value, "count") for name, value in defects.items()})
            runner.record["counts"].update(defects)
        key = f"{wl.name}|{args.seed}|{wl.trace_ops}|{source_digest()}"
        runner.problems += compare_state(key, runner.record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    print("# known defects " + json.dumps(defects, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"# {name} = {value:.6g} {unit}")
    for problem in runner.problems[:20]:
        print(f"# problem: {problem}")
    result = {
        "correct": not runner.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
