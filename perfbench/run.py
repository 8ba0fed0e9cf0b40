"""cayleygap benchmark: CLI workloads timed from the outside, one process each.

    python3 perfbench/run.py --workload {spectrum,bounds,scans} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout that holds ``src/cayleygap``.  A pass runs
every invocation of the workload one after another, each in a fresh
``python3 -I perfbench/child.py`` process, so per-process caches start cold.
Passes repeat while another one fits in ``--seconds``.  Every invocation's
exit code and report are checked against ``expected/<workload>.json``.

``--trace 0`` runs each invocation twice back to back: once on ``src`` and
once on the frozen copy in ``reference/``, alternating which goes first.  The
end-to-end metrics are reference seconds: the reference's recorded time
(``reference/times.json``) times the run's ratio of ``src`` time to reference
time, so the machine's speed drift cancels.  ``--trace 1`` alternates
untraced and traced passes of ``src`` and prints the per-layer metrics of the
traced ones.  The last line of standard output is one JSON object; the lines
before it hold the environment record and a readable table.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = HERE / "configs"
EXPECTED = HERE / "expected"
REFERENCE_TIMES = HERE / "reference" / "times.json"
RUN_LIMIT_S = 170  # one run must end within 180 s
# the waiting parent plus the child's BLAS threads stay within the machine's cores
BLAS_THREADS = str(max(1, len(os.sched_getaffinity(0)) - 1))
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS}

# workload -> config stems, run in this order; the stem names the subcommand
WORKLOADS = {
    "spectrum": (
        "spectrum-cyclic1200",
        "spectrum-cyclic1000",
        "spectrum-dihedral500",
        "spectrum-abelian12x15",
        "spectrum-s5",
    ),
    "bounds": (
        "bounds-cyclic1009",
        "bounds-cyclic1511",
        "bounds-dihedral250",
        "bounds-abelian12x15",
        "bounds-s5",
    ),
    "scans": (
        "scan-cyclic1009",
        "scan-cyclic293",
        "bohr-dihedral200",
        "bohr-cyclic199",
        "bohr-abelian12x15",
        "experiment-interval-union",
        "experiment-sidon",
        "experiment-triple-free",
        "experiment-additive-basis",
    ),
}

END_TO_END = {"wall_s": "s", "compute_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# end-to-end time -> its part of one invocation record
TIMES = {
    "wall_s": lambda r: r["wall_s"],
    "compute_s": lambda r: r["main_s"],
    "setup_s": lambda r: r["wall_s"] - r["main_s"],
}


def command_of(stem: str) -> list[str]:
    kind, _, rest = stem.partition("-")
    return ["experiment", rest] if kind == "experiment" else [kind]


def cli_argv(stem: str, seed: int, out: Path) -> list[str]:
    config = CONFIGS / f"{stem}.cfg"
    return [*command_of(stem), "--config", str(config), "--seed", str(seed), "--out", str(out)]


def spawn(child_args: list[str], stderr_path: Path):
    """Run child.py once; returns (wall seconds, exit code, rusage)."""
    with stderr_path.open("wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-I", str(HERE / "child.py"), *child_args],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            cwd=ROOT,
            env=CHILD_ENV,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def run_invocation(stem: str, seed: int, mode: str, work: Path, expectations) -> dict:
    """One invocation in child.py's mode ``plain``, ``trace`` or ``reference``."""
    out, result_path, stderr_path = (work / f"{stem}{ext}" for ext in (".csv", ".json", ".err"))
    for path in (out, result_path):
        path.unlink(missing_ok=True)
    argv = cli_argv(stem, seed, out)
    wall, code, usage = spawn([str(result_path), mode, "--", *argv], stderr_path)
    result = json.loads(result_path.read_text()) if result_path.is_file() else None
    if result is None:
        problems = [f"no result (exit {code}): {stderr_path.read_text(errors='replace')[-300:]}"]
    elif result["exit"] != code:
        problems = [f"child reported exit {result['exit']}, process exited {code}"]
    else:
        problems = expectations.check(stem, seed, checks.digest(argv[0], code, out))
    for problem in problems:
        print(f"check failed: {stem} ({mode}) seed {seed}: {problem}", file=sys.stderr)
    main_s = result["main_s"] if result else wall
    return {
        "wall_s": wall,
        "main_s": main_s,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "failed": bool(problems),
        "trace": result.get("trace") if result else None,
    }


def run_pass(workload: str, seed: int, modes: tuple[str, ...], work: Path, expectations) -> dict[str, dict]:
    """Every invocation of the workload once per mode; one invocation's modes run back to back."""
    runs: dict[str, list[dict]] = {mode: [] for mode in modes}
    for stem in WORKLOADS[workload]:
        for mode in modes:
            runs[mode].append(run_invocation(stem, seed, mode, work, expectations))
    return {mode: summarise(mode_runs) for mode, mode_runs in runs.items()}


def summarise(runs: list[dict]) -> dict:
    return {
        **{name: sum(part(r) for r in runs) for name, part in TIMES.items()},
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "runs": runs,
    }


def reference_seconds(stems, passes: list[dict], recorded: dict) -> dict[str, float]:
    """End-to-end times in reference seconds.

    Per invocation, the recorded reference time is scaled by the run's summed
    ``src`` time over its summed reference time; the invocations add up.
    """
    return {
        name: sum(
            recorded[stem][name]
            * sum(part(p["plain"]["runs"][i]) for p in passes)
            / sum(part(p["reference"]["runs"][i]) for p in passes)
            for i, stem in enumerate(stems)
        )
        for name, part in TIMES.items()
    }


def layer_metrics(runs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its invocations."""
    traced = [r for r in runs if r["trace"] is not None]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counters: Counter = Counter()
    digests: dict[str, list] = {name: [] for name in tracer.DIGESTS}
    for summary in (r["trace"] for r in traced):
        for name, entry in summary["layers"].items():
            calls[name] += entry["calls"]
            self_s[name] += entry["self_s"]
        for name, value in summary["counters"].items():
            counters[name] = max(counters[name], value) if name in tracer.MAXIMA else counters[name] + value
        for name, values in summary["digests"].items():
            digests[name] += values
    metrics: dict[str, float] = {
        f"{layer}.{fname}.self_s": self_s[f"{layer}.{fname}"]
        for layer, names in tracer.TRACED.items()
        for fname in names
    }
    metrics.update((f"{name}.calls", calls[name]) for name in tracer.COUNTED)
    metrics.update((name, counters[name]) for name in tracer.COUNTERS + tracer.MAXIMA)
    for name, values in digests.items():
        metrics[f"{name}.distinct_share"] = len(set(values)) / len(values) if values else 0.0
    main_total = sum(r["main_s"] for r in traced)
    metrics["trace.coverage"] = sum(self_s.values()) / main_total if main_total else 0.0
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "coverage")):
        return "ratio"
    if name.endswith(("bytes_computed", "bytes_written")):
        return "bytes"
    return "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value stands for all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = []
        for index in caches.glob("index*"):
            levels.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        llc = max(levels)[1] if levels else None
    except (OSError, ValueError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, "llc": llc}


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under perfbench/.work, removed with its contents on exit."""
    base = HERE / ".work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=base))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()  # fails while another run still uses it


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cayleygap" / "cli.py").is_file():
        print(f"error: no cayleygap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expectations = checks.Expectations(EXPECTED / f"{args.workload}.json")
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        with scratch_dir(f"{args.workload}-") as work:
            _, code, _ = spawn([str(work / "probe.json"), "probe"], work / "probe.err")
            if code != 0:
                print(f"error: cannot import cayleygap: {(work / 'probe.err').read_text()}", file=sys.stderr)
                return 2
            env = json.loads((work / "probe.json").read_text())
            env.update(machine())
            env.update(commit=git_commit(), workload=args.workload, seed=args.seed, trace=args.trace)
            env["check"] = expectations.expected(WORKLOADS[args.workload][0], args.seed)[1]

            passes = []
            start = time.perf_counter()
            for rounds in itertools.count(1):
                if args.trace:
                    passes.append(run_pass(args.workload, args.seed, ("plain",), work, expectations))
                    passes.append(run_pass(args.workload, args.seed, ("trace",), work, expectations))
                else:
                    order = ("plain", "reference") if len(passes) % 2 == 0 else ("reference", "plain")
                    passes.append(run_pass(args.workload, args.seed, order, work, expectations))
                elapsed = time.perf_counter() - start
                if elapsed * (rounds + 1) / rounds > args.seconds:
                    break
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    stems = WORKLOADS[args.workload]
    if any(p["reference"]["failed"] for p in passes if "reference" in p):
        print("error: the frozen reference copy failed its check; its times cannot scale", file=sys.stderr)
        return 1
    plain = [p["plain"] for p in passes if "plain" in p]
    traced = [p["trace"] for p in passes if "trace" in p]
    attempted = sum(len(p["runs"]) for p in plain + traced)
    failed = sum(p["failed"] for p in plain + traced)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {len(passes)} passes, {attempted} invocations of src, "
          f"error_rate {failed / attempted:.4g} (failed / attempted)")
    if args.trace:
        per_pass = [layer_metrics(p["runs"]) for p in traced]
        values = {}
        for name in per_pass[0]:
            series = [p[name] for p in per_pass]
            if name.endswith("_s") or name == "trace.coverage":
                values[name] = statistics.median(series)
                continue
            values[name] = series[0]  # a count: it repeats exactly from pass to pass
            if len(set(series)) > 1:
                print(f"warning: {name} differs between passes: {series}", file=sys.stderr)
        values["trace.overhead_s"] = statistics.median(p["compute_s"] for p in traced) - statistics.median(
            p["compute_s"] for p in plain
        )
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}
        for name, metric in metrics.items():
            print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    else:
        recorded = json.loads(REFERENCE_TIMES.read_text())[args.workload]
        values = reference_seconds(stems, passes, recorded)
        values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in plain)
        reference = [p["reference"] for p in passes]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(f"  {'metric':<12} {'value':>10}      src: q1, median, q3 over passes    reference: median")
        for name, unit in END_TO_END.items():
            q1, median, q3 = quartiles([p[name] for p in plain])
            ref = statistics.median(p[name] for p in reference)
            print(f"  {name:<12} {values[name]:10.4f} {unit:<3}  {q1:10.4f} {median:10.4f} {q3:10.4f}  {ref:10.4f}")
        for i, stem in enumerate(stems):
            wall = statistics.median(p["runs"][i]["wall_s"] for p in plain)
            main_s = statistics.median(p["runs"][i]["main_s"] for p in plain)
            ref_wall = statistics.median(p["runs"][i]["wall_s"] for p in reference)
            print(f"  {stem:<28} wall {wall:7.3f} s  main {main_s:7.3f} s  reference wall {ref_wall:7.3f} s (medians)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
