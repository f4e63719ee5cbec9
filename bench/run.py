"""privkit benchmark: drive the CLI as a user does and check every output.

    python3 bench/run.py --workload rappor_fleet --seed 1 --seconds 25 --trace 0

One closed-loop caller runs the workload's CLI calls one after another,
each as a child process, until ``--seconds`` have passed, and reports the
median over those passes. Inputs are generated from ``--seed`` before timing
starts. Every output is checked by ``oracle.py``, which does not import
privkit. Wall time and peak RSS are taken per child through ``os.wait4``.

``--trace 1`` runs the same calls in-process through ``privkit.cli.main``,
alternating untraced passes with passes in which ``tracing.py`` wraps each
module's public functions, and reports per-module busy time, self time and
work counts, plus the tracing overhead.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``) with exactly the metrics BENCHMARK.json lists for
the mode. The line before it holds the details: every end-to-end metric of
the workload, provenance, input sizes and the SHA-256 of each call's stdout
and output files. A readable summary goes to stderr. ``--workload all`` runs
every workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import tracing
from oracle import check_epsilon
from workloads import PAPER_PARAMS, WORKLOADS, Call, CallResult

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_CALLS = 7
IMPORT_PROBES = 5
CALL_TIMEOUT_S = 60
REF_LOOPS = 8_000
REF_NOMINAL_S = 0.04

_IMPORT_PROBE = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import privkit.cli\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps({'numpy_s': t1 - t0, 'import_s': t2 - t0,"
    " 'file': privkit.cli.__file__}))\n"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Turns a finished call into a CallResult: exit code, traceback, the
    oracle check, and the output fingerprints, which must repeat exactly
    from pass to pass."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.fingerprints: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def finish(self, call: Call, code, stdout: bytes, stderr: str,
               wall_s: float, rss_mb: float) -> CallResult:
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        try:
            out = json.loads(stdout)
        except ValueError:
            out = None
        if not isinstance(out, dict):
            problems.append("stdout is not a JSON object")
        elif not problems:
            problems += call.check(out)
        # The anonymize output path is absolute; drop the work directory so
        # fingerprints compare across checkouts.
        prints = {call.label: _sha256(stdout.replace(
            str(self.workdir.resolve()).encode() + b"/", b""))}
        for name in call.outputs:
            try:
                prints[f"{call.label}:{name}"] = _sha256((self.workdir / name).read_bytes())
            except OSError as exc:
                problems.append(f"cannot read {name}: {exc}")
        for key, value in prints.items():
            if self.fingerprints.setdefault(key, value) != value:
                problems.append(f"{key} differs from the first pass")
        if problems:
            self.failed += 1
            self.problems += [f"{call.label}: {p}" for p in problems]
        return CallResult(call.label, wall_s, rss_mb)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PRIVKIT_LOG", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], workdir: Path, env: dict):
    """Run one child to completion; return (wall s, exit code, stdout bytes,
    stderr text, peak RSS MiB of that child alone)."""
    out_path, err_path = workdir / ".stdout", workdir / ".stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env,
                         file_actions=actions)
    timer = threading.Timer(CALL_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
    code = os.waitstatus_to_exitcode(status)
    return (wall, code, out_path.read_bytes(),
            err_path.read_text(encoding="utf-8", errors="replace"),
            usage.ru_maxrss / 1024.0)


def reference_s() -> float:
    """Time of a fixed pure-Python loop (JSON, BLAKE2b, dict and integer work,
    like the CLI's own), taken beside each call to track host speed."""
    t0 = time.perf_counter()
    table = {}
    for i in range(REF_LOOPS):
        text = json.dumps({"i": i, "v": [i, i * i % 7]})
        table[i % 97] = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return time.perf_counter() - t0


class CliRunner:
    """Runs calls as child processes. Host speed on a shared machine drifts
    by tens of percent within seconds, so each call's wall time is also
    rescaled to a fixed host speed (``norm_s``) by the reference loop timed
    just before and just after it."""

    def __init__(self, workdir: Path, checker: Checker):
        self.workdir, self.checker, self.env = workdir, checker, _child_env()
        self.last_ref = reference_s()

    def run(self, call: Call) -> CallResult:
        before = self.last_ref
        wall, code, stdout, stderr, rss = spawn(
            ["-m", "privkit.cli"] + call.argv, self.workdir, self.env)
        self.last_ref = reference_s()
        result = self.checker.finish(call, code, stdout, stderr, wall, rss)
        result.norm_s = wall * 2 * REF_NOMINAL_S / (before + self.last_ref)
        return result


def run_in_process(call: Call, checker: Checker, tracer=None) -> CallResult:
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.roots.append((call.label, len(tracer.names)))
    main = sys.modules["privkit.cli"].main  # looked up each call: tracing patches it
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(call.argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    stdout = out.getvalue().encode("utf-8")
    if tracer is not None:
        tracer.counts["cli.stdout_bytes"] += len(stdout)
    return checker.finish(call, code, stdout, err.getvalue(), wall, 0.0)


def timed_passes(seconds: float, one_pass) -> list:
    """Repeat one_pass until the next one would end more than half a pass
    after the deadline; always at least one."""
    start = time.perf_counter()
    passes = []
    while True:
        t = time.perf_counter()
        passes.append(one_pass())
        took = time.perf_counter() - t
        if time.perf_counter() - start + took / 2 > seconds:
            return passes


def _median_of(dicts: list[dict]) -> dict:
    keys = {key for d in dicts for key in d}
    return {key: statistics.median(d[key] for d in dicts if key in d) for key in keys}


def _setup_call(workdir: Path) -> Call:
    with open(workdir / "setup_params.json", "w", encoding="utf-8") as fh:
        json.dump(PAPER_PARAMS, fh)
    params = dict(PAPER_PARAMS, hash_seed=0)
    return Call("setup", ["rappor", "epsilon", "--params", "@setup_params.json"],
                lambda out: check_epsilon(out, params))


def measure_untraced(workload, workdir: Path, seconds: float, checker: Checker) -> dict:
    runner = CliRunner(workdir, checker)
    setup = _setup_call(workdir)
    runner.run(setup)  # warm-up: writes bytecode caches
    setups = [runner.run(setup) for _ in range(SETUP_CALLS)]
    calls = workload.calls()
    units = {"setup_s": "s", "setup_raw_s": "s", "norm_wall_s": "s", "wall_s": "s",
             "peak_rss_mb": "MiB", "error_rate": "ratio"}

    def one_pass():
        results = {c.label: runner.run(c) for c in calls}
        values = {}
        for key, (value, unit) in workload.metrics(results).items():
            if value is not None:
                values[key], units[key] = value, unit
        for r in results.values():
            for key, value, unit in (("wall_s", r.wall_s, "s"), ("norm_s", r.norm_s, "s"),
                                     ("rss_mb", r.rss_mb, "MiB")):
                values[f"call.{r.label}.{key}"], units[f"call.{r.label}.{key}"] = value, unit
        return values

    passes = timed_passes(seconds, one_pass)
    # Host speed also drifts between passes, so each call's median over
    # passes is steadier than the median of whole-pass sums.
    values = _median_of(passes)
    values["setup_s"] = statistics.median(r.norm_s for r in setups)
    values["setup_raw_s"] = statistics.median(r.wall_s for r in setups)
    values["norm_wall_s"] = sum(values[f"call.{c.label}.norm_s"] for c in calls)
    values["wall_s"] = sum(values[f"call.{c.label}.wall_s"] for c in calls)
    values["peak_rss_mb"] = max(values[f"call.{c.label}.rss_mb"] for c in calls)
    values["error_rate"] = checker.failed / checker.attempted
    return {"passes": len(passes), "values": values, "units": units}


def import_probe(workdir: Path) -> dict:
    """Median over fresh interpreters of the time to import numpy and then
    privkit.cli, and of numpy alone."""
    env = _child_env()
    probes = []
    for _ in range(IMPORT_PROBES):
        _, code, stdout, stderr, _ = spawn(["-c", _IMPORT_PROBE], workdir, env)
        if code != 0:
            raise RuntimeError(f"import probe failed: {stderr.strip()}")
        probe = json.loads(stdout)
        if not Path(probe["file"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"privkit imported from {probe['file']}, not {SRC}")
        probes.append(probe)
    return {"cli.import_s": statistics.median(p["import_s"] for p in probes),
            "cli.import_numpy_s": statistics.median(p["numpy_s"] for p in probes)}


def measure_traced(workload, workdir: Path, seconds: float, checker: Checker,
                   spans_path: Path) -> dict:
    values = import_probe(workdir)
    sys.path.insert(0, str(SRC))
    import privkit.cli  # noqa: F401  (the in-process target)

    calls = workload.calls()
    last = None

    def one_pass():
        nonlocal last
        untraced = sum(run_in_process(c, checker).wall_s for c in calls)
        tracer = tracing.Tracer()
        with tracer.patched():
            traced = sum(run_in_process(c, checker, tracer).wall_s for c in calls)
        layer = tracing.layer_metrics(tracer.summarize())
        self_total = sum(layer[f"{m}.self_s"] for m in tracing.MODULES)
        layer.update({
            "trace.wall_s": traced,
            "trace.untraced_wall_s": untraced,
            "trace.overhead_s": traced - untraced,
            "trace.self_cover_pct": 100.0 * self_total / traced,
        })
        last = tracer
        return layer

    passes = timed_passes(seconds, one_pass)
    last.write_spans(str(spans_path))
    values.update(_median_of(passes))
    units = {name: _layer_unit(name) for name in values}
    return {"passes": len(passes), "values": values, "units": units}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("ns_per_bit"):
        return "ns"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def provenance(seed: int, sizes: dict) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():  # the checkout may not be a repository
        def run_git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        git = {"sha": run_git("rev-parse", "HEAD") or None,
               "dirty": bool(run_git("status", "--porcelain", "--untracked-files=no"))}
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git": git,
        "seed": seed,
        "sizes": sizes,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> None:
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    cwd = os.getcwd()
    os.chdir(workdir)  # calls name their files relative to the work directory
    try:
        workload = WORKLOADS[name](seed, str(workdir))
        checker = Checker(workdir)
        if trace:
            measured = measure_traced(workload, workdir, seconds, checker,
                                      outdir / f"spans-{name}-{seed}.jsonl")
        else:
            measured = measure_untraced(workload, workdir, seconds, checker)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer" if trace else "end_to_end"]
    values, units = measured["values"], measured["units"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"bench: {name} did not measure {missing}")
    detail = {
        "workload": name,
        "trace": int(trace),
        "passes": measured["passes"],
        "provenance": provenance(seed, workload.sizes),
        "metrics": {k: {"value": v, "unit": units.get(k, "s")}
                    for k, v in sorted(values.items())},
        "fingerprints": checker.fingerprints,
        "problems": checker.problems[:50],
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(f"{name} seed={seed} trace={int(trace)} passes={measured['passes']} "
          f"attempted={checker.attempted} failed={checker.failed}", file=sys.stderr)
    for k, v in sorted(values.items()):
        if not k.startswith("call."):
            print(f"  {k:40s} {v:14.6g} {units.get(k, 's')}", file=sys.stderr)
    for p in checker.problems[:20]:
        print(f"  FAILED {p}", file=sys.stderr)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "privkit" / "cli.py").is_file():
        print(f"bench: no privkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # One CPU for this process and every child, so the reference loop times
    # the same CPU the calls run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
