#!/usr/bin/env python3
"""End-to-end benchmark of the freeutil CLI, with an optional traced run.

    python3 bench/run.py --workload tree-88k --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and the CLI is started as ``python -m freeutil`` with
``PYTHONPATH=src``. Untraced (``--trace 0``), a run sets up the workload
several times (build the problems from seeded arrays through the public
constructors, write them with ``freeutil.dump``, make one cold CLI call),
then repeats whole rounds of CLI calls, one at a time, until ``--seconds``
have passed. It reports the median set-up time, the median time of one call
and the largest resident set of any call. Traced (``--trace 1``), it runs the
same calls in process through ``freeutil.cli.main``, once plain and once with
every module's public functions wrapped in spans, and reports per-layer
metrics. Every output is checked against ``reference.py``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The result, its samples, the machine and any
spans also go to ``bench/out/``.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads, here and in every child. The
# package's verify reports echo FREEUTIL_SEED, so no call sees one.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)
os.environ.pop("FREEUTIL_SEED", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# Set-up passes per untraced run; setup_s is their median.
SETUP_REPS = 3
# Fresh interpreters timed for import.s in the traced run.
IMPORT_REPS = 5
# The CPUs of a small virtual machine can differ in speed, and which one a
# child lands on is luck; so every timed step is pinned to one CPU and the
# steps take the CPUs in turn.
CPUS = sorted(os.sched_getaffinity(0))

# A fixed piece of pure-Python work in a fresh interpreter that does not
# touch freeutil: JSON encoding and decoding, float formatting, small
# objects. The machine's speed drifts by a third within a minute; the probe
# slows down with it, so a run's times are scaled by its probes.
SPEED_PROBE = (
    "import json, random\n"
    "rng = random.Random(7)\n"
    "doc = [{'name': 'n%d' % i, 'p': rng.random(), 'kids': [i, i + 1]} for i in range(15000)]\n"
    "back = json.loads(json.dumps(doc, indent=2))\n"
    "text = ','.join(format(d['p'], '.12g') for d in back)\n"
)
# The probe's time on the reference machine: a scaled time reads as the
# seconds the step would take there.
PROBE_REF_S = 0.35
# A timed call is preceded by a probe once this long has passed since the
# last one, so the probes sample the whole run.
PROBE_GAP_S = 1.0

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import freeutil\n"
    "print(time.perf_counter() - t, len(sys.modules))\n"
)


@dataclass
class Call:
    """One finished CLI call: which operation of the round, and its outcome."""

    index: int
    wall: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


@contextlib.contextmanager
def pinned(cpu: int):
    """Run this process on one CPU for the duration of the block."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


class Launcher:
    """The small process that starts every child and times it (launcher.py).

    Children write their output to files in the run's work directory; ``run``
    returns (wall seconds, peak RSS in MB, exit code, stdout, stderr).
    """

    def __init__(self, workdir: Path):
        self.stdout, self.stderr = workdir / "child.out", workdir / "child.err"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            cwd=ROOT, env=CHILD_ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list, cpu: int | None = None) -> tuple:
        request = {
            "argv": argv, "cwd": str(ROOT), "cpu": cpu,
            "stdout": str(self.stdout), "stderr": str(self.stderr),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher stopped")
        reply = json.loads(line)
        return (
            reply["wall"], reply["rss_mb"], reply["code"],
            self.stdout.read_text(encoding="utf-8"), self.stderr.read_text(encoding="utf-8"),
        )

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cli_call(launcher: Launcher, index: int, op, cpu: int) -> Call:
    return Call(index, *launcher.run([sys.executable, "-m", "freeutil", *op.argv], cpu))


def in_process_call(cli, index: int, op) -> Call:
    """``cli.main`` in this process, its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(op.argv))
        wall = time.perf_counter() - start
    return Call(index, wall, 0.0, code, out.getvalue(), err.getvalue())


class Checker:
    """Checks every call: the exit code, then the output of the first call of
    each operation, then that every later call printed the same bytes.

    A call with an unexpected exit code is a failure; a check that does not
    hold on any other call is a problem and makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.problems: list = []
        self._digests: dict = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.problems

    def add(self, ops: list, call: Call) -> None:
        op = ops[call.index]
        what = " ".join(op.argv)
        self.attempted += 1
        if call.code != op.exit_code:
            self.failures.append(
                f"{what}: exit {call.code}, expected {op.exit_code}: {call.stderr.strip()[-300:]}"
            )
            return
        digest = hashlib.sha256((call.stdout + "\0" + call.stderr).encode()).hexdigest()
        if call.index in self._digests:
            if digest != self._digests[call.index]:
                self.problems.append(f"{what}: output differs between calls")
            return
        self._digests[call.index] = digest
        try:
            if op.error is not None:
                head = call.stderr.strip().splitlines()[:1]
                if call.stdout or not head or not head[0].startswith(op.error + ":"):
                    raise CheckFailed(f"expected {op.error}, got {call.stderr.strip()!r}")
            else:
                op.check(call.stdout)
        except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as e:
            self.problems.append(f"{what}: {type(e).__name__}: {e}")

    def check_files(self, built) -> None:
        if built.check_files is None:
            return
        try:
            built.check_files()
        except CheckFailed as e:
            self.problems.append(f"written files: {e}")


class SpeedGauge:
    """Speed probes taken between the timed steps of a run. The run's times
    are scaled by PROBE_REF_S over the mean probe time."""

    def __init__(self, launcher: Launcher):
        self.launcher = launcher
        self.probes: list = []
        self.last = 0.0  # when the last probe ended

    def probe(self, cpu: int) -> None:
        self.probes.append(self.launcher.run([sys.executable, "-c", SPEED_PROBE], cpu)[0])
        self.last = time.perf_counter()

    @property
    def scale(self) -> float:
        return PROBE_REF_S / statistics.mean(self.probes)


def set_up(fu, workload, seed: int, workdir: Path):
    """Build the workload's problems and write them with ``freeutil.dump``."""
    built = workload.build(fu, seed, workdir, ROOT)
    for path, pf in built.files.items():
        fu.dump(pf, str(path))
    return built


def untraced_run(fu, workload, seed: int, seconds: float, workdir: Path, launcher: Launcher, checker: Checker, samples: dict) -> dict:
    # Byte-compile the package first, so that no set-up pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "freeutil")],
        check=True, env=CHILD_ENV, stdout=subprocess.DEVNULL,
    )
    gauge = SpeedGauge(launcher)
    setups, rss = [], []
    for rep in range(SETUP_REPS):
        cpu = CPUS[rep % len(CPUS)]
        gauge.probe(cpu)
        with pinned(cpu):
            start = time.perf_counter()
            built = set_up(fu, workload, seed, workdir)
            cold = cli_call(launcher, 0, built.ops[0], cpu)
            setups.append(time.perf_counter() - start)
        checker.check_files(built)
        checker.add(built.ops, cold)
        rss.append(cold.rss_mb)
    ops = built.ops
    del built

    # One round runs every operation equally often on every CPU.
    passes = len(CPUS) // math.gcd(len(ops), len(CPUS))
    plan = [i for _ in range(passes) for i in range(len(ops))]
    walls = []
    gauge.probe(CPUS[0])
    start = time.perf_counter()
    while True:
        for k, i in enumerate(plan):
            cpu = CPUS[k % len(CPUS)]
            if time.perf_counter() - gauge.last >= PROBE_GAP_S:
                gauge.probe(cpu)
            call = cli_call(launcher, i, ops[i], cpu)
            walls.append(call.wall)
            rss.append(call.rss_mb)
            checker.add(ops, call)
        if time.perf_counter() - start >= seconds:
            break
    gauge.probe(CPUS[0])
    samples.update({"setup_s": setups, "cli_s": walls, "rss_mb": rss, "probe_s": gauge.probes})
    return {
        "setup_s": {"value": statistics.median(setups) * gauge.scale, "unit": "s"},
        "cli_s": {"value": statistics.median(walls) * gauge.scale, "unit": "s"},
        "peak_rss_mb": {"value": max(rss), "unit": "MB"},
    }


def import_probe(launcher: Launcher) -> tuple:
    """Median seconds of ``import freeutil`` in a fresh interpreter, and the
    number of modules it leaves loaded."""
    times, modules = [], 0
    for _ in range(IMPORT_REPS):
        _, _, code, out, err = launcher.run([sys.executable, "-c", IMPORT_PROBE])
        if code != 0:
            raise RuntimeError(f"import freeutil failed: {err.strip()}")
        t, modules = out.split()
        times.append(float(t))
    return statistics.median(times), int(modules)


def round_metrics(summary: dict) -> dict:
    names, layers = summary["names"], summary["layers"]

    def name(key, stat="s"):
        return names.get(key, {}).get(stat, 0)

    def layer(key, stat):
        return layers.get(key, {}).get(stat, 0)

    return {
        "problemio.loads_s": name("problemio.loads"),
        "model.kl_calls": name("model.kl_divergence", "calls"),
        "model.kl_s": name("model.kl_divergence"),
        "variational.tilt_calls": name("variational.exponential_tilt", "calls"),
        "variational.tilt_entries": name("variational.exponential_tilt", "size"),
        "variational.tilt_s": name("variational.exponential_tilt"),
        "sequential.calls": layer("sequential", "calls"),
        "sequential.s": layer("sequential", "s"),
        "sequential.self_s": layer("sequential", "self_s"),
        "oracle.calls": layer("oracle", "calls"),
        "oracle.s": layer("oracle", "s"),
        "verify.calls": layer("verify", "calls"),
        "verify.s": layer("verify", "s"),
        "cli.main_s": name("cli.main"),
        "cli.self_s": layer("cli", "self_s"),
    }


def traced_run(fu, workload, seed: int, seconds: float, workdir: Path, launcher: Launcher, checker: Checker, span_file) -> dict:
    import freeutil.cli as cli

    rec = spans.Recorder()
    with spans.instrument(rec, fu):
        with rec.span("model.build"):
            built = workload.build(fu, seed, workdir, ROOT)
        for path, pf in built.files.items():
            fu.dump(pf, str(path))
    checker.check_files(built)
    setup = spans.summarize(rec.spans)["names"]
    rec.dump_jsonl(span_file, round=-1)
    ops = built.ops
    del built

    import_s, import_modules = import_probe(launcher)
    rounds = []
    start = time.perf_counter()
    while True:
        rec = spans.Recorder()
        plain = traced = decode = 0.0
        in_bytes = out_bytes = 0
        for i, op in enumerate(ops):
            for path in op.reads:
                text = Path(path).read_bytes()
                in_bytes += len(text)
                t0 = time.perf_counter()
                json.loads(text)
                decode += time.perf_counter() - t0
            # The plain and the traced call of a pair run on the same CPU,
            # the plain one first in even rounds and second in odd ones.
            with pinned(CPUS[i % len(CPUS)]):
                for traced_turn in ((False, True) if len(rounds) % 2 == 0 else (True, False)):
                    if traced_turn:
                        with spans.instrument(rec, fu), rec.span("cli.main"):
                            call = in_process_call(cli, i, op)
                        traced += call.wall
                        out_bytes += len(call.stdout.encode())
                    else:
                        call = in_process_call(cli, i, op)
                        plain += call.wall
                    checker.add(ops, call)
        metrics = round_metrics(spans.summarize(rec.spans))
        metrics.update(
            {
                "problemio.bytes": in_bytes,
                "problemio.decode_s": decode,
                "cli.out_bytes": out_bytes,
                "trace.overhead_s": traced - plain,
            }
        )
        rec.dump_jsonl(span_file, round=len(rounds))
        rounds.append(metrics)
        if time.perf_counter() - start >= seconds:
            break

    values = {
        "import.s": import_s,
        "import.modules": import_modules,
        "problemio.dumps_s": setup.get("problemio.dumps", {}).get("s", 0.0),
        "model.build_s": setup["model.build"]["s"],
    }
    for key in rounds[0]:
        values[key] = statistics.median(r[key] for r in rounds)
    return {key: {"value": value, "unit": unit_of(key)} for key, value in values.items()}


def unit_of(key: str) -> str:
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith("bytes"):
        return "bytes"
    return "count"


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref_name = text[5:]
    loose = ROOT / ".git" / ref_name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    return None


def machine() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "freeutil").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_used": CPUS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "freeutil" / "__init__.py").is_file():
        print(f"error: no freeutil sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import freeutil as fu

    if Path(fu.__file__).resolve().parent != SRC / "freeutil":
        print(f"error: imported freeutil from {fu.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    checker = Checker()
    samples: dict = {}
    launcher = Launcher(workdir)
    try:
        if args.trace:
            with open(OUT / f"{tag}.spans.jsonl", "w") as span_file:
                metrics = traced_run(fu, workload, args.seed, args.seconds, workdir, launcher, checker, span_file)
        else:
            metrics = untraced_run(fu, workload, args.seed, args.seconds, workdir, launcher, checker, samples)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "failures": checker.failures,
        "problems": checker.problems,
        "samples": samples,
        "result": result,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    for line in checker.failures + checker.problems:
        print(f"problem: {line}", file=sys.stderr)
    print(f"{args.workload}: attempted {checker.attempted}, failed {checker.failed}, correct {checker.correct}")
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    if samples:
        probes = samples["probe_s"]
        print(
            f"  times scaled by {PROBE_REF_S} s over the mean of {len(probes)} speed probes, "
            f"{statistics.mean(probes):.4g} s; unscaled medians setup_s "
            f"{statistics.median(samples['setup_s']):.4g} s, cli_s {statistics.median(samples['cli_s']):.4g} s"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
