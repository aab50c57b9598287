"""Benchmark of the conceptscope CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a conceptscope source tree; the package is used
from ``src`` and is not installed. With ``--trace 0`` one closed-loop
client times ops (each a ``python -m conceptscope`` child process) back
to back for the whole rounds that come closest to S seconds, checks
every op's output, and prints the end-to-end metrics.
With ``--trace 1`` it runs one round of child processes for reference
outputs, then the same ops in process untraced and traced, checks that
all three give the same bytes, and prints the per-layer metrics. The
last stdout line is the JSON result; the lines before it are a log.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import reference

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"

# A run must end within 180 s. A child still running this long after the
# start is killed, so a hung op fails instead of stalling the run. The
# slowest run, large-file traced, takes about 100 s.
DEADLINE = time.perf_counter() + 165.0

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("ok_frac", "ratio", "higher"),
]

# Layer functions reported by total seconds, and those also by call count.
_TIMED = [
    "dataset.load_dataset", "dataset.with_ground_truth_predictions",
    "report.render_csv", "report.render_json", "report.render_svg",
    "completeness.completeness_closed_form", "completeness.completeness_brute_force",
    "verify.run_axioms_suite", "verify.run_theorem1_suite", "verify.run_theorem2_suite",
    "embeddings.load_vector_file", "tcav.class_conditioned_from_embeddings",
    "votes.load_votes_csv", "votes.metrics_at_k",
]
_COUNTED = [
    "measures.symmetric_measure", "measures.class_conditioned_measure",
    "measures.concept_conditioned_measure",
    "synthetic.generate_dataset", "synthetic.split_example",
    "synthetic.theorem2_trial", "synthetic.sample_spherical_cap",
    "prompts.classify", "prompts.edit_prompt", "prompts.evaluate",
]
LADDER = {"1k": 1_000, "50k": inputs.ROWS}
_LADDER_METRICS = (
    [(f"dataset.load_dataset.us_per_row.{tag}", "us/row", "lower") for tag in LADDER]
    + [(f"measures.{kind}_measure.s.{tag}", "s", "lower") for tag in LADDER
       for kind in ("symmetric", "class_conditioned", "concept_conditioned")]
)

PER_LAYER = (
    [("cli.import_s", "s", "lower"), ("cli.import_modules", "count", "lower"),
     ("cli.main.self_s", "s", "lower"),
     ("dataset.load_dataset.us_per_row", "us/row", "lower"),
     ("dataset.retained_mb", "MB", "lower"),
     ("report.compute_measure_table.self_s", "s", "lower"),
     ("report.na_cell_frac", "ratio", "lower"),
     ("verify.parallel_efficiency", "ratio", "higher"),
     ("trace.overhead_frac", "ratio", "lower")]
    + [(f"{name}.s", "s", "lower") for name in _TIMED + _COUNTED]
    + [(f"{name}.calls", "count", "lower") for name in _COUNTED]
    + _LADDER_METRICS
)

HELP_RUNS = 5
IMPORT_PROBE = (
    "import sys, time\n"
    "before = set(sys.modules)\n"
    "start = time.perf_counter()\n"
    "import conceptscope.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(repr(elapsed), len(set(sys.modules) - before))\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Op:
    name: str
    argv: list[str]
    units: int  # work one op does: input rows, commands or trials
    check: Callable[[bytes], str | None]


@dataclass
class Record:
    name: str
    wall: float
    cpu: float
    maxrss_kb: int
    code: int
    stdout: bytes
    stderr: bytes
    killed: bool

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def spawn(argv: list[str], stderr_path: Path, name: str = "") -> Record:
    """Run one child to completion, or kill it at DEADLINE; wall time, rusage and output."""
    with stderr_path.open("w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        lock, exited, killed = threading.Lock(), threading.Event(), threading.Event()

        def kill() -> None:
            with lock:
                if not exited.is_set():
                    proc.kill()
                    killed.set()

        timer = threading.Timer(max(0.0, DEADLINE - time.perf_counter()), kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
        finally:
            proc.stdout.close()
            # Wait for the exit without reaping, so the timer can never
            # signal a pid that has been reaped and reused.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                exited.set()
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        err.seek(0)
        stderr = err.read()
    return Record(name, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                  proc.returncode, stdout, stderr, killed.is_set())


def run_cli_op(op: Op, work: Path) -> Record:
    return spawn([sys.executable, "-m", "conceptscope", *op.argv], work / "stderr", op.name)


def _golden_check(expected: bytes) -> Callable[[bytes], str | None]:
    return lambda out: None if out == expected else "stdout differs from the golden bytes"


def _guard(check: Callable[[bytes], str | None], out: bytes) -> str | None:
    try:
        return check(out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class LargeFile:
    """Measure and completeness over 50k-row JSONL files: per-row cost."""

    def __init__(self, work: Path, seed: int) -> None:
        paths = inputs.write_large_files(work, seed)
        rel = {k: str(v.relative_to(ROOT)) for k, v in paths.items()}
        a, b = reference.load_series(paths["A"]), reference.load_series(paths["B"])
        binary = reference.load_series(paths["binary"])
        rows = len(a.weight)
        cc = reference.expected_table([("A", a), ("B", b)], "class_conditioned",
                                      delta=0.05, ground_truth=True)
        kc = reference.expected_table([("A", a)], "concept_conditioned", theta=0.5)
        sym = reference.expected_table([("B", b)], "symmetric")
        comp = reference.expected_completeness(binary, "c0")
        self.ops = [
            Op("measure-class-csv",
               ["measure", "-d", f"A={rel['A']}", "-d", f"B={rel['B']}",
                "-m", "class-conditioned", "--delta", "0.05", "--ground-truth", "-f", "csv"],
               2 * rows, lambda out: reference.check_csv(out, cc)),
            Op("measure-concept-json",
               ["measure", "-d", f"A={rel['A']}", "-m", "concept-conditioned",
                "--theta", "0.5", "-f", "json"],
               rows, lambda out: reference.check_json(
                   out, kc, kind="concept_conditioned", theta=0.5, delta=None)),
            Op("measure-symmetric-svg",
               ["measure", "-d", f"B={rel['B']}", "-m", "symmetric", "-f", "svg"],
               rows, lambda out: reference.check_svg(out, sym, title="symmetric")),
            Op("completeness-oracle", ["completeness", rel["binary"], "c0", "--oracle"],
               rows, lambda out: reference.check_completeness(out, "c0", comp)),
        ]
        # One round takes seconds and first-call costs are negligible
        # against it, so the traced run needs no warm-up round.
        self.trace_extras = {"reps": 1, "warmup": False, "retained": str(paths["A"]),
                             "ladder": {"path": str(paths["A"]), "sizes": LADDER}}

    def round(self) -> list[Op]:
        return self.ops


class SmallCli:
    """The CLI tests' golden commands plus plan: process start and import."""

    GOLDEN = [
        ("measure_symmetric.csv",
         lambda f: ["measure", "-d", f"LR={f['lr']}", "-d", f"RF={f['rf']}", "-m", "symmetric"]),
        ("measure_classcond_gt.json",
         lambda f: ["measure", "-d", f"LR={f['lr']}", "-m", "class-conditioned",
                    "--ground-truth", "--delta", "0.05", "-f", "json"]),
        ("measure_conceptcond.svg",
         lambda f: ["measure", "-d", f"LR={f['lr']}", "-d", f"RF={f['rf']}",
                    "-m", "concept-conditioned", "--theta", "1.0", "-f", "svg"]),
        ("completeness.json", lambda f: ["completeness", f["lr"], "stripes", "--oracle"]),
        ("tcav.json", lambda f: ["tcav", f["model"], f["embeddings"]]),
        ("votes.txt", lambda f: ["votes", f["votes"]]),
        ("edit_report.json",
         lambda f: ["edit", f["prompts"], f["concepts"], f["plan"], f["images"]]),
    ]

    def __init__(self, work: Path, seed: int) -> None:
        fixtures = inputs.write_cli_fixtures(work / "fixtures")
        rel = {k: str(v.relative_to(ROOT)) for k, v in fixtures.items()}
        golden = ROOT / "tests" / "golden"
        # The work unit here is one command.
        self.ops = [Op(name.split(".")[0], build(rel), 1,
                       _golden_check((golden / name).read_bytes()))
                    for name, build in self.GOLDEN]
        self.ops.append(Op("plan", ["plan", "--epsilon", "0.2", "--delta", "0.1"], 1,
                           _golden_check(b"116\n")))
        self.rng = random.Random(seed)
        self.trace_extras = {"reps": 10, "warmup": True, "retained": str(fixtures["lr"])}

    def round(self) -> list[Op]:
        order = list(self.ops)
        self.rng.shuffle(order)
        return order


class VerifySuites:
    """The three verify suites with two threads: thousands of tiny datasets."""

    SUITES = [("axioms", 1000, []), ("theorem1", 1000, []),
              ("theorem2", 500, ["--dim", "8"])]
    THREADS = 2

    def __init__(self, work: Path, seed: int) -> None:
        self.ops = []
        for suite, trials, extra in self.SUITES:
            digest = hashlib.sha256(f"{seed}:{suite}".encode()).digest()
            suite_seed = int.from_bytes(digest[:4], "big")
            argv = ["--threads", str(self.THREADS), "verify", "--suite", suite,
                    "--trials", str(trials), "--seed", str(suite_seed), *extra]
            self.ops.append(Op(suite, argv, trials, _suite_check(suite, trials)))
        self.trace_extras = {"reps": 1, "warmup": True}

    def round(self) -> list[Op]:
        return self.ops


def _suite_check(suite: str, trials: int) -> Callable[[bytes], str | None]:
    if suite == "axioms":
        want = [f"axioms/{c}: PASS ({trials}/{trials} within 1e-12)"
                for c in ("recursivity", "linearity", "decomposition")]
    elif suite == "theorem1":
        want = [f"theorem1/equality: PASS ({trials}/{trials} within 1e-12)"]
    else:
        want = None

    def check(out: bytes) -> str | None:
        lines = out.decode("utf-8").splitlines()
        if want is None:
            ok = (len(lines) == 1 and lines[0].startswith("theorem2/bound: PASS (")
                  and lines[0].endswith(", dim 8)"))
        else:
            ok = lines == want
        return None if ok else f"unexpected verify output {lines[:4]!r}"

    return check


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def typical_op(records: list[tuple[str, float]]) -> float:
    """Median wall time of each op kind, geometric mean over the kinds.

    A workload mixes op kinds of very different length, so the pooled
    median is the median of whichever kind sits in the middle, a handful
    of samples. This uses every op and weighs each kind alike.
    """
    kinds: dict[str, list[float]] = {}
    for name, wall in records:
        kinds.setdefault(name, []).append(wall)
    return statistics.geometric_mean(statistics.median(w) for w in kinds.values())


def end_to_end(setup_s, names, walls, cpus, rss_kb, units, loop_s, ok) -> dict:
    return {
        "setup_s": setup_s,
        "op_p50_s": typical_op(list(zip(names, walls))),
        "ops_per_s": len(walls) / loop_s,
        "op_cpu_s": sum(cpus) / len(cpus),
        "peak_rss_mb": max(rss_kb) / 1024.0,
        "work_per_s": sum(units) / sum(walls),
        "ok_frac": sum(ok) / len(ok),
    }


def median_wall(argv: list[str], work: Path, runs: int, check) -> float:
    """Median wall time of ``runs`` children after one untimed warm-up."""
    walls = []
    for i in range(runs + 1):
        record = spawn(argv, work / "stderr")
        if record.code != 0 or not check(record.stdout):
            raise RuntimeError(f"set-up command failed: {argv} -> {record.code}"
                               f" {record.stderr.decode(errors='replace')[-300:]}")
        if i:
            walls.append(record.wall)
    return statistics.median(walls)


def help_setup(work: Path) -> float:
    return median_wall([sys.executable, "-m", "conceptscope", "--help"], work, HELP_RUNS,
                       lambda out: b"Usage:" in out)


def import_probe(work: Path) -> tuple[float, int]:
    times, counts = [], set()
    for _ in range(HELP_RUNS):
        record = spawn([sys.executable, "-c", IMPORT_PROBE], work / "stderr")
        elapsed, count = record.stdout.split()
        times.append(float(elapsed))
        counts.add(int(count))
    if len(counts) != 1:
        raise RuntimeError(f"import added a varying number of modules: {sorted(counts)}")
    return statistics.median(times), counts.pop()


class Hashes:
    """Each op's stdout sha256, kept in OUT per workload and seed.

    The first correct output of an op fixes its hash; every later
    repetition, in this run or a later run with the same seed, traced or
    not, must match it.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.path = OUT / f"sha256-{workload}-{seed}.json"
        self.known = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, op: str, sha256: str) -> str | None:
        known = self.known.setdefault(op, sha256)
        if known != sha256:
            return f"stdout sha256 {sha256} differs from an earlier repetition's {known}"
        return None

    def save(self) -> None:
        OUT.mkdir(exist_ok=True)
        temporary = self.path.with_suffix(".tmp")
        temporary.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        temporary.replace(self.path)


def check_records(records: list[Record], ops: dict[str, Op], hashes: Hashes,
                  log) -> list[bool]:
    """Check each output and that every op's stdout repeats byte for byte."""
    ok = []
    for record in records:
        if record.killed:
            problem = "killed at the run's deadline"
        elif record.code != 0:
            problem = (f"exit {record.code}: "
                       f"{record.stderr.decode(errors='replace').strip()[-300:]}")
        else:
            problem = (_guard(ops[record.name].check, record.stdout)
                       or hashes.check(record.name, record.sha256))
        ok.append(problem is None)
        log(f"op {record.name:24s} {record.wall:8.4f}s cpu {record.cpu:8.4f}s "
            f"rss {record.maxrss_kb / 1024.0:7.1f}MB sha256 {record.sha256[:16]} "
            + ("ok" if problem is None else f"FAILED {problem}"))
    return ok


def run_cli_workload(workload, work: Path, seconds: float, hashes: Hashes, log) -> dict:
    setup_s = help_setup(work)
    records, rounds, last = [], 0, 0.0
    start = time.perf_counter()
    # Whole rounds, as many as bring the loop closest to ``seconds``: go on
    # while another round like the last would end nearer to it than now.
    while not rounds or time.perf_counter() - start + last / 2 < seconds:
        round_start = time.perf_counter()
        for op in workload.round():
            records.append(run_cli_op(op, work))
            if records[-1].killed:
                break
        last = time.perf_counter() - round_start
        rounds += 1
        if records[-1].killed:
            break
    loop_s = time.perf_counter() - start
    ops = {op.name: op for op in workload.ops}
    ok = check_records(records, ops, hashes, log)
    metrics = end_to_end(
        setup_s, [r.name for r in records], [r.wall for r in records],
        [r.cpu for r in records], [r.maxrss_kb for r in records],
        [ops[r.name].units for r in records], loop_s, ok)
    log(f"{rounds} rounds, {len(records)} ops in {loop_s:.3f}s;"
        f" slowest op {max(r.wall for r in records):.4f}s")
    return {"metrics": metrics, "attempted": len(ok), "failed": ok.count(False)}


def call_child(request: dict, work: Path) -> dict:
    request_path, response_path = work / "request.json", work / "response.json"
    request_path.write_text(json.dumps(request))
    record = spawn([sys.executable, str(BENCH / "child.py"), str(request_path),
                    str(response_path)], work / "stderr")
    if record.killed:
        raise RuntimeError("benchmark child killed at the run's deadline")
    if record.code != 0:
        raise RuntimeError("benchmark child failed:\n"
                           + record.stderr.decode(errors="replace")[-2000:])
    return json.loads(response_path.read_text())


# --------------------------------------------------------------------------
# Traced run
# --------------------------------------------------------------------------


def per_layer(response: dict, import_s: float, import_modules: int, threads: int,
              retained: float) -> dict:
    summary, counts = response["summary"], response["counts"]

    def stat(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    suites = [f"verify.run_{s}_suite" for s in ("axioms", "theorem1", "theorem2")]
    suite_wall = sum(stat(s, "s") for s in suites)
    rows = counts.get("dataset.load_dataset.rows", 0)
    cells = counts.get("report.compute_measure_table.cells", 0)
    values = {
        "cli.import_s": import_s,
        "cli.import_modules": import_modules,
        "cli.main.self_s": sum(v["self_s"] for k, v in summary.items()
                               if k.startswith("op.")),
        "dataset.load_dataset.us_per_row":
            stat("dataset.load_dataset", "s") / rows * 1e6 if rows else 0.0,
        "dataset.retained_mb": retained,
        "report.compute_measure_table.self_s": stat("report.compute_measure_table", "self_s"),
        "report.na_cell_frac":
            counts.get("report.compute_measure_table.na_cells", 0) / cells if cells else 0.0,
        "verify.parallel_efficiency":
            sum(stat(s, "cpu_s") for s in suites) / (threads * suite_wall)
            if suite_wall else 0.0,
        "trace.overhead_frac": response["traced_s"] / response["untraced_s"] - 1.0,
    }
    for name, _, _ in _LADDER_METRICS:
        values[name] = response.get("ladder", {}).get(name, 0.0)
    for name, _, _ in PER_LAYER:
        if name not in values:
            values[name] = stat(*name.rsplit(".", 1))
    return values


def run_traced(name: str, workload, work: Path, hashes: Hashes, log) -> dict:
    import_s, import_modules = import_probe(work)
    OUT.mkdir(exist_ok=True)
    ops = {op.name: op for op in workload.ops}
    records = [run_cli_op(op, work) for op in workload.round()]
    ok = check_records(records, ops, hashes, log)
    reference_sha = {r.name: r.sha256 for r in records}
    problems = [f"{r.name}: child-process op failed" for r, good in zip(records, ok)
                if not good]
    request = {"spans_path": str(OUT / f"trace-{name}.jsonl"), **workload.trace_extras,
               "ops": [{"name": op.name, "argv": op.argv} for op in workload.ops]}
    response = call_child(request, work)
    results = response["untraced"] + response["traced"]
    for result in results:
        stdout = base64.b64decode(result["stdout"])
        problem = (f"exit {result['code']}" if result["code"] != 0
                   else _guard(ops[result["name"]].check, stdout))
        if problem is None and hashlib.sha256(stdout).hexdigest() != reference_sha[
                result["name"]]:
            problem = "in-process stdout differs from the child-process stdout"
        if problem:
            problems.append(f"{result['name']}: {problem}")
    for problem in problems:
        log(f"FAILED {problem}")
    log(f"traced {len(response['traced'])} ops in {response['traced_s']:.3f}s,"
        f" untraced {response['untraced_s']:.3f}s; spans in {request['spans_path']}")
    threads = VerifySuites.THREADS if name == "verify-suites" else 0
    metrics = per_layer(response, import_s, import_modules, threads,
                        response.get("retained_mb", 0.0))
    return {"metrics": metrics, "attempted": len(records) + len(results),
            "failed": len(problems)}


# --------------------------------------------------------------------------

WORKLOADS = {
    "large-file": LargeFile,
    "small-cli": SmallCli,
    "verify-suites": VerifySuites,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    needed = [ROOT / "src" / "conceptscope" / "__main__.py", ROOT / "tests" / "cli_fixtures.py",
              ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: not a conceptscope source tree, missing {missing}",
              file=sys.stderr)
        return 2

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    log = lambda line: print(line, flush=True)  # noqa: E731
    hashes = Hashes(args.workload, args.seed)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            result = run_traced(args.workload, workload, work, hashes, log)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            result = run_cli_workload(workload, work, args.seconds, hashes, log)
            units = {name: unit for name, unit, _ in END_TO_END}
        hashes.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
