"""The process runner ``cli.run``: what the ``conceptscope`` command and
``python -m conceptscope`` execute. It ends the process with ``os._exit``
once stdout and stderr are flushed, so these tests hold it to what the
in-process ``main`` gives: the same exit code, stdout, stderr and files."""

import ast
import importlib
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from cli_fixtures import HELP_COLUMNS, env_with_src, run_cli, write_fixtures
from conceptscope import cli

ROOT = Path(__file__).resolve().parents[1]


# Each case's exit code, and its arguments from the fixtures ``f`` and a
# directory ``out`` for the files it writes.
CASES = {
    "help": (0, lambda f, out: ["--help"]),
    "measure": (0, lambda f, out: ["measure", "-d", f"LR={f['lr']}", "-d", f"RF={f['rf']}"]),
    "measure-file": (0, lambda f, out: [
        "measure", "-d", f"LR={f['lr']}", "-m", "class-conditioned", "--delta", "0.05",
        "--ground-truth", "-f", "json", "-o", str(out / "m.json")]),
    "edit": (0, lambda f, out: [
        "edit", str(f["prompts"]), str(f["concepts"]), str(f["plan"]), str(f["images"]),
        "--out-prompts", str(out / "p.json")]),
    "theorem2": (0, lambda f, out: [
        "verify", "--suite", "theorem2", "--trials", "5", "--dim", "4",
        "--records", str(out / "r.jsonl")]),
    "bad-theta": (2, lambda f, out: [
        "measure", "-d", f"X={out / 'missing.jsonl'}", "-m", "concept-conditioned",
        "--theta", "2"]),
    "missing-file": (2, lambda f, out: [
        "completeness", str(out.parent / "missing.jsonl"), "stripes"]),
    "usage": (2, lambda f, out: ["verify", "--trials", "3"]),
    "strict": (3, lambda f, out: [
        "measure", "-d", f"U={f['undefined']}", "-m", "class-conditioned", "--strict"]),
}


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _env():
    return dict(env_with_src(), COLUMNS=HELP_COLUMNS)


@pytest.mark.parametrize("case", CASES)
def test_process_matches_in_process(tmp_path, case):
    expect, make_args = CASES[case]
    fixtures = write_fixtures(tmp_path)
    process, in_process = tmp_path / "process", tmp_path / "in-process"
    process.mkdir()
    in_process.mkdir()
    done = subprocess.run([sys.executable, "-m", "conceptscope", *make_args(fixtures, process)],
                          capture_output=True, env=_env())
    result = run_cli(make_args(fixtures, in_process))
    assert done.returncode == expect, done.stderr.decode()
    assert (done.returncode, done.stdout, done.stderr, _files(process)) == (
        result.exit_code, result.stdout_bytes, result.stderr_bytes, _files(in_process))


# A theorem2 suite whose every trial fails, run through ``cli.run``.
_FAILING_THEOREM2 = (
    "from conceptscope import cli, verify\n"
    "from conceptscope.synthetic import Theorem2Trial\n"
    "verify.theorem2_trial = lambda epsilon, delta, dim, seed: Theorem2Trial(0.5, 7, False)\n"
    "cli.run()\n"
)


def test_failing_suite_process_matches_in_process(tmp_path, monkeypatch):
    from conceptscope import verify
    from conceptscope.synthetic import Theorem2Trial

    args = ["verify", "--suite", "theorem2", "--trials", "5", "--records"]
    done = subprocess.run([sys.executable, "-c", _FAILING_THEOREM2, *args,
                           str(tmp_path / "process.jsonl")], capture_output=True, env=_env())
    monkeypatch.setattr(verify, "theorem2_trial",
                        lambda epsilon, delta, dim, seed: Theorem2Trial(0.5, 7, False))
    result = run_cli([*args, str(tmp_path / "in-process.jsonl")])
    assert done.returncode == 1, done.stderr.decode()
    assert (done.returncode, done.stdout, done.stderr) == (
        result.exit_code, result.stdout_bytes, result.stderr_bytes)
    assert done.stdout.count(b'"check": "bound"') == 5
    assert (tmp_path / "process.jsonl").read_bytes() == (
        tmp_path / "in-process.jsonl").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failing_final_flush_exits_120_as_python_does(tmp_path):
    """Text left in stdout's buffer that cannot be written at exit: ``run``
    leaves the exit to Python, which reports it and exits 120, as it does
    after ``main``."""
    fixtures = write_fixtures(tmp_path)
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    outcomes = []
    for entry in ("run", "main"):
        script = f"import sys; from conceptscope import cli; sys.stdout.write('x'); cli.{entry}()"
        with open("/dev/full", "wb") as full:
            done = subprocess.run(
                [sys.executable, "-c", script, "measure", "-d", f"LR={fixtures['lr']}",
                 "-o", str(tmp_path / f"{entry}.csv")],
                stdout=full, stderr=subprocess.PIPE, env=env)
        outcomes.append((done.returncode, done.stderr))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 120, outcomes[0][1].decode()
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


@pytest.mark.parametrize("code", ["None", "4", "'stopped'"])
def test_exit_code_as_python_gives_it(code):
    """``run`` ends the process as ``sys.exit(code)`` would, for a code that
    is None or not an int too."""
    run, plain = (
        subprocess.run([sys.executable, "-c", script], capture_output=True, env=_env())
        for script in (f"import sys; from conceptscope import cli; "
                       f"cli.main = lambda: sys.exit({code}); cli.run()",
                       f"import sys; sys.exit({code})")
    )
    assert (run.returncode, run.stdout, run.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)


def test_entry_points_call_run(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = project["project"]["scripts"]["conceptscope"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append("run"))
    runpy.run_module("conceptscope", run_name="__main__")
    assert calls == ["run"]


def test_runtime_dependencies_are_the_third_party_imports():
    """``pyproject.toml``'s runtime dependencies are exactly the top-level
    modules outside the standard library that the package imports anywhere
    (each distribution here is named as its module)."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
                for spec in project["project"]["dependencies"]}
    imported = set()
    for path in (ROOT / "src" / "conceptscope").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"conceptscope"}
    assert third_party == declared == {"numpy", "orjson"}
