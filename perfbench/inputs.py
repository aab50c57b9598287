"""Seeded input files for the benchmark workloads.

The large-file inputs are generated here with numpy and written as
JSONL text, so the program under test receives nothing but the bytes. The
small-cli inputs are the test suite's own CLI fixtures, written by
``tests/cli_fixtures.write_fixtures`` in a child interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROWS = 50_000
CONCEPTS = 20
# Concepts whose values never reach theta = 0.5, so the concept-conditioned
# table has n/a cells and the n/a path is exercised and checked.
CAPPED = ("c18", "c19")
CAP = 0.45
NAMES = [f"c{j}" for j in range(CONCEPTS)]


def _write_jsonl(path: Path, prefix: str, prediction, values, weights, truth=None) -> None:
    """One object per line, formatted as ``json.dumps`` with compact separators."""
    keys = [f'"{name}":' for name in NAMES]
    with path.open("w", encoding="utf-8") as out:
        for i, (row, p, w) in enumerate(zip(values.tolist(), prediction.tolist(),
                                            weights.tolist())):
            concepts = ",".join(k + repr(v) for k, v in zip(keys, row))
            tail = "" if truth is None else f',"ground_truth":{int(truth[i])}'
            out.write(f'{{"id":"{prefix}{i:05d}","prediction":{p},"concepts":{{{concepts}}},'
                      f'"weight":{w!r}{tail}}}\n')
        # Write the file back now, so the writeback does not run during the
        # timed ops.
        out.flush()
        os.fsync(out.fileno())


def _write_continuous(path: Path, rng: np.random.Generator) -> None:
    values = rng.uniform(-1.0, 1.0, size=(ROWS, CONCEPTS))
    for name in CAPPED:
        values[:, NAMES.index(name)] = rng.uniform(-1.0, CAP, size=ROWS)
    prediction = rng.choice((-1, 1), size=ROWS)
    truth = np.where(rng.random(ROWS) < 0.8, prediction, -prediction)
    _write_jsonl(path, "x", prediction, values, rng.uniform(0.05, 1.0, size=ROWS), truth)


def _write_binary(path: Path, rng: np.random.Generator) -> None:
    values = rng.choice((-1.0, 1.0), size=(ROWS, CONCEPTS))
    # The prediction follows c0 three times in four, so completeness of c0
    # sits well inside (1/2, 1).
    follow = rng.random(ROWS) < 0.75
    prediction = np.where(follow, values[:, 0], -values[:, 0]).astype(int)
    _write_jsonl(path, "b", prediction, values, rng.uniform(0.05, 1.0, size=ROWS))


def write_large_files(directory: Path, seed: int) -> dict[str, Path]:
    """Two continuous series and one binary file, all ROWS x CONCEPTS."""
    rng = np.random.default_rng(seed)
    paths = {
        "A": directory / "series_a.jsonl",
        "B": directory / "series_b.jsonl",
        "binary": directory / "binary.jsonl",
    }
    _write_continuous(paths["A"], rng)
    _write_continuous(paths["B"], rng)
    _write_binary(paths["binary"], rng)
    return paths


ROOT = Path(__file__).resolve().parent.parent
_FIXTURE_SCRIPT = (
    "import sys; from pathlib import Path; "
    "sys.path[:0] = ['src', 'tests']; "
    "from cli_fixtures import write_fixtures; "
    "print('\\n'.join(f'{k}={v}' for k, v in write_fixtures(Path(sys.argv[1])).items()))"
)


def write_cli_fixtures(directory: Path) -> dict[str, Path]:
    """The CLI test fixtures, written by the test suite's own helper."""
    directory.mkdir()
    out = subprocess.run(
        [sys.executable, "-c", _FIXTURE_SCRIPT, str(directory)],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return {k: Path(v) for k, v in (line.split("=", 1) for line in out.splitlines())}
