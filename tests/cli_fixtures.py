"""Deterministic input files for CLI tests.

Vector fixtures are hand-built literals so expected report numbers can
be verified by hand; datasets come from the seeded generator.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import pickle
import signal
import traceback
from pathlib import Path
from unittest import mock

import pytest

from conceptscope import cli
from conceptscope.dataset import to_jsonl
from conceptscope.synthetic import SyntheticSpec, generate_dataset

VOTES_CSV = """example_id,concept,yes_count,total_votes,true_label
x0,wing,11,11,present
x1,wing,6,11,present
x2,wing,2,11,present
x3,wing,7,11,absent
x4,wing,1,11,absent
x5,wing,0,11,absent
"""

_SIN60 = math.sqrt(3.0) / 2.0


def write_fixtures(directory: Path) -> dict[str, Path]:
    """Write every CLI input fixture into ``directory``."""
    paths: dict[str, Path] = {}

    lr = generate_dataset(
        SyntheticSpec(
            n_examples=8, n_concepts=3, seed=7,
            planted_measures={"stripes": 0.5, "spots": -0.25},
            with_ground_truth=True,
        )
    )
    rf = generate_dataset(
        SyntheticSpec(
            n_examples=8, n_concepts=3, seed=9,
            planted_measures={"stripes": 0.25, "spots": 0.0},
        )
    )
    paths["lr"] = directory / "lr.jsonl"
    paths["lr"].write_bytes(to_jsonl(lr))
    paths["rf"] = directory / "rf.jsonl"
    paths["rf"].write_bytes(to_jsonl(rf))

    # All predictions negative: conditional measures are undefined.
    undefined = {
        "id": "u0", "prediction": -1, "concepts": {"stripes": 1.0, "spots": 1.0, "c0": 1.0},
    }
    paths["undefined"] = directory / "undefined.jsonl"
    paths["undefined"].write_bytes((json.dumps(undefined) + "\n").encode())

    paths["model"] = directory / "model.json"
    paths["model"].write_text(
        json.dumps(
            {
                "dim": 4,
                "w_h": [1.0, 0.0, 0.0, 0.0],
                "theta_h": 0.25,
                "v": [0.6, 0.8, 0.0, 0.0],
            }
        )
    )
    paths["embeddings"] = directory / "embeddings.json"
    paths["embeddings"].write_text(
        json.dumps(
            {
                "dim": 4,
                "vectors": [
                    {"id": "e0", "values": [1.0, 0.0, 0.0, 0.0]},
                    {"id": "e1", "values": [0.96, 0.28, 0.0, 0.0]},
                    {"id": "e2", "values": [0.8, 0.6, 0.0, 0.0]},
                    {"id": "e3", "values": [0.0, 1.0, 0.0, 0.0]},
                ],
            }
        )
    )

    # Class prompt "a" contaminated by the concept axis; image ib1
    # carries enough of the concept to flip to "a" until the edit.
    paths["prompts"] = directory / "prompts.json"
    paths["prompts"].write_text(
        json.dumps(
            {
                "dim": 4,
                "vectors": [
                    {"id": "a", "values": [0.8, 0.0, 0.6, 0.0]},
                    {"id": "b", "values": [0.0, 1.0, 0.0, 0.0]},
                ],
            }
        )
    )
    paths["concepts"] = directory / "concepts.json"
    paths["concepts"].write_text(
        json.dumps({"dim": 4, "vectors": [{"id": "w", "values": [0.0, 0.0, 1.0, 0.0]}]})
    )
    paths["plan"] = directory / "plan.json"
    paths["plan"].write_text(
        json.dumps({"class_name": "a", "concept_names": ["w"], "lambda": 0.5})
    )
    paths["images"] = directory / "images.json"
    paths["images"].write_text(
        json.dumps(
            {
                "dim": 4,
                "vectors": [
                    {"id": "ia1", "values": [1.0, 0.0, 0.0, 0.0], "label": "a"},
                    {"id": "ib1", "values": [0.0, 0.5, _SIN60, 0.0], "label": "b"},
                    {"id": "ib2", "values": [0.0, 1.0, 0.0, 0.0], "label": "b"},
                ],
            }
        )
    )

    paths["votes"] = directory / "votes.csv"
    paths["votes"].write_text(VOTES_CSV)
    return paths


# The variables that set OpenBLAS's thread count. The CLI sets the first
# unless the user has set one of them.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


# A process wraps help at COLUMNS - 2 columns; ``run_cli`` sets COLUMNS to this.
HELP_COLUMNS = "80"


@dataclasses.dataclass(frozen=True)
class CliResult:
    """The exit code, stdout and stderr of one in-process CLI run, and the
    exception that escaped ``main``, if one did."""

    exit_code: int
    stdout_bytes: bytes
    stderr_bytes: bytes
    exception: BaseException | None = None

    @property
    def stdout(self) -> str:
        return self.stdout_bytes.decode("utf-8", "replace")

    @property
    def stderr(self) -> str:
        return self.stderr_bytes.decode("utf-8", "replace")

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


def run_cli(args: list[str]) -> CliResult:
    """``cli.main(args, standalone_mode=False)`` in this process, with stdout
    and stderr captured as the bytes a process would write: an exception
    that escapes ``main`` leaves its traceback on stderr and exit code 1."""
    out, err = io.BytesIO(), io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    stderr = io.TextIOWrapper(err, encoding="utf-8", errors="backslashreplace",
                              write_through=True)
    code, exception = 0, None
    with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
          mock.patch.dict(os.environ, COLUMNS=HELP_COLUMNS)):
        try:
            cli.main(list(args), standalone_mode=False)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:
            traceback.print_exc()
            code, exception = 1, exc
        stdout.flush()
        stderr.flush()
    return CliResult(code, out.getvalue(), err.getvalue(), exception)


def env_with_src() -> dict[str, str]:
    """The environment with this tree's ``src`` first on PYTHONPATH, for subprocesses."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def open_fds() -> int | None:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def lose_workers(monkeypatch: pytest.MonkeyPatch, sent: float | None) -> None:
    """Make every forked worker die after sending the share ``sent`` of its
    pickled result or, with ``sent`` None, every fork fail."""

    def killed(obj, out, protocol):
        data = pickle.dumps(obj, protocol)
        out.write(data[: int(len(data) * sent)])
        out.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    if sent is None:
        monkeypatch.setattr(os, "fork", no_fork)
    else:
        monkeypatch.setattr(pickle, "dump", killed)


def assert_nothing_left(fds: int | None) -> None:
    """No child process is left unreaped, and ``fds`` descriptors are open."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds
