"""Child interpreter for the traced run.

    python perfbench/child.py REQUEST.json RESPONSE.json

with ``src`` on PYTHONPATH. It runs each of the workload's ops in REQUEST
through ``conceptscope.cli.main`` untraced and with a Tracer installed,
and reports every op's stdout, the per-layer summary, and for large-file
the row-scale ladder and the memory a loaded dataset retains.
"""

from __future__ import annotations

import base64
import io
import json
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import click

from tracer import Tracer

def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout bytes of one in-process CLI invocation."""
    from conceptscope import cli

    buffer = io.BytesIO()
    stream = io.TextIOWrapper(buffer, encoding="utf-8", write_through=True)
    saved = sys.stdout
    sys.stdout = stream
    try:
        cli.main(argv, standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        code = exc.exit_code
    except Exception:
        # What an uncaught exception does to the real CLI: traceback, exit 1.
        traceback.print_exc()
        code = 1
    finally:
        stream.flush()
        sys.stdout = saved
    return code, buffer.getvalue()


def _one(op: dict) -> dict:
    code, stdout = run_cli(op["argv"])
    return {"code": code, "stdout": base64.b64encode(stdout).decode("ascii")}


def _measure_table_seconds(dataset, kind: str) -> float:
    from conceptscope import measures
    from conceptscope.errors import UndefinedMeasureError

    start = time.perf_counter()
    for name in dataset.concept_names:
        try:
            if kind == "concept_conditioned":
                measures.concept_conditioned_measure(dataset, name, 0.5)
            else:
                getattr(measures, f"{kind}_measure")(dataset, name)
        except UndefinedMeasureError:
            pass
    return time.perf_counter() - start


def ladder(path: Path, sizes: dict[str, int]) -> dict[str, float]:
    """Load time per row and whole-table measure seconds at each row count."""
    from conceptscope.dataset import load_dataset

    lines = path.read_bytes().splitlines(keepends=True)
    out = {}
    for tag, rows in sizes.items():
        data = b"".join(lines[:rows])
        start = time.perf_counter()
        dataset = load_dataset(data)
        out[f"dataset.load_dataset.us_per_row.{tag}"] = (
            (time.perf_counter() - start) / rows * 1e6)
        for kind in ("symmetric", "class_conditioned", "concept_conditioned"):
            out[f"measures.{kind}_measure.s.{tag}"] = _measure_table_seconds(dataset, kind)
    return out


def retained_mb(path: Path) -> float:
    """Memory still allocated while one loaded dataset is alive."""
    from conceptscope.dataset import load_dataset

    data = path.read_bytes()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dataset = load_dataset(data)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del dataset
    return held / 1e6


def trace(request: dict) -> dict:
    """Each op untraced and traced back to back, in alternating order.

    Pairing the two runs of an op cancels the host's slow speed drift
    from ``trace.overhead_frac``; alternating which runs first cancels
    any gain from going second.
    """
    import conceptscope.cli  # noqa: F401  (import is measured separately)

    if request["warmup"]:
        # First calls pay one-off costs (lazy imports, caches) that would
        # otherwise land on whichever run goes first.
        for op in request["ops"]:
            _one(op)
    tracer = Tracer()
    results = {"untraced": [], "traced": []}
    seconds = {"untraced": 0.0, "traced": 0.0}
    op_id = 0
    for _ in range(request["reps"]):
        for op in request["ops"]:
            op_id += 1
            for mode in ("untraced", "traced")[:: 1 if op_id % 2 else -1]:
                if mode == "traced":
                    tracer.install()
                try:
                    start = time.perf_counter()
                    if mode == "traced":
                        with tracer.op(op_id, op["name"]):
                            outcome = _one(op)
                    else:
                        outcome = _one(op)
                    seconds[mode] += time.perf_counter() - start
                finally:
                    tracer.uninstall()
                results[mode].append({"name": op["name"], **outcome})
    tracer.write(request["spans_path"])
    response = {
        **results,
        "untraced_s": seconds["untraced"], "traced_s": seconds["traced"],
        "summary": tracer.summary(), "counts": dict(tracer.counts),
    }
    if request.get("ladder"):
        response["ladder"] = ladder(Path(request["ladder"]["path"]), request["ladder"]["sizes"])
    if request.get("retained"):
        response["retained_mb"] = retained_mb(Path(request["retained"]))
    return response


def main() -> None:
    request = json.loads(Path(sys.argv[1]).read_text())
    Path(sys.argv[2]).write_text(json.dumps(trace(request)))


if __name__ == "__main__":
    main()
