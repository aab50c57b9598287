"""Fuzzed dataset files never crash the CLI.

Each example takes the ``lr`` fixture dataset, breaks it in one way
(a field replaced by a value of the wrong type, NaN or Infinity, a huge
or negative number; a deleted key; a truncated file; a BOM) and runs
``measure`` and ``completeness`` on it in process. Malformed input must
exit 2 with a message (0 or 3 when the damage leaves a valid file),
never 1 with a traceback.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cli_fixtures import write_fixtures
from conceptscope.cli import main

PLACEHOLDER = "@@fuzz@@"

# Raw JSON text spliced in for a field's value.
BAD_VALUES = [
    '"0.5"', '"x"', '""', "true", "false", "null", "[]", "[1]", "{}", '{"s": 1}',
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400",
    "9" * 400, "-" + "9" * 400, "9" * 5000,
    "-5", "-1", "-0.5", "-0.0", "0", "2", "1.0000000001", "5e-324",
]
FIELDS = ["id", "prediction", "weight", "ground_truth", "concepts",
          "concepts.stripes", "concepts.spots", "concepts.c0"]


@pytest.fixture(scope="module")
def lr_lines(tmp_path_factory):
    paths = write_fixtures(tmp_path_factory.mktemp("fixtures"))
    return paths["lr"].read_bytes().decode().splitlines()


def _replace(line: str, field: str, raw: str | None) -> str:
    """``line`` with ``field`` set to the raw JSON text ``raw``, or deleted if None."""
    obj = json.loads(line)
    parent = obj["concepts"] if field.startswith("concepts.") else obj
    key = field.split(".")[-1]
    if raw is None:
        parent.pop(key, None)
        return json.dumps(obj)
    parent[key] = PLACEHOLDER
    return json.dumps(obj).replace(json.dumps(PLACEHOLDER), raw)


@st.composite
def mutated_files(draw, lines):
    lines = list(lines)
    kind = draw(st.sampled_from(["value", "delete", "truncate", "bom"]))
    if kind in ("value", "delete"):
        index = draw(st.integers(0, len(lines) - 1))
        raw = draw(st.sampled_from(BAD_VALUES)) if kind == "value" else None
        lines[index] = _replace(lines[index], draw(st.sampled_from(FIELDS)), raw)
    data = ("\n".join(lines) + "\n").encode()
    if kind == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif kind == "bom":
        data = b"\xef\xbb\xbf" + data
    return data


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_dataset_exits_cleanly(lr_lines, tmp_path, data):
    path = tmp_path / "fuzzed.jsonl"
    path.write_bytes(data.draw(mutated_files(lr_lines)))
    runner = CliRunner()
    for args in (
        ["measure", "-d", f"X={path}", "-m", "class-conditioned", "--ground-truth"],
        ["measure", "-d", f"X={path}", "-m", "concept-conditioned", "--theta", "0.5",
         "-f", "json"],
        ["completeness", str(path), "stripes", "--oracle"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code in (0, 2, 3), (args, result.output, result.exception)
        assert "Traceback" not in result.output
        if result.exit_code == 2:
            assert "error:" in result.stderr
