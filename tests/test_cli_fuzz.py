"""Fuzzed dataset files never crash the CLI.

Each example takes the ``lr`` fixture dataset, breaks it in one way
(a field replaced by a value of the wrong type, NaN or Infinity, a huge
or negative number; a deleted key; a truncated file; a BOM) and runs
``measure`` and ``completeness`` on it in process. Malformed input must
exit 2 with a message (0 or 3 when the damage leaves a valid file),
never 1 with a traceback, and the orjson parse (``MIN_PART`` at 1) must
give the same exit code and output bytes as json's.

The JSON inputs of ``tcav`` and ``edit`` (model, embeddings, prompts,
concepts, plan and images files) take every one of those value
mutations and deletions at every key and list index of their fixtures,
with the same rule.

The same mutations, with whole bad lines, blank and CRLF lines and
cross-part duplicate ids added, also check that ``load_dataset`` split
into 2 or 3 forked parts gives exactly what one pass gives: the equal
dataset, with the same type for every value, or the identical error.
"""

import copy
import functools
import json
import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cli_fixtures import run_cli, write_fixtures
from conceptscope import dataset as dataset_mod
from conceptscope import fanout
from conceptscope.errors import ConceptScopeError

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


def _replace_at(obj, path, raw: str | None) -> str:
    """JSON text of ``obj`` with the value at ``path``, a sequence of keys
    and list indices, set to the raw JSON text ``raw``, or deleted if None."""
    obj = copy.deepcopy(obj)
    parent = functools.reduce(operator.getitem, path[:-1], obj)
    key = path[-1]
    if raw is None:
        if isinstance(parent, dict):
            parent.pop(key, None)
        else:
            del parent[key]
        return json.dumps(obj)
    parent[key] = PLACEHOLDER
    return json.dumps(obj).replace(json.dumps(PLACEHOLDER), raw)


def _replace(line: str, field: str, raw: str | None) -> str:
    """``line`` with ``field`` set to the raw JSON text ``raw``, or deleted if None."""
    return _replace_at(json.loads(line), field.split("."), raw)


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
    for args in (
        ["measure", "-d", f"X={path}", "-m", "class-conditioned", "--ground-truth"],
        ["measure", "-d", f"X={path}", "-m", "concept-conditioned", "--theta", "0.5",
         "-f", "json"],
        ["completeness", str(path), "stripes", "--oracle"],
    ):
        result = run_cli(args)
        assert result.exit_code in (0, 2, 3), (args, result.output, result.exception)
        assert "Traceback" not in result.output
        if result.exit_code == 2:
            assert "error:" in result.stderr
        with pytest.MonkeyPatch.context() as patch:  # orjson parses first
            patch.setattr(dataset_mod, "MIN_PART", 1)
            fast = run_cli(args)
        assert (fast.exit_code, fast.stdout_bytes, fast.stderr_bytes) == (
            result.exit_code, result.stdout_bytes, result.stderr_bytes), args


def _paths(obj, prefix=()):
    """The path of every value inside the JSON value ``obj``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield (*prefix, key)
        yield from _paths(value, (*prefix, key))


@pytest.mark.parametrize("name", ["model", "embeddings", "prompts", "concepts", "plan", "images"])
def test_mutated_vector_input_exits_cleanly(tmp_path, name):
    files = write_fixtures(tmp_path)
    original = json.loads(files[name].read_text())
    cases = [(path, raw) for path in _paths(original) for raw in [*BAD_VALUES, None]]
    for case, (path, raw) in enumerate(cases):
        # One file per case, so that a failing case's inputs stay for inspection.
        files[name] = tmp_path / f"{case}-{name}.json"
        files[name].write_text(_replace_at(original, path, raw))
        if name in ("model", "embeddings"):
            args = ["tcav", files["model"], files["embeddings"]]
        else:
            args = ["edit", files["prompts"], files["concepts"], files["plan"], files["images"],
                    "--out-prompts", tmp_path / f"{case}-out.json"]
        result = run_cli([str(arg) for arg in args])
        assert result.exit_code in (0, 2, 3), (path, raw, result.output, result.exception)
        assert "Traceback" not in result.output
        if result.exit_code == 2:
            assert "error:" in result.stderr


# Whole lines planted into the later half of a file: an object without
# "prediction", invalid JSON, JSON that is not an object, and an object
# whose concepts value is not an object.
FAULTS = [
    '{"id": "p", "concepts": {"stripes": 1.0, "spots": 1.0, "c0": 1.0}}',
    '{"id": "p", ', "[1, 2]", '{"id": "p", "prediction": 1, "concepts": []}',
]
BLANKS = ["", "   ", "\r", "\t"]


@st.composite
def split_inputs(draw, lines):
    lines = list(lines)
    if draw(st.booleans()):  # an id of the first part repeated in a later one
        later = draw(st.integers(len(lines) // 2, len(lines) - 1))
        lines[later] = _replace(lines[later], "id", json.dumps(json.loads(lines[0])["id"]))
    if draw(st.booleans()):  # so that a planted line is often the only fault
        rows = [line.encode() for line in lines] + [b""]
    else:
        rows = draw(mutated_files(lines)).split(b"\n")
    for line in draw(st.lists(st.sampled_from(FAULTS), max_size=1)):
        rows.insert(draw(st.integers(len(rows) // 2, len(rows))), line.encode())
    for line in draw(st.lists(st.sampled_from(BLANKS), max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), line.encode())
    if draw(st.integers(0, 4)) == 4:  # fewer lines than parts
        rows = rows[: draw(st.integers(1, 2))]
    separator = draw(st.sampled_from([b"\n", b"\r\n"]))
    schema = draw(st.sampled_from([None, ["stripes", "spots", "c0"], ["c0", "spots", "stripes"]]))
    return separator.join(rows), schema


def _load(data, schema, parts):
    """``load_dataset`` cut into ``parts`` parts, with the type of every value
    of every field (``==`` holds between 1 and 1.0), or the class and text
    of its error."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset_mod, "MIN_PART", 1)
        patch.setattr(fanout, "usable_cpus", lambda: parts)
        try:
            dataset = dataset_mod.load_dataset(data, schema=schema)
        except ConceptScopeError as exc:
            return type(exc), str(exc)
    fields = [dataset.ids, dataset.predictions, dataset.weights, dataset.ground_truth,
              *map(dataset.column, dataset.concept_names), [dataset.original_weight_total]]
    return dataset, [list(map(type, values)) for values in fields]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_split_load_equals_one_pass(lr_lines, data):
    text, schema = data.draw(split_inputs(lr_lines))
    serial = _load(text, schema, 1)
    assert _load(text, schema, 2) == serial
    assert _load(text, schema, 3) == serial


def _lines(count, weighted=True, **last):
    """``count`` valid lines, with weights or without; keys in ``last``
    replace fields of the last line."""
    rows = [{"id": f"r{i}", "prediction": 1 - 2 * (i % 2), "concepts": {"s": i / 10, "t": -0.5},
             "ground_truth": 1} for i in range(count)]
    if weighted:
        for i, row in enumerate(rows):
            row["weight"] = 0.5 + i
    rows[-1].update(last)
    return "".join(json.dumps(row) + "\n" for row in rows).encode()


# Each input but the last needs normalizing in its last line only, so in
# its last part only; the last has no weights in any part.
@pytest.mark.parametrize("data", [
    _lines(9, prediction=1.0),
    _lines(9, ground_truth=-1.0),
    _lines(9, concepts={"s": 1, "t": 0}),
    _lines(9, weight=3),
    _lines(9, weighted=False),
], ids=["prediction", "ground_truth", "concepts", "weight", "no-weights"])
@pytest.mark.parametrize("parts", [2, 3])
def test_split_load_normalizes_every_part(data, parts):
    serial = _load(data, None, 1)
    assert _load(data, None, parts) == serial
    dataset, types = serial
    assert types == [[str] * 9, [int] * 9, [float] * 9, [int] * 9, [float] * 9, [float] * 9,
                     [float]]
    if b'"weight"' not in data:  # uniform over the whole file, not over a part
        assert tuple(dataset.weights) == (dataset.weights[0],) * 9
        assert dataset.weights[0] == pytest.approx(1 / 9)
