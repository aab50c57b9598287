import copy
import dataclasses
import io
import json
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_fixtures import assert_nothing_left, env_with_src, lose_workers, open_fds
from conceptscope import dataset as dataset_mod
from conceptscope import fanout
from conceptscope.dataset import (
    ConceptDataset,
    _chunks,
    load_dataset,
    to_jsonl,
    with_ground_truth_predictions,
)
from conceptscope.errors import ConceptScopeError, ParseError, SchemaError, ValidationError
import row_validator


def _line(**kwargs):
    return json.dumps(kwargs).encode() + b"\n"


def test_uniform_default_weights():
    data = _line(id="a", prediction=1, concepts={"s": 1.0}) + _line(
        id="b", prediction=-1, concepts={"s": -1.0}
    )
    ds = load_dataset(data)
    assert tuple(ds.weights) == (0.5, 0.5)


def test_weights_renormalized():
    data = _line(id="a", prediction=1, concepts={"s": 1.0}, weight=2) + _line(
        id="b", prediction=-1, concepts={"s": -1.0}, weight=2
    )
    ds = load_dataset(data)
    assert tuple(ds.weights) == (0.5, 0.5)
    assert ds.original_weight_total == 4.0


def test_out_of_range_prediction_names_line():
    data = _line(id="a", prediction=1, concepts={"s": 1.0}) + _line(
        id="b", prediction=0, concepts={"s": 1.0}
    )
    with pytest.raises(ValidationError, match="line 2"):
        load_dataset(data)


def test_out_of_range_concept_names_line():
    data = _line(id="a", prediction=1, concepts={"s": 1.5})
    with pytest.raises(ValidationError, match="line 1"):
        load_dataset(data)


def test_duplicate_id_rejected():
    data = _line(id="a", prediction=1, concepts={"s": 1.0}) * 2
    with pytest.raises(ValidationError, match="duplicate id"):
        load_dataset(data)


def test_malformed_json_names_line():
    data = _line(id="a", prediction=1, concepts={"s": 1.0}) + b"{oops\n"
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(data)


def test_bom_rejected():
    data = b"\xef\xbb\xbf" + _line(id="a", prediction=1, concepts={"s": 1.0})
    with pytest.raises(ParseError, match="BOM"):
        load_dataset(data)


def test_schema_inferred_from_first_line():
    data = _line(id="a", prediction=1, concepts={"b": 1.0, "a": -1.0})
    ds = load_dataset(data)
    assert ds.concept_names == ("b", "a")


def test_schema_mismatch_between_lines():
    data = _line(id="a", prediction=1, concepts={"s": 1.0}) + _line(
        id="b", prediction=1, concepts={"t": 1.0}
    )
    with pytest.raises(SchemaError, match="line 2"):
        load_dataset(data)


def test_explicit_schema_is_checked_on_every_line():
    data = _line(id="a", prediction=1, concepts={"s": 1.0, "t": 0.5}) + _line(
        id="b", prediction=1, concepts={"t": 0.5, "s": 1.0}
    )
    ds = load_dataset(data, schema=["t", "s"])
    assert ds.concept_names == ("t", "s")
    assert tuple(ds.column("s")) == (1.0, 1.0)
    with pytest.raises(SchemaError, match="line 1"):
        load_dataset(data, schema=["other"])
    with pytest.raises(SchemaError, match="line 1"):
        load_dataset(data, schema=["s"])


def test_empty_schema_is_a_schema_not_a_request_to_infer_one():
    empty = load_dataset(_line(id="a", prediction=1, concepts={}), schema=())
    assert (empty.concept_names, empty.ids) == ((), ("a",))
    with pytest.raises(SchemaError) as raised:
        load_dataset(_line(id="a", prediction=1, concepts={"x": 0.5}), schema=())
    assert str(raised.value) == (
        "line 1: concept keys do not match schema (missing [], extra ['x'])")


def test_negative_weight_rejected():
    data = _line(id="a", prediction=1, concepts={"s": 1.0}, weight=-0.5)
    with pytest.raises(ValidationError, match="line 1"):
        load_dataset(data)


def test_all_zero_weights_rejected():
    data = _line(id="a", prediction=1, concepts={"s": 1.0}, weight=0) + _line(
        id="b", prediction=1, concepts={"s": 1.0}, weight=0
    )
    with pytest.raises(ValidationError, match="positive"):
        load_dataset(data)


@pytest.mark.parametrize("n", [2, 3])
def test_overflowing_weight_total_rejected(n):
    # Two or three 1e308 weights overflow the float sum.
    lines = [_line(id=f"x{i}", prediction=1, concepts={"s": 1.0}, weight=1e308)
             for i in range(n)]
    with pytest.raises(ValidationError, match="weight total overflows"):
        load_dataset(b"".join(lines))
    with pytest.raises(ValidationError, match="weights sum to"):
        ConceptDataset([f"x{i}" for i in range(n)], [1] * n, {"s": [1.0] * n}, [1e308] * n)


def test_ground_truth_parsed_and_optional():
    data = _line(id="a", prediction=1, concepts={"s": 1.0}, ground_truth=-1) + _line(
        id="b", prediction=1, concepts={"s": 1.0}
    )
    ds = load_dataset(data)
    assert ds.ground_truth == (-1, None)


def test_constructor_checks_weight_sum():
    with pytest.raises(ValidationError, match="sum"):
        ConceptDataset(["a"], [1], {"s": [1.0]}, [0.4])


def test_examples_are_immutable():
    ds = load_dataset(_line(id="a", prediction=1, concepts={"s": 1.0}))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.concept_names = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.weights = (0.2,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del ds.ids
    for values in (ds.column("s"), ds.weights, ds.signed_weights):
        with pytest.raises(TypeError, match="read-only"):
            values[0] = 0.5
    assert tuple(ds.column("s")) == (1.0,) and tuple(ds.weights) == (1.0,)


def test_jsonl_round_trip():
    data = (
        _line(id="a", prediction=1, concepts={"s": 0.25, "t": -1.0}, weight=0.75, ground_truth=1)
        + _line(id="b", prediction=-1, concepts={"s": 1.0, "t": 0.0}, weight=0.25)
    )
    ds = load_dataset(data)
    again = load_dataset(to_jsonl(ds))
    assert again.concept_names == ds.concept_names
    assert again.ids == ds.ids
    assert again.predictions == ds.predictions
    assert again.ground_truth == ds.ground_truth
    for name in ds.concept_names:
        assert again.column(name) == ds.column(name)
    assert again.weights == pytest.approx(ds.weights, abs=1e-15)


def test_load_from_binary_file_object(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(_line(id="a", prediction=1, concepts={"s": 1.0}))
    with open(path, "rb") as fh:
        ds = load_dataset(fh)
    assert ds.ids == ("a",)


def test_ground_truth_swap():
    data = _line(id="a", prediction=1, concepts={"s": 1.0}, ground_truth=-1)
    swapped = with_ground_truth_predictions(load_dataset(data))
    assert swapped.predictions == (-1,)


def test_ground_truth_swap_requires_labels():
    data = _line(id="a", prediction=1, concepts={"s": 1.0})
    with pytest.raises(ValidationError, match="ground_truth"):
        with_ground_truth_predictions(load_dataset(data))


def _valid(example_id):
    return {"id": example_id, "prediction": 1, "concepts": {"s": 0.5, "t": -1.0},
            "weight": 0.25, "ground_truth": -1}


def _without(key):
    def edit(obj):
        del obj[key]
    return edit


def _setter(key, value):
    def edit(obj):
        obj[key] = value
    return edit


def _concept(value):
    def edit(obj):
        obj["concepts"]["s"] = value
    return edit


# One rejected kind of field each. Every case is placed on line 4, after
# two valid lines and a blank one, with a valid line after it.
BAD_FIELDS = {
    "bad prediction": _setter("prediction", 0),
    "bad ground truth": _setter("ground_truth", 2),
    "bad concept value": _concept(1.5),
    "negative weight": _setter("weight", -0.5),
    "NaN": _concept(float("nan")),
    "Infinity": _setter("weight", float("inf")),
    "boolean": _setter("prediction", True),
    "numeric string": _concept("0.5"),
    "missing id": _without("id"),
    "duplicate id": _setter("id", "a"),
    "integer too large for a float": _setter("weight", 10**400),
}


@pytest.mark.parametrize("edit", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
def test_rejected_field_names_its_line(edit):
    bad = _valid("c")
    edit(bad)
    data = "\n".join(
        [json.dumps(_valid("a")), json.dumps(_valid("b")), "", json.dumps(bad),
         json.dumps(_valid("d"))]
    ).encode()
    with pytest.raises(ValidationError, match=r"^line 4: "):
        load_dataset(data)


def test_earliest_line_wins_over_field_order():
    late_field = _valid("c")
    late_field["ground_truth"] = 0
    early_field = _valid("d")
    del early_field["id"]
    data = b"".join(_line(**obj) for obj in (_valid("a"), _valid("b"), late_field, early_field))
    with pytest.raises(ValidationError, match=r"^line 3: ground_truth"):
        load_dataset(data)


def test_first_failing_field_of_a_line_is_reported():
    bad = _valid("c")
    bad["weight"] = -1.0
    bad["concepts"]["t"] = 7.0
    bad["prediction"] = 5
    data = b"".join(_line(**obj) for obj in (_valid("a"), _valid("b"), bad))
    with pytest.raises(ValidationError, match=r"^line 3: prediction"):
        load_dataset(data)


def test_huge_integer_literal_is_a_parse_error():
    data = _line(**_valid("a")) + b'{"id": "b", "prediction": 1, "concepts": {"s": ' + (
        b"9" * 5000) + b', "t": 1.0}}\n'
    with pytest.raises(ParseError, match=r"^line 2: "):
        load_dataset(data)


@pytest.mark.parametrize("line", [
    "\ufeff{}", '{"id": "b"} {"id": "c"}', '{"id": "b",}', '{"id": "b"', "{oops", "nul",
    '"x" 1', "]", '{"id": ' + "9" * 5000 + "}",
])
def test_invalid_json_is_worded_as_json_loads_words_it(line):
    try:
        json.loads(line)
    except ValueError as exc:
        expected = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
    with pytest.raises(ParseError) as raised:
        load_dataset(_line(**_valid("a")) + f" {line}\t\n".encode())
    assert str(raised.value) == f"line 2: invalid JSON ({expected})"


def test_loaded_columns_hold_the_format_types():
    data = (
        _line(id="a", prediction=1.0, concepts={"s": 1, "t": -0.5}, weight=3, ground_truth=-1)
        + _line(id="b", prediction=-1, concepts={"s": 0.25, "t": 0}, weight=1)
    )
    ds = load_dataset(data)
    assert ds.ids == ("a", "b")
    assert ds.predictions == (1, -1) and type(ds.predictions[0]) is int
    assert tuple(ds.column("s")) == (1.0, 0.25) and type(ds.column("s")[0]) is float
    assert tuple(ds.weights) == (0.75, 0.25)
    assert ds.ground_truth == (-1, None)
    with pytest.raises(SchemaError, match="unknown concept"):
        ds.column("u")


def test_constructor_takes_columns():
    built = ConceptDataset(
        ids=["a", "b"], predictions=[1, -1], concepts={"s": [0.5, 1.0]},
        weights=[0.25, 0.75], ground_truth=[1, None], original_weight_total=1.0,
    )
    loaded = load_dataset(
        _line(id="a", prediction=1, concepts={"s": 0.5}, weight=0.25, ground_truth=1)
        + _line(id="b", prediction=-1, concepts={"s": 1.0}, weight=0.75)
    )
    assert built == loaded
    with pytest.raises(ValidationError, match="one value per id"):
        ConceptDataset(
            ids=["a", "b"], predictions=[1], concepts={"s": [0.5, 1.0]}, weights=[0.5, 0.5]
        )
    with pytest.raises(ValidationError, match=r"^example 1: concept 's'"):
        ConceptDataset(
            ids=["a", "b"], predictions=[1, 1], concepts={"s": [0.5, 2.0]}, weights=[0.5, 0.5]
        )


@given(st.text(alphabet="ab \n\r\u00e9\u20ac\U0001f600", max_size=60), st.integers(1, 8))
def test_split_lines_matches_str_split(text, size):
    """The decoded chunks' lines, end to end, are ``text.split("\\n")``, with chunks
    of any size and multi-byte characters next to a cut."""
    data = memoryview(text.encode())
    assert list(chain.from_iterable(_chunks(data, 0, len(data), size))) == text.split("\n")


# The oracle for the one validation path: ``ConceptDataset(...)`` and
# ``load_dataset`` must raise the row-by-row reference's error, or
# accept exactly when it does. A dataset is drawn valid, then up to
# three of its cells are replaced by values from the BAD pools.
NAN, INF = float("nan"), float("inf")
HUGE = 10**400
DROP = object()  # delete the key from the JSONL line
SIGNS = [1, -1, 1.0, -1.0, np.float64(1.0), np.float64(-1.0)]
# 2**64 is the least integer that orjson reads as a float.
BAD_SIGNS = [0, 2, 0.5, True, False, NAN, INF, -INF, HUGE, 2**64, "1", "", [1], {}, np.int64(1)]
UNITS = st.one_of(
    st.sampled_from([-1, 0, 1, -0.0, 0.25, np.float64(-0.5)]),
    st.floats(-1.0, 1.0),
)
BAD_UNITS = [1.5, -2, NAN, INF, -INF, HUGE, -HUGE, 2**64, True, None, "0.5", "", [1], {},
             np.int64(0)]
WEIGHTS = st.one_of(
    st.sampled_from([0, 1, 0.0, 0.5, 1e308, sys.float_info.max, 10**300, np.float64(0.25),
                     np.float64(sys.float_info.max)]),
    st.floats(0.0, 2.0),
)
# The int just above the largest float rounds to it when numpy compares.
BAD_WEIGHTS = [-0.5, -1, NAN, INF, -INF, HUGE, int(sys.float_info.max) + 1, True, "0.5", [1], {},
               np.int64(1)]
BAD_FIELD_VALUES = {
    "id": ["", None, 1, True, [1], {}, DROP],
    "prediction": BAD_SIGNS + [None, DROP],
    "weight": BAD_WEIGHTS + [None, DROP],
    "ground_truth": BAD_SIGNS + [DROP],
    "concepts": [None, [1], "x", {}, {"s": 0.5, "x": 0.5}, DROP],
}


@st.composite
def raw_datasets(draw, jsonl):
    names = draw(st.permutations(["s", "t", "u"]))[: draw(st.integers(0, 3))]
    n = draw(st.integers(1 if jsonl else 0, 12))
    uniform = draw(st.booleans())
    rows = [
        {"id": f"x{i}", "prediction": draw(st.sampled_from(SIGNS)),
         "concepts": {name: draw(UNITS) for name in names},
         "weight": 1.0 / n if uniform else draw(WEIGHTS),
         "ground_truth": draw(st.sampled_from(SIGNS + [None]))}
        for i in range(n)
    ]
    fields = ["id", "duplicate id", "prediction", "weight", "ground_truth"]
    fields += [f"concepts.{name}" for name in names] + (["concepts"] if jsonl else [])
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        row = rows[draw(st.integers(0, n - 1))]
        field = draw(st.sampled_from(fields))
        if field == "duplicate id":
            row["id"] = f"x{draw(st.integers(0, n - 1))}"
        elif field.startswith("concepts."):
            if isinstance(row["concepts"], dict):
                row["concepts"][field[9:]] = draw(st.sampled_from(BAD_UNITS))
        else:
            choices = [v for v in BAD_FIELD_VALUES[field] if jsonl or v is not DROP]
            row[field] = draw(st.sampled_from(choices))
    return names, rows


def _outcome(call):
    # Summing np.float64 weights can overflow, and numpy warns when it does.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            call()
    except ConceptScopeError as exc:
        return type(exc), str(exc)
    return None


def _load_with(data, min_part, cpus=None, **sizes):
    """``load_dataset(data)`` with ``MIN_PART`` set to ``min_part`` (the usable
    CPUs to ``cpus``, and ``BLOCK`` or ``CHUNK`` as given in ``sizes``): the
    dataset with the type of every value of every field, or the class and text
    of its error. orjson parses inputs of at least ``MIN_PART`` characters;
    json, smaller ones."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset_mod, "MIN_PART", min_part)
        if cpus is not None:
            patch.setattr(fanout, "usable_cpus", lambda: cpus)
        for name, size in sizes.items():
            patch.setattr(dataset_mod, name, size)
        try:
            dataset = load_dataset(data)
        except ConceptScopeError as exc:
            return type(exc), str(exc)
    fields = [dataset.ids, dataset.predictions, dataset.weights, dataset.ground_truth,
              *map(dataset.column, dataset.concept_names), [dataset.original_weight_total]]
    return dataset, [list(map(type, values)) for values in fields]


@given(raw=raw_datasets(jsonl=False))
@settings(max_examples=500, deadline=None)
def test_constructor_matches_row_reference(raw):
    names, rows = raw
    columns = {key: [row[key] for row in rows]
               for key in ("id", "prediction", "weight", "ground_truth")}
    concepts = {name: [row["concepts"][name] for row in rows] for name in names}
    args = (columns["id"], columns["prediction"], concepts, columns["weight"],
            columns["ground_truth"])
    assert _outcome(lambda: ConceptDataset(*args)) == _outcome(
        lambda: row_validator.check_constructor(*args))


@given(raw=raw_datasets(jsonl=True), data=st.data())
@settings(max_examples=500, deadline=None)
def test_load_dataset_matches_row_reference(raw, data):
    _, rows = raw
    lines = []
    for row in rows:
        lines += data.draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2))
        obj = {key: value for key, value in row.items() if value is not DROP}
        lines.append(json.dumps(obj, default=int))
    text = "\n".join(lines) + data.draw(st.sampled_from(["", "\n"]))
    assert _outcome(lambda: load_dataset(text.encode())) == _outcome(
        lambda: row_validator.check_jsonl(text))
    # With MIN_PART at 1, orjson parses first: the same dataset or error. So do
    # both parsers with blocks of one or two lines, decoded a few bytes at a time,
    # as the drawn lines are mostly fewer than a block.
    stdlib = _load_with(text.encode(), dataset_mod.MIN_PART)
    assert _load_with(text.encode(), 1) == stdlib
    for min_part in (1, dataset_mod.MIN_PART):
        for block, chunk in ((1, 3), (2, 16)):
            assert _load_with(text.encode(), min_part, BLOCK=block, CHUNK=chunk) == stdlib


def test_rules_are_exact_next_to_numpy_floats():
    # numpy compares an np.float64 with an int through a float, which
    # overflows or rounds; the int must still be found and reported.
    with pytest.raises(ValidationError, match=r"^example 1: concept 's' value 1000"):
        ConceptDataset(["a", "b"], [1, 1], {"s": [np.float64(0.5), HUGE]}, [0.5, 0.5])
    largest = sys.float_info.max
    with pytest.raises(ValidationError, match=r"^example 1: weight must be"):
        ConceptDataset(["a", "b"], [1, 1], {}, [np.float64(largest), int(largest) + 1])


# Values on which orjson and json differ: orjson reads an integer literal
# past 64 bits as a float, rejects NaN, Infinity and lone surrogates, and
# nests past json's recursion limit. orjson parses inputs of at least
# MIN_PART characters, and json parses again each part that holds one, so
# both paths give json's dataset or error.
DEEP_LIST = "[" * 2000 + "]" * 2000
DEEP_OBJECT = '{"a":' * 2000 + "1" + "}" * 2000
EDGE_LINES = {
    "weight 2**64": ('"weight": 18446744073709551616', (("a", "b"), 2.0**64)),
    "weight past the largest float": (
        f'"weight": {int(sys.float_info.max) + 1}',
        (ValidationError, "line 2: weight must be a finite number >= 0")),
    "concept 2**64": ('"concepts": {"s": 18446744073709551616}', (
        ValidationError, "line 2: concept 's' value 18446744073709551616 outside [-1, +1]")),
    "prediction -2**63 - 1": ('"prediction": -9223372036854775809', (
        ValidationError, "line 2: prediction: expected -1 or +1, got -9223372036854775809")),
    "NaN concept": ('"concepts": {"s": NaN}',
                    (ValidationError, "line 2: concept 's' value nan outside [-1, +1]")),
    "Infinity concept": ('"concepts": {"s": Infinity}',
                         (ValidationError, "line 2: concept 's' value inf outside [-1, +1]")),
    "lone surrogate id": (r'"id": "\ud800"', (("a", "\ud800"), 4.0)),
    "nested list, other key": (f'"other": {DEEP_LIST}', ParseError),
    "nested object, other key": (f'"other": {DEEP_OBJECT}', ParseError),
    "nested list weight": (f'"weight": {DEEP_LIST}', ParseError),
}


def _edge_line(field: str) -> str:
    """A valid line with id "b", whose ``field`` (raw JSON ``"key": value``) replaces its key."""
    row = {"id": '"b"', "prediction": "-1", "concepts": '{"s": -0.25}', "weight": "3",
           "ground_truth": "1"}
    key, value = field.split(": ", 1)
    row[json.loads(key)] = value
    return "{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}\n"


@pytest.mark.parametrize("field, expected", EDGE_LINES.values(), ids=EDGE_LINES.keys())
def test_both_parsers_load_edge_values_as_json_does(field, expected):
    data = (_line(id="a", prediction=1, concepts={"s": 0.5}, weight=1)
            + _edge_line(field).encode())
    stdlib = _load_with(data, dataset_mod.MIN_PART)
    assert _load_with(data, 1) == stdlib
    if isinstance(stdlib[0], ConceptDataset):  # expected: ids and raw weight total
        assert (stdlib[0].ids, stdlib[0].original_weight_total) == expected
    elif expected is ParseError:
        assert stdlib[0] is ParseError
        assert stdlib[1].startswith("line 2: invalid JSON (maximum recursion depth exceeded")
    else:
        assert stdlib == expected


@pytest.fixture(scope="module")
def two_parts_of_text():
    """Valid JSONL of at least 2 * MIN_PART characters, as a list of lines."""
    rng = np.random.default_rng(0)
    lines, size = [], 0
    while size < 2 * dataset_mod.MIN_PART:
        values = ", ".join(f'"c{j}": {v!r}' for j, v in enumerate(rng.uniform(-1, 1, 8).tolist()))
        lines.append(f'{{"id": "x{len(lines)}", "prediction": {1 - 2 * (len(lines) % 2)}, '
                     f'"concepts": {{{values}}}, "weight": {rng.uniform(0.05, 1.0)!r}}}\n')
        size += len(lines[-1])
    return lines


@pytest.mark.parametrize("key, value, expected", [
    ("c0", "NaN", ValidationError),
    ("weight", str(int(sys.float_info.max) + 1), ValidationError),
    ("other", DEEP_LIST, ParseError),
    ("weight", "18446744073709551616", None),
], ids=["NaN concept", "weight past the largest float", "nested list", "weight 2**64"])
def test_bad_line_in_second_part_of_a_large_file(two_parts_of_text, key, value, expected):
    lines = list(two_parts_of_text)
    at = len(lines) * 3 // 4
    row = json.loads(lines[at])
    (row["concepts"] if key in row["concepts"] else row)[key] = "@"
    lines[at] = json.dumps(row).replace('"@"', value) + "\n"
    data = "".join(lines).encode()
    stdlib = _load_with(data, len(data) + 1)
    assert _load_with(data, dataset_mod.MIN_PART, cpus=2) == stdlib
    if expected is None:
        assert isinstance(stdlib[0], ConceptDataset)
    else:
        assert stdlib[0] is expected and stdlib[1].startswith(f"line {at + 1}: ")


def test_json_error_in_a_later_part_comes_before_a_rule_error(two_parts_of_text):
    """A rule error in the first part, invalid JSON in the second: every line is
    parsed before any rule runs, so the JSON error is the one reported."""
    lines = list(two_parts_of_text)
    assert '"prediction": -1' in lines[5]
    lines[5] = lines[5].replace('"prediction": -1', '"prediction": 0')
    at = len(lines) * 3 // 4
    lines[at] = lines[at][:20] + "\n"
    with pytest.raises(json.JSONDecodeError) as invalid:
        json.loads(lines[at].strip())
    expected = (ParseError, f"line {at + 1}: invalid JSON ({invalid.value.msg})")
    data = "".join(lines).encode()
    assert _load_with(data, len(data) + 1) == expected
    for cpus in (1, 2):
        assert _load_with(data, dataset_mod.MIN_PART, cpus=cpus) == expected


def _record_json_loads(monkeypatch):
    """The texts that ``json.loads`` parses from now on, in a list. A call in a
    forked worker fails the worker, so that the parent parses its part again."""
    seen, loads, parent = [], json.loads, os.getpid()

    def recorded(text):
        assert os.getpid() == parent, "json parsed a line in a worker"
        seen.append(text)
        return loads(text)

    monkeypatch.setattr(json, "loads", recorded)
    return seen


def test_orjson_parses_a_large_valid_input(two_parts_of_text, monkeypatch):
    """An input of MIN_PART characters loads to json's dataset with json
    parsing only the first line, for the schema: every part of it was kept
    from the orjson parse. Below MIN_PART, json parses every line."""
    lines = [line.strip() for line in two_parts_of_text]
    data = "".join(two_parts_of_text).encode()
    stdlib = _load_with(data, len(data) + 1)
    seen = _record_json_loads(monkeypatch)
    for cpus in (1, 2):
        assert _load_with(data, dataset_mod.MIN_PART, cpus=cpus) == stdlib
        assert seen == [lines[0]]
        seen.clear()
    assert _load_with(data, len(data) + 1) == stdlib
    assert seen == [lines[0], *lines]


_NESTED_PROBE = """
import sys
from conceptscope import dataset
small = b'{"id": "a", "prediction": 1, "concepts": {}}\\n'
dataset.load_dataset(small)
print("orjson" in sys.modules)
dataset.MIN_PART = 1
for deep in (b"[" * 200000 + b"]" * 200000, b'{"a":' * 200000 + b"1" + b"}" * 200000):
    try:
        dataset.load_dataset(small + b'{"id": "b", "prediction": 1, "concepts": {}, "other": '
                             + deep + b"}\\n")
    except dataset.ParseError as exc:
        print(str(exc).split(" while")[0])
print("orjson" in sys.modules)
"""


def test_orjson_is_imported_for_large_inputs_and_never_sees_deep_nesting():
    """Only an input of MIN_PART characters imports orjson. Lines nested
    200,000 deep, on which orjson overflows the C stack, go to json."""
    process = subprocess.run([sys.executable, "-c", _NESTED_PROBE], capture_output=True,
                             env=env_with_src())
    assert (process.returncode, process.stderr) == (0, b"")
    assert process.stdout.decode().splitlines() == [
        "False", *["line 2: invalid JSON (maximum recursion depth exceeded"] * 2, "True"]


# A split load forks one worker per part after the first. Whatever
# happens to a part, every worker is reaped and every pipe closed.
SPLIT_DATA = b"".join(
    _line(id=f"r{i}", prediction=1 - 2 * (i % 2), concepts={"s": i / 10}, weight=i + 1)
    for i in range(9)
)


@pytest.fixture()
def three_parts(monkeypatch, forks):
    """Loads in this test cut into three parts; the list of forks made."""
    monkeypatch.setattr(dataset_mod, "MIN_PART", 1)
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 3)
    return forks


def test_split_load_reaps_its_workers(three_parts):
    fds = open_fds()
    assert load_dataset(SPLIT_DATA) == ConceptDataset(
        ids=[f"r{i}" for i in range(9)], predictions=[1 - 2 * (i % 2) for i in range(9)],
        concepts={"s": [i / 10 for i in range(9)]}, weights=[(i + 1) / 45 for i in range(9)],
        original_weight_total=45.0,
    )
    assert len(three_parts) == 2
    assert_nothing_left(fds)


@pytest.mark.parametrize("error", [ParseError, KeyboardInterrupt])
def test_split_load_reaps_its_workers_when_the_first_part_raises(
        three_parts, monkeypatch, error):
    """The workers are stopped, not waited for: here they would take 10 s."""
    fds = open_fds()
    parse = dataset_mod._parse_lines

    def first_part_fails(text, start, end, names):
        if start:
            time.sleep(10)
        elif error is KeyboardInterrupt:
            raise KeyboardInterrupt
        return parse(text, start, end, names)

    monkeypatch.setattr(dataset_mod, "_parse_lines", first_part_fails)
    started = time.monotonic()
    with pytest.raises(error, match="line 1: invalid JSON" if error is ParseError else None):
        load_dataset(b"not json\n" + SPLIT_DATA if error is ParseError else SPLIT_DATA)
    assert time.monotonic() - started < 5
    assert len(three_parts) == 2
    assert_nothing_left(fds)


@pytest.mark.parametrize("bad, message", [
    (_line(id="r8", prediction=-1, concepts={"s": 1.5}, weight=9),
     "line 9: concept 's' value 1.5 outside [-1, +1]"),
    (_line(id="r7", prediction=-1, concepts={"s": 0.8}, weight=9),
     "line 9: duplicate id 'r7' (first seen on line 8)"),
    (_line(id="r0", prediction=-1, concepts={"s": 0.8}, weight=9),
     "line 9: duplicate id 'r0' (first seen on line 1)"),
], ids=["concept-in-last-part", "id-within-last-part", "id-across-parts"])
def test_split_load_reaps_its_workers_when_a_part_breaks_a_rule(three_parts, bad, message):
    """The last line breaks a rule: the last part parses, fails its rules
    or repeats an id of another, and the error is the one-pass error."""
    fds = open_fds()
    data = SPLIT_DATA[: SPLIT_DATA.rindex(b"\n", 0, -1) + 1] + bad
    with pytest.raises(ValidationError) as raised:
        load_dataset(data)
    assert str(raised.value) == message
    assert len(three_parts) == 2
    assert_nothing_left(fds)


def test_a_later_part_that_gives_up_is_not_parsed_again(three_parts, monkeypatch):
    """The last part breaks a rule: its worker gives up and sends that back, so
    the parent parses only the first part before the one pass names the error."""
    calls, parse, parent = [], dataset_mod._parse_lines, os.getpid()

    def counted(text, start, end, names):
        if os.getpid() == parent:
            calls.append(start)
        return parse(text, start, end, names)

    monkeypatch.setattr(dataset_mod, "_parse_lines", counted)
    data = SPLIT_DATA[: SPLIT_DATA.rindex(b"\n", 0, -1) + 1] + _line(
        id="r8", prediction=-1, concepts={"s": 1.5}, weight=9)
    with pytest.raises(ValidationError) as raised:
        load_dataset(data)
    assert str(raised.value) == "line 9: concept 's' value 1.5 outside [-1, +1]"
    assert calls == [0]
    assert len(three_parts) == 2


@pytest.mark.parametrize("sent", [0.0, 0.5, None])
def test_split_load_parses_a_lost_workers_part_itself(three_parts, monkeypatch, sent):
    """A worker killed before it sends or midway, or one that cannot be
    forked (``sent`` None), leaves its part to the parent."""
    fds = open_fds()
    expected = load_dataset(SPLIT_DATA)
    lose_workers(monkeypatch, sent)
    assert load_dataset(SPLIT_DATA) == expected
    assert len(three_parts) == 2 + 2 * (sent is not None)
    assert_nothing_left(fds)


# json parses only the lines of a large input that orjson is not given or
# rejects; the rest of the part keeps orjson's parse.
@pytest.mark.parametrize("bad_last_line", [False, True], ids=["brackets", "bad-last-line"])
def test_json_parses_only_the_lines_orjson_does_not(two_parts_of_text, monkeypatch,
                                                    bad_last_line):
    lines = list(two_parts_of_text)
    marked = [10, len(lines) // 2, len(lines) - 5]
    for i in marked:
        lines[i] = lines[i].replace(f'"id": "x{i}"', f'"id": "x[{i}"')
    if bad_last_line:
        lines[-1] = lines[-1][: len(lines[-1]) // 2] + "\n"
        marked.append(len(lines) - 1)
    data = "".join(lines).encode()
    stdlib = _load_with(data, len(data) + 1)
    assert _load_with(data, dataset_mod.MIN_PART, cpus=2) == stdlib

    seen = _record_json_loads(monkeypatch)
    assert _load_with(data, dataset_mod.MIN_PART, cpus=1) == stdlib
    # The first line once more, for the schema. A part gives up at the bad last
    # line, and the one pass that names its error parses every line once more.
    stripped = [line.strip() for line in lines]
    assert seen == [stripped[0], *(stripped[i] for i in marked),
                    *(stripped if bad_last_line else [])]


# A bad UTF-8 byte anywhere gives the error and message of decoding the
# whole input, before any JSON error of any part, on one CPU or two.
def _bad_utf8_inputs():
    lines, size = [], 0
    while size < 2 * dataset_mod.MIN_PART:
        lines.append(json.dumps({"id": f"x{len(lines)}", "prediction": 1,
                                 "concepts": {"s": 0.5}, "weight": 1.0 + len(lines)}) + "\n")
        size += len(lines[-1])
    data = "".join(lines).encode()
    cut = dataset_mod._line_end(memoryview(data), len(data) // 2)  # where two parts meet
    truncated = data[: cut - 1] + b"\xe2\x82" + data[cut - 1:]
    assert dataset_mod._line_end(memoryview(truncated), len(truncated) // 2) == cut + 2
    return {
        "first line": data[:9] + b"\xff" + data[10:],
        "second part": data[: cut + 100] + b"\xff" + data[cut + 101:],
        "truncated at the end": data + b"\xe2\x82",
        "truncated before a cut": truncated,
        "json error, then bad byte": data.replace(b'"concepts": {', b'"concepts": [', 1)[: cut + 100]
        + b"\xc3" + data[cut + 101:],
    }


BAD_UTF8 = _bad_utf8_inputs()


@pytest.mark.parametrize("data", BAD_UTF8.values(), ids=BAD_UTF8.keys())
def test_bad_utf8_names_the_first_bad_byte_of_the_whole_input(data, tmp_path):
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    expected = (ParseError, f"input is not valid UTF-8: {whole.value}")
    assert _load_with(data, len(data) + 1) == expected
    assert _load_with(data, dataset_mod.MIN_PART, cpus=1) == expected
    assert _load_with(data, dataset_mod.MIN_PART, cpus=2) == expected
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data)
    process = subprocess.run([sys.executable, "-m", "conceptscope", "measure", "-d", f"A={path}"],
                             capture_output=True, env=env_with_src())
    assert (process.returncode, process.stdout) == (2, b"")
    assert process.stderr.decode() == f"error: {expected[1]}\n"


# A part is parsed a block of lines at a time, and decoded a chunk of bytes at
# a time. Inside one block or across two, the dataset and the first error are
# those of a line-by-line parse.
_A = _line(id="a", prediction=1, concepts={"s": 0.5}, weight=1)
_B = _line(id="b", prediction=-1, concepts={"s": -0.5}, weight=3)
BLOCK_CASES = {
    "non-object before bad JSON": (_A + b'1\n{"id": \n' + _B,
                                   (ParseError, "line 2: expected a JSON object")),
    "concepts with another key": (
        _A + _line(id="c", prediction=1, concepts={"s": 0.5, "x": 0.5}) + _B,
        (SchemaError, "line 2: concept keys do not match schema (missing [], extra ['x'])")),
    "concepts not an object": (_A + _line(id="c", prediction=1, concepts=None) + _B,
                               (ValidationError, "line 2: 'concepts' must be an object")),
    "blank lines, then a bad prediction": (
        _A + b"\n  \n" + _B + b"\t\n" + _line(id="c", prediction=0, concepts={"s": 0.0}),
        (ValidationError, "line 6: prediction: expected -1 or +1, got 0")),
    "blank lines, then a repeated id": (
        _A + b"\n  \n" + _B + b"\r\n" + _line(id="a", prediction=1, concepts={"s": 0.0}),
        (ValidationError, "line 6: duplicate id 'a' (first seen on line 1)")),
}


@pytest.mark.parametrize("data, expected", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
@pytest.mark.parametrize("block", [1, 2, 3, 128])
@pytest.mark.parametrize("min_part", [1, dataset_mod.MIN_PART], ids=["orjson", "json"])
def test_each_block_size_reports_the_first_bad_line(data, expected, block, min_part):
    assert _load_with(data, min_part, BLOCK=block) == expected
    assert _load_with(data, min_part, BLOCK=block, CHUNK=4) == expected


def test_bad_utf8_in_a_later_chunk_comes_before_a_json_error():
    """The JSON error is in the part's first chunks, the bad byte in its last."""
    data = _A + b"not json\n" + _B + b'{"id": "\xff"}\n'
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    expected = (ParseError, f"input is not valid UTF-8: {whole.value}")
    for min_part in (1, dataset_mod.MIN_PART):
        assert _load_with(data, min_part, cpus=1, CHUNK=8) == expected
        assert _load_with(data, min_part, cpus=1, CHUNK=len(data)) == expected


def test_load_from_a_file_holds_a_chunk_of_its_text_at_a_time(two_parts_of_text, tmp_path,
                                                              monkeypatch):
    """On one CPU, a 4 MiB file loads with a tracemalloc peak below twice its size,
    which its bytes and their decoded text would reach together. The dataset
    itself retains about 0.6 of the size."""
    lines = two_parts_of_text
    data = "".join([*lines, *(line.replace('"id": "x', '"id": "y') for line in lines)]).encode()
    path = tmp_path / "d.jsonl"
    path.write_bytes(data)
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 1)
    with open(path, "rb") as file:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = load_dataset(file)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert len(loaded) == 2 * len(lines)
    assert peak < 2 * len(data)


# A regular file is read in spans with os.pread, bytes as memoryview slices,
# and any other file object whole; all load the same dataset.
def test_every_source_loads_the_same_dataset(two_parts_of_text, tmp_path, monkeypatch):
    data = "".join(two_parts_of_text).encode()
    path = tmp_path / "d.jsonl"
    path.write_bytes(data)
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 2)
    expected = load_dataset(data)
    with open(path, "rb") as file:
        assert load_dataset(file) == expected
    assert load_dataset(io.BytesIO(data)) == expected
    writer = [sys.executable, "-c",
              f"import sys; sys.stdout.buffer.write(open({str(path)!r}, 'rb').read())"]
    with subprocess.Popen(writer, stdout=subprocess.PIPE) as pipe:
        assert load_dataset(pipe.stdout) == expected
    with open(path, "rb") as file:  # read from the file's position
        file.readline()
        assert load_dataset(file) == load_dataset(data[data.index(b"\n") + 1:])
    monkeypatch.delattr(os, "pread")  # as on Windows: the file is read whole
    with open(path, "rb") as file:
        assert load_dataset(file) == expected


@pytest.mark.parametrize("keep", [0.3, 0.7])
@pytest.mark.parametrize("at_line_end", [False, True], ids=["mid-line", "line-end"])
def test_file_that_shrinks_while_loading_loads_what_is_left(two_parts_of_text, tmp_path,
                                                            monkeypatch, keep, at_line_end):
    """The file is cut after its size is read, so reads past the cut come back
    short: the load is that of the bytes left."""
    data = "".join(two_parts_of_text).encode()
    path = tmp_path / "d.jsonl"
    path.write_bytes(data)
    cut = int(len(data) * keep)
    if at_line_end:
        cut = data.index(b"\n", cut) + 1
    expected = _load_with(data[:cut], dataset_mod.MIN_PART, cpus=2)
    fstat = os.fstat

    def fstat_then_shrink(fd):
        status = fstat(fd)
        os.truncate(path, cut)
        return status

    with open(path, "rb") as file, monkeypatch.context() as patch:
        patch.setattr(os, "fstat", fstat_then_shrink)
        assert _load_with(file, dataset_mod.MIN_PART, cpus=2) == expected
    assert isinstance(expected[0], ConceptDataset) == at_line_end


def test_dataset_pickles_and_copies_to_an_equal_dataset():
    ds = with_ground_truth_predictions(load_dataset(
        _line(id="a", prediction=1, concepts={"s": 0.5}, weight=3, ground_truth=-1)
        + _line(id="b", prediction=-1, concepts={"s": -1.0}, weight=1, ground_truth=1)))
    for copied in (pickle.loads(pickle.dumps(ds)), copy.deepcopy(ds)):
        assert copied == ds
        assert (copied.weight_total, tuple(copied.signed_weights)) == (
            ds.weight_total, tuple(ds.signed_weights))
