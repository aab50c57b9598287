import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from cli_fixtures import BLAS_VARS, env_with_src, write_fixtures
from conceptscope import dataset as dataset_mod
from conceptscope.cli import main
from conceptscope.verify import MIN_TRIALS

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def fixtures(tmp_path):
    return write_fixtures(tmp_path)


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, expect=0):
    result = runner.invoke(main, args)
    assert result.exit_code == expect, (args, result.output, result.exception)
    return result


def golden_bytes(name):
    return (GOLDEN / name).read_bytes()


def test_measure_symmetric_golden(runner, fixtures):
    result = invoke(
        runner,
        ["measure", "-d", f"LR={fixtures['lr']}", "-d", f"RF={fixtures['rf']}",
         "-m", "symmetric"],
    )
    assert result.stdout.encode() == golden_bytes("measure_symmetric.csv")


def test_measure_json_with_ground_truth_golden(runner, fixtures):
    result = invoke(
        runner,
        ["measure", "-d", f"LR={fixtures['lr']}", "-m", "class-conditioned",
         "--ground-truth", "--delta", "0.05", "-f", "json"],
    )
    assert result.stdout.encode() == golden_bytes("measure_classcond_gt.json")
    payload = json.loads(result.stdout)
    # Ground truth was planted equal to the predictions, so the two
    # series must carry identical values.
    by_label = {}
    for row in payload["rows"]:
        by_label.setdefault(row["concept"], {})[row["label"]] = row["value"]
    for concept, series in by_label.items():
        assert series["LR"] == series["LR:ground_truth"]


def test_measure_svg_golden(runner, fixtures):
    result = invoke(
        runner,
        ["measure", "-d", f"LR={fixtures['lr']}", "-d", f"RF={fixtures['rf']}",
         "-m", "concept-conditioned", "--theta", "1.0", "-f", "svg"],
    )
    assert result.stdout.encode() == golden_bytes("measure_conceptcond.svg")


def test_measure_identical_datasets_identical_series(runner, fixtures):
    result = invoke(
        runner,
        ["measure", "-d", f"A={fixtures['lr']}", "-d", f"B={fixtures['lr']}"],
    )
    rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
    values = {}
    for concept, label, value, _ in rows:
        values.setdefault(concept, {})[label] = value
    for series in values.values():
        assert series["A"] == series["B"]


def test_measure_output_file_and_threads(runner, fixtures, tmp_path):
    out1 = tmp_path / "t1.csv"
    out8 = tmp_path / "t8.csv"
    invoke(runner, ["--threads", "1", "measure", "-d", f"LR={fixtures['lr']}",
                    "-o", str(out1)])
    invoke(runner, ["--threads", "8", "measure", "-d", f"LR={fixtures['lr']}",
                    "-o", str(out8)])
    assert out1.read_bytes() == out8.read_bytes()


def test_measure_undefined_renders_na(runner, fixtures):
    result = invoke(
        runner,
        ["measure", "-d", f"U={fixtures['undefined']}", "-m", "class-conditioned"],
    )
    for line in result.stdout.splitlines()[1:]:
        assert ",n/a," in line


def test_measure_strict_exits_3(runner, fixtures):
    result = invoke(
        runner,
        ["measure", "-d", f"U={fixtures['undefined']}", "-m", "class-conditioned",
         "--strict"],
        expect=3,
    )
    assert "error:" in result.stderr


def test_measure_validation_exits_2(runner, fixtures, tmp_path):
    invoke(runner, ["measure", "-d", "nolabel"], expect=2)
    invoke(runner, ["measure", "-d", f"X={tmp_path}/missing.jsonl"], expect=2)
    invoke(runner, ["measure", "-d", f"LR={fixtures['lr']}",
                    "-m", "concept-conditioned"], expect=2)
    invoke(runner, ["measure", "-d", f"LR={fixtures['lr']}",
                    "-m", "symmetric", "--theta", "0.5"], expect=2)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"id": "a", "prediction": 3, "concepts": {"s": 1.0}}\n')
    result = invoke(runner, ["measure", "-d", f"B={bad}"], expect=2)
    assert "line 1" in result.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["-m", "concept-conditioned"], "theta is required"),
        (["--theta", "0.5"], "theta is only valid"),
        (["--delta", "1.5"], "delta must lie in (0, 1)"),
        (["--delta", "0"], "delta must lie in (0, 1)"),
        (["--delta", "1e-320"], "too small for a finite radius"),
        (["--schema", "a,a"], "duplicate concept names in schema"),
        (["-m", "concept-conditioned", "--theta", "2"], "theta must lie in [-1, +1], got 2.0"),
        (["-m", "concept-conditioned", "--theta", "nan"], "theta must lie in [-1, +1], got nan"),
        (["-m", "concept-conditioned", "--theta", "inf"], "theta must lie in [-1, +1], got inf"),
    ],
)
def test_measure_parameter_error_comes_before_reading_files(runner, tmp_path, args, message):
    missing = tmp_path / "missing.jsonl"
    result = invoke(runner, ["measure", "-d", f"X={missing}", *args], expect=2)
    assert message in result.stderr
    assert "cannot read" not in result.stderr


def test_measure_schema_mismatch_reports_diff(runner, fixtures, tmp_path):
    other = tmp_path / "other.jsonl"
    other.write_bytes(b'{"id": "a", "prediction": 1, "concepts": {"extra": 1.0}}\n')
    result = invoke(
        runner,
        ["measure", "-d", f"LR={fixtures['lr']}", "-d", f"O={other}"],
        expect=2,
    )
    assert "extra" in result.stderr


def test_measure_positive_only_filters(runner, fixtures):
    base = invoke(runner, ["measure", "-d", f"LR={fixtures['lr']}"])
    filtered = invoke(runner, ["measure", "-d", f"LR={fixtures['lr']}", "--positive-only"])
    base_concepts = {line.split(",")[0] for line in base.stdout.splitlines()[1:]}
    kept = {line.split(",")[0] for line in filtered.stdout.splitlines()[1:]}
    assert kept < base_concepts
    assert "spots" not in kept  # planted negative measure
    assert "stripes" in kept


def test_completeness_golden_and_oracle(runner, fixtures):
    result = invoke(runner, ["completeness", str(fixtures["lr"]), "stripes", "--oracle"])
    assert result.stdout.encode() == golden_bytes("completeness.json")
    payload = json.loads(result.stdout)
    assert payload["difference"] == 0.0
    assert payload["closed_form"]["value"] == payload["brute_force"]["value"]


def test_completeness_unknown_concept_exits_2(runner, fixtures):
    invoke(runner, ["completeness", str(fixtures["lr"]), "nope"], expect=2)


def test_tcav_golden(runner, fixtures):
    result = invoke(runner, ["tcav", str(fixtures["model"]), str(fixtures["embeddings"])])
    assert result.stdout.encode() == golden_bytes("tcav.json")
    payload = json.loads(result.stdout)
    assert payload["tcav_con"] == pytest.approx(0.6)
    assert payload["class_conditioned"] == pytest.approx((0.6 + 0.8 + 0.96) / 3)
    assert payload["gap"] == pytest.approx(abs(payload["class_conditioned"] - 0.6))


def test_plan_prints_sample_size(runner):
    result = invoke(runner, ["plan", "--epsilon", "0.2", "--delta", "0.1"])
    assert result.stdout == "116\n"
    result = invoke(runner, ["plan", "--epsilon", "0.1", "--delta", "0.05"])
    assert result.stdout == "600\n"


def test_plan_domain_error(runner):
    invoke(runner, ["plan", "--epsilon", "1.5", "--delta", "0.1"], expect=2)


@pytest.mark.parametrize(
    "args",
    [
        ["plan", "--epsilon", "1e-160", "--delta", "0.1"],
        ["plan", "--epsilon", "1e-300", "--delta", "0.1"],
        ["plan", "--epsilon", "0.2", "--delta", "1e-320"],
        ["verify", "--suite", "theorem2", "--epsilon", "1e-160", "--trials", "1"],
        ["measure", "--delta", "1e-320", "-f", "json"],
    ],
    ids=["plan-tiny-epsilon", "plan-epsilon-squared-underflows", "plan-tiny-delta",
         "verify-tiny-epsilon", "measure-tiny-delta"],
)
def test_non_finite_hoeffding_result_exits_2(runner, fixtures, args):
    if args[0] == "measure":
        args = ["measure", "-d", f"LR={fixtures['lr']}"] + args[1:]
    result = invoke(runner, args, expect=2)
    assert "Traceback" not in result.output
    assert "Infinity" not in result.stdout
    assert "error:" in result.stderr


def test_votes_golden(runner, fixtures):
    result = invoke(runner, ["votes", str(fixtures["votes"])])
    assert result.stdout.encode() == golden_bytes("votes.txt")


def test_votes_custom_k_out_of_range(runner, fixtures):
    invoke(runner, ["votes", str(fixtures["votes"]), "--k", "12"], expect=2)


def test_edit_golden_report(runner, fixtures):
    result = invoke(
        runner,
        ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]),
         str(fixtures["plan"]), str(fixtures["images"])],
    )
    assert result.stdout.encode() == golden_bytes("edit_report.json")
    payload = json.loads(result.stdout)
    assert payload["edited"]["macro_f1"] > payload["original"]["macro_f1"]


# sha256 of the --out-prompts file of the golden edit command, plain and
# with --renormalize: pins the writer's bytes, which no golden covers.
OUT_PROMPTS_SHA256 = "0f13c8fc312688e5f740c329603977db81e5be576fdc064bd0f9c5213ad7427b"
RENORMALIZED_OUT_PROMPTS_SHA256 = "61d11e78dd333a47dbd82e6858b1a0d37347cd591c14b06a8440bcfc78b2cca4"


def test_edit_writes_unnormalized_prompts(runner, fixtures, tmp_path):
    out = tmp_path / "edited.json"
    invoke(
        runner,
        ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]),
         str(fixtures["plan"]), str(fixtures["images"]), "--out-prompts", str(out)],
    )
    payload = json.loads(out.read_text())
    edited = {v["id"]: v["values"] for v in payload["vectors"]}
    # a = (0.8, 0, 0.6, 0) minus 0.5 * (0, 0, 1, 0); not renormalized.
    assert edited["a"] == pytest.approx([0.8, 0.0, 0.1, 0.0])
    assert edited["b"] == pytest.approx([0.0, 1.0, 0.0, 0.0])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUT_PROMPTS_SHA256


def test_edit_renormalize_bytes_are_pinned(runner, fixtures, tmp_path):
    out = tmp_path / "edited.json"
    result = invoke(
        runner,
        ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]),
         str(fixtures["plan"]), str(fixtures["images"]), "--renormalize",
         "--out-prompts", str(out)],
    )
    # Both edits separate the images, so the report equals the plain one.
    assert result.stdout.encode() == golden_bytes("edit_report.json")
    # a - 0.5 w = (0.8, 0, 0.1, 0), divided by its norm sqrt(0.65).
    expected = {
        "dim": 4,
        "vectors": [
            {"id": "a", "values": [0.9922778767136676, 0.0, 0.12403473458920843, 0.0]},
            {"id": "b", "values": [0.0, 1.0, 0.0, 0.0]},
        ],
    }
    assert out.read_bytes() == (json.dumps(expected, indent=2, sort_keys=True) + "\n").encode()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RENORMALIZED_OUT_PROMPTS_SHA256


def test_vector_file_error_names_the_first_faulty_entry(runner, fixtures, tmp_path):
    embeddings = tmp_path / "embeddings.json"
    embeddings.write_text(json.dumps({"dim": 4, "vectors": [
        {"id": "e0", "values": [1.0, 0.0, 0.0, 0.0]},
        {"id": "e1", "values": [0.0, 0.0, 0.0, 0.0]},
        {"id": "e2", "values": [1.0, 0.0]},
    ]}))
    result = invoke_input_error(runner, ["tcav", str(fixtures["model"]), str(embeddings)])
    assert result.stderr == (
        "error: vectors[1]: 'values' of 'e1' has norm 0.0 and cannot be normalized\n")


def test_edit_renormalize_zero_prompt_exits_2(runner, fixtures, tmp_path):
    concepts = tmp_path / "concepts.json"
    concepts.write_text(
        json.dumps({"dim": 4, "vectors": [{"id": "same", "values": [0.8, 0.0, 0.6, 0.0]}]})
    )
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"class_name": "a", "concept_names": ["same"], "lambda": 1.0}))
    result = invoke_input_error(
        runner,
        ["edit", str(fixtures["prompts"]), str(concepts), str(plan), str(fixtures["images"]),
         "--renormalize"],
    )
    assert "error: edited prompt 'a' has norm 0.0 and cannot be normalized" in result.stderr


def test_edit_accepts_plan_lists(runner, fixtures, tmp_path):
    plans = tmp_path / "plans.json"
    plans.write_text(
        json.dumps(
            [
                {"class_name": "a", "concept_names": ["w"], "lambda": 0.5},
                {"class_name": "b", "concept_names": ["w"], "lambda": 0.0},
            ]
        )
    )
    result = invoke(
        runner,
        ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]), str(plans),
         str(fixtures["images"])],
    )
    payload = json.loads(result.stdout)
    assert len(payload["plans"]) == 2
    # The lambda=0 plan is a no-op, so the report matches the single-plan golden.
    assert payload["edited"]["accuracy"] == 1.0


def test_edit_requires_image_labels(runner, fixtures, tmp_path):
    unlabeled = tmp_path / "img.json"
    unlabeled.write_text(
        json.dumps({"dim": 4, "vectors": [{"id": "i", "values": [1.0, 0.0, 0.0, 0.0]}]})
    )
    invoke(
        runner,
        ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]),
         str(fixtures["plan"]), str(unlabeled)],
        expect=2,
    )


def test_edit_unknown_plan_class(runner, fixtures, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"class_name": "zz", "concept_names": ["w"], "lambda": 0.1}))
    invoke(
        runner,
        ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]), str(plan),
         str(fixtures["images"])],
        expect=2,
    )


def test_verify_suites_pass(runner):
    result = invoke(runner, ["verify", "--suite", "theorem1", "--trials", "40"])
    assert "theorem1/equality: PASS" in result.stdout
    result = invoke(runner, ["verify", "--suite", "axioms", "--trials", "20"])
    assert "axioms/recursivity: PASS" in result.stdout
    assert "axioms/linearity: PASS" in result.stdout
    assert "axioms/decomposition: PASS" in result.stdout


def test_verify_theorem2_writes_records(runner, tmp_path):
    records = tmp_path / "trials.jsonl"
    result = invoke(
        runner,
        ["verify", "--suite", "theorem2", "--trials", "10", "--dim", "4",
         "--records", str(records)],
    )
    assert "theorem2/bound: PASS" in result.stdout
    lines = records.read_text().splitlines()
    assert len(lines) == 10
    first = json.loads(lines[0])
    assert set(first) == {"trial", "dim", "epsilon", "delta", "lhs_gap", "n_used", "bound_holds"}
    assert first["bound_holds"] is True


# sha256 of the --records file of `verify --suite theorem2 --trials 20 --dim 4
# --seed 0`: pins the record keys, their order and every value's bytes.
THEOREM2_RECORDS_FILE_SHA256 = "965f06908a0befc559a011f126b16ce749d92d0da52133bf8f563270c2f31d71"


def test_verify_theorem2_records_bytes_are_pinned(runner, tmp_path):
    records = tmp_path / "trials.jsonl"
    invoke(runner, ["verify", "--suite", "theorem2", "--trials", "20", "--dim", "4",
                    "--seed", "0", "--records", str(records)])
    assert hashlib.sha256(records.read_bytes()).hexdigest() == THEOREM2_RECORDS_FILE_SHA256


# Summary lines of each suite when every trial of `--trials 5` fails.
FAILING_SUITES = {
    "axioms": ["axioms/recursivity: FAIL (0/5 within -1)",
               "axioms/linearity: FAIL (0/5 within -1)",
               "axioms/decomposition: FAIL (0/5 within -1)"],
    "theorem1": ["theorem1/equality: FAIL (0/5 within -1)"],
    "theorem2": ["theorem2/bound: FAIL (0/5 trials with gap < 0.2;"
                 " failure rate 1.0000 vs allowed 0.5025, dim 8)"],
}


@pytest.mark.parametrize("suite", sorted(FAILING_SUITES))
def test_failing_verify_suite_exits_1_with_its_records(runner, monkeypatch, suite):
    """Exit 1, the summary lines, then one sorted-key JSON failure record per
    line for every failing trial. Five trials are fewer than 2 * MIN_TRIALS,
    so nothing forks."""
    from conceptscope import verify
    from conceptscope.synthetic import Theorem2Trial

    assert 5 < 2 * MIN_TRIALS
    if suite == "theorem2":
        monkeypatch.setattr(verify, "theorem2_trial",
                            lambda epsilon, delta, dim, seed: Theorem2Trial(0.5, 7, False))
    else:
        monkeypatch.setattr(verify, "IDENTITY_TOLERANCE", -1.0)
    result = invoke(runner, ["verify", "--suite", suite, "--trials", "5"], expect=1)
    lines = result.stdout.splitlines()
    summary = FAILING_SUITES[suite]
    assert lines[:len(summary)] == summary
    records = [json.loads(line) for line in lines[len(summary):]]
    assert [json.dumps(record, sort_keys=True) for record in records] == lines[len(summary):]
    assert {record["trial"] for record in records} == set(range(5))
    if suite == "theorem2":
        assert records == [{"check": "bound", "trial": i, "lhs_gap": 0.5, "n_used": 7}
                           for i in range(5)]


def test_verify_thread_count_does_not_change_output(runner):
    args = ["verify", "--suite", "axioms", "--trials", "12", "--seed", "5"]
    first = invoke(runner, ["--threads", "1"] + args)
    second = invoke(runner, ["--threads", "8"] + args)
    assert first.stdout == second.stdout


def invoke_input_error(runner, args):
    result = invoke(runner, args, expect=2)
    assert "Traceback" not in result.output
    return result


def test_verify_negative_seed_exits_2(runner):
    result = invoke_input_error(runner, ["verify", "--suite", "axioms", "--seed", "-1"])
    assert "--seed" in result.stderr


# Options only theorem2 reads; None stands for a records path.
@pytest.mark.parametrize("suite, option, value", [
    pytest.param(suite, option, value, id=suite + suffix)
    for suite in ("axioms", "theorem1")
    for option, value, suffix in (("--records", None, ""), ("--epsilon", "7", "-epsilon"),
                                  ("--delta", "0.1", "-delta"), ("--dim", "1", "-dim"))
])
def test_verify_records_without_theorem2_exits_2(runner, tmp_path, suite, option, value):
    records = tmp_path / "trials.jsonl"
    result = invoke_input_error(
        runner, ["verify", "--suite", suite, "--trials", "3", option, value or str(records)])
    assert result.stderr == f"error: {option} applies only to --suite theorem2, not --suite {suite}\n"
    assert result.stdout == ""
    assert not records.exists()


def test_tcav_non_numeric_theta_exits_2(runner, fixtures, tmp_path):
    model = json.loads(fixtures["model"].read_text())
    model["theta_h"] = "abc"
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(model))
    result = invoke_input_error(runner, ["tcav", str(bad), str(fixtures["embeddings"])])
    assert "error:" in result.stderr and "theta_h" in result.stderr


def test_tcav_non_numeric_vector_values_exit_2(runner, fixtures, tmp_path):
    embeddings = tmp_path / "embeddings.json"
    embeddings.write_text(
        json.dumps({"dim": 4, "vectors": [{"id": "e", "values": ["a", 0, 0, 0]}]})
    )
    result = invoke_input_error(runner, ["tcav", str(fixtures["model"]), str(embeddings)])
    assert "vectors[0]" in result.stderr
    model = json.loads(fixtures["model"].read_text())
    model["w_h"] = ["a", 0, 0, 0]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(model))
    result = invoke_input_error(runner, ["tcav", str(bad), str(fixtures["embeddings"])])
    assert "w_h" in result.stderr


@pytest.mark.parametrize(
    "field, value",
    [("w_h", [True, False, False, False]), ("v", [0, 1, 0, True]), ("dim", True)],
)
def test_tcav_boolean_model_fields_exit_2(runner, fixtures, tmp_path, field, value):
    model = json.loads(fixtures["model"].read_text())
    model[field] = value
    if field == "dim":
        # 1-element vectors, so a boolean dim is the only fault.
        model["w_h"], model["v"] = [1.0], [1.0]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(model))
    result = invoke_input_error(runner, ["tcav", str(bad), str(fixtures["embeddings"])])
    assert f"'{field}'" in result.stderr


@pytest.mark.parametrize(
    "values", ["[true, false, false, false]", "[1" + "0" * 400 + ", 0, 0, 0]"],
    ids=["boolean", "too-large-for-a-float"],
)
def test_tcav_rejected_vector_values_exit_2(runner, fixtures, tmp_path, values):
    embeddings = tmp_path / "embeddings.json"
    embeddings.write_text('{"dim": 4, "vectors": [{"id": "e", "values": ' + values + "}]}")
    result = invoke_input_error(runner, ["tcav", str(fixtures["model"]), str(embeddings)])
    assert "vectors[0]" in result.stderr


def _edit_with_plan(runner, fixtures, tmp_path, plan):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return invoke_input_error(
        runner,
        ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]), str(path),
         str(fixtures["images"])],
    )


def test_edit_non_numeric_lambda_exits_2(runner, fixtures, tmp_path):
    result = _edit_with_plan(
        runner, fixtures, tmp_path, {"class_name": "a", "concept_names": ["w"], "lambda": "q"}
    )
    assert "error:" in result.stderr and "lambda" in result.stderr


@pytest.mark.parametrize("plans, message", [
    ({"class_name": "a", "concept_names": [], "lambda": 0.5},
     "plan[0]: an edit plan needs at least one concept"),
    ([{"class_name": "a", "concept_names": ["w"], "lambda": 0.5},
      {"class_name": "b", "concept_names": ["w"], "lambda": -1}],
     "plan[1]: lambda must be finite and >= 0, got -1.0"),
    ({"class_name": ["a"], "concept_names": ["w"], "lambda": 0.5},
     "plan[0] 'class_name' must be a string"),
    ([{"class_name": "a", "concept_names": ["w"], "lambda": 0.5},
      {"class_name": "zz", "concept_names": ["w"], "lambda": 0.5}],
     "plan[1] names unknown class 'zz'"),
    ({"class_name": "a", "concept_names": ["w", "q"], "lambda": 0.5},
     "plan[0] names unknown concept 'q'"),
], ids=["no-concepts", "negative-lambda", "list-class-name", "unknown-class",
        "unknown-concept"])
def test_edit_plan_errors_name_their_plan(runner, fixtures, tmp_path, plans, message):
    result = _edit_with_plan(runner, fixtures, tmp_path, plans)
    assert result.stderr == f"error: {message}\n"


def test_edit_string_concept_names_exits_2(runner, fixtures, tmp_path):
    # A bare string would otherwise be split into one-letter concept names.
    result = _edit_with_plan(
        runner, fixtures, tmp_path, {"class_name": "a", "concept_names": "w", "lambda": 0.5}
    )
    assert "error:" in result.stderr and "concept_names" in result.stderr


def _dataset_with_line(fixtures, tmp_path, line):
    path = tmp_path / "huge.jsonl"
    path.write_bytes(fixtures["lr"].read_bytes() + line + b"\n")
    return path


def test_measure_huge_integer_concept_exits_2(runner, fixtures, tmp_path):
    # Past the int-to-str digit limit json.loads raises a plain ValueError.
    path = _dataset_with_line(
        fixtures, tmp_path,
        b'{"id": "big", "prediction": 1, "concepts": {"stripes": ' + b"9" * 5000
        + b', "spots": 1.0, "c0": 1.0}}',
    )
    result = invoke_input_error(runner, ["measure", "-d", f"X={path}"])
    assert "error:" in result.stderr and "line 9" in result.stderr


def test_measure_huge_integer_weight_exits_2(runner, fixtures, tmp_path):
    # Parses, but is too large for a float.
    path = _dataset_with_line(
        fixtures, tmp_path,
        b'{"id": "big", "prediction": 1, "concepts": {"stripes": 1.0, "spots": 1.0,'
        b' "c0": 1.0}, "weight": ' + b"9" * 400 + b"}",
    )
    result = invoke_input_error(runner, ["measure", "-d", f"X={path}"])
    assert "error: line 9: weight" in result.stderr


@pytest.mark.parametrize("n", [2, 3])
def test_overflowing_weight_total_exits_2(runner, tmp_path, n):
    path = tmp_path / "overflow.jsonl"
    path.write_text("".join(
        json.dumps({"id": f"x{i}", "prediction": 1, "concepts": {"s": 1.0}, "weight": 1e308})
        + "\n" for i in range(n)
    ))
    for args in (["measure", "-d", f"A={path}"], ["completeness", str(path), "s"]):
        result = invoke_input_error(runner, args)
        assert "error: weight total overflows" in result.stderr


def test_edit_huge_integer_lambda_exits_2(runner, fixtures, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"class_name": "a", "concept_names": ["w"], "lambda": ' + "9" * 5000 + "}")
    result = invoke_input_error(
        runner,
        ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]), str(path),
         str(fixtures["images"])],
    )
    assert "error:" in result.stderr and "plan file" in result.stderr


def test_measure_schema_matching_the_file_changes_nothing(runner, fixtures):
    args = ["measure", "-d", f"LR={fixtures['lr']}", "-d", f"RF={fixtures['rf']}"]
    inferred = invoke(runner, args)
    checked = invoke(runner, args + ["--schema", "stripes,spots,c0"])
    assert checked.stdout.encode() == inferred.stdout.encode()


@pytest.mark.parametrize("schema", ["other", "stripes,spots"])
def test_measure_schema_mismatch_exits_2(runner, fixtures, schema):
    result = invoke_input_error(
        runner, ["measure", "-d", f"LR={fixtures['lr']}", "--schema", schema]
    )
    assert "error: line 1: concept keys do not match schema" in result.stderr


def _write_sites(fixtures, target):
    return {
        "measure": ["measure", "-d", f"LR={fixtures['lr']}", "-o", target],
        "completeness": ["completeness", str(fixtures["lr"]), "stripes", "-o", target],
        "verify": ["verify", "--suite", "theorem2", "--trials", "2", "--dim", "4",
                   "--records", target],
        "edit": ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]),
                 str(fixtures["plan"]), str(fixtures["images"]), "--out-prompts", target],
    }


@pytest.mark.parametrize("site", ["measure", "completeness", "verify", "edit"])
def test_unwritable_output_path_exits_2(runner, fixtures, tmp_path, site):
    target = str(tmp_path / "missing-directory" / "out")
    result = invoke_input_error(runner, _write_sites(fixtures, target)[site])
    assert f"error: cannot write {target}" in result.stderr


# An empty path is a path that cannot be written, not "no file asked for".
@pytest.mark.parametrize("site", ["measure", "completeness", "verify", "edit"])
def test_empty_output_path_exits_2(runner, fixtures, site):
    result = invoke_input_error(runner, _write_sites(fixtures, "")[site])
    assert result.stderr.startswith("error: cannot write : ")
    assert result.stdout == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["measure", "completeness", "plan", "votes", "verify",
                                     "help", "measure-help"])
def test_full_stdout_exits_2(fixtures, command):
    """Buffered stdout, as a user's shell gives it: Python flushes it again
    at exit, which must neither fail a second time nor change the exit code."""
    args = {
        "measure": ["measure", "-d", f"LR={fixtures['lr']}"],
        "completeness": ["completeness", str(fixtures["lr"]), "stripes"],
        "plan": ["plan", "--epsilon", "0.2", "--delta", "0.1"],
        "votes": ["votes", str(fixtures["votes"])],
        "verify": ["verify", "--suite", "axioms", "--trials", "2"],
        "help": ["--help"],
        "measure-help": ["measure", "--help"],
    }[command]
    env = env_with_src()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "wb") as full:
        process = subprocess.run([sys.executable, "-m", "conceptscope", *args], stdout=full,
                                 stderr=subprocess.PIPE, env=env)
    assert process.returncode == 2, process.stderr.decode()
    assert process.stderr.startswith(b"error: cannot write stdout: ")
    assert b"Traceback" not in process.stderr


@pytest.mark.parametrize("second, extra", [("LR", []), ("LR:ground_truth", ["--ground-truth"])])
def test_measure_repeated_series_label_exits_2(runner, fixtures, second, extra):
    result = invoke_input_error(
        runner, ["measure", "-d", f"LR={fixtures['lr']}", "-d", f"{second}={fixtures['rf']}"]
        + extra,
    )
    assert f"repeated: [{second!r}]" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--suite", "theorem2", "--epsilon", "1e-4", "--trials", "1"],
        ["verify", "--suite", "theorem2", "--dim", "100000000", "--trials", "1"],
    ],
    ids=["tiny-epsilon", "huge-dim"],
)
def test_verify_theorem2_over_budget_exits_2(runner, args):
    result = invoke_input_error(runner, args)
    assert "error: a theorem2 trial would sample n x dim" in result.stderr


def test_tcav_with_no_positive_embedding_exits_3(runner, fixtures, tmp_path):
    # e3 is orthogonal to w_h, so its margin is -theta_h: nothing is in the class.
    embeddings = tmp_path / "embeddings.json"
    embeddings.write_text(
        json.dumps({"dim": 4, "vectors": [{"id": "e3", "values": [0.0, 1.0, 0.0, 0.0]}]})
    )
    result = invoke(runner, ["tcav", str(fixtures["model"]), str(embeddings)], expect=3)
    assert "Traceback" not in result.output
    assert "error: no examples are predicted positive" in result.stderr


def test_votes_with_no_present_record_exits_3(runner, tmp_path):
    votes = tmp_path / "votes.csv"
    votes.write_text("example_id,concept,yes_count,total_votes,true_label\nx3,wing,7,11,absent\n")
    result = invoke(runner, ["votes", str(votes)], expect=3)
    assert "Traceback" not in result.output
    assert "error: recall is undefined" in result.stderr


VOTES_HEADER = "example_id,concept,yes_count,total_votes,true_label\n"
# A quoted field one character over the csv module's default size limit.
OVERSIZED_FIELD = '"' + "x" * 131073 + '"'


@pytest.mark.parametrize(
    "text, row",
    [(OVERSIZED_FIELD + "\n", 1),
     (VOTES_HEADER + "x1,wing,7,11,present\n" + OVERSIZED_FIELD + ",wing,7,11,present\n", 3)],
    ids=["header", "data-row"],
)
def test_votes_oversized_field_exits_2(runner, tmp_path, text, row):
    votes = tmp_path / "votes.csv"
    votes.write_text(text)
    result = invoke_input_error(runner, ["votes", str(votes)])
    assert result.stderr.startswith(f"error: row {row}: field larger than field limit")


@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
def test_measure_lone_surrogate_concept_name_exits_2(runner, tmp_path, fmt):
    dataset = tmp_path / "d.jsonl"
    dataset.write_text('{"id": "a", "prediction": 1, "concepts": {"\\ud800": 0.5}}\n')
    result = invoke_input_error(runner, ["measure", "-d", f"A={dataset}", "-f", fmt])
    assert "error: concept name '\\ud800' holds a lone surrogate" in result.stderr


def test_measure_non_utf8_label_exits_2(fixtures):
    # Python decodes argv bytes that are not UTF-8 to lone surrogates.
    process = subprocess.run(
        [sys.executable, "-m", "conceptscope.cli", "measure", "-d",
         b"\xff=" + bytes(fixtures["lr"])],
        capture_output=True, env=env_with_src(),
    )
    assert process.returncode == 2
    assert process.stdout == b""
    assert process.stderr == b"error: dataset label '\\udcff' is not valid UTF-8\n"


# Module families that a command must not load unless it uses them:
# numpy, scipy, and the chain that ``xml.sax.saxutils`` pulls in.
_HEAVY = {
    "numpy": ("numpy",),
    "scipy": ("scipy",),
    "urllib": ("urllib.request", "http.client", "ssl", "email"),
}

# Runs each command in one fresh interpreter and reports, after the
# import and after each command, its exit code, which families of
# _HEAVY are loaded, the process's thread count (None where
# /proc/self/task does not exist) and which of BLAS_VARS are set.
_IMPORT_PROBE = """
import json, os, sys
heavy = json.loads(sys.argv[2])
blas_vars = json.loads(sys.argv[3])

def state(code):
    loaded = sorted(family for family, roots in heavy.items()
                    if any(m == r or m.startswith(r + ".") for m in sys.modules for r in roots))
    tasks = "/proc/self/task"
    threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
    return [code, loaded, threads, {k: os.environ[k] for k in blas_vars if k in os.environ}]

from conceptscope.cli import main
seen = {"import": state(0)}
for name, args in json.loads(sys.argv[1]):
    try:
        code = main.main(args=args, standalone_mode=False) or 0
    except SystemExit as exc:
        code = exc.code
    seen[name] = state(code)
print(json.dumps(seen))
"""


def _run_import_probe(commands, **env):
    # An in-process CliRunner test may already have set a BLAS variable in
    # this process, and env_with_src() copies os.environ.
    child_env = {k: v for k, v in env_with_src().items() if k not in BLAS_VARS}
    process = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands), json.dumps(_HEAVY),
         json.dumps(BLAS_VARS)],
        capture_output=True, check=True, env={**child_env, **env},
    )
    return json.loads(process.stdout.decode().splitlines()[-1]), process.stderr.decode()


def test_no_command_imports_scipy(fixtures, tmp_path):
    # The commands that need no numpy run first, so nothing else has
    # loaded it yet; then tcav, edit and the suites each load numpy, and
    # none loads scipy. Every command leaves one thread: the CLI sets
    # OPENBLAS_NUM_THREADS=1 before numpy loads, while the import leaves
    # the environment alone.
    lean = [
        ("help", ["--help"]),
        ("plan", ["plan", "--epsilon", "0.2", "--delta", "0.1"]),
        ("measure", ["measure", "-d", f"LR={fixtures['lr']}", "-o", str(tmp_path / "m.csv")]),
        ("measure-json", ["measure", "-d", f"LR={fixtures['lr']}", "-f", "json",
                          "-o", str(tmp_path / "m.json")]),
        ("measure-svg", ["measure", "-d", f"LR={fixtures['lr']}", "-f", "svg",
                         "-o", str(tmp_path / "m.svg")]),
        ("completeness", ["completeness", str(fixtures["lr"]), "stripes", "--oracle",
                          "-o", str(tmp_path / "c.json")]),
        ("votes", ["votes", str(fixtures["votes"]), "-o", str(tmp_path / "v.txt")]),
    ]
    numeric = [
        ("tcav", ["tcav", str(fixtures["model"]), str(fixtures["embeddings"]),
                  "-o", str(tmp_path / "t.json")]),
        ("edit", ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]),
                  str(fixtures["plan"]), str(fixtures["images"]),
                  "-o", str(tmp_path / "e.json")]),
        ("axioms", ["verify", "--suite", "axioms", "--trials", "5"]),
        ("theorem1", ["verify", "--suite", "theorem1", "--trials", "5"]),
        ("theorem2", ["verify", "--suite", "theorem2", "--trials", "5", "--dim", "4"]),
    ]
    seen, stderr = _run_import_probe(lean + numeric)
    lean_names = ["import"] + [name for name, _ in lean]
    assert {name: seen[name][:2] for name in lean_names} == dict.fromkeys(lean_names, [0, []]), (
        stderr)
    assert {name: [seen[name][0], "numpy" in seen[name][1], "scipy" in seen[name][1]]
            for name, _ in numeric} == {
        name: [0, True, False] for name, _ in numeric
    }, stderr
    assert seen["import"][3] == {}
    assert {name: seen[name][3] for name, _ in numeric} == dict.fromkeys(
        (name for name, _ in numeric), {"OPENBLAS_NUM_THREADS": "1"})
    threads = {name: state[2] for name, state in seen.items() if state[2] is not None}
    assert threads == dict.fromkeys(threads, 1)

    # A thread count the user chose is honoured: the CLI adds no variable
    # of its own and leaves theirs as it found it.
    seen, stderr = _run_import_probe(numeric[2:], OMP_NUM_THREADS="2")
    assert {name: [state[0], state[3]] for name, state in seen.items()} == {
        name: [0, {"OMP_NUM_THREADS": "2"}] for name in ["import"] + [n for n, _ in numeric[2:]]
    }, stderr

    # theorem2 samples its caps without scipy: with scipy unimportable,
    # as where it is not installed, the suite still runs and passes.
    process = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['scipy'] = None; from conceptscope.cli import main; main()",
         *numeric[-1][1]],
        capture_output=True, env=env_with_src(),
    )
    assert (process.returncode, process.stderr) == (0, b""), process.stderr
    assert process.stdout.startswith(b"theorem2/bound: PASS (5/5 trials"), process.stdout


def test_help_in_a_fresh_process_imports_no_heavy_module():
    # What the benchmark's setup_s times: ``python -m conceptscope --help``.
    # -X importtime names every module the process imports, on stderr.
    process = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "conceptscope", "--help"],
        capture_output=True, env=env_with_src(),
    )
    assert process.returncode == 0, process.stderr.decode()
    assert process.stdout.startswith(b"Usage:")
    imported = {line.rsplit("|", 1)[1].strip()
                for line in process.stderr.decode().splitlines()
                if line.startswith("import time:") and line.count("|") == 2}
    assert "conceptscope.cli" in imported
    heavy = sorted(m for m in imported for roots in _HEAVY.values() for r in roots
                   if m == r or m.startswith(r + "."))
    assert heavy == []


def _run_strict(args, pinned):
    """Python on ``args`` with warnings as errors, on every usable CPU or pinned
    to one; without the BLAS variables, so that the CLI runs one thread."""
    one_cpu = {min(os.sched_getaffinity(0))}
    env = {k: v for k, v in env_with_src().items() if k not in BLAS_VARS}
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *args], capture_output=True,
        env=env, check=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, one_cpu)) if pinned else None,
    )


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two usable CPUs and sched_setaffinity")


@needs_two_cpus
def test_split_parse_is_quiet_and_prints_what_one_cpu_prints(tmp_path):
    # A file above the split threshold, so that the CLI process, which runs
    # one thread, forks a worker; pinning it to one CPU leaves one part.
    rng = random.Random(0)
    lines = []
    while sum(map(len, lines)) < 2 * dataset_mod.MIN_PART:
        prediction = rng.choice((-1, 1))
        lines.append(json.dumps({
            "id": f"x{len(lines)}", "prediction": prediction,
            "concepts": {f"c{j}": rng.uniform(-1.0, 1.0) for j in range(8)},
            "weight": rng.uniform(0.05, 1.0), "ground_truth": rng.choice((prediction, 1)),
        }) + "\n")
    path = tmp_path / "large.jsonl"
    path.write_text("".join(lines))
    probe = ["-c", "from conceptscope.fanout import usable_cpus; print(usable_cpus())"]
    assert _run_strict(probe, False).stdout == f"{len(os.sched_getaffinity(0))}\n".encode()
    assert _run_strict(probe, True).stdout == b"1\n"
    measure = ["-m", "conceptscope", "measure", "-d", f"L={path}", "-m", "class-conditioned",
               "--delta", "0.05", "--ground-truth"]
    split, single = _run_strict(measure, False), _run_strict(measure, True)
    assert (split.stderr, single.stderr) == (b"", b"")
    assert split.stdout == single.stdout
    assert split.stdout.count(b"\n") == 1 + 8 * 2


# The CLI with its forks counted from the parent's audit events, on stderr.
_COUNT_FORKS = (
    "import atexit, sys; forks = []; "
    "sys.addaudithook(lambda event, args: event == 'os.fork' and forks.append(1)); "
    "atexit.register(lambda: print(len(forks), file=sys.stderr)); "
    "from conceptscope.cli import main; main()"
)


@needs_two_cpus
@pytest.mark.parametrize("suite, extra", [
    ("axioms", []), ("theorem1", []), ("theorem2", ["--dim", "4"]),
])
def test_split_verify_is_quiet_and_prints_what_one_cpu_prints(tmp_path, suite, extra):
    trials = 3 * MIN_TRIALS
    args = ["verify", "--suite", suite, "--trials", str(trials), "--seed", "3", *extra]
    outputs = []
    for pinned in (False, True):
        records = tmp_path / f"records-{pinned}.jsonl"
        result = _run_strict(["-m", "conceptscope", *args, *(
            ["--records", str(records)] if suite == "theorem2" else [])], pinned)
        assert result.stderr == b""
        outputs.append((result.stdout, records.read_bytes() if suite == "theorem2" else None))
    assert outputs[0] == outputs[1]
    assert b": PASS (" in outputs[0][0]
    spans = min(len(os.sched_getaffinity(0)), 3)
    assert _run_strict(["-c", _COUNT_FORKS, *args], False).stderr == f"{spans - 1}\n".encode()
