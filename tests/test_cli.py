import errno
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cli_fixtures import BLAS_VARS, env_with_src, run_cli, write_fixtures
from conceptscope import dataset as dataset_mod
from conceptscope import report as report_mod
from conceptscope.verify import MIN_TRIALS

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def fixtures(tmp_path):
    return write_fixtures(tmp_path)


def invoke(args, expect=0):
    result = run_cli(args)
    assert result.exit_code == expect, (args, result.output, result.exception)
    return result


def golden_bytes(name):
    return (GOLDEN / name).read_bytes()


def test_measure_symmetric_golden(fixtures):
    result = invoke(
        ["measure", "-d", f"LR={fixtures['lr']}", "-d", f"RF={fixtures['rf']}",
         "-m", "symmetric"],
    )
    assert result.stdout.encode() == golden_bytes("measure_symmetric.csv")


def test_measure_json_with_ground_truth_golden(fixtures):
    result = invoke(
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


def test_measure_svg_golden(fixtures):
    result = invoke(
        ["measure", "-d", f"LR={fixtures['lr']}", "-d", f"RF={fixtures['rf']}",
         "-m", "concept-conditioned", "--theta", "1.0", "-f", "svg"],
    )
    assert result.stdout.encode() == golden_bytes("measure_conceptcond.svg")


def test_measure_identical_datasets_identical_series(fixtures):
    result = invoke(
        ["measure", "-d", f"A={fixtures['lr']}", "-d", f"B={fixtures['lr']}"],
    )
    rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
    values = {}
    for concept, label, value, _ in rows:
        values.setdefault(concept, {})[label] = value
    for series in values.values():
        assert series["A"] == series["B"]


def test_measure_output_file_and_threads(fixtures, tmp_path):
    out1 = tmp_path / "t1.csv"
    out8 = tmp_path / "t8.csv"
    invoke(["--threads", "1", "measure", "-d", f"LR={fixtures['lr']}",
            "-o", str(out1)])
    invoke(["--threads", "8", "measure", "-d", f"LR={fixtures['lr']}",
            "-o", str(out8)])
    assert out1.read_bytes() == out8.read_bytes()


def test_measure_undefined_renders_na(fixtures):
    result = invoke(
        ["measure", "-d", f"U={fixtures['undefined']}", "-m", "class-conditioned"],
    )
    for line in result.stdout.splitlines()[1:]:
        assert ",n/a," in line


def test_measure_strict_exits_3(fixtures):
    result = invoke(
        ["measure", "-d", f"U={fixtures['undefined']}", "-m", "class-conditioned",
         "--strict"],
        expect=3,
    )
    assert result.stderr == ("error: class-conditioned measure of 'stripes' is undefined:"
                             " no weight on examples predicted +1\n")


def test_measure_validation_exits_2(fixtures, tmp_path):
    invoke(["measure", "-d", "nolabel"], expect=2)
    invoke(["measure", "-d", f"X={tmp_path}/missing.jsonl"], expect=2)
    invoke(["measure", "-d", f"LR={fixtures['lr']}",
            "-m", "concept-conditioned"], expect=2)
    invoke(["measure", "-d", f"LR={fixtures['lr']}",
            "-m", "symmetric", "--theta", "0.5"], expect=2)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"id": "a", "prediction": 3, "concepts": {"s": 1.0}}\n')
    result = invoke(["measure", "-d", f"B={bad}"], expect=2)
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
        (["--schema", ""], "--schema must list non-empty concept names, got ''"),
        (["--schema", ","], "--schema must list non-empty concept names, got ','"),
        (["--schema", "stripes,,spots,c0"],
         "--schema must list non-empty concept names, got 'stripes,,spots,c0'"),
    ],
)
def test_measure_parameter_error_comes_before_reading_files(tmp_path, args, message):
    missing = tmp_path / "missing.jsonl"
    result = invoke(["measure", "-d", f"X={missing}", *args], expect=2)
    assert message in result.stderr
    assert "cannot read" not in result.stderr


def test_measure_schema_mismatch_reports_diff(fixtures, tmp_path):
    other = tmp_path / "other.jsonl"
    other.write_bytes(b'{"id": "a", "prediction": 1, "concepts": {"extra": 1.0}}\n')
    result = invoke(
        ["measure", "-d", f"LR={fixtures['lr']}", "-d", f"O={other}"],
        expect=2,
    )
    assert "extra" in result.stderr


def test_measure_positive_only_filters(fixtures):
    base = invoke(["measure", "-d", f"LR={fixtures['lr']}"])
    filtered = invoke(["measure", "-d", f"LR={fixtures['lr']}", "--positive-only"])
    base_concepts = {line.split(",")[0] for line in base.stdout.splitlines()[1:]}
    kept = {line.split(",")[0] for line in filtered.stdout.splitlines()[1:]}
    assert kept < base_concepts
    assert "spots" not in kept  # planted negative measure
    assert "stripes" in kept


def test_completeness_golden_and_oracle(fixtures):
    result = invoke(["completeness", str(fixtures["lr"]), "stripes", "--oracle"])
    assert result.stdout.encode() == golden_bytes("completeness.json")
    payload = json.loads(result.stdout)
    assert payload["difference"] == 0.0
    assert payload["closed_form"]["value"] == payload["brute_force"]["value"]


def test_completeness_unknown_concept_exits_2(fixtures):
    invoke(["completeness", str(fixtures["lr"]), "nope"], expect=2)


def test_tcav_golden(fixtures):
    result = invoke(["tcav", str(fixtures["model"]), str(fixtures["embeddings"])])
    assert result.stdout.encode() == golden_bytes("tcav.json")
    payload = json.loads(result.stdout)
    assert payload["tcav_con"] == pytest.approx(0.6)
    assert payload["class_conditioned"] == pytest.approx((0.6 + 0.8 + 0.96) / 3)
    assert payload["gap"] == pytest.approx(abs(payload["class_conditioned"] - 0.6))


def test_plan_prints_sample_size():
    result = invoke(["plan", "--epsilon", "0.2", "--delta", "0.1"])
    assert result.stdout == "116\n"
    result = invoke(["plan", "--epsilon", "0.1", "--delta", "0.05"])
    assert result.stdout == "600\n"


def test_plan_domain_error():
    invoke(["plan", "--epsilon", "1.5", "--delta", "0.1"], expect=2)


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
def test_non_finite_hoeffding_result_exits_2(fixtures, args):
    if args[0] == "measure":
        args = ["measure", "-d", f"LR={fixtures['lr']}"] + args[1:]
    result = invoke(args, expect=2)
    assert "Traceback" not in result.output
    assert "Infinity" not in result.stdout
    assert "error:" in result.stderr


def test_votes_golden(fixtures):
    result = invoke(["votes", str(fixtures["votes"])])
    assert result.stdout.encode() == golden_bytes("votes.txt")


def test_votes_custom_k_out_of_range(fixtures):
    invoke(["votes", str(fixtures["votes"]), "--k", "12"], expect=2)


def test_votes_default_k_after_a_custom_k_in_the_same_process(fixtures):
    """The parser is built once per process; a --k must not stay for the next run."""
    for options, ks in ((["--k", "2"], ("2",)), ([], ("1", "3", "5"))):
        assert _votes_rows(*ks)(invoke(["votes", str(fixtures["votes"]), *options]).stdout)


def test_edit_golden_report(fixtures):
    result = invoke(
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


def test_edit_writes_unnormalized_prompts(fixtures, tmp_path):
    out = tmp_path / "edited.json"
    invoke(
        ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]),
         str(fixtures["plan"]), str(fixtures["images"]), "--out-prompts", str(out)],
    )
    payload = json.loads(out.read_text())
    edited = {v["id"]: v["values"] for v in payload["vectors"]}
    # a = (0.8, 0, 0.6, 0) minus 0.5 * (0, 0, 1, 0); not renormalized.
    assert edited["a"] == pytest.approx([0.8, 0.0, 0.1, 0.0])
    assert edited["b"] == pytest.approx([0.0, 1.0, 0.0, 0.0])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUT_PROMPTS_SHA256


def test_edit_renormalize_bytes_are_pinned(fixtures, tmp_path):
    out = tmp_path / "edited.json"
    result = invoke(
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


def test_vector_file_error_names_the_first_faulty_entry(fixtures, tmp_path):
    embeddings = tmp_path / "embeddings.json"
    embeddings.write_text(json.dumps({"dim": 4, "vectors": [
        {"id": "e0", "values": [1.0, 0.0, 0.0, 0.0]},
        {"id": "e1", "values": [0.0, 0.0, 0.0, 0.0]},
        {"id": "e2", "values": [1.0, 0.0]},
    ]}))
    result = invoke_input_error(["tcav", str(fixtures["model"]), str(embeddings)])
    assert result.stderr == (
        "error: vectors[1]: 'values' of 'e1' has norm 0.0 and cannot be normalized\n")


def test_edit_renormalize_zero_prompt_exits_2(fixtures, tmp_path):
    concepts = tmp_path / "concepts.json"
    concepts.write_text(
        json.dumps({"dim": 4, "vectors": [{"id": "same", "values": [0.8, 0.0, 0.6, 0.0]}]})
    )
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"class_name": "a", "concept_names": ["same"], "lambda": 1.0}))
    result = invoke_input_error(
        ["edit", str(fixtures["prompts"]), str(concepts), str(plan), str(fixtures["images"]),
         "--renormalize"],
    )
    assert "error: edited prompt 'a' has norm 0.0 and cannot be normalized" in result.stderr


def test_edit_accepts_plan_lists(fixtures, tmp_path):
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
        ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]), str(plans),
         str(fixtures["images"])],
    )
    payload = json.loads(result.stdout)
    assert len(payload["plans"]) == 2
    # The lambda=0 plan is a no-op, so the report matches the single-plan golden.
    assert payload["edited"]["accuracy"] == 1.0


def test_edit_requires_image_labels(fixtures, tmp_path):
    unlabeled = tmp_path / "img.json"
    unlabeled.write_text(
        json.dumps({"dim": 4, "vectors": [{"id": "i", "values": [1.0, 0.0, 0.0, 0.0]}]})
    )
    invoke(
        ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]),
         str(fixtures["plan"]), str(unlabeled)],
        expect=2,
    )


def test_edit_unknown_plan_class(fixtures, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"class_name": "zz", "concept_names": ["w"], "lambda": 0.1}))
    invoke(
        ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]), str(plan),
         str(fixtures["images"])],
        expect=2,
    )


def test_verify_suites_pass():
    result = invoke(["verify", "--suite", "theorem1", "--trials", "40"])
    assert "theorem1/equality: PASS" in result.stdout
    result = invoke(["verify", "--suite", "axioms", "--trials", "20"])
    assert "axioms/recursivity: PASS" in result.stdout
    assert "axioms/linearity: PASS" in result.stdout
    assert "axioms/decomposition: PASS" in result.stdout


def test_verify_theorem2_writes_records(tmp_path):
    records = tmp_path / "trials.jsonl"
    result = invoke(
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


def test_verify_theorem2_records_bytes_are_pinned(tmp_path):
    records = tmp_path / "trials.jsonl"
    invoke(["verify", "--suite", "theorem2", "--trials", "20", "--dim", "4",
            "--seed", "0", "--records", str(records)])
    assert hashlib.sha256(records.read_bytes()).hexdigest() == THEOREM2_RECORDS_FILE_SHA256


def test_verify_theorem2_summary_prints_epsilon_exactly():
    # Rounded to 6 significant digits, this epsilon would read "gap < 1".
    result = invoke(["verify", "--suite", "theorem2", "--trials", "1",
                     "--epsilon", "0.9999999"])
    assert result.stdout.startswith("theorem2/bound: PASS (1/1 trials with gap < 0.9999999;")


# Summary lines of each suite when every trial of `--trials 5` fails.
# The decomposition identity is checked only on a dataset with weight on
# both classes, so that line passes the trials whose dataset has one; the
# test counts them.
FAILING_SUITES = {
    "axioms": ["axioms/recursivity: FAIL (0/5 within -1)",
               "axioms/linearity: FAIL (0/5 within -1)",
               "axioms/decomposition: FAIL ({one_class}/5 within -1)"],
    "theorem1": ["theorem1/equality: FAIL (0/5 within -1)"],
    "theorem2": ["theorem2/bound: FAIL (0/5 trials with gap < 0.2;"
                 " failure rate 1.0000 vs allowed 0.5025, dim 8)"],
}


@pytest.mark.parametrize("suite", sorted(FAILING_SUITES))
def test_failing_verify_suite_exits_1_with_its_records(monkeypatch, suite):
    """Exit 1, the summary lines, then one sorted-key JSON failure record per
    line for every failing trial. Five trials are fewer than 2 * MIN_TRIALS,
    so nothing forks."""
    from conceptscope import verify
    from conceptscope.synthetic import Theorem2Trial

    assert 5 < 2 * MIN_TRIALS
    generate_dataset, one_class = verify.generate_dataset, []

    def counting_one_class(spec):
        dataset = generate_dataset(spec)
        one_class.append(len(set(dataset.predictions)) == 1)
        return dataset

    if suite == "theorem2":
        monkeypatch.setattr(verify, "theorem2_trial",
                            lambda epsilon, delta, dim, seed: Theorem2Trial(0.5, 7, False))
    else:
        monkeypatch.setattr(verify, "IDENTITY_TOLERANCE", -1.0)
        monkeypatch.setattr(verify, "generate_dataset", counting_one_class)
    result = invoke(["verify", "--suite", suite, "--trials", "5"], expect=1)
    lines = result.stdout.splitlines()
    summary = [line.format(one_class=sum(one_class)) for line in FAILING_SUITES[suite]]
    assert lines[:len(summary)] == summary
    records = [json.loads(line) for line in lines[len(summary):]]
    assert [json.dumps(record, sort_keys=True) for record in records] == lines[len(summary):]
    assert {record["trial"] for record in records} == set(range(5))
    if suite == "theorem2":
        assert records == [{"check": "bound", "trial": i, "lhs_gap": 0.5, "n_used": 7}
                           for i in range(5)]


def test_theorem1_range_failure_exits_1_with_its_records(monkeypatch):
    """Both completeness routes agree on 0.25, outside [0.5, 1]: each trial
    fails the range check, which the equality line counts."""
    from types import SimpleNamespace

    from conceptscope import verify

    for route in ("completeness_closed_form", "completeness_brute_force"):
        monkeypatch.setattr(verify, route, lambda dataset, concept: SimpleNamespace(value=0.25))
    records = [{"check": "range", "trial": i, "value": 0.25} for i in range(3)]
    summary = "theorem1/equality: FAIL (0/3 within 1e-12)"
    report = verify.run_theorem1_suite(3, 0)
    assert (report.passed, report.lines, report.failures) == (False, [summary], records)
    result = invoke(["verify", "--suite", "theorem1", "--trials", "3"], expect=1)
    assert result.stdout.splitlines() == [
        summary, *(json.dumps(record, sort_keys=True) for record in records)]


def test_verify_thread_count_does_not_change_output():
    args = ["verify", "--suite", "axioms", "--trials", "12", "--seed", "5"]
    first = invoke(["--threads", "1"] + args)
    second = invoke(["--threads", "8"] + args)
    assert first.stdout == second.stdout


def invoke_input_error(args):
    result = invoke(args, expect=2)
    assert "Traceback" not in result.output
    return result


def test_verify_negative_seed_exits_2():
    result = invoke_input_error(["verify", "--suite", "axioms", "--seed", "-1"])
    assert "--seed" in result.stderr


# Options only theorem2 reads; None stands for a records path.
@pytest.mark.parametrize("suite, option, value", [
    pytest.param(suite, option, value, id=suite + suffix)
    for suite in ("axioms", "theorem1")
    for option, value, suffix in (("--records", None, ""), ("--epsilon", "7", "-epsilon"),
                                  ("--delta", "0.1", "-delta"), ("--dim", "1", "-dim"))
])
def test_verify_records_without_theorem2_exits_2(tmp_path, suite, option, value):
    records = tmp_path / "trials.jsonl"
    result = invoke_input_error(
        ["verify", "--suite", suite, "--trials", "3", option, value or str(records)])
    assert result.stderr == f"error: {option} applies only to --suite theorem2, not --suite {suite}\n"
    assert result.stdout == ""
    assert not records.exists()


def test_tcav_non_numeric_theta_exits_2(fixtures, tmp_path):
    model = json.loads(fixtures["model"].read_text())
    model["theta_h"] = "abc"
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(model))
    result = invoke_input_error(["tcav", str(bad), str(fixtures["embeddings"])])
    assert "error:" in result.stderr and "theta_h" in result.stderr


def test_tcav_non_numeric_vector_values_exit_2(fixtures, tmp_path):
    embeddings = tmp_path / "embeddings.json"
    embeddings.write_text(
        json.dumps({"dim": 4, "vectors": [{"id": "e", "values": ["a", 0, 0, 0]}]})
    )
    result = invoke_input_error(["tcav", str(fixtures["model"]), str(embeddings)])
    assert "vectors[0]" in result.stderr
    model = json.loads(fixtures["model"].read_text())
    model["w_h"] = ["a", 0, 0, 0]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(model))
    result = invoke_input_error(["tcav", str(bad), str(fixtures["embeddings"])])
    assert "w_h" in result.stderr


@pytest.mark.parametrize(
    "field, value",
    [("w_h", [True, False, False, False]), ("v", [0, 1, 0, True]), ("dim", True)],
)
def test_tcav_boolean_model_fields_exit_2(fixtures, tmp_path, field, value):
    model = json.loads(fixtures["model"].read_text())
    model[field] = value
    if field == "dim":
        # 1-element vectors, so a boolean dim is the only fault.
        model["w_h"], model["v"] = [1.0], [1.0]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(model))
    result = invoke_input_error(["tcav", str(bad), str(fixtures["embeddings"])])
    assert f"'{field}'" in result.stderr


@pytest.mark.parametrize(
    "values", ["[true, false, false, false]", "[1" + "0" * 400 + ", 0, 0, 0]"],
    ids=["boolean", "too-large-for-a-float"],
)
def test_tcav_rejected_vector_values_exit_2(fixtures, tmp_path, values):
    embeddings = tmp_path / "embeddings.json"
    embeddings.write_text('{"dim": 4, "vectors": [{"id": "e", "values": ' + values + "}]}")
    result = invoke_input_error(["tcav", str(fixtures["model"]), str(embeddings)])
    assert "vectors[0]" in result.stderr


def _edit_with_plan(fixtures, tmp_path, plan):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return invoke_input_error(
        ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]), str(path),
         str(fixtures["images"])],
    )


def test_edit_non_numeric_lambda_exits_2(fixtures, tmp_path):
    result = _edit_with_plan(
        fixtures, tmp_path, {"class_name": "a", "concept_names": ["w"], "lambda": "q"}
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
def test_edit_plan_errors_name_their_plan(fixtures, tmp_path, plans, message):
    result = _edit_with_plan(fixtures, tmp_path, plans)
    assert result.stderr == f"error: {message}\n"


def test_edit_string_concept_names_exits_2(fixtures, tmp_path):
    # A bare string would otherwise be split into one-letter concept names.
    result = _edit_with_plan(
        fixtures, tmp_path, {"class_name": "a", "concept_names": "w", "lambda": 0.5}
    )
    assert "error:" in result.stderr and "concept_names" in result.stderr


def _dataset_with_line(fixtures, tmp_path, line):
    path = tmp_path / "huge.jsonl"
    path.write_bytes(fixtures["lr"].read_bytes() + line + b"\n")
    return path


def test_measure_huge_integer_concept_exits_2(fixtures, tmp_path):
    # Past the int-to-str digit limit json.loads raises a plain ValueError.
    path = _dataset_with_line(
        fixtures, tmp_path,
        b'{"id": "big", "prediction": 1, "concepts": {"stripes": ' + b"9" * 5000
        + b', "spots": 1.0, "c0": 1.0}}',
    )
    result = invoke_input_error(["measure", "-d", f"X={path}"])
    assert "error:" in result.stderr and "line 9" in result.stderr


def test_measure_huge_integer_weight_exits_2(fixtures, tmp_path):
    # Parses, but is too large for a float.
    path = _dataset_with_line(
        fixtures, tmp_path,
        b'{"id": "big", "prediction": 1, "concepts": {"stripes": 1.0, "spots": 1.0,'
        b' "c0": 1.0}, "weight": ' + b"9" * 400 + b"}",
    )
    result = invoke_input_error(["measure", "-d", f"X={path}"])
    assert "error: line 9: weight" in result.stderr


@pytest.mark.parametrize("n", [2, 3])
def test_overflowing_weight_total_exits_2(tmp_path, n):
    path = tmp_path / "overflow.jsonl"
    path.write_text("".join(
        json.dumps({"id": f"x{i}", "prediction": 1, "concepts": {"s": 1.0}, "weight": 1e308})
        + "\n" for i in range(n)
    ))
    for args in (["measure", "-d", f"A={path}"], ["completeness", str(path), "s"]):
        result = invoke_input_error(args)
        assert "error: weight total overflows" in result.stderr


def test_edit_huge_integer_lambda_exits_2(fixtures, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"class_name": "a", "concept_names": ["w"], "lambda": ' + "9" * 5000 + "}")
    result = invoke_input_error(
        ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]), str(path),
         str(fixtures["images"])],
    )
    assert "error:" in result.stderr and "plan file" in result.stderr


def test_measure_schema_matching_the_file_changes_nothing(fixtures):
    args = ["measure", "-d", f"LR={fixtures['lr']}", "-d", f"RF={fixtures['rf']}"]
    inferred = invoke(args)
    checked = invoke(args + ["--schema", "stripes,spots,c0"])
    assert checked.stdout.encode() == inferred.stdout.encode()


@pytest.mark.parametrize("schema", ["other", "stripes,spots"])
def test_measure_schema_mismatch_exits_2(fixtures, schema):
    result = invoke_input_error(
        ["measure", "-d", f"LR={fixtures['lr']}", "--schema", schema]
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
def test_unwritable_output_path_exits_2(fixtures, tmp_path, site):
    target = str(tmp_path / "missing-directory" / "out")
    result = invoke_input_error(_write_sites(fixtures, target)[site])
    assert f"error: cannot write {target}" in result.stderr


# An empty path is a path that cannot be written, not "no file asked for".
@pytest.mark.parametrize("site", ["measure", "completeness", "verify", "edit"])
def test_empty_output_path_exits_2(fixtures, site):
    result = invoke_input_error(_write_sites(fixtures, "")[site])
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
def test_measure_repeated_series_label_exits_2(fixtures, second, extra):
    result = invoke_input_error(
        ["measure", "-d", f"LR={fixtures['lr']}", "-d", f"{second}={fixtures['rf']}"]
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
def test_verify_theorem2_over_budget_exits_2(args):
    result = invoke_input_error(args)
    assert "error: a theorem2 trial would sample n x dim" in result.stderr


def test_tcav_with_no_positive_embedding_exits_3(fixtures, tmp_path):
    # e3 is orthogonal to w_h, so its margin is -theta_h: nothing is in the class.
    embeddings = tmp_path / "embeddings.json"
    embeddings.write_text(
        json.dumps({"dim": 4, "vectors": [{"id": "e3", "values": [0.0, 1.0, 0.0, 0.0]}]})
    )
    result = invoke(["tcav", str(fixtures["model"]), str(embeddings)], expect=3)
    assert "Traceback" not in result.output
    assert "error: no examples are predicted positive" in result.stderr


def test_votes_with_no_present_record_exits_3(tmp_path):
    votes = tmp_path / "votes.csv"
    votes.write_text("example_id,concept,yes_count,total_votes,true_label\nx3,wing,7,11,absent\n")
    result = invoke(["votes", str(votes)], expect=3)
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
def test_votes_oversized_field_exits_2(tmp_path, text, row):
    votes = tmp_path / "votes.csv"
    votes.write_text(text)
    result = invoke_input_error(["votes", str(votes)])
    assert result.stderr.startswith(f"error: row {row}: field larger than field limit")


def _edit_args(f, **paths):
    return ["edit", *(paths.get(key, f[key]) for key in ("prompts", "concepts", "plan", "images"))]


_DIM_3 = json.dumps({"dim": 3, "vectors": [{"id": "a", "values": [1, 0, 0], "label": "a"}]})

# Input errors with their whole message: the file written for the case, its
# content, the command line (from the fixtures ``f`` and that file ``p``), and
# the message, in which {p} is the file's path.
INPUT_ERRORS = {
    "embedding-dim": ("e.json", _DIM_3, lambda f, p: ["tcav", f["model"], p],
                      "embedding dim 3 does not match model dim 4"),
    "model-not-object": ("m.json", "[]", lambda f, p: ["tcav", p, f["embeddings"]],
                         "model file {p} must be a JSON object"),
    "vector-file-not-object": ("e.json", "[]", lambda f, p: ["tcav", f["model"], p],
                               "vector file must be a JSON object"),
    "prompt-dim": ("c.json", _DIM_3, lambda f, p: _edit_args(f, concepts=p),
                   "prompt dim 4 does not match concept dim 3"),
    "image-dim": ("i.json", _DIM_3, lambda f, p: _edit_args(f, images=p),
                  "image dim 3 does not match prompt dim 4"),
    "plan-not-object": ("plan.json", "[1]", lambda f, p: _edit_args(f, plan=p),
                        "plan[0] must be an object"),
    "no-plans": ("plan.json", "[]", lambda f, p: _edit_args(f, plan=p),
                 "plan file {p} contains no plans"),
    "votes-fields": ("v.csv", VOTES_HEADER + "x0,wing,11\n", lambda f, p: ["votes", p],
                     "row 2: expected 5 fields, got 3"),
    "votes-not-utf8": ("v.csv", b"\xff" + VOTES_HEADER.encode(), lambda f, p: ["votes", p],
                       "votes CSV is not valid UTF-8: 'utf-8' codec can't decode byte 0xff"
                       " in position 0: invalid start byte"),
}


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_input_error_messages(fixtures, tmp_path, case):
    name, content, args, message = INPUT_ERRORS[case]
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    result = invoke_input_error([str(arg) for arg in args(fixtures, path)])
    assert (result.stdout, result.stderr) == ("", f"error: {message.format(p=path)}\n")


@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
def test_measure_lone_surrogate_concept_name_exits_2(tmp_path, fmt):
    dataset = tmp_path / "d.jsonl"
    dataset.write_text('{"id": "a", "prediction": 1, "concepts": {"\\ud800": 0.5}}\n')
    result = invoke_input_error(["measure", "-d", f"A={dataset}", "-f", fmt])
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
# numpy, scipy, the chain that ``xml.sax.saxutils`` pulls in, and click,
# which the CLI does not use.
_HEAVY = {
    "numpy": ("numpy",),
    "scipy": ("scipy",),
    "urllib": ("urllib.request", "http.client", "ssl", "email"),
    "click": ("click",),
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
        code = main(args, standalone_mode=False) or 0
    except SystemExit as exc:
        code = exc.code
    seen[name] = state(code)
print(json.dumps(seen))
"""


def _run_import_probe(commands, **env):
    # An in-process CLI test may already have set a BLAS variable in
    # this process, and env_with_src() copies os.environ.
    child_env = {k: v for k, v in env_with_src().items() if k not in BLAS_VARS}
    process = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands), json.dumps(_HEAVY),
         json.dumps(BLAS_VARS)],
        capture_output=True, check=True, env={**child_env, **env},
    )
    return json.loads(process.stdout.decode().splitlines()[-1]), process.stderr.decode()


def _command_args(fixtures, tmp_path):
    """One run of each command, on the fixtures; output files go to tmp_path."""
    out = str(tmp_path / "out")
    return {
        "help": ["--help"],
        "plan": ["plan", "--epsilon", "0.2", "--delta", "0.1"],
        "measure": ["measure", "-d", f"LR={fixtures['lr']}", "-o", out],
        "measure-json": ["measure", "-d", f"LR={fixtures['lr']}", "-f", "json", "-o", out],
        "measure-svg": ["measure", "-d", f"LR={fixtures['lr']}", "-f", "svg", "-o", out],
        "completeness": ["completeness", str(fixtures["lr"]), "stripes", "--oracle", "-o", out],
        "votes": ["votes", str(fixtures["votes"]), "-o", out],
        "tcav": ["tcav", str(fixtures["model"]), str(fixtures["embeddings"]), "-o", out],
        "edit": ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]),
                 str(fixtures["plan"]), str(fixtures["images"]), "-o", out],
        "axioms": ["verify", "--suite", "axioms", "--trials", "5"],
        "theorem1": ["verify", "--suite", "theorem1", "--trials", "5"],
        "theorem2": ["verify", "--suite", "theorem2", "--trials", "5", "--dim", "4"],
    }


def test_no_command_imports_scipy(fixtures, tmp_path):
    # The commands that need no numpy, the axioms and theorem1 suites
    # among them, run first, so nothing else has loaded it yet; then tcav,
    # edit and theorem2 each load numpy and no other family of _HEAVY,
    # scipy and click included. Every command leaves one thread: the CLI
    # sets OPENBLAS_NUM_THREADS=1 before numpy loads, while the import
    # leaves the environment alone.
    commands = _command_args(fixtures, tmp_path)
    numeric = [(name, commands.pop(name))
               for name in ("tcav", "edit", "theorem2")]
    lean = list(commands.items())
    seen, stderr = _run_import_probe(lean + numeric)
    lean_names = ["import"] + [name for name, _ in lean]
    assert {name: seen[name][:2] for name in lean_names} == dict.fromkeys(lean_names, [0, []]), (
        stderr)
    assert {name: seen[name][:2] for name, _ in numeric} == {
        name: [0, ["numpy"]] for name, _ in numeric
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
    assert {name for name in imported if name.split(".")[0] == "conceptscope"} == {
        "conceptscope", "conceptscope.cli", "conceptscope.errors"}
    heavy = sorted(m for m in imported for roots in _HEAVY.values() for r in roots
                   if m == r or m.startswith(r + "."))
    assert heavy == []


# Runs one command in a fresh interpreter and prints its exit code and the
# modules that importing the CLI and running the command added: the
# package's own, and csv, dataclasses and json, which only some commands use.
_COMMAND_IMPORTS_PROBE = """
import sys
before = set(sys.modules)
from conceptscope.cli import main
try:
    code = main(sys.argv[1:], standalone_mode=False) or 0
except SystemExit as exc:
    code = exc.code
added = sorted(name for name in set(sys.modules) - before
               if name.split(".")[0] == "conceptscope" or name in ("csv", "dataclasses", "json"))
import json
print(json.dumps([code, added]))
"""

_CLI_MODULES = ["conceptscope", "conceptscope.cli", "conceptscope.errors"]
_MEASURE_MODULES = ["conceptscope.dataset", "conceptscope.fanout", "conceptscope.measures",
                    "conceptscope.report", "csv", "dataclasses", "json"]
_SUITE_MODULES = ["conceptscope.completeness", "conceptscope.dataset", "conceptscope.fanout",
                  "conceptscope.measures", "conceptscope.synthetic", "conceptscope.verify",
                  "dataclasses", "json"]

# What each command loads beyond the CLI's own modules.
COMMAND_MODULES = {
    "help": [],
    "plan": ["conceptscope.measures", "dataclasses"],
    "measure": _MEASURE_MODULES,
    "measure-json": _MEASURE_MODULES,
    "measure-svg": _MEASURE_MODULES,
    "completeness": ["conceptscope.completeness", "conceptscope.dataset", "conceptscope.fanout",
                     "dataclasses", "json"],
    "votes": ["conceptscope.votes", "csv", "dataclasses"],
    "tcav": ["conceptscope.embeddings", "conceptscope.tcav", "dataclasses", "json"],
    "edit": ["conceptscope.embeddings", "conceptscope.prompts", "dataclasses", "json"],
    "axioms": _SUITE_MODULES,
    "theorem1": _SUITE_MODULES,
    "theorem2": [*_SUITE_MODULES, "conceptscope.embeddings", "conceptscope.tcav"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_its_own_modules(fixtures, tmp_path, command):
    process = subprocess.run(
        [sys.executable, "-c", _COMMAND_IMPORTS_PROBE,
         *_command_args(fixtures, tmp_path)[command]],
        capture_output=True, check=True, env=env_with_src(),
    )
    code, added = json.loads(process.stdout.decode().splitlines()[-1])
    assert code == 0, process.stderr.decode()
    assert added == sorted(_CLI_MODULES + COMMAND_MODULES[command])


def test_cli_module_imports_no_pathlib():
    """Under ``python -S`` no ``site`` hook preloads standard-library modules, which
    would hide them from the probe above: importing the CLI loads no pathlib."""
    process = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, conceptscope.cli; print(sorted({'pathlib'} & set(sys.modules)))"],
        capture_output=True, check=True, env=env_with_src(),
    )
    assert process.stdout == b"[]\n"


def _run_strict(args, pinned, check=True):
    """Python on ``args`` with warnings as errors, on every usable CPU or pinned
    to one; without the BLAS variables, so that the CLI runs one thread."""
    one_cpu = {min(os.sched_getaffinity(0))}
    env = {k: v for k, v in env_with_src().items() if k not in BLAS_VARS}
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *args], capture_output=True,
        env=env, check=check,
        preexec_fn=(lambda: os.sched_setaffinity(0, one_cpu)) if pinned else None,
    )


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two usable CPUs and sched_setaffinity")


# The CLI with its forks counted from the parent's audit events, on stderr.
_COUNT_FORKS = (
    "import atexit, sys; forks = []; "
    "sys.addaudithook(lambda event, args: event == 'os.fork' and forks.append(1)); "
    "atexit.register(lambda: print(len(forks), file=sys.stderr)); "
    "from conceptscope.cli import main; main()"
)


@needs_two_cpus
def test_split_parse_is_quiet_and_prints_what_one_cpu_prints(tmp_path):
    # A file above the split thresholds of the parse and of the table, so
    # that the CLI process, which runs one thread, forks workers for both;
    # pinning it to one CPU leaves one part of each. Concept c7 never
    # reaches 0.5.
    rng = random.Random(0)
    lines = []
    while (sum(map(len, lines)) < 2 * dataset_mod.MIN_PART
           or 8 * len(lines) < 2 * report_mod.MIN_TABLE_PART):
        prediction = rng.choice((-1, 1))
        lines.append(json.dumps({
            "id": f"x{len(lines)}", "prediction": prediction,
            "concepts": {f"c{j}": rng.uniform(-1.0, 0.4 if j == 7 else 1.0) for j in range(8)},
            "weight": rng.uniform(0.05, 1.0), "ground_truth": rng.choice((prediction, 1)),
        }) + "\n")
    path = tmp_path / "large.jsonl"
    path.write_text("".join(lines))
    cpus = len(os.sched_getaffinity(0))
    probe = ["-c", "from conceptscope.fanout import usable_cpus; print(usable_cpus())"]
    assert _run_strict(probe, False).stdout == f"{cpus}\n".encode()
    assert _run_strict(probe, True).stdout == b"1\n"
    parse_forks = min(path.stat().st_size // dataset_mod.MIN_PART, cpus) - 1
    for args, series in [
        (["-m", "class-conditioned", "--delta", "0.05", "--ground-truth"], 2),
        (["-m", "concept-conditioned", "--theta", "0.5", "-f", "json"], 1),
        (["-m", "symmetric", "--strict", "-f", "svg"], 1),
        (["-m", "concept-conditioned", "--theta", "0.5", "--strict"], 1),
    ]:
        measure = ["measure", "-d", f"L={path}", *args]
        split, single = (_run_strict(["-m", "conceptscope", *measure], pinned, check=False)
                         for pinned in (False, True))
        assert (split.returncode, split.stdout, split.stderr) == (
            single.returncode, single.stdout, single.stderr)
        work = 8 * series * len(lines)  # row-cells
        table_forks = min(cpus, 8 * series, work // report_mod.MIN_TABLE_PART) - 1
        counted = _run_strict(["-c", _COUNT_FORKS, *measure], False, check=False)
        assert counted.stderr.endswith(f"{parse_forks + table_forks}\n".encode())
        assert table_forks > 0 and counted.stdout == split.stdout
        if "--strict" in args and "--theta" in args:
            # The first undefined cell is c7's, in the last worker's span.
            assert split.returncode == 3 and split.stdout == b""
            assert split.stderr.startswith(b"error: concept-conditioned measure of 'c7' ")
        else:
            assert split.returncode == 0 and split.stderr == b""
            # Every cell of every series is printed.
            if args[-1] == "json":
                assert len(json.loads(split.stdout)["rows"]) == 8 * series
            elif args[-1] == "svg":  # a bar per cell and a legend swatch per series
                assert split.stdout.count(b"<rect ") == (8 + 1) * series
            else:
                assert split.stdout.count(b"\n") == 1 + 8 * series


def test_table_on_the_cli_fixtures_forks_nothing(fixtures):
    measure = ["measure", "-d", f"LR={fixtures['lr']}", "-d", f"RF={fixtures['rf']}",
               "-m", "class-conditioned", "--delta", "0.05"]
    counted = _run_strict(["-c", _COUNT_FORKS, *measure], False)
    assert counted.stderr == b"0\n"
    assert counted.stdout.count(b"\n") == 1 + 3 * 2


@pytest.mark.parametrize("command", ["measure", "completeness"])
def test_unreadable_dataset_exits_2(fixtures, tmp_path, monkeypatch, command):
    def args(path):
        return ["measure", "-d", f"X={path}"] if command == "measure" else [
            "completeness", str(path), "stripes"]

    result = invoke(args(tmp_path), expect=2)
    assert result.stderr == f"error: cannot read {tmp_path}: Is a directory\n"

    def broken(*args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "pread", broken)
    result = invoke(args(fixtures["lr"]), expect=2)
    assert result.stderr == f"error: cannot read {fixtures['lr']}: Input/output error\n"


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


# The CLI with fanout.fork_map wrapped: each call that forks first prints, on
# stderr, whether numpy is loaded and how many threads the process runs.
_REPORT_FORKS = (
    "import os, sys\n"
    "from conceptscope import fanout\n"
    "fork_map = fanout.fork_map\n"
    "def reporting(func, spans):\n"
    "    if len(spans) > 1:\n"
    "        print('numpy' in sys.modules, len(os.listdir('/proc/self/task')), file=sys.stderr)\n"
    "    return fork_map(func, spans)\n"
    "fanout.fork_map = reporting\n"
    "from conceptscope.cli import main\n"
    "main()\n"
)


@needs_two_cpus
def test_theorem2_loads_numpy_before_it_forks():
    """Trial 0 runs before the fork and loads numpy, with one thread: the workers
    inherit numpy and never import it, and no BLAS thread pool."""
    args = ["verify", "--suite", "theorem2", "--trials", str(2 * MIN_TRIALS), "--dim", "4"]
    result = _run_strict(["-c", _REPORT_FORKS, *args], False)
    assert result.stdout.startswith(b"theorem2/bound: PASS (")
    assert result.stderr == b"True 1\n"


MEASURES = ["class-conditioned", "concept-conditioned", "symmetric"]
COMMANDS = ["completeness", "edit", "measure", "plan", "tcav", "verify", "votes"]


def _votes_rows(*ks):
    return lambda stdout: [line.split(",")[0] for line in stdout.splitlines()[1:]] == list(ks)


# The command-line surface, case by case: the exit code, the spellings of
# one command (from the fixtures ``f`` and a directory ``out``), which must
# all exit with that code and print the same stdout, and a check on that
# stdout or None. Exit 2 here is a usage error: ``Usage:`` and ``error:``
# on stderr.
SURFACE = {
    "measure-spellings": (0, lambda f, out: [
        ["measure", "--dataset", f"LR={f['lr']}", "--measure", "concept-conditioned",
         "--theta", "0.5", "--format", "json", "--output", "-"],
        ["measure", "-d", f"LR={f['lr']}", "-m", "concept-conditioned", "--theta=0.5",
         "-f", "json", "-o", "-"],
        ["measure", f"-dLR={f['lr']}", "-mconcept-conditioned", "--theta", "0.5", "-fjson",
         "-o-"],
    ], None),
    "measure-flags": (0, lambda f, out: [
        ["measure", "-d", f"LR={f['lr']}", "-m", "class-conditioned", "--delta", "0.05",
         "--ground-truth", "--positive-only", "--strict", "--schema", "stripes,spots,c0"],
    ], None),
    **{f"measure-{measure}-{fmt}": (0, lambda f, out, measure=measure, fmt=fmt: [
        ["measure", "-d", f"LR={f['lr']}", "-m", measure, "-f", fmt,
         *(["--theta", "-1e-3"] if measure == "concept-conditioned" else [])],
    ], None) for measure in MEASURES for fmt in ("csv", "json", "svg")},
    "completeness": (0, lambda f, out: [
        ["completeness", str(f["lr"]), "stripes", "--oracle", "--output", "-"],
        ["completeness", "--oracle", str(f["lr"]), "stripes", "-o", "-"],
    ], None),
    "tcav": (0, lambda f, out: [
        ["tcav", str(f["model"]), str(f["embeddings"]), "--output", "-"],
        ["tcav", "-o", "-", str(f["model"]), str(f["embeddings"])],
    ], None),
    "plan": (0, lambda f, out: [
        ["plan", "--epsilon", "0.2", "--delta", "0.1"], ["plan", "--delta=0.1", "--epsilon=0.2"],
    ], lambda stdout: stdout == "116\n"),
    "edit": (0, lambda f, out: [
        ["edit", *(str(f[k]) for k in ("prompts", "concepts", "plan", "images")),
         "--out-prompts", str(out / "p.json"), "--renormalize", *flag]
        for flag in ([], ["--output", "-"], ["-o", "-"])
    ], None),
    "votes-default-k": (0, lambda f, out: [["votes", str(f["votes"])]],
                        _votes_rows("1", "3", "5")),
    "votes-one-k": (0, lambda f, out: [
        ["votes", str(f["votes"]), "--k", "2", "--output", "-"],
        ["votes", "-o", "-", "--k=2", str(f["votes"])],
    ], _votes_rows("2")),
    "votes-two-k": (0, lambda f, out: [["votes", str(f["votes"]), "--k", "4", "--k", "2"]],
                    _votes_rows("4", "2")),
    **{f"verify-{suite}": (0, lambda f, out, suite=suite: [
        ["verify", "--suite", suite, "--trials", "3", "--seed", "1", *(
            ["--epsilon", "0.3", "--delta", "0.2", "--dim", "4", "--records",
             str(out / "r.jsonl")] if suite == "theorem2" else [])],
    ], lambda stdout: ": PASS (" in stdout) for suite in ("axioms", "theorem1", "theorem2")},
    "threads": (0, lambda f, out: [
        [*threads, "verify", "--suite", "axioms", "--trials", "3"]
        for threads in ([], ["--threads", "2"], ["--threads=1"])
    ], None),
    **{"-".join(["help", *command]): (0, lambda f, out, command=command: [
        [*command, "--help"], [*command, "-h"],
    ], lambda stdout, command=command: stdout.startswith(
        " ".join(["Usage: conceptscope", *command])))
       for command in [[]] + [[name] for name in COMMANDS]},
    "prefix-ground": (2, lambda f, out: [["measure", "-d", f"LR={f['lr']}", "--ground"]], None),
    "prefix-strict": (2, lambda f, out: [["measure", "-d", f"LR={f['lr']}", "--str"]], None),
    "prefix-suite": (2, lambda f, out: [["verify", "--suit", "axioms"]], None),
    "threads-0": (2, lambda f, out: [["--threads", "0", "verify", "--suite", "axioms"]], None),
    "threads-after-command": (2, lambda f, out: [
        ["verify", "--suite", "axioms", "--threads", "2"]], None),
    "bad-choice": (2, lambda f, out: [
        ["measure", "-d", f"LR={f['lr']}", "-m", "mean"],
        ["measure", "-d", f"LR={f['lr']}", "-f", "xml"], ["verify", "--suite", "theorem3"],
    ], None),
    "out-of-range": (2, lambda f, out: [
        ["verify", "--suite", "axioms", "--trials", "0"],
        ["verify", "--suite", "axioms", "--seed", "-1"],
    ], None),
    "no-arguments": (2, lambda f, out: [[]], None),
    "unknown-command": (2, lambda f, out: [["nope"], ["nope", "--help"]], None),
}


@pytest.mark.parametrize("case", SURFACE)
def test_cli_surface(tmp_path, case):
    code, spellings, check = SURFACE[case]
    results = [run_cli(args) for args in spellings(write_fixtures(tmp_path), tmp_path)]
    assert [result.exit_code for result in results] == [code] * len(results), [
        result.output for result in results]
    assert len({result.stdout_bytes for result in results}) == 1
    for result in results:
        if code == 2:
            assert result.stdout == ""
            assert result.stderr.startswith("Usage: conceptscope"), result.stderr
            assert "error: " in result.stderr
        else:
            assert result.stderr == ""
    assert check is None or check(results[0].stdout), results[0].stdout


def test_interrupt_exits_1_without_traceback(monkeypatch):
    from conceptscope import measures

    def interrupted(epsilon, delta):
        raise KeyboardInterrupt

    monkeypatch.setattr(measures, "hoeffding_sample_size", interrupted)
    try:
        result = run_cli(["plan", "--epsilon", "0.2", "--delta", "0.1"])
    except KeyboardInterrupt:  # which would otherwise stop the test run
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", "\nAborted!\n")
