"""The names ``conceptscope`` exports, and what a bare import loads."""

import importlib
import json
import subprocess
import sys

import pytest

import conceptscope
from cli_fixtures import env_with_src

# Every public name, by the submodule that defines it.
EXPORTS = {
    "completeness": ("BRUTE_FORCE", "CLOSED_FORM", "CompletenessScore",
                     "completeness_brute_force", "completeness_closed_form"),
    "dataset": ("ConceptDataset", "load_dataset", "to_jsonl",
                "with_ground_truth_predictions"),
    "errors": ("ConceptScopeError", "DomainError", "InfeasiblePlantError",
               "OracleMismatchError", "ParseError", "SamplingError", "SchemaError",
               "UndefinedMeasureError", "ValidationError"),
    "measures": ("CLASS_CONDITIONED", "CONCEPT_CONDITIONED", "SYMMETRIC", "MeasureResult",
                 "class_conditioned_measure", "concept_conditioned_measure",
                 "hoeffding_radius", "hoeffding_sample_size", "symmetric_measure"),
    "prompts": ("DEFAULT_LAMBDA_GRID", "EditPlan", "EvalReport", "classify", "edit_prompt",
                "evaluate", "fit_lambda"),
    "synthetic": ("SyntheticSpec", "Theorem2Trial", "generate_dataset", "make_rng",
                  "sample_spherical_cap", "split_example", "theorem2_trial"),
    "tcav": ("LinearConceptModel", "class_conditioned_from_embeddings", "tcav_continuous",
             "tcav_discrete"),
    "votes": ("VoteMetrics", "VoteRecord", "label_at_k", "metrics_at_k"),
}


def test_all_lists_every_export_once():
    names = [name for group in EXPORTS.values() for name in group]
    assert len(names) == 49
    assert sorted(conceptscope.__all__) == sorted(names)
    assert len(set(conceptscope.__all__)) == len(conceptscope.__all__)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_its_submodules_object(module):
    submodule = importlib.import_module(f"conceptscope.{module}")
    listed = dir(conceptscope)
    for name in EXPORTS[module]:
        assert getattr(conceptscope, name) is getattr(submodule, name), name
        assert name in listed, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from conceptscope import *", namespace)
    for name in conceptscope.__all__:
        assert namespace[name] is getattr(conceptscope, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        conceptscope.no_such_name  # noqa: B018
    assert not hasattr(conceptscope, "fit_lambdas")


# A bare import, in a fresh interpreter: what it loads, and that a
# submodule that is not an export still imports by ``from`` syntax.
_BARE_IMPORT_PROBE = """
import json, sys
import conceptscope
numpy_after_import = any(m == "numpy" or m.startswith("numpy.") for m in sys.modules)
package_after_import = sorted(m for m in sys.modules if m.split(".")[0] == "conceptscope")
from conceptscope import verify
print(json.dumps([numpy_after_import, package_after_import, verify.__name__,
                  verify is sys.modules["conceptscope.verify"]]))
"""


def test_bare_import_leaves_numpy_unloaded_and_submodules_importable():
    process = subprocess.run(
        [sys.executable, "-c", _BARE_IMPORT_PROBE],
        capture_output=True, check=True, env=env_with_src(),
    )
    assert json.loads(process.stdout) == [
        False, ["conceptscope", "conceptscope.errors"], "conceptscope.verify", True]
