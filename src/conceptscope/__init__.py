"""Model-agnostic concept-importance measures and their verification kit.

Computes how much a human-interpretable concept matters to a
predictor from (prediction, concept-label) pairs alone, plus the
completeness score of a concept, concept scores for linear heads over
unit embeddings, prompt editing for zero-shot classifiers, and
vote-thresholded concept-labeling metrics. Brute-force oracles and
randomized suites verify the closed forms and bounds.
"""

from conceptscope.completeness import (
    BRUTE_FORCE,
    CLOSED_FORM,
    CompletenessScore,
    completeness_brute_force,
    completeness_closed_form,
)
from conceptscope.dataset import (
    ConceptDataset,
    load_dataset,
    to_jsonl,
    with_ground_truth_predictions,
)
from conceptscope.errors import (
    ConceptScopeError,
    DomainError,
    InfeasiblePlantError,
    OracleMismatchError,
    ParseError,
    SamplingError,
    SchemaError,
    UndefinedMeasureError,
    ValidationError,
)
from conceptscope.measures import (
    CLASS_CONDITIONED,
    CONCEPT_CONDITIONED,
    SYMMETRIC,
    MeasureResult,
    class_conditioned_measure,
    concept_conditioned_measure,
    hoeffding_radius,
    hoeffding_sample_size,
    symmetric_measure,
)
from conceptscope.votes import VoteMetrics, VoteRecord, label_at_k, metrics_at_k

# Names from the numpy-backed modules, each imported from its submodule
# on first access (PEP 562), so that ``import conceptscope`` and the
# commands that need no numpy do not load it.
_LAZY = {
    **dict.fromkeys(
        ("DEFAULT_LAMBDA_GRID", "EditPlan", "EvalReport", "classify", "edit_prompt",
         "evaluate", "fit_lambda"),
        "prompts",
    ),
    **dict.fromkeys(
        ("SyntheticSpec", "Theorem2Trial", "generate_dataset", "make_rng",
         "sample_spherical_cap", "split_example", "theorem2_trial"),
        "synthetic",
    ),
    **dict.fromkeys(
        ("LinearConceptModel", "class_conditioned_from_embeddings", "tcav_continuous",
         "tcav_discrete"),
        "tcav",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE",
    "CLASS_CONDITIONED",
    "CLOSED_FORM",
    "CONCEPT_CONDITIONED",
    "DEFAULT_LAMBDA_GRID",
    "SYMMETRIC",
    "CompletenessScore",
    "ConceptDataset",
    "ConceptScopeError",
    "DomainError",
    "EditPlan",
    "EvalReport",
    "InfeasiblePlantError",
    "LinearConceptModel",
    "MeasureResult",
    "OracleMismatchError",
    "ParseError",
    "SamplingError",
    "SchemaError",
    "SyntheticSpec",
    "Theorem2Trial",
    "UndefinedMeasureError",
    "ValidationError",
    "VoteMetrics",
    "VoteRecord",
    "class_conditioned_from_embeddings",
    "class_conditioned_measure",
    "classify",
    "completeness_brute_force",
    "completeness_closed_form",
    "concept_conditioned_measure",
    "edit_prompt",
    "evaluate",
    "fit_lambda",
    "generate_dataset",
    "hoeffding_radius",
    "hoeffding_sample_size",
    "label_at_k",
    "load_dataset",
    "make_rng",
    "metrics_at_k",
    "sample_spherical_cap",
    "split_example",
    "symmetric_measure",
    "tcav_continuous",
    "tcav_discrete",
    "theorem2_trial",
    "to_jsonl",
    "with_ground_truth_predictions",
]
