"""Model-agnostic concept-importance measures and their verification kit.

Computes how much a human-interpretable concept matters to a
predictor from (prediction, concept-label) pairs alone, plus the
completeness score of a concept, concept scores for linear heads over
unit embeddings, prompt editing for zero-shot classifiers, and
vote-thresholded concept-labeling metrics. Brute-force oracles and
randomized suites verify the closed forms and bounds.
"""

# ``errors`` needs nothing beyond the standard library and every command
# loads it; the other submodules load on first access.
from conceptscope import errors  # noqa: F401

# Every public name, by the submodule that defines it. Each is imported
# from that submodule when first read (PEP 562), so that ``import
# conceptscope`` and each command load only the modules they use.
_LAZY = {
    **dict.fromkeys(
        ("BRUTE_FORCE", "CLOSED_FORM", "CompletenessScore", "completeness_brute_force",
         "completeness_closed_form"),
        "completeness",
    ),
    **dict.fromkeys(
        ("ConceptDataset", "load_dataset", "to_jsonl", "with_ground_truth_predictions"),
        "dataset",
    ),
    **dict.fromkeys(
        ("ConceptScopeError", "DomainError", "InfeasiblePlantError", "OracleMismatchError",
         "ParseError", "SamplingError", "SchemaError", "UndefinedMeasureError",
         "ValidationError"),
        "errors",
    ),
    **dict.fromkeys(
        ("CLASS_CONDITIONED", "CONCEPT_CONDITIONED", "SYMMETRIC", "MeasureResult",
         "class_conditioned_measure", "concept_conditioned_measure", "hoeffding_radius",
         "hoeffding_sample_size", "symmetric_measure"),
        "measures",
    ),
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
    **dict.fromkeys(("VoteMetrics", "VoteRecord", "label_at_k", "metrics_at_k"), "votes"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    globals()[name] = value = getattr(module, name)  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = sorted(_LAZY)
