"""Command-line surface.

Exit codes: 0 all requested computations succeeded; 1 an internal
consistency check failed (oracle mismatch, failed verification suite);
2 invalid inputs or parameters; 3 a requested measure is undefined on
the input (for example a conditional mean over an empty set). ``tcav``
and ``votes`` exit 3 whenever that happens; ``measure`` renders such a
cell as ``n/a`` instead, and exits 3 only under ``--strict``.

All command output is byte-stable for fixed inputs and seeds.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click
from click.core import ParameterSource

from conceptscope import report as report_mod
from conceptscope.completeness import completeness_brute_force, completeness_closed_form
from conceptscope.dataset import check_schema, load_dataset
from conceptscope.errors import (
    ConceptScopeError,
    DomainError,
    OracleMismatchError,
    ParseError,
    ValidationError,
    load_json,
)
from conceptscope.measures import (
    CLASS_CONDITIONED,
    CONCEPT_CONDITIONED,
    SYMMETRIC,
    hoeffding_sample_size,
)
from conceptscope.votes import load_votes_csv, metrics_at_k

# numpy and the modules built on it (embeddings, prompts, tcav, verify)
# are imported by the commands that use them, so that measure,
# completeness, votes, plan and --help start without numpy.
if TYPE_CHECKING:
    from conceptscope.prompts import EditPlan
    from conceptscope.tcav import LinearConceptModel

_MEASURE_CHOICES = {
    "symmetric": SYMMETRIC,
    "class-conditioned": CLASS_CONDITIONED,
    "concept-conditioned": CONCEPT_CONDITIONED,
}


def _cli_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ConceptScopeError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)

    return wrapper


def _read_file(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_file(path: str, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_stdout(data: bytes) -> None:
    try:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    except OSError as exc:
        # stdout is flushed again before exit (``run``); point it at the null
        # device so that the bytes still buffered cannot fail a second time.
        try:
            null = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(null, sys.stdout.fileno())
            finally:
                os.close(null)
        except (OSError, ValueError):  # stdout is not a file descriptor
            pass
        raise ValidationError(f"cannot write stdout: {exc.strerror or exc}") from None


def _write_output(data: bytes, output: str) -> None:
    if output == "-":
        _write_stdout(data)
    else:
        _write_file(output, data)


def _emit_json(payload: object, output: str) -> None:
    _write_output((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"), output)


def _finite_number(value: object, what: str) -> float:
    """A finite JSON number from an input file; strings and booleans are rejected."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer literal too large for a float
        pass
    raise ValidationError(f"{what} must be a finite number, got {value!r}")


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    """click's help callback, writing through ``_write_stdout`` so that help on
    a stdout that fails exits 2 as every command's output does."""
    if value and not ctx.resilient_parsing:
        _cli_errors(_write_stdout)(f"{ctx.get_help()}\n".encode("utf-8"))
        ctx.exit()


class _Command(click.Command):
    """A command whose ``--help`` is written by ``_show_help``."""

    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Group(_Command, click.Group):
    command_class = _Command


@click.group(cls=_Group, context_settings={"help_option_names": ["-h", "--help"]})
@click.option(
    "--threads",
    type=click.IntRange(min=1),
    default=1,
    show_default=True,
    expose_value=False,
    help="Accepted for compatibility; has no effect.",
)
def main() -> None:
    """Concept-importance measures, verification suites and prompt editing."""
    # OpenBLAS sizes its worker pool to the CPU count when the library loads,
    # numpy has no API to change it later and threadpoolctl is not a
    # dependency. The one BLAS call that could split, theorem2's gemv, is
    # 116 x 8 at the defaults, so idle workers only burn CPU. This runs before
    # any command imports numpy; a user's setting wins, and importing the
    # package leaves the environment alone.
    if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _parse_dataset_spec(spec: str) -> tuple[str, str]:
    label, sep, path = spec.partition("=")
    if not sep or not label or not path:
        raise DomainError(f"dataset must be LABEL=PATH, got {spec!r}")
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:  # argv bytes that are not UTF-8
        raise DomainError(f"dataset label {label!r} is not valid UTF-8") from None
    return label, path


@main.command("measure")
@click.option("--dataset", "-d", "dataset_specs", multiple=True, required=True,
              metavar="LABEL=PATH", help="Dataset JSONL with a series label; repeatable.")
@click.option("--measure", "-m", "measure_name",
              type=click.Choice(sorted(_MEASURE_CHOICES)), default="symmetric",
              show_default=True)
@click.option("--theta", type=float, default=None,
              help="Threshold for the concept-conditioned measure.")
@click.option("--delta", type=float, default=None,
              help="Attach Hoeffding confidence radii at this delta.")
@click.option("--ground-truth", "include_ground_truth", is_flag=True,
              help="Add per-dataset ground-truth comparison series.")
@click.option("--format", "-f", "fmt", type=click.Choice(["csv", "json", "svg"]),
              default="csv", show_default=True)
@click.option("--output", "-o", default="-", show_default=True)
@click.option("--positive-only", is_flag=True,
              help="Figure-style filter: keep concepts with a positive value somewhere.")
@click.option("--strict", is_flag=True,
              help="Fail (exit 3) on undefined measures instead of rendering n/a.")
@click.option("--schema", default=None,
              help="Comma-separated concept names every line must carry exactly;"
                   " by default the first line's concepts are the schema.")
@_cli_errors
def measure_cmd(dataset_specs, measure_name, theta, delta, include_ground_truth,
                fmt, output, positive_only, strict, schema):
    """Per-concept measure table over one or more datasets."""
    kind = _MEASURE_CHOICES[measure_name]
    report_mod.check_measure_parameters(kind, theta, delta)
    schema_names = check_schema(s.strip() for s in schema.split(",")) if schema else None
    datasets = []
    for spec in dataset_specs:
        label, path = _parse_dataset_spec(spec)
        datasets.append((label, load_dataset(_read_file(path), schema=schema_names)))
    cells = report_mod.compute_measure_table(
        datasets,
        kind,
        theta=theta,
        delta=delta,
        include_ground_truth=include_ground_truth,
        strict=strict,
    )
    if positive_only:
        cells = report_mod.filter_positive(cells)
    if fmt == "csv":
        data = report_mod.render_csv(cells)
    elif fmt == "json":
        data = report_mod.render_json(cells, kind=kind, theta=theta, delta=delta)
    else:
        title = kind if theta is None else f"{kind} (theta={theta:g})"
        data = report_mod.render_svg(cells, title=title)
    _write_output(data, output)


ORACLE_TOLERANCE = 1e-12


@main.command("completeness")
@click.argument("dataset_path", metavar="DATASET")
@click.argument("concept")
@click.option("--oracle", is_flag=True,
              help="Also run the brute-force decoder maximum and require agreement.")
@click.option("--output", "-o", default="-", show_default=True)
@_cli_errors
def completeness_cmd(dataset_path, concept, oracle, output):
    """Completeness score of a binary CONCEPT on DATASET."""
    dataset = load_dataset(_read_file(dataset_path))
    closed = completeness_closed_form(dataset, concept)
    payload = {
        "concept": concept,
        "closed_form": {
            "value": closed.value,
            "per_level_terms": {str(k): list(v) for k, v in closed.per_level_terms.items()},
        },
        "brute_force": None,
        "difference": None,
    }
    if oracle:
        brute = completeness_brute_force(dataset, concept)
        difference = abs(closed.value - brute.value)
        payload["brute_force"] = {"value": brute.value}
        payload["difference"] = difference
        if difference > ORACLE_TOLERANCE:
            raise OracleMismatchError(
                f"closed form {closed.value!r} and brute force {brute.value!r}"
                f" differ by {difference:e} (> {ORACLE_TOLERANCE:g})"
            )
    _emit_json(payload, output)


def _load_model(path: str) -> LinearConceptModel:
    from conceptscope.embeddings import parse_dim, parse_vector
    from conceptscope.tcav import LinearConceptModel

    obj = load_json(_read_file(path), f"model file {path}")
    if not isinstance(obj, dict):
        raise ParseError(f"model file {path} must be a JSON object")
    for key in ("dim", "w_h", "theta_h", "v"):
        if key not in obj:
            raise ValidationError(f"model file {path} is missing {key!r}")
    where = f"model file {path}:"
    dim = parse_dim(obj["dim"], f"{where} 'dim'")
    return LinearConceptModel(
        w_h=parse_vector(obj["w_h"], dim, f"{where} 'w_h'"),
        theta_h=_finite_number(obj["theta_h"], f"{where} 'theta_h'"),
        v=parse_vector(obj["v"], dim, f"{where} 'v'"),
    )


@main.command("tcav")
@click.argument("model_path", metavar="MODEL")
@click.argument("embeddings_path", metavar="EMBEDDINGS")
@click.option("--output", "-o", default="-", show_default=True)
@_cli_errors
def tcav_cmd(model_path, embeddings_path, output):
    """Concept scores of a linear head over an embedding file."""
    from conceptscope.embeddings import load_vector_file
    from conceptscope.tcav import (
        class_conditioned_from_embeddings,
        decision_margins,
        tcav_continuous,
        tcav_discrete,
    )

    model = _load_model(model_path)
    embeddings = load_vector_file(_read_file(embeddings_path)).vectors
    if embeddings.shape[1] != model.dim:
        raise ValidationError(
            f"embedding dim {embeddings.shape[1]} does not match model dim {model.dim}"
        )
    members = embeddings[decision_margins(model, embeddings) > 0.0]
    conditional = class_conditioned_from_embeddings(model, embeddings)
    continuous = tcav_continuous(model, members)
    payload = {
        "tcav": tcav_discrete(model, members),
        "tcav_con": continuous,
        "class_conditioned": conditional,
        "gap": abs(conditional - continuous),
    }
    _emit_json(payload, output)


@main.command("plan")
@click.option("--epsilon", type=float, required=True)
@click.option("--delta", type=float, required=True)
@_cli_errors
def plan_cmd(epsilon, delta):
    """Print the sample count needed for radius EPSILON at confidence DELTA."""
    _write_stdout(f"{hoeffding_sample_size(epsilon, delta)}\n".encode())


def _load_plans(path: str) -> list[EditPlan]:
    from conceptscope.prompts import EditPlan

    obj = load_json(_read_file(path), f"plan file {path}")
    raw_plans = obj if isinstance(obj, list) else [obj]
    plans = []
    for index, raw in enumerate(raw_plans):
        if not isinstance(raw, dict):
            raise ValidationError(f"plan[{index}] must be an object")
        try:
            class_name, concept_names, lam = raw["class_name"], raw["concept_names"], raw["lambda"]
        except KeyError as exc:
            raise ValidationError(f"plan[{index}] is missing {exc.args[0]!r}") from None
        if not isinstance(class_name, str):
            raise ValidationError(f"plan[{index}] 'class_name' must be a string")
        if not isinstance(concept_names, list) or not all(
            isinstance(name, str) for name in concept_names
        ):
            raise ValidationError(f"plan[{index}] 'concept_names' must be a list of strings")
        lam = _finite_number(lam, f"plan[{index}] 'lambda'")
        try:
            plans.append(EditPlan(class_name, tuple(concept_names), lam))
        except ValidationError as exc:
            raise ValidationError(f"plan[{index}]: {exc}") from None
    if not plans:
        raise ValidationError(f"plan file {path} contains no plans")
    return plans


@main.command("edit")
@click.argument("prompts_path", metavar="PROMPTS")
@click.argument("concepts_path", metavar="CONCEPTS")
@click.argument("plan_path", metavar="PLAN")
@click.argument("images_path", metavar="IMAGES")
@click.option("--out-prompts", default=None, metavar="PATH",
              help="Write the edited prompt vectors to this file.")
@click.option("--renormalize", is_flag=True,
              help="Renormalize edited prompts to unit norm (off by default).")
@click.option("--output", "-o", default="-", show_default=True)
@_cli_errors
def edit_cmd(prompts_path, concepts_path, plan_path, images_path, out_prompts,
             renormalize, output):
    """Apply edit PLAN to PROMPTS and evaluate on labeled IMAGES."""
    import numpy as np

    from conceptscope.embeddings import dump_vector_file, load_vector_file, unit_normalize
    from conceptscope.prompts import classify, edit_prompt, evaluate

    prompt_file = load_vector_file(_read_file(prompts_path))
    concept_file = load_vector_file(_read_file(concepts_path))
    names, prompts, concepts = prompt_file.ids, prompt_file.vectors, concept_file.vectors
    dim = prompts.shape[1]
    if concepts.shape[1] != dim:
        raise ValidationError(f"prompt dim {dim} does not match concept dim {concepts.shape[1]}")
    concept_row = {name: i for i, name in enumerate(concept_file.ids)}
    plans = _load_plans(plan_path)

    image_file = load_vector_file(_read_file(images_path))
    images, labels = image_file.vectors, image_file.labels
    if images.shape[1] != dim:
        raise ValidationError(f"image dim {images.shape[1]} does not match prompt dim {dim}")
    if None in labels:
        unlabeled = image_file.ids[labels.index(None)]
        raise ValidationError(f"image {unlabeled!r} has no 'label'; evaluation needs one")

    # Each plan edits the original class row; a later plan for the same
    # class replaces an earlier one.
    edited = prompts.copy()
    for index, plan in enumerate(plans):
        if plan.class_name not in names:
            raise ValidationError(f"plan[{index}] names unknown class {plan.class_name!r}")
        position = names.index(plan.class_name)
        try:
            rows = [concept_row[name] for name in plan.concept_names]
        except KeyError as exc:
            raise ValidationError(f"plan[{index}] names unknown concept {exc.args[0]!r}") from None
        vector = edit_prompt(prompts[position], concepts[rows], plan.lam)
        if renormalize:
            vector = unit_normalize(vector, f"edited prompt {plan.class_name!r}")
        edited[position] = vector

    name_of_row = np.array(names, dtype=object)
    original_eval = evaluate(name_of_row[classify(images, prompts)], labels)
    edited_eval = evaluate(name_of_row[classify(images, edited)], labels)
    payload = {
        "original": dataclasses.asdict(original_eval),
        "edited": dataclasses.asdict(edited_eval),
        "plans": [
            {"class_name": p.class_name, "concept_names": list(p.concept_names),
             "lambda": p.lam}
            for p in plans
        ],
    }
    if out_prompts is not None:
        _write_file(out_prompts, dump_vector_file(names, edited))
    _emit_json(payload, output)


@main.command("votes")
@click.argument("votes_path", metavar="VOTES_CSV")
@click.option("--k", "ks", multiple=True, type=int, default=(1, 3, 5), show_default=True)
@click.option("--output", "-o", default="-", show_default=True)
@_cli_errors
def votes_cmd(votes_path, ks, output):
    """Accuracy and recall of thresholded concept labels at each k."""
    records = load_votes_csv(_read_file(votes_path))
    lines = ["k,accuracy,recall"]
    for k in ks:
        metrics = metrics_at_k(records, k)
        lines.append(f"{k},{metrics.accuracy!r},{metrics.recall!r}")
    _write_output(("\n".join(lines) + "\n").encode("utf-8"), output)


@main.command("verify")
@click.option("--suite", type=click.Choice(["axioms", "theorem1", "theorem2"]),
              required=True)
@click.option("--trials", type=click.IntRange(min=1), default=None,
              help="Defaults: 1000 (axioms, theorem1) or 500 (theorem2).")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--epsilon", type=float, default=0.2, show_default=True)
@click.option("--delta", type=float, default=0.1, show_default=True)
@click.option("--dim", type=int, default=8, show_default=True)
@click.option("--records", "records_path", default=None, metavar="PATH",
              help="Write one JSONL record per theorem2 trial.")
@_cli_errors
def verify_cmd(suite, trials, seed, epsilon, delta, dim, records_path):
    """Run a verification suite; exit 0 only if every check passes."""
    if suite != "theorem2":
        # Options only theorem2 reads; a default is not a given option.
        ctx = click.get_current_context()
        for param in ctx.command.params:
            if (param.name in ("epsilon", "delta", "dim", "records_path")
                    and ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE):
                raise DomainError(
                    f"{param.opts[0]} applies only to --suite theorem2, not --suite {suite}")
    from conceptscope.verify import run_axioms_suite, run_theorem1_suite, run_theorem2_suite

    if suite == "axioms":
        report = run_axioms_suite(trials or 1000, seed)
    elif suite == "theorem1":
        report = run_theorem1_suite(trials or 1000, seed)
    else:
        report, records = run_theorem2_suite(epsilon, delta, dim, trials or 500, seed)
        if records_path is not None:
            _write_file(records_path, "".join(
                json.dumps(record, sort_keys=True) + "\n" for record in records).encode("utf-8"))
    lines = [*report.lines, *(json.dumps(failure, sort_keys=True) for failure in report.failures)]
    _write_stdout("".join(f"{line}\n" for line in lines).encode("utf-8"))
    if not report.passed:
        sys.exit(1)


def run() -> None:
    """Run ``main`` as a whole process, as ``conceptscope`` and ``python -m
    conceptscope`` do: flush stdout and stderr, then skip teardown with
    ``os._exit``. Nothing is left for it: files are closed where written,
    forked workers reaped, and the package has no ``atexit`` hook or thread."""
    code = 0
    try:
        main()
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    except (AttributeError, OSError, TypeError, ValueError):
        # A missing, closed or failing stream, or a code that is not an int:
        # Python's own exit handles it, and exits 120 if its flush fails.
        sys.exit(code)


if __name__ == "__main__":
    run()
