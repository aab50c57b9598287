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

import argparse
import functools
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from conceptscope.errors import (
    ConceptScopeError,
    DomainError,
    OracleMismatchError,
    ParseError,
    ValidationError,
    load_json,
)

# Each command imports the modules it uses in its body, so that a command
# loads only its own path: --help none of them, and measure, completeness,
# votes and plan no numpy.
if TYPE_CHECKING:
    from conceptscope.prompts import EditPlan
    from conceptscope.tcav import LinearConceptModel


def _read_file(path: str, read=lambda file: file.read()):
    """``read(file)`` of ``path`` open in binary; an OSError is ``cannot read PATH``."""
    try:
        with open(path, "rb") as file:
            return read(file)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_file(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as file:
            file.write(data)
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
    import json

    _write_output((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"), output)


def _finite_number(value: object, what: str) -> float:
    """A finite JSON number from an input file; strings and booleans are rejected."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer literal too large for a float
        pass
    raise ValidationError(f"{what} must be a finite number, got {value!r}")


class _Formatter(argparse.HelpFormatter):  # "Usage:", which scripts look for
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """No abbreviated options; ``-1e-3`` or ``-inf`` is a value, not an option; help
    goes through ``_write_stdout``, so that help on a failing stdout exits 2."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def print_help(self, file=None):
        _write_stdout(self.format_help().encode("utf-8"))


_COMMANDS: dict[str, tuple] = {}  # name -> (function, its _arg()s); filled by @_command


def _command(name, *arguments):
    return lambda func: _COMMANDS.setdefault(name, (func, arguments))[0]


def _arg(*flags, **options):
    return flags, options


def _at_least(low: int):
    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value

    parse.__name__ = "int"  # as argparse's "invalid int value: ..." names it
    return parse


_OUTPUT = _arg("-o", "--output", default="-", metavar="PATH", help="default: %(default)s")


def _parse_dataset_spec(spec: str) -> tuple[str, str]:
    label, sep, path = spec.partition("=")
    if not sep or not label or not path:
        raise DomainError(f"dataset must be LABEL=PATH, got {spec!r}")
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:  # argv bytes that are not UTF-8
        raise DomainError(f"dataset label {label!r} is not valid UTF-8") from None
    return label, path


@_command(
    "measure",
    _arg("-d", "--dataset", dest="dataset_specs", action="append", required=True,
         metavar="LABEL=PATH", help="Dataset JSONL with a series label; repeatable."),
    _arg("-m", "--measure", dest="measure_name", default="symmetric", help="default: %(default)s",
         choices=["class-conditioned", "concept-conditioned", "symmetric"]),
    _arg("--theta", type=float, help="Threshold for the concept-conditioned measure."),
    _arg("--delta", type=float, help="Attach Hoeffding confidence radii at this delta."),
    _arg("--ground-truth", dest="include_ground_truth", action="store_true",
         help="Add per-dataset ground-truth comparison series."),
    _arg("-f", "--format", dest="fmt", choices=["csv", "json", "svg"], default="csv",
         help="default: %(default)s"),
    _OUTPUT,
    _arg("--positive-only", action="store_true",
         help="Figure-style filter: keep concepts with a positive value somewhere."),
    _arg("--strict", action="store_true",
         help="Fail (exit 3) on undefined measures instead of rendering n/a."),
    _arg("--schema", help="Comma-separated concept names every line must carry exactly;"
                          " by default the first line's concepts are the schema."))
def measure_cmd(dataset_specs, measure_name, theta, delta, include_ground_truth,
                fmt, output, positive_only, strict, schema):
    """Per-concept measure table over one or more datasets."""
    from conceptscope import report as report_mod
    from conceptscope.dataset import check_schema, load_dataset
    from conceptscope.measures import check_measure_parameters

    kind = measure_name.replace("-", "_")  # as measures.SYMMETRIC, CLASS_CONDITIONED, ...
    check_measure_parameters(kind, theta, delta)
    schema_names = None
    if schema is not None:
        names = [name.strip() for name in schema.split(",")]
        if not all(names):
            raise DomainError(f"--schema must list non-empty concept names, got {schema!r}")
        schema_names = check_schema(names)
    datasets = []
    for spec in dataset_specs:
        label, path = _parse_dataset_spec(spec)
        datasets.append(
            (label, _read_file(path, lambda file: load_dataset(file, schema=schema_names))))
    cells = report_mod.compute_measure_table(
        datasets, kind, theta=theta, delta=delta, include_ground_truth=include_ground_truth,
        strict=strict)
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


@_command("completeness", _arg("dataset_path", metavar="DATASET"),
          _arg("concept", metavar="CONCEPT"), _OUTPUT,
          _arg("--oracle", action="store_true",
               help="Also run the brute-force decoder maximum and require agreement."))
def completeness_cmd(dataset_path, concept, oracle, output):
    """Completeness score of a binary CONCEPT on DATASET."""
    from conceptscope.completeness import completeness_brute_force, completeness_closed_form
    from conceptscope.dataset import load_dataset

    dataset = _read_file(dataset_path, load_dataset)
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


@_command("tcav", _arg("model_path", metavar="MODEL"),
          _arg("embeddings_path", metavar="EMBEDDINGS"), _OUTPUT)
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


@_command("plan", _arg("--epsilon", type=float, required=True),
          _arg("--delta", type=float, required=True))
def plan_cmd(epsilon, delta):
    """Print the sample count needed for radius EPSILON at confidence DELTA."""
    from conceptscope.measures import hoeffding_sample_size

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


@_command(
    "edit",
    *(_arg(f"{name.lower()}_path", metavar=name)
      for name in ("PROMPTS", "CONCEPTS", "PLAN", "IMAGES")),
    _arg("--out-prompts", metavar="PATH", help="Write the edited prompt vectors to this file."),
    _arg("--renormalize", action="store_true",
         help="Renormalize edited prompts to unit norm (off by default)."),
    _OUTPUT)
def edit_cmd(prompts_path, concepts_path, plan_path, images_path, out_prompts,
             renormalize, output):
    """Apply edit PLAN to PROMPTS and evaluate on labeled IMAGES."""
    import dataclasses

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


@_command("votes", _arg("votes_path", metavar="VOTES_CSV"),
          _arg("--k", dest="ks", action="append", type=int, metavar="K",
               help="Repeatable; default: 1, 3, 5."),
          _OUTPUT)
def votes_cmd(votes_path, ks, output):
    """Accuracy and recall of thresholded concept labels at each k."""
    from conceptscope.votes import load_votes_csv, metrics_at_k

    records = load_votes_csv(_read_file(votes_path))
    lines = ["k,accuracy,recall"]
    for k in ks or (1, 3, 5):
        metrics = metrics_at_k(records, k)
        lines.append(f"{k},{metrics.accuracy!r},{metrics.recall!r}")
    _write_output(("\n".join(lines) + "\n").encode("utf-8"), output)


@_command(
    "verify",
    _arg("--suite", required=True, choices=["axioms", "theorem1", "theorem2"]),
    _arg("--trials", type=_at_least(1),
         help="Defaults: 1000 (axioms, theorem1) or 500 (theorem2)."),
    _arg("--seed", type=_at_least(0), default=0, help="default: %(default)s"),
    # Options only theorem2 reads; None stands for "not given".
    _arg("--epsilon", type=float, help="default: 0.2"),
    _arg("--delta", type=float, help="default: 0.1"),
    _arg("--dim", type=int, help="default: 8"),
    _arg("--records", dest="records_path", metavar="PATH",
         help="Write one JSONL record per theorem2 trial."))
def verify_cmd(suite, trials, seed, epsilon, delta, dim, records_path):
    """Run a verification suite; exit 0 only if every check passes."""
    theorem2 = {"--epsilon": epsilon, "--delta": delta, "--dim": dim, "--records": records_path}
    given = [option for option, value in theorem2.items() if value is not None]
    if suite != "theorem2" and given:
        raise DomainError(f"{given[0]} applies only to --suite theorem2, not --suite {suite}")
    import json

    from conceptscope.verify import run_axioms_suite, run_theorem1_suite, run_theorem2_suite

    if suite == "axioms":
        report = run_axioms_suite(trials or 1000, seed)
    elif suite == "theorem1":
        report = run_theorem1_suite(trials or 1000, seed)
    else:
        report, records = run_theorem2_suite(
            0.2 if epsilon is None else epsilon, 0.1 if delta is None else delta,
            8 if dim is None else dim, trials or 500, seed)
        if records_path is not None:
            _write_file(records_path, "".join(
                json.dumps(record, sort_keys=True) + "\n" for record in records).encode("utf-8"))
    lines = [*report.lines, *(json.dumps(failure, sort_keys=True) for failure in report.failures)]
    _write_stdout("".join(f"{line}\n" for line in lines).encode("utf-8"))
    if not report.passed:
        sys.exit(1)


@functools.cache  # parse_args keeps no state, so in-process callers can share one
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conceptscope", description="Concept-importance measures,"
                     " verification suites and prompt editing.")
    parser.add_argument("--threads", type=_at_least(1), default=1, metavar="N",
                        help="Accepted for compatibility; has no effect.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, (func, arguments) in sorted(_COMMANDS.items()):
        sub = commands.add_parser(name, help=func.__doc__, description=func.__doc__)
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        sub.set_defaults(func=func)
    return parser


def main(args: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run the command in ``args`` (default ``sys.argv[1:]``) and exit with
    its code; on success under ``standalone_mode=False``, return instead."""
    try:
        options = vars(_parser().parse_args(args))
        # OpenBLAS sizes its worker pool to the CPU count when the library loads,
        # numpy has no API to change it later and threadpoolctl is not a dependency.
        # The one BLAS call that could split, theorem2's gemv, is 116 x 8 at the
        # defaults, so idle workers only burn CPU. This runs before any command
        # imports numpy; a user's setting wins, and the import leaves it alone.
        if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        del options["threads"]
        options.pop("func")(**options)
    except ConceptScopeError as exc:
        print(f"error: {exc}", file=sys.stderr, flush=True)
        sys.exit(exc.exit_code)
    except KeyboardInterrupt:  # Ctrl-C: no traceback
        print("\nAborted!", file=sys.stderr, flush=True)
        sys.exit(1)
    if standalone_mode:
        sys.exit(0)


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
