"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``)
and asserts the criterion at its stated tolerance. Everything is
seeded, so a pass here is reproducible bit-for-bit.
"""

import subprocess
import sys
import time

import numpy as np

from cli_fixtures import BLAS_VARS, env_with_src, write_fixtures
from conceptscope.dataset import ConceptDataset
from conceptscope.measures import (
    class_conditioned_measure,
    concept_conditioned_measure,
    hoeffding_radius,
    hoeffding_sample_size,
    symmetric_measure,
)
from conceptscope.prompts import (
    DEFAULT_LAMBDA_GRID,
    classify,
    edit_prompt,
    evaluate,
    fit_lambda,
)
from conceptscope.synthetic import (
    SyntheticSpec,
    generate_dataset,
    make_rng,
    random_unit_vector,
    sample_spherical_cap,
)
from conceptscope.verify import run_axioms_suite, run_theorem1_suite, run_theorem2_suite
from conceptscope.votes import VoteRecord, metrics_at_k
from oracles import naive_vote_metrics
from worlds import generate_contamination_instance, generate_hierarchy_world

SEED = 20240901


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_theorem1_equality_on_1000_random_binary_datasets():
    started = time.monotonic()
    suite = run_theorem1_suite(1000, SEED)
    elapsed = time.monotonic() - started
    equal = not any(f["check"] == "equality" for f in suite.failures)
    report(
        "theorem1-equality",
        suite.passed and equal and elapsed < 5.0,
        f"1000 datasets, closed == brute to 1e-12, {elapsed:.2f}s < 5s",
    )


def test_theorem2_bound_holds_across_dims():
    epsilon, delta, trials = 0.2, 0.1, 500
    n = hoeffding_sample_size(epsilon, delta)
    assert n == 116  # ceil(2 ln(10) / 0.04)
    started = time.monotonic()
    rates = {}
    for dim in (2, 8, 64):
        _, records = run_theorem2_suite(epsilon, delta, dim, trials, SEED)
        rates[dim] = sum(r["bound_holds"] for r in records) / trials
    elapsed = time.monotonic() - started
    ok = all(rate >= 0.9 for rate in rates.values()) and elapsed < 60.0
    detail = ", ".join(f"dim {d}: {r:.3f}" for d, r in sorted(rates.items()))
    report("theorem2-bound", ok, f"hold rates {detail} (need >= 0.9), {elapsed:.1f}s < 60s")


def test_pointwise_cap_gap_bound():
    epsilon = 0.2
    theta = 1.0 - epsilon**2 / 8.0
    samples = 100_000
    worst = 0.0
    for stream, dim in enumerate((2, 8, 64)):
        rng = make_rng(SEED, stream)
        w = random_unit_vector(rng, dim)
        v = random_unit_vector(rng, dim)
        points = sample_spherical_cap(rng, w, theta, samples)
        assert points.shape == (samples, dim)
        premise = points @ w >= theta - 1e-12
        gaps = np.abs(points @ v - float(np.dot(w, v)))
        assert bool(premise.all())
        worst = max(worst, float(np.max(gaps)))
    ok = worst <= epsilon / 2.0 + 1e-12
    report(
        "pointwise-cap-gap",
        ok,
        f"3x{samples} samples, max |g.v - w.v| = {worst:.6f} <= eps/2 = {epsilon / 2}",
    )


def test_recursivity_on_1000_random_datasets():
    suite = run_axioms_suite(1000, SEED)
    recursivity_failures = [f for f in suite.failures if f["check"] == "recursivity"]
    report(
        "recursivity",
        not recursivity_failures and suite.passed,
        "1000 datasets with random dyadic splits, all measures stable to 1e-12",
    )


def test_estimator_consistency_within_hoeffding_radius():
    population_size, n, trials, delta = 1000, 600, 1000, 0.05
    planted = 0.3
    population = generate_dataset(
        SyntheticSpec(
            n_examples=population_size, n_concepts=1, seed=SEED,
            planted_measures={"stripes": planted},
        )
    )
    assert symmetric_measure(population, "stripes").value == planted
    radius = hoeffding_radius(n, delta)
    predictions, values = population.predictions, population.column("stripes")
    ids, weights = [f"r{j}" for j in range(n)], [1.0 / n] * n
    covered = 0
    for trial in range(trials):
        rng = make_rng(SEED, 1, trial)
        indices = rng.integers(0, population_size, size=n)
        sample = ConceptDataset(
            ids,
            [predictions[i] for i in indices],
            {"stripes": [values[i] for i in indices]},
            weights,
        )
        estimate = symmetric_measure(sample, "stripes").value
        if abs(estimate - planted) <= radius:
            covered += 1
    ok = covered >= 950
    report(
        "estimator-consistency",
        ok,
        f"{covered}/1000 resamples within radius {radius:.4f} (need >= 950)",
    )


def test_semantic_hierarchy_measures():
    worst_parent, worst_unrelated = 1.0, -1.0
    for seed in range(10):
        world = generate_hierarchy_world(seed=seed)
        children = sorted(name for name in world if name.startswith("child_"))
        for child in children:
            necessity = class_conditioned_measure(world[child], "parent").value
            distractor = class_conditioned_measure(world[child], "unrelated").value
            sufficiency = concept_conditioned_measure(world["parent"], child, 1.0).value
            off_target = concept_conditioned_measure(world["unrelated"], child, 1.0).value
            worst_parent = min(worst_parent, necessity, sufficiency)
            worst_unrelated = max(worst_unrelated, distractor, off_target)
    ok = worst_parent >= 0.9 and worst_unrelated <= 0.1
    report(
        "semantic-hierarchy",
        ok,
        f"10 seeds: related measures >= {worst_parent:.3f} (need 0.9),"
        f" unrelated <= {worst_unrelated:.3f} (need 0.1)",
    )


def test_prompt_editing_improvement():
    improved = 0
    gains = []
    for seed in range(100):
        instance = generate_contamination_instance(
            seed, n_images=500, dim=32, contamination=0.5
        )
        lam = fit_lambda(
            instance.contaminated_class, instance.class_names, instance.class_prompts,
            instance.concept_prompts, instance.few_shot, instance.few_shot_labels,
            DEFAULT_LAMBDA_GRID,
        )
        names = np.array(instance.class_names, dtype=object)
        baseline = evaluate(
            names[classify(instance.images, instance.class_prompts)], instance.labels
        ).macro_f1
        edited = instance.class_prompts.copy()
        edited[0] = edit_prompt(edited[0], instance.concept_prompts, lam)
        fitted = evaluate(names[classify(instance.images, edited)], instance.labels).macro_f1
        gains.append(fitted - baseline)
        if fitted - baseline >= 0.02:
            improved += 1
    ok = improved >= 95
    report(
        "prompt-editing",
        ok,
        f"{improved}/100 seeds improved macro F1 by >= 0.02"
        f" (median gain {sorted(gains)[50]:.3f})",
    )


def test_vote_metrics_against_recount_oracle():
    rng = make_rng(SEED, 2)
    mismatches = 0
    monotone = True
    for _ in range(1000):
        total = int(rng.integers(1, 12))
        count = int(rng.integers(1, 25))
        records = [
            VoteRecord(
                example_id=f"x{i}",
                concept="w",
                yes_count=int(rng.integers(0, total + 1)),
                total_votes=total,
                true_label="present" if rng.random() < 0.5 else "absent",
            )
            for i in range(count)
        ]
        records.append(VoteRecord("anchor", "w", total, total, "present"))
        previous = None
        for k in range(total + 1):
            metrics = metrics_at_k(records, k)
            accuracy, recall = naive_vote_metrics(records, k)
            if metrics.accuracy != accuracy or metrics.recall != recall:
                mismatches += 1
            if previous is not None and metrics.recall > previous:
                monotone = False
            previous = metrics.recall
    ok = mismatches == 0 and monotone
    report(
        "vote-metrics",
        ok,
        f"1000 random tables: {mismatches} oracle mismatches, recall monotone: {monotone}",
    )


def _run_cli(args, threads, blas_threads):
    # blas_threads None leaves OpenBLAS's thread count to the CLI.
    env = {k: v for k, v in env_with_src().items() if k not in BLAS_VARS}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    process = subprocess.run(
        [sys.executable, "-m", "conceptscope", "--threads", str(threads), *args],
        capture_output=True,
        check=False,
        env=env,
    )
    assert process.returncode == 0, (args, process.stderr.decode())
    return process.stdout


def test_cli_determinism_across_runs_and_threads(tmp_path):
    fixtures = write_fixtures(tmp_path)
    out_dir = tmp_path / "outs"
    out_dir.mkdir()

    def command_set(tag):
        prompts_out = out_dir / f"prompts_{tag}.json"
        records_out = out_dir / f"records_{tag}.jsonl"
        records64_out = out_dir / f"records64_{tag}.jsonl"
        return {
            "measure-csv": (
                ["measure", "-d", f"LR={fixtures['lr']}", "-m", "class-conditioned",
                 "--ground-truth", "--delta", "0.05"],
                [],
            ),
            "measure-two-sets": (
                ["measure", "-d", f"LR={fixtures['lr']}", "-d", f"RF={fixtures['rf']}",
                 "-m", "symmetric", "-f", "json"],
                [],
            ),
            "measure-svg": (
                ["measure", "-d", f"LR={fixtures['lr']}", "-m", "concept-conditioned",
                 "--theta", "1.0", "-f", "svg"],
                [],
            ),
            "completeness": (["completeness", str(fixtures["lr"]), "stripes", "--oracle"], []),
            "tcav": (["tcav", str(fixtures["model"]), str(fixtures["embeddings"])], []),
            "plan": (["plan", "--epsilon", "0.2", "--delta", "0.1"], []),
            "edit": (
                ["edit", str(fixtures["prompts"]), str(fixtures["concepts"]),
                 str(fixtures["plan"]), str(fixtures["images"]),
                 "--out-prompts", str(prompts_out)],
                [prompts_out],
            ),
            "votes": (["votes", str(fixtures["votes"])], []),
            "verify-axioms": (["verify", "--suite", "axioms", "--trials", "10"], []),
            "verify-theorem2": (
                ["verify", "--suite", "theorem2", "--trials", "5", "--dim", "4",
                 "--records", str(records_out)],
                [records_out],
            ),
            # n x dim = 1843 x 64: large enough for OpenBLAS to split the gemv.
            "verify-theorem2-dim64": (
                ["verify", "--suite", "theorem2", "--epsilon", "0.05", "--dim", "64",
                 "--trials", "3", "--records", str(records64_out)],
                [records64_out],
            ),
        }

    outputs = {}
    for tag, threads, blas_threads in (("a", 1, "1"), ("b", 1, "2"), ("c", 8, None)):
        for name, (args, files) in command_set(tag).items():
            stdout = _run_cli(args, threads, blas_threads)
            outputs.setdefault(name, []).append(
                (stdout, tuple(path.read_bytes() for path in files))
            )

    stable = [
        name for name, runs in outputs.items() if all(run == runs[0] for run in runs)
    ]
    unstable = sorted(set(outputs) - set(stable))
    report(
        "cli-determinism",
        not unstable,
        f"{len(stable)}/{len(outputs)} commands byte-identical over reruns,"
        f" --threads 1 vs 8 and OpenBLAS threads 1 vs 2"
        f"{'; unstable: ' + ', '.join(unstable) if unstable else ''}",
    )
