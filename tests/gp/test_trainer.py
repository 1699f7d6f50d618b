"""Unit and integration tests for the evolution driver."""

from random import Random

import numpy as np
import pytest

from repro.encoding.representation import EncodedDataset, EncodedDocument
from repro.gp import trainer as trainer_module
from repro.gp.config import GpConfig
from repro.gp.engine import FusedEngine, SemanticCache
from repro.gp.fitness import squash_output, sum_squared_error
from repro.gp.program import Program
from repro.gp.recurrent import RecurrentEvaluator
from repro.gp.trainer import RlgpTrainer
from repro.serve.metrics import MetricsRegistry


def _toy_dataset(n_per_class=20, seed=0):
    """In-class docs carry high input values, out-class low: separable
    by accumulating inputs -- exactly what RLGP recurrence expresses."""
    rng = np.random.default_rng(seed)
    documents = []
    for index in range(n_per_class):
        length = rng.integers(3, 8)
        seq = np.column_stack(
            [rng.uniform(0.6, 1.0, length), rng.uniform(0.6, 1.0, length)]
        )
        documents.append(_encoded(index, seq, 1))
    for index in range(n_per_class):
        length = rng.integers(1, 4)
        seq = np.column_stack(
            [rng.uniform(0.0, 0.2, length), rng.uniform(0.0, 0.2, length)]
        )
        documents.append(_encoded(1000 + index, seq, -1))
    return EncodedDataset(category="toy", documents=tuple(documents))


def _encoded(doc_id, seq, label):
    return EncodedDocument(
        doc_id=doc_id,
        category="toy",
        sequence=seq,
        words=tuple("w" for _ in range(len(seq))),
        units=tuple(0 for _ in range(len(seq))),
        label=label,
    )


@pytest.fixture(scope="module")
def toy_dataset():
    return _toy_dataset()


@pytest.fixture(scope="module")
def toy_result(toy_dataset):
    config = GpConfig().small(tournaments=250, seed=1)
    return RlgpTrainer(config).train(toy_dataset, seed=1)


def test_training_improves_over_random(toy_dataset, toy_result):
    """The evolved program beats the median random program."""
    config = toy_result.config
    engine = FusedEngine(config, metrics=MetricsRegistry())
    programs = [
        Program.random(Random(seed), config, page_size=1) for seed in range(20)
    ]
    raws = engine.outputs(programs, engine.pack(toy_dataset.sequences))
    random_fitness = [
        sum_squared_error(toy_dataset.labels, squash_output(raw))
        for raw in raws
    ]
    assert toy_result.train_fitness < np.median(random_fitness)


def test_result_bookkeeping(toy_result):
    assert toy_result.tournaments == 250
    assert len(toy_result.best_fitness_history) == 250
    assert len(toy_result.page_size_history) == 250
    assert toy_result.train_fitness >= 0.0


def test_best_subset_fitness_never_worse_forever(toy_result):
    """Evolution pressure: late best fitness <= early best fitness."""
    history = toy_result.best_fitness_history
    early = np.mean(history[:50])
    late = np.mean(history[-50:])
    assert late <= early + 1e-9


def test_deterministic_given_seed(toy_dataset):
    config = GpConfig().small(tournaments=60, seed=9)
    a = RlgpTrainer(config).train(toy_dataset, seed=9)
    b = RlgpTrainer(config).train(toy_dataset, seed=9)
    assert a.program == b.program
    assert a.train_fitness == b.train_fitness


def test_restarts_pick_best(toy_dataset):
    config = GpConfig().small(tournaments=60, seed=0)
    trainer = RlgpTrainer(config)
    singles = [
        trainer.train(toy_dataset, seed=100 + i).train_fitness for i in range(3)
    ]
    best = trainer.train_with_restarts(toy_dataset, n_restarts=3, base_seed=100)
    assert best.train_fitness == pytest.approx(min(singles))


def test_restarts_validation(toy_dataset):
    trainer = RlgpTrainer(GpConfig().small(tournaments=10))
    with pytest.raises(ValueError):
        trainer.train_with_restarts(toy_dataset, n_restarts=0)


def test_dataset_too_small_rejected():
    documents = tuple(
        _encoded(i, np.ones((2, 2)), 1 if i % 2 else -1) for i in range(3)
    )
    dataset = EncodedDataset(category="toy", documents=documents)
    trainer = RlgpTrainer(GpConfig().small(tournaments=10))
    with pytest.raises(ValueError, match="small"):
        trainer.train(dataset)


def test_dss_off_uses_full_set(toy_dataset):
    config = GpConfig().small(tournaments=30, seed=2)
    trainer = RlgpTrainer(config, use_dss=False)
    result = trainer.train(toy_dataset, seed=2)
    assert result.train_fitness >= 0.0


def test_non_recurrent_ablation_runs(toy_dataset):
    config = GpConfig().small(tournaments=30, seed=3)
    result = RlgpTrainer(config, recurrent=False).train(toy_dataset, seed=3)
    assert result.train_fitness >= 0.0


def test_dynamic_pages_off_uses_max_page(toy_dataset):
    config = GpConfig().small(tournaments=30, seed=4)
    result = RlgpTrainer(config, dynamic_pages=False).train(toy_dataset, seed=4)
    assert result.train_fitness >= 0.0


def test_page_size_history_within_bounds(toy_result):
    sizes = set(toy_result.page_size_history)
    assert all(1 <= s <= toy_result.config.max_page_size for s in sizes)
    assert all(s & (s - 1) == 0 for s in sizes)  # powers of two


def test_unknown_fitness_rejected():
    with pytest.raises(ValueError, match="fitness"):
        RlgpTrainer(GpConfig().small(tournaments=10), fitness="accuracy")


def test_f1_fitness_training_runs(toy_dataset):
    config = GpConfig().small(tournaments=40, seed=6)
    result = RlgpTrainer(config, fitness="f1").train(toy_dataset, seed=6)
    assert result.train_fitness >= 0.0


def test_balanced_fitness_training_runs(toy_dataset):
    config = GpConfig().small(tournaments=40, seed=7)
    result = RlgpTrainer(config, fitness="balanced_sse").train(toy_dataset, seed=7)
    assert result.train_fitness >= 0.0


# ----------------------------------------------------------------------
# the evaluation kernel against the reference
# ----------------------------------------------------------------------
class _ReferenceEngine:
    """Stands in for :class:`FusedEngine`: every program scored one
    document at a time by :meth:`Program.run_sequence`."""

    def __init__(self, config, metrics=None):
        self._reference = RecurrentEvaluator(config)

    def pack(self, sequences):
        return self._reference.pack(sequences)

    def outputs(self, programs, packed):
        rows = [self._reference.outputs(p, packed) for p in programs]
        return np.array(rows).reshape(len(programs), len(packed))


def _evolution(result):
    return (
        result.program.code,
        result.train_fitness,
        result.best_fitness_history,
        result.page_size_history,
        [program.code for program in result.final_population],
    )


def _kernel_and_reference_runs(monkeypatch, dataset, config, **switches):
    kernel = RlgpTrainer(config, **switches).train(dataset, seed=config.seed)
    with monkeypatch.context() as patch:
        patch.setattr(trainer_module, "FusedEngine", _ReferenceEngine)
        reference = RlgpTrainer(config, **switches).train(
            dataset, seed=config.seed
        )
    return _evolution(kernel), _evolution(reference)


def test_engine_choices_train_identical_models(toy_dataset, monkeypatch):
    """The one kernel and the per-document reference drive the same
    evolution: same champion code and fitness, same per-tournament
    history, same final population."""
    config = GpConfig().small(tournaments=80, seed=11)
    kernel, reference = _kernel_and_reference_runs(
        monkeypatch, toy_dataset, config
    )
    assert kernel == reference


def test_non_recurrent_engines_agree(toy_dataset, monkeypatch):
    config = GpConfig().small(tournaments=40, seed=14)
    kernel, reference = _kernel_and_reference_runs(
        monkeypatch, toy_dataset, config, recurrent=False
    )
    assert kernel == reference


def test_semantic_cache_does_not_change_evolution(toy_dataset, monkeypatch):
    config = GpConfig().small(tournaments=80, seed=12)
    cached = RlgpTrainer(config).train(toy_dataset, seed=12)
    monkeypatch.setattr(
        trainer_module,
        "SemanticCache",
        lambda metrics=None: SemanticCache(0, metrics=metrics),
    )
    uncached = RlgpTrainer(config).train(toy_dataset, seed=12)
    assert _evolution(cached) == _evolution(uncached)


def test_engine_counters_reach_run_context(toy_dataset):
    from repro.runtime.context import RunContext

    ctx = RunContext()
    config = GpConfig().small(tournaments=60, seed=15)
    RlgpTrainer(config).train(toy_dataset, seed=15, ctx=ctx)
    snap = ctx.metrics.snapshot()
    assert snap["engine_batches_total"] > 0
    assert snap["engine_programs_evaluated_total"] > 0
    assert snap["engine_instructions_executed_total"] > 0
    lookups = (
        snap["engine_cache_hits_total"] + snap["engine_cache_misses_total"]
    )
    assert lookups > 0
