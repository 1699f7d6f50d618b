"""The steady-state RLGP evolution driver (paper Secs. 7.1-7.4, 8.1).

One :class:`RlgpTrainer` evolves a binary classification rule for one
category's :class:`~repro.encoding.representation.EncodedDataset`.  The
paper evolves 20 independent initialisations per category and keeps the
best rule; :meth:`RlgpTrainer.train_with_restarts` implements that.
Every tournament and the final model selection score through one
:class:`~repro.gp.engine.FusedEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import List, Optional

import numpy as np

from repro.encoding.representation import EncodedDataset
from repro.gp.config import GpConfig
from repro.gp.dss import DynamicSubsetSelector
from repro.gp.dynamic_pages import DynamicPageController
from repro.gp.fitness import (
    balanced_sse,
    classification_error,
    f1_fitness,
    squash_output,
    sum_squared_error,
)

from repro.gp.engine import FusedEngine, SemanticCache
from repro.gp.operators import breed
from repro.gp.program import Program
from repro.gp.recurrent import final_words

#: Per-tournament fitness functions selectable on the trainer.
FITNESS_FUNCTIONS = {
    "sse": sum_squared_error,       # Eq. 5 (paper setting)
    "balanced_sse": balanced_sse,   # class-balanced variant
    "f1": f1_fitness,               # the paper's future-work suggestion
}

#: Dynamic Subset Selection (Sec. 7.3): documents per subset, tournaments
#: between subset draws, and whether each subset keeps a minority-class
#: quota (see :class:`~repro.gp.dss.DynamicSubsetSelector`; essential for
#: the skewed small categories at reduced tournament budgets).
DSS_SUBSET_SIZE = 50
DSS_INTERVAL = 20
DSS_STRATIFIED = True


@dataclass
class EvolutionResult:
    """Outcome of one evolution run.

    Attributes:
        program: the best individual by full-training-set SSE.
        train_fitness: that SSE over the whole training set.
        best_fitness_history: per-tournament best *subset* fitness.
        page_size_history: dynamic page size at each tournament.
        tournaments: tournaments actually run.
        config: the configuration used.
        seed: the run's seed (distinguishes restarts).
        final_population: the population at the end of the run (used by
            the island model to continue evolution across phases).
    """

    program: Program
    train_fitness: float
    best_fitness_history: List[float] = field(repr=False, default_factory=list)
    page_size_history: List[int] = field(repr=False, default_factory=list)
    tournaments: int = 0
    config: Optional[GpConfig] = None
    seed: int = 0
    final_population: List[Program] = field(repr=False, default_factory=list)


class _Member:
    """A population slot with a subset-fitness cache."""

    __slots__ = ("program", "cache_version", "cache_fitness", "cache_squashed")

    def __init__(self, program: Program) -> None:
        self.program = program
        self.cache_version = -1
        self.cache_fitness = float("inf")
        self.cache_squashed: Optional[np.ndarray] = None


class RlgpTrainer:
    """Evolves recurrent linear programs for one binary problem.

    Args:
        config: GP parameters (Table 2 defaults; use ``config.small()`` for
            laptop budgets).
        use_dss: evaluate fitness on Dynamic Subset Selection subsets
            (paper setting; :data:`DSS_SUBSET_SIZE`, :data:`DSS_INTERVAL`,
            :data:`DSS_STRATIFIED`) instead of the full training set.
        dynamic_pages: enable the dynamic page-size controller (paper
            setting); when off, crossover uses ``config.max_page_size``.
        recurrent: keep registers across a document's words (paper
            setting); when off, registers reset before every word -- the
            ablation that removes all temporal information -- so each
            document is read as its final word alone
            (:func:`~repro.gp.recurrent.final_words`).
        fitness: per-tournament fitness -- ``"sse"`` (Eq. 5, paper),
            ``"balanced_sse"``, or ``"f1"`` (the Sec. 9 future-work idea).

    Offspring whose crossover/mutation landed in introns are scored from
    a :class:`~repro.gp.engine.SemanticCache` (effective-code
    fingerprint x DSS subset version) instead of re-running the engine.
    """

    def __init__(
        self,
        config: GpConfig,
        use_dss: bool = True,
        dynamic_pages: bool = True,
        recurrent: bool = True,
        fitness: str = "sse",
    ) -> None:
        if fitness not in FITNESS_FUNCTIONS:
            raise ValueError(
                f"unknown fitness {fitness!r}; choose from "
                f"{sorted(FITNESS_FUNCTIONS)}"
            )
        self.fitness_name = fitness
        self._fitness_fn = FITNESS_FUNCTIONS[fitness]
        self.config = config
        self.use_dss = use_dss
        self.dynamic_pages = dynamic_pages
        self.recurrent = recurrent

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def train(
        self,
        dataset: EncodedDataset,
        seed: Optional[int] = None,
        initial_population: Optional[List[Program]] = None,
        ctx=None,
    ) -> EvolutionResult:
        """Run one evolution and return its best program.

        Args:
            initial_population: optional seed programs (island-model
                migration); padded with random individuals or truncated to
                the configured population size.
            ctx: optional :class:`~repro.runtime.context.RunContext`;
                emits ``gp_tick`` (periodic) and ``gp_best``
                (best-subset-fitness improved) progress events.  Never
                alters the evolution itself: randomness still comes
                from ``seed``.
        """
        seed = self.config.seed if seed is None else seed
        rng = Random(seed)
        sequences = dataset.sequences
        if not self.recurrent:
            sequences = final_words(sequences)
        labels = dataset.labels
        n_docs = len(dataset)
        if n_docs < self.config.tournament_size:
            raise ValueError("dataset too small for a tournament")

        seeds = list(initial_population or [])[: self.config.population_size]
        population = [_Member(program) for program in seeds]
        population.extend(
            _Member(Program.random(rng, self.config, page_size=1))
            for _ in range(self.config.population_size - len(population))
        )
        controller = DynamicPageController(
            self.config.max_page_size, window=self.config.plateau_window
        )
        dss = DynamicSubsetSelector(
            n_exemplars=n_docs,
            subset_size=DSS_SUBSET_SIZE if self.use_dss else n_docs,
            interval=DSS_INTERVAL,
            labels=labels if (self.use_dss and DSS_STRATIFIED) else None,
            seed=seed,
        )

        metrics = ctx.metrics if ctx is not None else None
        engine = FusedEngine(self.config, metrics=metrics)
        semantic_cache = SemanticCache(metrics=metrics)

        subset_indices = np.arange(n_docs)
        subset_labels = labels
        subset_version = -1
        packed_subset = None
        best_history: List[float] = []
        tick_interval = max(1, self.config.tournaments // 25)
        best_seen = float("inf")

        for tournament in range(self.config.tournaments):
            subset_indices = dss.subset(tournament)
            if dss.version != subset_version:
                packed_subset = engine.pack(
                    [sequences[i] for i in subset_indices]
                )
                subset_labels = labels[subset_indices]
                subset_version = dss.version

            slots = rng.sample(range(len(population)), self.config.tournament_size)
            stale = [
                population[slot]
                for slot in slots
                if population[slot].cache_version != subset_version
            ]
            pending = []
            for member in stale:
                hit = semantic_cache.get(
                    member.program.semantic_fingerprint(), subset_version
                )
                if hit is not None:
                    member.cache_fitness, member.cache_squashed = hit
                    member.cache_version = subset_version
                else:
                    pending.append(member)
            if pending:
                raws = engine.outputs(
                    [member.program for member in pending], packed_subset
                )
                for member, raw in zip(pending, raws):
                    squashed = squash_output(raw)
                    member.cache_squashed = squashed
                    member.cache_fitness = self._fitness_fn(subset_labels, squashed)
                    member.cache_version = subset_version
                    semantic_cache.put(
                        member.program.semantic_fingerprint(),
                        subset_version,
                        member.cache_fitness,
                        squashed,
                    )
            scored = [
                (population[slot].cache_fitness, slot) for slot in slots
            ]
            scored.sort(key=lambda pair: pair[0])
            best_fitness, best_slot = scored[0]
            parent_slots = (scored[0][1], scored[1][1])
            loser_slots = (scored[2][1], scored[3][1])

            page_size = (
                controller.page_size if self.dynamic_pages else self.config.max_page_size
            )
            child_a, child_b = breed(
                rng,
                population[parent_slots[0]].program,
                population[parent_slots[1]].program,
                page_size,
                self.config,
            )
            population[loser_slots[0]] = _Member(child_a)
            population[loser_slots[1]] = _Member(child_b)

            controller.record(best_fitness)
            best_history.append(best_fitness)
            if ctx is not None:
                if best_fitness < best_seen:
                    best_seen = best_fitness
                    ctx.emit(
                        "gp_best",
                        tournament=tournament,
                        best_fitness=float(best_fitness),
                        seed=seed,
                    )
                if (tournament + 1) % tick_interval == 0:
                    ctx.emit(
                        "gp_tick",
                        tournament=tournament + 1,
                        tournaments=self.config.tournaments,
                        best_fitness=float(best_fitness),
                        page_size=page_size,
                        seed=seed,
                    )
            best_squashed = population[best_slot].cache_squashed
            dss.report(
                subset_indices, classification_error(subset_labels, best_squashed)
            )

        return self._finalise(
            engine, population, sequences, labels, best_history, controller, seed
        )

    def train_with_restarts(
        self,
        dataset: EncodedDataset,
        n_restarts: int = 20,
        base_seed: Optional[int] = None,
        ctx=None,
    ) -> EvolutionResult:
        """The paper's protocol: N independent runs, keep the best rule.

        With a :class:`~repro.runtime.context.RunContext`, each
        restart's seed comes from the seed tree node
        ``restart/<index>`` -- a pure function of the restart index,
        so restarts are independent and reproducible regardless of the
        order (or process) they run in.  The default (legacy) policy
        preserves the historical ``base_seed + restart`` arithmetic.
        """
        if n_restarts < 1:
            raise ValueError("n_restarts must be positive")
        base_seed = self.config.seed if base_seed is None else base_seed
        best: Optional[EvolutionResult] = None
        for restart in range(n_restarts):
            seed = base_seed + restart
            restart_ctx = None
            if ctx is not None:
                restart_ctx = ctx.child("restart", str(restart))
                seed = restart_ctx.seed_for(legacy=seed)
            result = self.train(dataset, seed=seed, ctx=restart_ctx)
            if ctx is not None:
                ctx.emit(
                    "restart_finished",
                    restart=restart,
                    n_restarts=n_restarts,
                    train_fitness=float(result.train_fitness),
                    improved=best is None
                    or result.train_fitness < best.train_fitness,
                )
            if best is None or result.train_fitness < best.train_fitness:
                best = result
        return best

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _finalise(
        self,
        engine: FusedEngine,
        population: List[_Member],
        sequences: List[np.ndarray],
        labels: np.ndarray,
        best_history: List[float],
        controller: DynamicPageController,
        seed: int,
    ) -> EvolutionResult:
        raws = engine.outputs(
            [member.program for member in population], engine.pack(sequences)
        )
        best_program = None
        best_fitness = float("inf")
        for member, raw in zip(population, raws):
            squashed = squash_output(raw)
            # Model selection uses the class-balanced criterion; plain SSE
            # would prefer individuals that abandon the minority class.
            fitness = balanced_sse(labels, squashed)
            if fitness < best_fitness:
                best_fitness = fitness
                best_program = member.program
        return EvolutionResult(
            program=best_program,
            train_fitness=best_fitness,
            best_fitness_history=best_history,
            page_size_history=list(controller.history),
            tournaments=len(best_history),
            config=self.config,
            seed=seed,
            final_population=[member.program for member in population],
        )
