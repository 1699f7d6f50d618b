"""Island-model evolution (extension).

The paper runs 20 *independent* initialisations per category and keeps the
best rule.  The island model structures the same parallel budget: several
populations evolve in phases, and after each phase every island's best
individuals migrate to its ring neighbour, letting good building blocks
spread without collapsing diversity.

Determinism is preserved: island ``i`` of round ``r`` trains with seed
``base + r * n_islands + i``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.encoding.representation import EncodedDataset
from repro.gp.config import GpConfig
from repro.gp.program import Program
from repro.gp.trainer import EvolutionResult, RlgpTrainer


class IslandEvolution:
    """Ring-topology island model over :class:`RlgpTrainer` phases.

    Args:
        config: GP configuration; ``config.tournaments`` is the budget of
            one island *phase* (total search = tournaments x islands x
            rounds).
        n_islands: parallel populations.
        rounds: migration rounds.
        migrants: individuals each island sends to its ring neighbour
            after every phase.
        trainer_kwargs: forwarded to each phase's :class:`RlgpTrainer`
            (``use_dss``, ``fitness``, ``recurrent``, ...).
    """

    def __init__(
        self,
        config: GpConfig,
        n_islands: int = 4,
        rounds: int = 3,
        migrants: int = 5,
        **trainer_kwargs,
    ) -> None:
        if n_islands < 2:
            raise ValueError("an island model needs at least 2 islands")
        if rounds < 1:
            raise ValueError("rounds must be positive")
        if not 0 < migrants <= config.population_size:
            raise ValueError("migrants must be in [1, population_size]")
        self.config = config
        self.n_islands = n_islands
        self.rounds = rounds
        self.migrants = migrants
        self.trainer_kwargs = trainer_kwargs

    def train(
        self, dataset: EncodedDataset, seed: Optional[int] = None, ctx=None
    ) -> EvolutionResult:
        """Run the island model; returns the globally best result.

        With a :class:`~repro.runtime.context.RunContext`, each phase's
        seed comes from the tree node ``round/<r>/island/<i>`` (legacy
        policy keeps the historical ``base + r * n_islands + i``), and
        per-phase ``island_phase`` events are emitted.
        """
        base_seed = self.config.seed if seed is None else seed
        populations: List[Optional[List[Program]]] = [None] * self.n_islands
        best: Optional[EvolutionResult] = None

        for round_index in range(self.rounds):
            results: List[EvolutionResult] = []
            for island in range(self.n_islands):
                legacy = base_seed + round_index * self.n_islands + island
                phase_ctx = None
                phase_seed = legacy
                if ctx is not None:
                    phase_ctx = ctx.child(
                        "round", str(round_index), "island", str(island)
                    )
                    phase_seed = phase_ctx.seed_for(legacy=legacy)
                trainer = RlgpTrainer(self.config, **self.trainer_kwargs)
                result = trainer.train(
                    dataset,
                    seed=phase_seed,
                    initial_population=populations[island],
                    ctx=phase_ctx,
                )
                results.append(result)
                if ctx is not None:
                    ctx.emit(
                        "island_phase",
                        round=round_index,
                        island=island,
                        train_fitness=float(result.train_fitness),
                    )
                if best is None or result.train_fitness < best.train_fitness:
                    best = result

            # Ring migration: each island seeds its next phase with its own
            # champion and population, prefixed by the neighbour's champion
            # plus a sample of the neighbour's population (poor migrants
            # simply die in tournaments).
            for island in range(self.n_islands):
                neighbour = results[(island - 1) % self.n_islands]
                own = results[island]
                incoming = [neighbour.program] + neighbour.final_population[
                    : self.migrants - 1
                ]
                populations[island] = (
                    [own.program] + incoming + own.final_population
                )[: self.config.population_size]
        return best
