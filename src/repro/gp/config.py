"""GP parameters (paper Table 2)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

@dataclass(frozen=True)
class GpConfig:
    """Parameters of the (R)LGP engine, defaulting to the paper's Table 2.

    Attributes:
        population_size: steady-state population (paper: 125).
        tournaments: number of steady-state tournaments; the paper's
            "Generations 48000" counts tournaments in a steady-state model.
        tournament_size: individuals per tournament (paper: 4).
        n_registers: general-purpose registers (paper: 8).
        n_inputs: inputs per word; the encoded representation is 2-D.
        output_register: register read as the prediction (R0).
        node_limit: maximum instructions per individual (paper: 256).
        max_page_size: largest dynamic page size, a power of 2.
        p_crossover: probability of page crossover (paper: 0.9).
        p_mutation: probability of XOR mutation (paper: 0.5).
        p_swap: probability of instruction swap (paper: 0.9).
        instruction_ratio: roulette proportions for (constant, internal,
            external) instruction types at initialisation (paper: 0, 4, 1).
        plateau_window: tournaments per plateau-detection window (paper: 10).
        constant_range: value range encodable by constant-load instructions
            (unused with the paper's ratio of 0 constants, but supported).
        seed: PRNG seed for the whole run.
    """

    population_size: int = 125
    tournaments: int = 48000
    tournament_size: int = 4
    n_registers: int = 8
    n_inputs: int = 2
    output_register: int = 0
    node_limit: int = 256
    max_page_size: int = 32
    p_crossover: float = 0.9
    p_mutation: float = 0.5
    p_swap: float = 0.9
    instruction_ratio: Tuple[float, float, float] = (0.0, 4.0, 1.0)
    plateau_window: int = 10
    constant_range: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < self.tournament_size:
            raise ValueError("population must hold at least one tournament")
        if self.tournament_size != 4:
            raise ValueError("the steady-state scheme requires tournaments of 4")
        if self.n_registers <= self.output_register:
            raise ValueError("output register out of range")
        if self.max_page_size & (self.max_page_size - 1):
            raise ValueError("max_page_size must be a power of 2")
        if self.node_limit % self.max_page_size:
            raise ValueError("node_limit must be a multiple of max_page_size")
        if not all(p >= 0 for p in self.instruction_ratio) or not any(
            self.instruction_ratio
        ):
            raise ValueError("instruction_ratio needs non-negative, non-zero weights")

    @property
    def max_pages(self) -> int:
        """Maximum page count at the maximum page size (node limit / page)."""
        return self.node_limit // self.max_page_size

    def small(self, tournaments: int = 600, seed: int = 0) -> "GpConfig":
        """A laptop-scale copy: same algorithm, reduced budget.

        Used by tests and benchmarks; the paper-scale defaults remain the
        dataclass defaults.
        """
        return GpConfig(
            population_size=self.population_size,
            tournaments=tournaments,
            n_registers=self.n_registers,
            n_inputs=self.n_inputs,
            output_register=self.output_register,
            node_limit=64,
            max_page_size=8,
            p_crossover=self.p_crossover,
            p_mutation=self.p_mutation,
            p_swap=self.p_swap,
            instruction_ratio=self.instruction_ratio,
            plateau_window=self.plateau_window,
            constant_range=self.constant_range,
            seed=seed,
        )
