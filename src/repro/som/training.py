"""SOM training: online (paper-faithful) and weighted-batch (fast path).

The paper trains sequentially with a Gaussian kernel and sizes maps by
watching the Average Weight Change (AWC) between epochs.  Both trainers
record AWC per epoch in a :class:`TrainingHistory`.

The batch trainer accepts per-sample weights.  The paper stresses that
inputs must be repeated "as many times as they occur in the corpus" so the
map reflects data density; feeding unique inputs with occurrence counts as
weights achieves the same density estimate and is exact for batch updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.som.map import SelfOrganizingMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.context import RunContext


@dataclass
class TrainingHistory:
    """Per-epoch diagnostics of one training run.

    Attributes:
        awc: average (per-weight, absolute) weight change of each epoch --
            the paper's map-sizing signal.
        quantization_error: mean BMU distance after each epoch.
    """

    awc: List[float] = field(default_factory=list)
    quantization_error: List[float] = field(default_factory=list)

    @property
    def final_awc(self) -> float:
        if not self.awc:
            raise ValueError("no epochs recorded")
        return self.awc[-1]


@dataclass
class SomTrainer:
    """Trains a :class:`SelfOrganizingMap`.

    Args:
        epochs: number of passes over the data.
        initial_radius: starting neighbourhood radius; defaults to half the
            larger grid side.
        final_radius: radius at the last epoch (exponential decay between).
        initial_learning_rate / final_learning_rate: online-mode step sizes.
        seed: shuffling seed for online mode.
        ctx: optional :class:`~repro.runtime.context.RunContext`; when
            given, per-epoch ``som_epoch`` events (AWC, quantization
            error) are emitted and the online shuffling RNG is drawn
            from the context's seed tree (the default seed policy keeps
            it identical to ``np.random.default_rng(seed)``).
    """

    epochs: int = 20
    initial_radius: Optional[float] = None
    final_radius: float = 0.5
    initial_learning_rate: float = 0.5
    final_learning_rate: float = 0.01
    seed: int = 0
    ctx: Optional["RunContext"] = None

    def _radius_schedule(self, som: SelfOrganizingMap) -> np.ndarray:
        start = self.initial_radius
        if start is None:
            start = max(som.rows, som.cols) / 2.0
        return self._exponential(start, self.final_radius)

    def _learning_schedule(self) -> np.ndarray:
        return self._exponential(self.initial_learning_rate, self.final_learning_rate)

    def _exponential(self, start: float, end: float) -> np.ndarray:
        if start <= 0 or end <= 0:
            raise ValueError("schedule endpoints must be positive")
        if self.epochs == 1:
            return np.array([start])
        return start * (end / start) ** (np.arange(self.epochs) / (self.epochs - 1))

    # ------------------------------------------------------------------
    # online training (paper-faithful sequential updates)
    # ------------------------------------------------------------------
    def train_online(
        self,
        som: SelfOrganizingMap,
        data: np.ndarray,
        shuffle: bool = True,
    ) -> TrainingHistory:
        """Sequential Kohonen updates: one BMU search + update per sample."""
        data = np.atleast_2d(np.asarray(data, dtype=float))
        radii = self._radius_schedule(som)
        rates = self._learning_schedule()
        if self.ctx is not None:
            rng = self.ctx.generator("shuffle", legacy=self.seed)
        else:
            rng = np.random.default_rng(self.seed)
        history = TrainingHistory()

        for epoch in range(self.epochs):
            before = som.weights.copy()
            order = rng.permutation(len(data)) if shuffle else np.arange(len(data))
            for index in order:
                sample = data[index]
                bmu = som.bmu(sample)
                influence = som.neighborhood(bmu, radii[epoch])
                som.weights += (
                    rates[epoch] * influence[:, None] * (sample - som.weights)
                )
            self._record(history, som, data, before)
        return history

    # ------------------------------------------------------------------
    # weighted batch training (fast, density-exact with counts)
    # ------------------------------------------------------------------
    def train_batch(
        self,
        som: SelfOrganizingMap,
        data: np.ndarray,
        sample_weights: Optional[np.ndarray] = None,
    ) -> TrainingHistory:
        """Batch SOM updates with optional per-sample multiplicities.

        Each epoch assigns every sample to its BMU and moves each unit to
        the neighbourhood-weighted mean of the samples.  The distance
        matrix an epoch ends with gives its quantization error and the
        next epoch's BMUs: one matrix per epoch.
        """
        data = np.atleast_2d(np.asarray(data, dtype=float))
        if sample_weights is None:
            sample_weights = np.ones(len(data))
        else:
            sample_weights = np.asarray(sample_weights, dtype=float)
            if sample_weights.shape != (len(data),):
                raise ValueError("sample_weights must match data length")
            if np.any(sample_weights < 0):
                raise ValueError("sample_weights must be non-negative")
        radii = self._radius_schedule(som)
        history = TrainingHistory()

        distances = som.distances(data)
        for epoch in range(self.epochs):
            before = som.weights.copy()
            bmus = distances.argmin(axis=1)
            radius = radii[epoch]
            # kernel[u, v] = neighbourhood influence of BMU v on unit u.
            kernel = np.exp(-som._grid_dist2 / (2.0 * max(radius, 1e-9) ** 2))
            # Accumulate weighted sums per BMU, then spread via the kernel.
            sums = np.zeros_like(som.weights)
            mass = np.zeros(som.n_units)
            np.add.at(sums, bmus, data * sample_weights[:, None])
            np.add.at(mass, bmus, sample_weights)
            spread_mass = kernel @ mass
            spread_sums = kernel @ sums
            updated = spread_mass > 1e-12
            som.weights[updated] = spread_sums[updated] / spread_mass[updated, None]
            distances = som.distances(data)
            self._record(history, som, data, before, sample_weights, distances)
        return history

    def _record(
        self,
        history: TrainingHistory,
        som: SelfOrganizingMap,
        data: np.ndarray,
        before: np.ndarray,
        sample_weights: Optional[np.ndarray] = None,
        distances: Optional[np.ndarray] = None,
    ) -> None:
        """Append one epoch's AWC and quantization error; ``distances``,
        when given, is ``som.distances(data)`` at the current weights."""
        history.awc.append(float(np.abs(som.weights - before).mean()))
        if distances is None:
            distances = som.distances(data)
        min_dist = distances.min(axis=1)
        if sample_weights is not None and sample_weights.sum() > 0:
            qe = float(np.average(min_dist, weights=sample_weights))
        else:
            qe = float(min_dist.mean())
        history.quantization_error.append(qe)
        if self.ctx is not None:
            self.ctx.emit(
                "som_epoch",
                epoch=len(history.awc) - 1,
                epochs=self.epochs,
                awc=history.awc[-1],
                quantization_error=qe,
            )
