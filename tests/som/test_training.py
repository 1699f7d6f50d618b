"""Unit tests for SOM training (online and weighted batch)."""

import numpy as np
import pytest

from repro.som.map import SelfOrganizingMap
from repro.som.training import SomTrainer


def _clustered_data(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal([0.0, 0.0], 0.05, size=(40, 2))
    b = rng.normal([1.0, 1.0], 0.05, size=(40, 2))
    return np.vstack([a, b])


def test_batch_training_reduces_quantization_error():
    data = _clustered_data()
    som = SelfOrganizingMap(4, 4, 2, seed=1, data=data)
    initial_qe = float(som.distances(data).min(axis=1).mean())
    history = SomTrainer(epochs=15, seed=1).train_batch(som, data)
    assert history.quantization_error[-1] < initial_qe


def test_online_training_reduces_quantization_error():
    data = _clustered_data()
    som = SelfOrganizingMap(4, 4, 2, seed=1, data=data)
    initial_qe = float(som.distances(data).min(axis=1).mean())
    history = SomTrainer(epochs=10, seed=1).train_online(som, data)
    assert history.quantization_error[-1] < initial_qe


def test_awc_recorded_per_epoch():
    data = _clustered_data()
    som = SelfOrganizingMap(3, 3, 2, seed=2, data=data)
    history = SomTrainer(epochs=7, seed=2).train_batch(som, data)
    assert len(history.awc) == 7
    assert all(a >= 0 for a in history.awc)
    assert history.final_awc == history.awc[-1]


def test_awc_decreases_as_map_settles():
    data = _clustered_data()
    som = SelfOrganizingMap(3, 3, 2, seed=2, data=data)
    history = SomTrainer(epochs=20, seed=2).train_batch(som, data)
    assert history.awc[-1] < history.awc[0]


def test_weighted_batch_equals_repeated_inputs():
    """Counts-as-weights must equal physically repeating the inputs."""
    data = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.0]])
    weights = np.array([3.0, 1.0, 2.0])
    repeated = np.repeat(data, weights.astype(int), axis=0)

    som_weighted = SelfOrganizingMap(3, 3, 2, seed=3, data=data)
    som_repeated = som_weighted.copy()
    trainer = SomTrainer(epochs=5, seed=3)
    trainer.train_batch(som_weighted, data, sample_weights=weights)
    trainer.train_batch(som_repeated, repeated)
    np.testing.assert_allclose(som_weighted.weights, som_repeated.weights, atol=1e-9)


def _two_matrix_train_batch(trainer, som, data, sample_weights):
    """The batch loop as it was written before it shared one distance
    matrix per epoch: BMUs from a fresh matrix before each update, the
    quantization error from another after it."""
    radii = trainer._radius_schedule(som)
    awc, qe = [], []
    for epoch in range(trainer.epochs):
        before = som.weights.copy()
        bmus = som.bmus(data)
        kernel = np.exp(-som._grid_dist2 / (2.0 * max(radii[epoch], 1e-9) ** 2))
        sums = np.zeros_like(som.weights)
        mass = np.zeros(som.n_units)
        np.add.at(sums, bmus, data * sample_weights[:, None])
        np.add.at(mass, bmus, sample_weights)
        spread_mass = kernel @ mass
        spread_sums = kernel @ sums
        updated = spread_mass > 1e-12
        som.weights[updated] = spread_sums[updated] / spread_mass[updated, None]
        awc.append(float(np.abs(som.weights - before).mean()))
        min_dist = som.distances(data).min(axis=1)
        qe.append(float(np.average(min_dist, weights=sample_weights)))
    return awc, qe


@pytest.mark.parametrize("weighted", [False, True])
def test_batch_training_matches_the_two_matrix_loop(weighted):
    """One distance matrix per epoch (the one an epoch ends with gives
    its quantization error and the next epoch's BMUs) trains the same
    map, bit for bit, with the same AWC and quantization-error history."""
    rng = np.random.default_rng(11)
    data = np.vstack([_clustered_data(4), rng.random((30, 2))])
    weights = rng.integers(1, 6, size=len(data)).astype(float)
    if not weighted:
        weights = np.ones(len(data))
    trainer = SomTrainer(epochs=9, seed=4)
    som = SelfOrganizingMap(4, 5, 2, seed=4, data=data)
    reference = som.copy()
    history = trainer.train_batch(
        som, data, sample_weights=weights if weighted else None
    )
    awc, qe = _two_matrix_train_batch(trainer, reference, data, weights)
    assert np.array_equal(som.weights, reference.weights)
    assert history.awc == awc
    assert history.quantization_error == qe


def test_heavily_weighted_cluster_attracts_more_units():
    data = np.array([[0.0, 0.0], [1.0, 1.0]])
    som = SelfOrganizingMap(4, 4, 2, seed=4, data=data)
    SomTrainer(epochs=25, seed=4).train_batch(
        som, data, sample_weights=np.array([50.0, 1.0])
    )
    distances_to_heavy = np.linalg.norm(som.weights - data[0], axis=1)
    # Most units should sit nearer the heavy cluster.
    assert np.sum(distances_to_heavy < 0.5) > som.n_units / 2


def test_bad_sample_weights_rejected():
    data = _clustered_data()
    som = SelfOrganizingMap(3, 3, 2, seed=5)
    trainer = SomTrainer(epochs=2)
    with pytest.raises(ValueError):
        trainer.train_batch(som, data, sample_weights=np.ones(3))
    with pytest.raises(ValueError):
        trainer.train_batch(som, data, sample_weights=-np.ones(len(data)))


def test_single_epoch_schedule():
    data = _clustered_data()
    som = SelfOrganizingMap(3, 3, 2, seed=6, data=data)
    history = SomTrainer(epochs=1, seed=6).train_batch(som, data)
    assert len(history.awc) == 1


def test_invalid_schedule_rejected():
    som = SelfOrganizingMap(3, 3, 2, seed=7)
    trainer = SomTrainer(epochs=3, initial_radius=-1.0)
    with pytest.raises(ValueError):
        trainer.train_batch(som, _clustered_data())


def test_online_deterministic_per_seed():
    data = _clustered_data()
    som_a = SelfOrganizingMap(3, 3, 2, seed=8, data=data)
    som_b = som_a.copy()
    SomTrainer(epochs=3, seed=9).train_online(som_a, data)
    SomTrainer(epochs=3, seed=9).train_online(som_b, data)
    np.testing.assert_array_equal(som_a.weights, som_b.weights)


def test_topology_orders_similar_inputs_nearby():
    """After training, the two clusters map to distant BMUs."""
    data = _clustered_data()
    som = SelfOrganizingMap(4, 4, 2, seed=10, data=data)
    SomTrainer(epochs=20, seed=10).train_batch(som, data)
    bmu_a = som.bmu(np.array([0.0, 0.0]))
    bmu_b = som.bmu(np.array([1.0, 1.0]))
    assert som.grid_distance(bmu_a, bmu_b) >= 2.0
