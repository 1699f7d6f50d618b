"""Saving and loading trained pipelines.

A fitted :class:`~repro.pipeline.ProSysPipeline` serialises to a directory:

* ``manifest.json`` -- configuration, feature selection, selected BMUs,
  Gaussian membership scalars, evolved programs and thresholds;
* ``arrays.npz``    -- SOM weight matrices and membership mean vectors.

The corpus itself is *not* stored (data and model are separate concerns);
:func:`load_pipeline` takes the corpus to re-attach.  Loading restores
byte-identical behaviour: encodings, decision values, predictions and
tracking traces all match the pipeline that was saved.

The module also provides *stage-level* serialisation (character SOM,
per-category word SOM, per-category classifier) used by
``repro.runtime.CheckpointStore`` to resume interrupted training runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.classify.binary import RlgpBinaryClassifier
from repro.corpus.reuters import Corpus
from repro.encoding.characters import CharacterEncoder
from repro.encoding.hierarchy import CategoryEncoder, HierarchicalSomEncoder
from repro.encoding.membership import GaussianMembership
from repro.encoding.words import WordVectorizer
from repro.errors import PersistenceError
from repro.features.base import FeatureSet
from repro.gp.config import GpConfig
from repro.gp.program import Program
from repro.pipeline import ProSysConfig, ProSysPipeline
from repro.preprocessing.pipeline import Preprocessor
from repro.preprocessing.tokenized import TokenizedCorpus
from repro.som.map import SelfOrganizingMap

__all__ = [
    "FORMAT_VERSION",
    "PersistenceError",
    "load_pipeline",
    "read_manifest",
    "save_pipeline",
    "validate_manifest",
    "save_character_encoder",
    "load_character_encoder",
    "save_category_encoder",
    "load_category_encoder",
    "save_classifier",
    "load_classifier",
]

FORMAT_VERSION = 1


#: Top-level keys every manifest must carry, and the sub-keys required
#: inside each mapping-valued section.  Validated before any value is
#: used so a corrupt or foreign directory fails with a clear message
#: instead of an opaque ``KeyError`` deep inside reconstruction.
_REQUIRED_MANIFEST_KEYS = (
    "format_version",
    "config",
    "feature_set",
    "categories",
    "classifiers",
    "encoders",
    "char_som",
)
_REQUIRED_CONFIG_KEYS = (
    "feature_method",
    "n_features",
    "som_epochs",
    "char_shape",
    "word_shape",
    "n_restarts",
    "use_dss",
    "dynamic_pages",
    "recurrent",
    "seed",
    "gp",
)
_REQUIRED_CLASSIFIER_KEYS = ("code", "threshold", "train_fitness", "gp")
_REQUIRED_ENCODER_KEYS = ("rows", "cols", "epochs", "seed", "selected_units", "memberships")


def validate_manifest(manifest: object, source: str = "manifest") -> dict:
    """Check a parsed manifest against the persistence schema.

    Returns the manifest (for chaining) when it is structurally sound.

    Raises:
        PersistenceError: naming the missing/malformed field, when the
            manifest is not a dict, lacks required keys, declares an
            unsupported ``format_version``, or has malformed sections.
    """
    if not isinstance(manifest, dict):
        raise PersistenceError(
            f"{source}: expected a JSON object, got {type(manifest).__name__}"
        )
    missing = [key for key in _REQUIRED_MANIFEST_KEYS if key not in manifest]
    if missing:
        raise PersistenceError(
            f"{source}: not a saved pipeline manifest "
            f"(missing keys: {', '.join(missing)})"
        )
    if manifest["format_version"] != FORMAT_VERSION:
        raise PersistenceError(
            f"{source}: unsupported model format "
            f"{manifest['format_version']!r} (expected {FORMAT_VERSION})"
        )
    config = manifest["config"]
    if not isinstance(config, dict):
        raise PersistenceError(f"{source}: 'config' must be an object")
    missing = [key for key in _REQUIRED_CONFIG_KEYS if key not in config]
    if missing:
        raise PersistenceError(
            f"{source}: config is missing keys: {', '.join(missing)}"
        )
    feature_set = manifest["feature_set"]
    if not isinstance(feature_set, dict) or not {
        "method", "scope", "per_category"
    } <= set(feature_set):
        raise PersistenceError(
            f"{source}: 'feature_set' must be an object with "
            "method/scope/per_category"
        )
    if not isinstance(manifest["categories"], list) or not manifest["categories"]:
        raise PersistenceError(f"{source}: 'categories' must be a non-empty list")
    for section, required in (
        ("classifiers", _REQUIRED_CLASSIFIER_KEYS),
        ("encoders", _REQUIRED_ENCODER_KEYS),
    ):
        payloads = manifest[section]
        if not isinstance(payloads, dict) or not payloads:
            raise PersistenceError(
                f"{source}: '{section}' must be a non-empty object"
            )
        for category, payload in payloads.items():
            if not isinstance(payload, dict):
                raise PersistenceError(
                    f"{source}: {section}[{category!r}] must be an object"
                )
            missing = [key for key in required if key not in payload]
            if missing:
                raise PersistenceError(
                    f"{source}: {section}[{category!r}] is missing keys: "
                    f"{', '.join(missing)}"
                )
    return manifest


def read_manifest(directory: Union[str, Path]) -> dict:
    """Parse and validate ``directory/manifest.json``.

    Raises:
        PersistenceError: when the file is missing, not valid JSON, or
            fails :func:`validate_manifest`.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise PersistenceError(f"no saved pipeline in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise PersistenceError(
            f"{manifest_path}: manifest is not valid JSON ({error})"
        ) from error
    return validate_manifest(manifest, source=str(manifest_path))


def _gp_config_to_dict(config: GpConfig) -> dict:
    return {
        "population_size": config.population_size,
        "tournaments": config.tournaments,
        "n_registers": config.n_registers,
        "n_inputs": config.n_inputs,
        "output_register": config.output_register,
        "node_limit": config.node_limit,
        "max_page_size": config.max_page_size,
        "p_crossover": config.p_crossover,
        "p_mutation": config.p_mutation,
        "p_swap": config.p_swap,
        "instruction_ratio": list(config.instruction_ratio),
        "plateau_window": config.plateau_window,
        "constant_range": config.constant_range,
        "seed": config.seed,
    }


def _gp_config_from_dict(payload: dict) -> GpConfig:
    payload = dict(payload)
    payload["instruction_ratio"] = tuple(payload["instruction_ratio"])
    return GpConfig(**payload)


def _array(arrays, key: str) -> np.ndarray:
    if key not in arrays:
        raise PersistenceError(f"arrays.npz is missing array {key!r}")
    return arrays[key]


def _load_arrays(path: Path) -> Dict[str, np.ndarray]:
    """Load an ``.npz`` payload fully, surfacing damage as PersistenceError.

    ``np.load`` keeps ``.npz`` members lazy, so a truncated or corrupt
    archive otherwise leaks a raw ``zipfile.BadZipFile`` / ``ValueError``
    / ``EOFError`` from whatever code touches the first array.  Reading
    every member eagerly here turns any such damage into one clear error
    naming the offending file.
    """
    import zipfile
    import zlib

    try:
        with np.load(path) as archive:
            return {name: archive[name] for name in archive.files}
    except PersistenceError:
        raise
    except (
        OSError, ValueError, KeyError, EOFError,
        zipfile.BadZipFile, zlib.error,
    ) as error:
        raise PersistenceError(
            f"{path}: array payload is truncated or corrupt "
            f"({type(error).__name__}: {error})"
        ) from error


def save_pipeline(pipeline: ProSysPipeline, directory: Union[str, Path]) -> Path:
    """Serialise a fitted pipeline into ``directory``.

    Returns:
        The directory path.

    Raises:
        PersistenceError: if the pipeline is not fitted.
    """
    if not pipeline.is_fitted:
        raise PersistenceError("cannot save an unfitted pipeline")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    arrays: Dict[str, np.ndarray] = {}
    manifest: dict = {
        "format_version": FORMAT_VERSION,
        "config": {
            "feature_method": pipeline.config.feature_method,
            "n_features": pipeline.config.n_features,
            "som_epochs": pipeline.config.som_epochs,
            "char_shape": list(pipeline.config.char_shape),
            "word_shape": list(pipeline.config.word_shape),
            "min_hit_mass": pipeline.config.min_hit_mass,
            "max_sequence_length": pipeline.config.max_sequence_length,
            "n_restarts": pipeline.config.n_restarts,
            "use_dss": pipeline.config.use_dss,
            "dynamic_pages": pipeline.config.dynamic_pages,
            "recurrent": pipeline.config.recurrent,
            "fitness": pipeline.config.fitness,
            "member_word_filter": pipeline.config.member_word_filter,
            "stem": pipeline.config.stem,
            "seed": pipeline.config.seed,
            "gp": _gp_config_to_dict(pipeline.config.gp),
        },
        "feature_set": {
            "method": pipeline.feature_set.method,
            "scope": pipeline.feature_set.scope,
            "per_category": {
                category: sorted(terms)
                for category, terms in pipeline.feature_set.per_category.items()
            },
        },
        "categories": list(pipeline.suite.categories),
        "classifiers": {},
        "encoders": {},
    }

    char_encoder = pipeline.encoder.character_encoder
    arrays["char_som_weights"] = char_encoder.som.weights
    manifest["char_som"] = {
        "rows": char_encoder.rows,
        "cols": char_encoder.cols,
        "epochs": char_encoder.epochs,
        "seed": char_encoder.seed,
    }

    for category, encoder in pipeline.encoder.category_encoders.items():
        key = f"word_som_{category}"
        arrays[f"{key}_weights"] = encoder.som.weights
        memberships = {}
        for unit, membership in encoder.memberships.items():
            arrays[f"{key}_mean_{unit}"] = membership.mean
            memberships[str(unit)] = {
                "sigma": membership.sigma,
                "min_training_value": membership.min_training_value,
            }
        manifest["encoders"][category] = {
            "rows": encoder.rows,
            "cols": encoder.cols,
            "epochs": encoder.epochs,
            "seed": encoder.seed,
            "selected_units": [int(u) for u in encoder.selected_units],
            "memberships": memberships,
        }

    for category, classifier in pipeline.suite.classifiers.items():
        manifest["classifiers"][category] = {
            "code": list(classifier.program.code),
            "threshold": classifier.threshold,
            "train_fitness": classifier.train_fitness,
            "gp": _gp_config_to_dict(classifier.config),
        }

    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    np.savez_compressed(directory / "arrays.npz", **arrays)
    return directory


def load_pipeline(directory: Union[str, Path], corpus: Corpus) -> ProSysPipeline:
    """Restore a pipeline saved by :func:`save_pipeline`.

    Args:
        directory: the model directory.
        corpus: the corpus to attach (the same one used at fit time for
            identical evaluation, or a new one for pure inference).

    Raises:
        PersistenceError: on a missing or incompatible model directory.
    """
    directory = Path(directory)
    arrays_path = directory / "arrays.npz"
    manifest = read_manifest(directory)
    if not arrays_path.exists():
        raise PersistenceError(f"no saved pipeline in {directory}")
    arrays = _load_arrays(arrays_path)

    config_payload = manifest["config"]
    config = ProSysConfig(
        feature_method=config_payload["feature_method"],
        n_features=config_payload["n_features"],
        som_epochs=config_payload["som_epochs"],
        char_shape=tuple(config_payload["char_shape"]),
        word_shape=tuple(config_payload["word_shape"]),
        min_hit_mass=config_payload.get("min_hit_mass", 0.5),
        max_sequence_length=config_payload.get("max_sequence_length"),
        gp=_gp_config_from_dict(config_payload["gp"]),
        n_restarts=config_payload["n_restarts"],
        use_dss=config_payload["use_dss"],
        dynamic_pages=config_payload["dynamic_pages"],
        recurrent=config_payload["recurrent"],
        fitness=config_payload.get("fitness", "sse"),
        member_word_filter=config_payload.get("member_word_filter", True),
        stem=config_payload.get("stem", False),
        seed=config_payload["seed"],
    )
    pipeline = ProSysPipeline(config)
    pipeline.tokenized = TokenizedCorpus(corpus, Preprocessor(stem=config.stem))
    pipeline.feature_set = FeatureSet(
        method=manifest["feature_set"]["method"],
        per_category={
            category: frozenset(terms)
            for category, terms in manifest["feature_set"]["per_category"].items()
        },
        scope=manifest["feature_set"]["scope"],
    )

    char_payload = manifest["char_som"]
    char_encoder = CharacterEncoder(
        rows=char_payload["rows"],
        cols=char_payload["cols"],
        epochs=char_payload["epochs"],
        seed=char_payload["seed"],
    )
    char_encoder.som = SelfOrganizingMap(char_payload["rows"], char_payload["cols"], 2)
    char_encoder.som.weights = _array(arrays, "char_som_weights")

    encoder = HierarchicalSomEncoder(
        char_rows=char_payload["rows"],
        char_cols=char_payload["cols"],
        word_rows=config.word_shape[0],
        word_cols=config.word_shape[1],
        epochs=config.som_epochs,
        min_hit_mass=config.min_hit_mass,
        max_sequence_length=config.max_sequence_length,
        seed=config.seed,
    )
    encoder.character_encoder = char_encoder
    encoder.vectorizer = WordVectorizer(char_encoder)
    encoder.category_encoders = {}

    for category, payload in manifest["encoders"].items():
        category_encoder = CategoryEncoder(
            category,
            encoder.vectorizer,
            rows=payload["rows"],
            cols=payload["cols"],
            epochs=payload["epochs"],
            seed=payload["seed"],
        )
        key = f"word_som_{category}"
        som = SelfOrganizingMap(
            payload["rows"], payload["cols"], encoder.vectorizer.dim
        )
        som.weights = _array(arrays, f"{key}_weights")
        category_encoder.som = som
        category_encoder.selected_units = list(payload["selected_units"])
        category_encoder.memberships = {
            int(unit): GaussianMembership(
                unit=int(unit),
                mean=_array(arrays, f"{key}_mean_{unit}"),
                sigma=scalars["sigma"],
                min_training_value=scalars["min_training_value"],
            )
            for unit, scalars in payload["memberships"].items()
        }
        encoder.category_encoders[category] = category_encoder
    pipeline.encoder = encoder

    for category, payload in manifest["classifiers"].items():
        gp_config = _gp_config_from_dict(payload["gp"])
        pipeline.suite.add(
            RlgpBinaryClassifier(
                category=category,
                program=Program(payload["code"], gp_config),
                config=gp_config,
                threshold=payload["threshold"],
                train_fitness=payload["train_fitness"],
                recurrent=config.recurrent,
            )
        )
    return pipeline


# ----------------------------------------------------------------------
# stage-level serialisation (runtime checkpoints)
# ----------------------------------------------------------------------
# Each completed training stage -- the character SOM, one category's
# word SOM, one category's classifier -- serialises into its own
# directory as ``stage.json`` (+ ``stage_arrays.npz`` where weights are
# involved).  ``repro.runtime.CheckpointStore`` seals/loads these so an
# interrupted ``ProSysPipeline.fit`` resumes instead of restarting.

_STAGE_MANIFEST = "stage.json"
_STAGE_ARRAYS = "stage_arrays.npz"


def _write_stage(directory: Union[str, Path], kind: str, payload: dict,
                 arrays: Dict[str, np.ndarray]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    record = {"format_version": FORMAT_VERSION, "kind": kind}
    record.update(payload)
    (directory / _STAGE_MANIFEST).write_text(json.dumps(record, indent=2))
    if arrays:
        np.savez_compressed(directory / _STAGE_ARRAYS, **arrays)


def _read_stage(directory: Union[str, Path], kind: str):
    directory = Path(directory)
    manifest_path = directory / _STAGE_MANIFEST
    if not manifest_path.exists():
        raise PersistenceError(f"no stage checkpoint in {directory}")
    try:
        payload = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise PersistenceError(
            f"{manifest_path}: stage manifest is not valid JSON ({error})"
        ) from error
    if not isinstance(payload, dict):
        raise PersistenceError(f"{manifest_path}: expected a JSON object")
    if payload.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"{manifest_path}: unsupported stage format "
            f"{payload.get('format_version')!r} (expected {FORMAT_VERSION})"
        )
    if payload.get("kind") != kind:
        raise PersistenceError(
            f"{manifest_path}: stage kind {payload.get('kind')!r} "
            f"does not match expected {kind!r}"
        )
    arrays_path = directory / _STAGE_ARRAYS
    arrays = _load_arrays(arrays_path) if arrays_path.exists() else {}
    return payload, arrays


def _stage_field(payload: dict, key: str, source: str):
    if key not in payload:
        raise PersistenceError(f"{source} stage is missing field {key!r}")
    return payload[key]


def save_character_encoder(
    encoder: CharacterEncoder, directory: Union[str, Path]
) -> None:
    """Serialise a fitted first-level character SOM stage."""
    if not encoder.is_fitted:
        raise PersistenceError("cannot checkpoint an unfitted CharacterEncoder")
    _write_stage(
        directory,
        "char_som",
        {
            "rows": encoder.rows,
            "cols": encoder.cols,
            "epochs": encoder.epochs,
            "training": encoder.training,
            "seed": encoder.seed,
        },
        {"weights": encoder.som.weights},
    )


def load_character_encoder(directory: Union[str, Path]) -> CharacterEncoder:
    """Restore a character SOM stage written by :func:`save_character_encoder`."""
    payload, arrays = _read_stage(directory, "char_som")
    encoder = CharacterEncoder(
        rows=_stage_field(payload, "rows", "char_som"),
        cols=_stage_field(payload, "cols", "char_som"),
        epochs=_stage_field(payload, "epochs", "char_som"),
        training=payload.get("training", "batch"),
        seed=_stage_field(payload, "seed", "char_som"),
    )
    encoder.som = SelfOrganizingMap(encoder.rows, encoder.cols, 2)
    encoder.som.weights = _array(arrays, "weights")
    return encoder


def save_category_encoder(
    encoder: CategoryEncoder, directory: Union[str, Path]
) -> None:
    """Serialise one category's fitted word-SOM stage."""
    if not encoder.is_fitted:
        raise PersistenceError(
            f"cannot checkpoint unfitted CategoryEncoder({encoder.category!r})"
        )
    arrays: Dict[str, np.ndarray] = {"weights": encoder.som.weights}
    memberships = {}
    for unit, membership in encoder.memberships.items():
        arrays[f"mean_{unit}"] = membership.mean
        memberships[str(unit)] = {
            "sigma": membership.sigma,
            "min_training_value": membership.min_training_value,
        }
    _write_stage(
        directory,
        "word_som",
        {
            "category": encoder.category,
            "rows": encoder.rows,
            "cols": encoder.cols,
            "epochs": encoder.epochs,
            "min_hit_mass": encoder.min_hit_mass,
            "training": encoder.training,
            "member_word_filter": encoder.member_word_filter,
            "seed": encoder.seed,
            "selected_units": [int(u) for u in encoder.selected_units],
            "memberships": memberships,
        },
        arrays,
    )


def load_category_encoder(
    directory: Union[str, Path], vectorizer: WordVectorizer
) -> CategoryEncoder:
    """Restore a word-SOM stage, re-attaching the shared ``vectorizer``."""
    payload, arrays = _read_stage(directory, "word_som")
    encoder = CategoryEncoder(
        _stage_field(payload, "category", "word_som"),
        vectorizer,
        rows=_stage_field(payload, "rows", "word_som"),
        cols=_stage_field(payload, "cols", "word_som"),
        epochs=_stage_field(payload, "epochs", "word_som"),
        min_hit_mass=payload.get("min_hit_mass", 0.5),
        training=payload.get("training", "batch"),
        member_word_filter=payload.get("member_word_filter", True),
        seed=_stage_field(payload, "seed", "word_som"),
    )
    encoder.som = SelfOrganizingMap(encoder.rows, encoder.cols, vectorizer.dim)
    encoder.som.weights = _array(arrays, "weights")
    encoder.selected_units = [
        int(u) for u in _stage_field(payload, "selected_units", "word_som")
    ]
    encoder.memberships = {
        int(unit): GaussianMembership(
            unit=int(unit),
            mean=_array(arrays, f"mean_{unit}"),
            sigma=scalars["sigma"],
            min_training_value=scalars["min_training_value"],
        )
        for unit, scalars in _stage_field(
            payload, "memberships", "word_som"
        ).items()
    }
    return encoder


def save_classifier(
    classifier: RlgpBinaryClassifier, directory: Union[str, Path]
) -> None:
    """Serialise one category's trained RLGP classifier stage."""
    _write_stage(
        directory,
        "rlgp",
        {
            "category": classifier.category,
            "code": list(classifier.program.code),
            "threshold": classifier.threshold,
            "train_fitness": classifier.train_fitness,
            "gp": _gp_config_to_dict(classifier.config),
        },
        {},
    )


def load_classifier(
    directory: Union[str, Path], recurrent: bool = True
) -> RlgpBinaryClassifier:
    """Restore a classifier stage written by :func:`save_classifier`.

    Args:
        recurrent: whether the program was evolved recurrently.  The
            stage does not record it; the run's ``ProSysConfig`` does.
    """
    payload, _ = _read_stage(directory, "rlgp")
    gp_config = _gp_config_from_dict(_stage_field(payload, "gp", "rlgp"))
    return RlgpBinaryClassifier(
        category=_stage_field(payload, "category", "rlgp"),
        program=Program(_stage_field(payload, "code", "rlgp"), gp_config),
        config=gp_config,
        threshold=_stage_field(payload, "threshold", "rlgp"),
        train_fitness=_stage_field(payload, "train_fitness", "rlgp"),
        recurrent=recurrent,
    )
