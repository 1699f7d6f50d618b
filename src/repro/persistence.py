"""Saving and loading fitted pipelines and their parts.

A fitted :class:`~repro.pipeline.ProSysPipeline` has three kinds of
fitted part: the character SOM, one word SOM per category (selected
BMUs and Gaussian memberships, Sec. 6) and one RLGP rule per category
(program and Eq. 6 threshold).  Each part has exactly one codec here: a
writer that turns it into a JSON record plus named arrays, a reader that
turns them back, and one tuple of required record keys that every read
checks first.  The records live in two containers:

* a model directory (:func:`save_pipeline` / :func:`load_pipeline`):
  ``manifest.json`` nests every record (``char_som``, ``encoders``,
  ``classifiers``) beside the configuration and feature selection, and
  ``arrays.npz`` holds every part's arrays under a per-part prefix
  (``char_som_``, ``word_som_<category>_``);
* a checkpoint stage (:func:`save_stage` plus one loader per part), which
  ``repro.runtime.CheckpointStore`` seals so an interrupted fit resumes:
  ``stage.json`` holds one record inside a ``format_version``/``kind``
  envelope, and ``stage_arrays.npz`` its arrays under bare names.

Records hold only what fitting learned.  Run-wide settings -- the
member-word filter, the hit-mass floor, the SOM training mode and
recurrence -- come from the run's configuration on every load, so a
reloaded or resumed model reads documents exactly as the fitted one.

The corpus itself is *not* stored (data and model are separate concerns);
:func:`load_pipeline` takes the corpus to re-attach.  Loading restores
byte-identical behaviour: encodings, decision values, predictions and
tracking traces all match the pipeline that was saved.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Tuple, Union

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
    "save_stage",
    "load_char_som",
    "load_word_som",
    "load_rule",
]

FORMAT_VERSION = 1

Arrays = Dict[str, np.ndarray]


#: Top-level keys every manifest must carry, and the sub-keys required
#: inside its config.  Validated before any value is used so a corrupt
#: or foreign directory fails with a clear message instead of an opaque
#: ``KeyError`` deep inside reconstruction.
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
#: Required record keys of each fitted part, by stage kind: the one
#: schema for the manifest's ``char_som``, ``encoders[c]`` and
#: ``classifiers[c]`` sections and for a stage's ``stage.json``.
_PART_KEYS = {
    "char_som": ("rows", "cols", "epochs", "seed"),
    "word_som": ("rows", "cols", "epochs", "seed", "selected_units", "memberships"),
    "rlgp": ("code", "threshold", "train_fitness", "gp"),
}


def _check_record(record: object, keys: Tuple[str, ...], where: str) -> dict:
    if not isinstance(record, dict):
        raise PersistenceError(f"{where} must be an object")
    missing = [key for key in keys if key not in record]
    if missing:
        raise PersistenceError(f"{where} is missing keys: {', '.join(missing)}")
    return record


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
    _check_record(manifest["config"], _REQUIRED_CONFIG_KEYS, f"{source}: config")
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
    _check_record(manifest["char_som"], _PART_KEYS["char_som"], f"{source}: char_som")
    for section, kind in (("classifiers", "rlgp"), ("encoders", "word_som")):
        records = manifest[section]
        if not isinstance(records, dict) or not records:
            raise PersistenceError(
                f"{source}: '{section}' must be a non-empty object"
            )
        for category, record in records.items():
            _check_record(
                record, _PART_KEYS[kind], f"{source}: {section}[{category!r}]"
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


def _array(arrays: Mapping[str, np.ndarray], key: str) -> np.ndarray:
    if key not in arrays:
        raise PersistenceError(f"arrays.npz is missing array {key!r}")
    return arrays[key]


def _load_arrays(path: Path) -> Arrays:
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


# ----------------------------------------------------------------------
# one codec per fitted part
# ----------------------------------------------------------------------
# A writer returns ``(record, arrays)``, every array name under
# ``prefix``; its reader takes that record (and those arrays and prefix)
# plus the run-wide state the record does not carry.


def _write_char_som(encoder: CharacterEncoder, prefix: str = "") -> Tuple[dict, Arrays]:
    record = {
        "rows": encoder.rows,
        "cols": encoder.cols,
        "epochs": encoder.epochs,
        "seed": encoder.seed,
    }
    return record, {f"{prefix}weights": encoder.som.weights}


def _read_char_som(
    record: dict, arrays: Mapping[str, np.ndarray],
    hierarchy: HierarchicalSomEncoder, prefix: str = "",
) -> CharacterEncoder:
    encoder = CharacterEncoder(
        rows=record["rows"],
        cols=record["cols"],
        epochs=record["epochs"],
        training=hierarchy.training,
        seed=record["seed"],
    )
    encoder.som = SelfOrganizingMap(encoder.rows, encoder.cols, 2)
    encoder.som.weights = _array(arrays, f"{prefix}weights")
    return encoder


def _write_word_som(encoder: CategoryEncoder, prefix: str = "") -> Tuple[dict, Arrays]:
    arrays: Arrays = {f"{prefix}weights": encoder.som.weights}
    memberships = {}
    for unit, membership in encoder.memberships.items():
        arrays[f"{prefix}mean_{unit}"] = membership.mean
        memberships[str(unit)] = {
            "sigma": membership.sigma,
            "min_training_value": membership.min_training_value,
        }
    record = {
        "rows": encoder.rows,
        "cols": encoder.cols,
        "epochs": encoder.epochs,
        "seed": encoder.seed,
        "selected_units": [int(u) for u in encoder.selected_units],
        "memberships": memberships,
    }
    return record, arrays


def _read_word_som(
    record: dict, arrays: Mapping[str, np.ndarray], category: str,
    hierarchy: HierarchicalSomEncoder, prefix: str = "",
) -> CategoryEncoder:
    encoder = CategoryEncoder(
        category,
        hierarchy.vectorizer,
        rows=record["rows"],
        cols=record["cols"],
        epochs=record["epochs"],
        min_hit_mass=hierarchy.min_hit_mass,
        training=hierarchy.training,
        member_word_filter=hierarchy.member_word_filter,
        seed=record["seed"],
    )
    encoder.som = SelfOrganizingMap(
        encoder.rows, encoder.cols, hierarchy.vectorizer.dim
    )
    encoder.som.weights = _array(arrays, f"{prefix}weights")
    encoder.selected_units = [int(u) for u in record["selected_units"]]
    encoder.memberships = {
        int(unit): GaussianMembership(
            unit=int(unit),
            mean=_array(arrays, f"{prefix}mean_{unit}"),
            sigma=scalars["sigma"],
            min_training_value=scalars["min_training_value"],
        )
        for unit, scalars in record["memberships"].items()
    }
    return encoder


def _write_rule(classifier: RlgpBinaryClassifier) -> Tuple[dict, Arrays]:
    record = {
        "code": list(classifier.program.code),
        "threshold": classifier.threshold,
        "train_fitness": classifier.train_fitness,
        "gp": _gp_config_to_dict(classifier.config),
    }
    return record, {}


def _read_rule(record: dict, category: str, recurrent: bool) -> RlgpBinaryClassifier:
    gp_config = _gp_config_from_dict(record["gp"])
    return RlgpBinaryClassifier(
        category=category,
        program=Program(record["code"], gp_config),
        config=gp_config,
        threshold=record["threshold"],
        train_fitness=record["train_fitness"],
        recurrent=recurrent,
    )


# ----------------------------------------------------------------------
# model directory
# ----------------------------------------------------------------------
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
    manifest["char_som"], arrays = _write_char_som(
        pipeline.encoder.character_encoder, "char_som_"
    )
    for category, encoder in pipeline.encoder.category_encoders.items():
        manifest["encoders"][category], part_arrays = _write_word_som(
            encoder, f"word_som_{category}_"
        )
        arrays.update(part_arrays)
    for category, classifier in pipeline.suite.classifiers.items():
        manifest["classifiers"][category], _ = _write_rule(classifier)

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

    encoder = pipeline.encoder = config.encoder()
    encoder.character_encoder = _read_char_som(
        manifest["char_som"], arrays, encoder, "char_som_"
    )
    encoder.vectorizer = WordVectorizer(encoder.character_encoder)
    for category, record in manifest["encoders"].items():
        encoder.category_encoders[category] = _read_word_som(
            record, arrays, category, encoder, f"word_som_{category}_"
        )
    for category, record in manifest["classifiers"].items():
        pipeline.suite.add(_read_rule(record, category, config.recurrent))
    return pipeline


# ----------------------------------------------------------------------
# checkpoint stages
# ----------------------------------------------------------------------
# Each completed training stage -- the character SOM, one category's
# word SOM, one category's rule -- serialises into its own directory as
# ``stage.json`` (+ ``stage_arrays.npz`` where weights are involved).
# ``repro.runtime.CheckpointStore`` seals/loads these so an interrupted
# ``ProSysPipeline.fit`` resumes instead of restarting.

_STAGE_MANIFEST = "stage.json"
_STAGE_ARRAYS = "stage_arrays.npz"
_STAGE_WRITERS = {
    "char_som": _write_char_som,
    "word_som": _write_word_som,
    "rlgp": _write_rule,
}


def _write_stage(directory: Union[str, Path], kind: str, payload: dict,
                 arrays: Arrays) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    record = {"format_version": FORMAT_VERSION, "kind": kind}
    record.update(payload)
    (directory / _STAGE_MANIFEST).write_text(json.dumps(record, indent=2))
    if arrays:
        np.savez_compressed(directory / _STAGE_ARRAYS, **arrays)


def _read_stage(directory: Union[str, Path], kind: str) -> Tuple[dict, Arrays]:
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
    return _check_record(payload, _PART_KEYS[kind], str(manifest_path)), arrays


def save_stage(directory: Union[str, Path], kind: str, part) -> None:
    """Checkpoint one fitted part as a stage of ``kind``.

    ``kind`` is ``"char_som"`` (a :class:`CharacterEncoder`),
    ``"word_som"`` (a :class:`CategoryEncoder`) or ``"rlgp"`` (an
    :class:`RlgpBinaryClassifier`); the record is the one the part has
    in a model manifest, its arrays stored under bare names.
    """
    _write_stage(directory, kind, *_STAGE_WRITERS[kind](part))


def load_char_som(
    directory: Union[str, Path], hierarchy: HierarchicalSomEncoder
) -> CharacterEncoder:
    """Restore a ``char_som`` stage under ``hierarchy``'s training mode."""
    return _read_char_som(*_read_stage(directory, "char_som"), hierarchy)


def load_word_som(
    directory: Union[str, Path], category: str, hierarchy: HierarchicalSomEncoder
) -> CategoryEncoder:
    """Restore ``category``'s ``word_som`` stage.

    The encoder shares ``hierarchy.vectorizer`` and takes the run-wide
    settings (hit-mass floor, training mode, member-word filter) from
    ``hierarchy``, which the run's configuration built.
    """
    record, arrays = _read_stage(directory, "word_som")
    return _read_word_som(record, arrays, category, hierarchy)


def load_rule(
    directory: Union[str, Path], category: str, recurrent: bool
) -> RlgpBinaryClassifier:
    """Restore ``category``'s ``rlgp`` stage.

    Args:
        recurrent: whether the program was evolved recurrently, from
            the run's :class:`~repro.pipeline.ProSysConfig`.
    """
    record, _ = _read_stage(directory, "rlgp")
    return _read_rule(record, category, recurrent)
