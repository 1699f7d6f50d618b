"""The full ProSys pipeline (paper Fig. 1).

Chains pre-processing, feature selection, hierarchical SOM encoding, and
per-category RLGP training into one object::

    corpus = make_corpus(scale=0.05)
    pipeline = ProSysPipeline(ProSysConfig(feature_method="ig"))
    pipeline.fit(corpus)
    scores = pipeline.evaluate("test")
    print(scores.micro_f1)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

from repro.classify.binary import RlgpBinaryClassifier
from repro.classify.multilabel import OneVsRestRlgp
from repro.classify.tracking import TrackingTrace, track_document, track_multi_label
from repro.corpus.document import Document
from repro.corpus.reuters import Corpus
from repro.encoding.hierarchy import CategoryEncoder, HierarchicalSomEncoder
from repro.encoding.representation import EncodedDataset, EncodedDocument
from repro.encoding.words import WordVectorizer
from repro.evaluation.metrics import BinaryCounts, MultiLabelScores, score_multilabel
from repro.features import ALL_SELECTORS
from repro.features.base import FeatureSet
from repro.gp.config import GpConfig
from repro.gp.trainer import RlgpTrainer
from repro.preprocessing.pipeline import Preprocessor
from repro.preprocessing.tokenized import TokenizedCorpus
from repro.runtime import RunContext, parallel_map

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.store import DatasetStore

#: Table 1 defaults: method -> features selected (chi2 and round_robin
#: are extensions: chi2 gets the corpus-wide DF/IG budget, round_robin
#: the per-category MI budget).
DEFAULT_FEATURE_COUNTS = {
    "df": 1000,
    "ig": 1000,
    "mi": 300,
    "nouns": 100,
    "chi2": 1000,
    "round_robin": 300,
}


@dataclass(frozen=True)
class ProSysConfig:
    """End-to-end configuration.

    Attributes:
        feature_method: ``"df"``, ``"ig"``, ``"mi"``, ``"nouns"``,
            ``"chi2"`` or ``"round_robin"``.
        n_features: override of the method's Table 1 default.
        som_epochs: SOM training epochs for both hierarchy levels.
        char_shape / word_shape: SOM grid sizes (paper: 7x13 and 8x8).
        min_hit_mass: BMU-selection hit-mass floor (volume-reduction
            strength; 0 = bare minimal-coverage reading of the paper).
        max_sequence_length: optional cap on encoded sequence length (a
            compute knob for reduced budgets; the paper has no cap).
        member_word_filter: the Sec. 6.2 member-word test (paper: on).
        stem: Porter-stem tokens before everything else (paper: off; the
            stemming ablation tests the SOM-groups-base-forms claim).
        gp: the GP engine configuration.
        n_restarts: independent evolutions per category (paper: 20).
        use_dss / dynamic_pages / recurrent: trainer switches (paper: all
            on; turning one off is the corresponding ablation).
        fitness: per-tournament fitness function -- ``"sse"`` (Eq. 5,
            paper), ``"balanced_sse"``, or ``"f1"`` (Sec. 9 future work).
        seed: base seed for the whole pipeline.
    """

    feature_method: str = "mi"
    n_features: Optional[int] = None
    som_epochs: int = 20
    char_shape: tuple = (7, 13)
    word_shape: tuple = (8, 8)
    min_hit_mass: float = 0.5
    max_sequence_length: Optional[int] = None
    member_word_filter: bool = True
    stem: bool = False
    gp: GpConfig = field(default_factory=lambda: GpConfig().small())
    n_restarts: int = 1
    use_dss: bool = True
    dynamic_pages: bool = True
    recurrent: bool = True
    fitness: str = "sse"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.feature_method not in ALL_SELECTORS:
            raise ValueError(
                f"unknown feature method {self.feature_method!r}; "
                f"choose one of {sorted(ALL_SELECTORS)}"
            )

    def selector(self):
        """Instantiate the configured feature selector."""
        cls = ALL_SELECTORS[self.feature_method]
        n = self.n_features or DEFAULT_FEATURE_COUNTS[self.feature_method]
        return cls(n)

    def encoder(self) -> HierarchicalSomEncoder:
        """An unfitted SOM hierarchy with this configuration's settings."""
        return HierarchicalSomEncoder(
            char_rows=self.char_shape[0],
            char_cols=self.char_shape[1],
            word_rows=self.word_shape[0],
            word_cols=self.word_shape[1],
            epochs=self.som_epochs,
            min_hit_mass=self.min_hit_mass,
            max_sequence_length=self.max_sequence_length,
            member_word_filter=self.member_word_filter,
            seed=self.seed,
        )


class ProSysPipeline:
    """Fits and evaluates the proposed system on a corpus."""

    def __init__(
        self,
        config: Optional[ProSysConfig] = None,
        data_store: Optional["DatasetStore"] = None,
    ) -> None:
        """Args:
            config: end-to-end configuration (defaults to paper values).
            data_store: optional :class:`repro.data.DatasetStore`.  When
                set, every ``encode_dataset`` the pipeline would run is
                routed through the store: hits load memory-mapped shards
                instead of re-encoding, misses encode once and persist.
                Training is bit-identical either way.
        """
        self.config = config if config is not None else ProSysConfig()
        self.data_store = data_store
        self.tokenized: Optional[TokenizedCorpus] = None
        self.feature_set: Optional[FeatureSet] = None
        self.encoder: Optional[HierarchicalSomEncoder] = None
        self.suite = OneVsRestRlgp()
        self._train_datasets: Dict[str, EncodedDataset] = {}

    @property
    def is_fitted(self) -> bool:
        return bool(self.suite.classifiers)

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        corpus: Corpus,
        categories: Optional[Sequence[str]] = None,
        ctx: Optional[RunContext] = None,
    ) -> "ProSysPipeline":
        """Run the whole training pipeline on ``corpus``'s training split.

        Training executes as checkpointable stages on the shared
        execution layer (:mod:`repro.runtime`): tokenize, feature
        selection, character SOM, per-category word SOMs
        (:meth:`fit_word_som`), per-category RLGP classifiers
        (:meth:`fit_rule`).  The two per-category stages fan out over
        ``ctx.n_jobs`` forked workers (inline at 0), and each completed
        unit is checkpointed when ``ctx.checkpoints`` is set, so an
        interrupted fit resumes instead of restarting.

        Args:
            ctx: execution context (progress events, seed tree,
                checkpoints, parallelism).  The default context runs
                inline with legacy seeds and produces bit-identical
                models to the pre-runtime pipeline.
        """
        config = self.config
        if ctx is None:
            ctx = RunContext(seed=config.seed)
        categories = tuple(categories) if categories else corpus.categories
        store = ctx.checkpoints
        # Imported here: repro.persistence imports this module.
        from repro.persistence import (
            load_char_som,
            load_rule,
            load_word_som,
            save_stage,
        )

        def checkpoint(stage: str, kind: str, part) -> None:
            if store is not None:
                store.save(stage, lambda directory: save_stage(directory, kind, part))
                ctx.emit("checkpoint_saved", stage=stage)

        with ctx.stage("tokenize"):
            self.tokenized = TokenizedCorpus(corpus, Preprocessor(stem=config.stem))
        with ctx.stage("features", method=config.feature_method):
            # The contingency build fans out over categories on the same
            # worker budget as the per-category stages; any n_jobs value
            # yields the identical selection (integer count merging).
            self.feature_set = config.selector().select(
                self.tokenized, n_jobs=ctx.n_jobs
            )

        encoder = self.encoder = config.encoder()

        with ctx.stage("char_som"):
            if store is not None and store.has("char_som"):
                encoder.character_encoder = store.load(
                    "char_som", lambda directory: load_char_som(directory, encoder)
                )
                encoder.vectorizer = WordVectorizer(encoder.character_encoder)
                ctx.emit("checkpoint_loaded", stage="char_som")
            else:
                encoder.fit_character_level(
                    self.tokenized, ctx=ctx.child("char_som")
                )
                checkpoint("char_som", "char_som", encoder.character_encoder)

        tasks = list(enumerate(categories))

        with ctx.stage("word_soms", total=len(categories)):
            pending = [
                (offset, category)
                for offset, category in tasks
                if store is None or not store.has(f"word_som/{category}")
            ]

            def word_som_done(index: int, fitted: CategoryEncoder) -> None:
                category = pending[index][1]
                checkpoint(f"word_som/{category}", "word_som", fitted)
                ctx.emit("task_finished", stage="word_soms", category=category)

            freshly_fitted = dict(zip(
                (category for _, category in pending),
                parallel_map(
                    lambda task: self.fit_word_som(*task, ctx), pending,
                    n_jobs=ctx.n_jobs, on_result=word_som_done,
                ),
            ))
            for offset, category in tasks:
                fitted = freshly_fitted.get(category)
                if fitted is not None:
                    # Re-share the vectorizer (forked workers return
                    # their own copy; all categories must use one BMU
                    # cache over one character SOM).
                    fitted.vectorizer = encoder.vectorizer
                else:
                    fitted = store.load(
                        f"word_som/{category}",
                        lambda directory: load_word_som(directory, category, encoder),
                    )
                    ctx.emit("checkpoint_loaded", stage=f"word_som/{category}")
                encoder.category_encoders[category] = fitted

        with ctx.stage("rlgp", total=len(categories)):
            pending = [
                (offset, category)
                for offset, category in tasks
                if store is None or not store.has(f"rlgp/{category}")
            ]

            def rlgp_done(index: int, result) -> None:
                category = pending[index][1]
                checkpoint(f"rlgp/{category}", "rlgp", result[1])
                ctx.emit("task_finished", stage="rlgp", category=category)

            freshly_trained = dict(zip(
                (category for _, category in pending),
                parallel_map(
                    lambda task: self.fit_rule(*task, ctx), pending,
                    n_jobs=ctx.n_jobs, on_result=rlgp_done,
                ),
            ))
            for offset, category in tasks:
                trained = freshly_trained.get(category)
                if trained is not None:
                    dataset, classifier = trained
                    self._train_datasets[category] = dataset
                else:
                    classifier = store.load(
                        f"rlgp/{category}",
                        lambda directory: load_rule(
                            directory, category, config.recurrent
                        ),
                    )
                    ctx.emit("checkpoint_loaded", stage=f"rlgp/{category}")
                self.suite.add(classifier)

        ctx.emit("run_finished", categories=len(categories))
        return self

    def fit_word_som(
        self, offset: int, category: str, ctx: RunContext
    ) -> CategoryEncoder:
        """Fit ``category``'s word SOM on the pipeline's corpus and terms.

        One per-category unit of :meth:`fit` (and of a surgical retrain):
        the encoder's seed follows from ``offset``, the category's
        position in the fit order, under ``ctx.child("word_som",
        category)``.  Nothing is registered on the pipeline.
        """
        return self.encoder.fit_category(
            category,
            self.tokenized,
            self.feature_set,
            offset,
            ctx=ctx.child("word_som", category),
        )

    def fit_rule(
        self, offset: int, category: str, ctx: RunContext
    ) -> Tuple[EncodedDataset, RlgpBinaryClassifier]:
        """Evolve ``category``'s rule on its encoded training split.

        The other per-category unit: ``category``'s registered word SOM
        encodes the split (through the data store when one is attached),
        and evolution runs at the seed ``offset`` gives the category
        under ``ctx.child("rlgp", category)``.  Returns the training
        dataset and the classifier; nothing is registered on the
        pipeline.
        """
        config = self.config
        rlgp_ctx = ctx.child("rlgp", category)
        base_seed = rlgp_ctx.seed_for(legacy=config.seed + 101 * (offset + 1))
        dataset = self._encoded_dataset(category, "train", ctx=rlgp_ctx)
        trainer = RlgpTrainer(
            replace(config.gp, seed=base_seed),
            use_dss=config.use_dss,
            dynamic_pages=config.dynamic_pages,
            recurrent=config.recurrent,
            fitness=config.fitness,
        )
        classifier = RlgpBinaryClassifier.fit(
            dataset,
            trainer,
            n_restarts=config.n_restarts,
            base_seed=base_seed,
            ctx=rlgp_ctx,
        )
        return dataset, classifier

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, split: str = "test") -> MultiLabelScores:
        """Per-category and averaged F1 on a split (paper Tables 4-6)."""
        self._require_fitted()
        counts: Dict[str, BinaryCounts] = {}
        for category, classifier in self.suite.classifiers.items():
            dataset = self._encoded_dataset(category, split)
            predictions = classifier.predict(dataset)
            counts[category] = BinaryCounts.from_predictions(
                dataset.labels, predictions
            )
        return score_multilabel(counts)

    def predict_topics(self, doc: Document) -> list:
        """Multi-label prediction for one document."""
        self._require_fitted()
        return self.suite.predict_topics(self._encode_all(doc))

    def decision_matrix(self, docs: Sequence[Document]) -> Dict[str, "np.ndarray"]:
        """Per-category squashed decision values for a batch of documents.

        Each category's champion scores the whole batch in one
        :class:`~repro.gp.engine.FusedEngine` call (documents packed
        together), which is the fast path the serving layer builds on.
        Returns category -> array aligned with ``docs``.
        """
        self._require_fitted()
        values: Dict[str, "np.ndarray"] = {}
        for category, classifier in self.suite.classifiers.items():
            sequences = [
                self.encoder.encode_document(
                    doc, self.tokenized, self.feature_set, category
                ).sequence
                for doc in docs
            ]
            values[category] = classifier.decision_values(sequences)
        return values

    def predict_documents(self, docs: Sequence[Document]) -> list:
        """Batched multi-label prediction: one label set per document.

        Equivalent to ``[self.predict_topics(d) for d in docs]`` but
        vectorised across the whole batch per category.
        """
        values = self.decision_matrix(docs)
        return [
            [
                category
                for category, classifier in self.suite.classifiers.items()
                if values[category][index] > classifier.threshold
            ]
            for index in range(len(docs))
        ]

    # ------------------------------------------------------------------
    # tracking (paper Sec. 8.2)
    # ------------------------------------------------------------------
    def track(self, doc: Document, category: str) -> TrackingTrace:
        """Per-word output-register trace of one classifier (Fig. 5)."""
        self._require_fitted()
        encoded = self.encoder.encode_document(
            doc, self.tokenized, self.feature_set, category
        )
        return track_document(self.suite.classifiers[category], encoded)

    def track_all(self, doc: Document) -> Mapping[str, TrackingTrace]:
        """Traces of every category classifier in parallel (Fig. 6)."""
        self._require_fitted()
        return track_multi_label(self.suite.classifiers, self._encode_all(doc))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _encoded_dataset(self, category: str, split: str, ctx=None):
        """One split's encoded sequences, store-backed when configured.

        Without a ``data_store`` this is exactly
        ``encoder.encode_dataset``; with one, the store's content
        address decides between a zero-copy memmap load and an
        encode-then-persist miss.  Both paths yield bit-identical
        sequences, so downstream training does not depend on which one
        ran.
        """
        if self.data_store is None:
            return self.encoder.encode_dataset(
                self.tokenized, self.feature_set, category, split
            )
        return self.data_store.get_or_encode(
            self.tokenized, self.feature_set, self.encoder, category, split, ctx=ctx
        )

    def _encode_all(self, doc: Document) -> Dict[str, EncodedDocument]:
        return {
            category: self.encoder.encode_document(
                doc, self.tokenized, self.feature_set, category
            )
            for category in self.suite.categories
        }

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("pipeline is not fitted; call fit() first")
