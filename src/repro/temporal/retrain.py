"""Drift response: retrain only the categories that drifted.

The expensive part of the pipeline is per category (word SOM + RLGP
evolution), and drift is per category too -- the "earn" vocabulary can
churn while "grain" stays put.  The orchestrator therefore treats a
drift alarm as a *surgical* retrain:

* undrifted categories keep their word SOMs, classifiers and selected
  terms; when the pipeline has a :class:`~repro.data.DatasetStore`,
  their training datasets re-open at their original content addresses
  (store hits, ``encoded=0``) -- the store's stats are the proof that
  nothing was recomputed for them;
* drifted categories get fresh feature selection on the extended
  corpus (their term sets are grafted into the shared
  :class:`~repro.features.base.FeatureSet`; per-category fingerprints
  keep everyone else's dataset addresses stable), then the pipeline
  adopts the extended corpus and grafted terms and refits each drifted
  category through :meth:`~repro.pipeline.ProSysPipeline.fit_word_som`
  and :meth:`~repro.pipeline.ProSysPipeline.fit_rule`, the per-category
  units ``fit`` itself runs, at the category's original offset.  So a
  drifted category's word SOM and rule are exactly what ``fit``'s units
  produce on the extended corpus under the kept character SOM.  (A full
  refit would also refit the character SOM on the extended corpus, so it
  is not bit-identical to a surgical retrain.)

The refit parts are checkpointed when the context has a checkpoint
store (a sealed stage is replaced); the updated pipeline can be
republished to a model directory for the serving layer's
manifest-driven hot reload.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.corpus.reuters import Corpus
from repro.features.base import FeatureSet
from repro.persistence import save_pipeline, save_stage
from repro.pipeline import ProSysPipeline
from repro.preprocessing.pipeline import Preprocessor
from repro.preprocessing.tokenized import TokenizedCorpus
from repro.runtime import RunContext


@dataclass(frozen=True)
class RetrainReport:
    """What a surgical retrain did, category by category.

    Attributes:
        retrained: categories refit (feature selection + word SOM +
            RLGP), in pipeline category order.
        kept: categories left untouched.
        reused_datasets: store hits scored while re-opening the kept
            categories' training data (0 without a data store).
        reencoded_documents: documents encoded for the retrained
            categories (0 without a data store).
        store_stats: store counter deltas over the whole retrain.
        features_changed: retrained category -> (terms dropped,
            terms added) relative to the previous selection.
    """

    retrained: Tuple[str, ...]
    kept: Tuple[str, ...]
    reused_datasets: int
    reencoded_documents: int
    store_stats: Dict[str, int]
    features_changed: Dict[str, Tuple[int, int]]

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready form for events and CLI output."""
        return {
            "retrained": list(self.retrained),
            "kept": list(self.kept),
            "reused_datasets": self.reused_datasets,
            "reencoded_documents": self.reencoded_documents,
            "store_stats": dict(self.store_stats),
            "features_changed": {
                category: {"dropped": dropped, "added": added}
                for category, (dropped, added) in self.features_changed.items()
            },
        }


class RetrainOrchestrator:
    """Turns drift alarms into the cheapest sufficient retrain.

    Args:
        pipeline: the fitted pipeline to update in place.  When it has a
            ``data_store``, reuse/re-encode activity is measured there.
        monitor: optional :class:`~repro.temporal.detector.DriftMonitor`;
            retrained categories get their detectors reset.
        model_dir: optional directory; when set, the updated pipeline
            is republished there after every retrain (the serving
            layer's ``maybe_reload`` picks up the new manifest).
    """

    def __init__(
        self,
        pipeline: ProSysPipeline,
        monitor=None,
        model_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if not pipeline.is_fitted:
            raise ValueError("retrain needs a fitted pipeline")
        self.pipeline = pipeline
        self.monitor = monitor
        self.model_dir = Path(model_dir) if model_dir is not None else None

    def retrain(
        self,
        corpus: Corpus,
        drifted: Sequence[str],
        ctx: Optional[RunContext] = None,
    ) -> RetrainReport:
        """Refit the drifted categories on ``corpus``; keep the rest.

        Args:
            corpus: the extended corpus (old training docs plus the
                drifted epoch's), e.g. from
                :func:`repro.temporal.epochs.time_slice`.
            drifted: categories to refit; order-insensitive.
            ctx: execution context (seeds/events/checkpoints).

        Returns:
            A :class:`RetrainReport`; also emitted as a
            ``retrain_finished`` event on the context's bus.
        """
        pipeline = self.pipeline
        config = pipeline.config
        if ctx is None:
            ctx = RunContext(seed=config.seed)
        categories = tuple(pipeline.suite.categories)
        drifted_set = set(drifted)
        unknown = drifted_set - set(categories)
        if unknown:
            raise KeyError(f"unknown categories {sorted(unknown)}")
        if not drifted_set:
            raise ValueError("no drifted categories to retrain")
        kept = tuple(c for c in categories if c not in drifted_set)
        retrained = tuple(c for c in categories if c in drifted_set)
        ctx.emit("retrain_started", drifted=list(retrained), kept=list(kept))

        store = pipeline.data_store
        stats_before = store.stats() if store is not None else {}

        old_tokenized = pipeline.tokenized
        old_features = pipeline.feature_set

        # 1. Prove the kept categories need nothing: their training data
        #    re-opens at the original addresses (old tokenized corpus,
        #    old term sets) and must hit the store without encoding.
        if store is not None:
            for category in kept:
                store.get_or_encode(
                    old_tokenized,
                    old_features,
                    pipeline.encoder,
                    category,
                    "train",
                    ctx=ctx.child("retrain", "reuse", category),
                )

        # 2. Re-select features on the extended corpus through the
        #    contingency substrate -- for the drifted categories only
        #    (``select_categories``; per-category selectors score just
        #    those columns) -- then graft: the drifted categories take
        #    their new term sets, everyone else keeps the old ones
        #    byte for byte (stable per-category fingerprints, so kept
        #    categories' dataset-store addresses cannot move).
        with ctx.stage("retrain_features", drifted=len(retrained)):
            tokenized = TokenizedCorpus(corpus, Preprocessor(stem=config.stem))
            reselected = config.selector().select_categories(
                tokenized, retrained, n_jobs=ctx.n_jobs
            )
            per_category = dict(old_features.per_category)
            features_changed: Dict[str, Tuple[int, int]] = {}
            for category in retrained:
                old_terms = old_features.per_category[category]
                new_terms = reselected[category]
                features_changed[category] = (
                    len(old_terms - new_terms),
                    len(new_terms - old_terms),
                )
                per_category[category] = new_terms
            feature_set = FeatureSet(
                method=old_features.method,
                per_category=per_category,
                scope=old_features.scope,
            )

        # 3. Adopt the extended corpus and grafted terms for everyone.
        #    Kept categories still filter through their old term sets,
        #    so their encoders and classifiers remain exactly as fitted.
        pipeline.tokenized = tokenized
        pipeline.feature_set = feature_set

        # 4. Per drifted category, fit's own units: the word SOM at the
        #    category's original offset, then the rule on its extended
        #    training split (a store miss encoding only this category's
        #    documents).
        checkpoints = ctx.checkpoints
        for offset, category in enumerate(categories):
            if category not in drifted_set:
                continue
            with ctx.stage("retrain_category", category=category):
                encoder = pipeline.fit_word_som(offset, category, ctx)
                pipeline.encoder.category_encoders[category] = encoder
                dataset, classifier = pipeline.fit_rule(offset, category, ctx)
                pipeline.suite.add(classifier)
                pipeline._train_datasets[category] = dataset
                if checkpoints is not None:
                    for kind, part in (("word_som", encoder), ("rlgp", classifier)):
                        stage = f"{kind}/{category}"
                        checkpoints.save(
                            stage,
                            lambda directory: save_stage(directory, kind, part),
                        )
                        ctx.emit("checkpoint_saved", stage=stage)

        if self.monitor is not None:
            for category in retrained:
                self.monitor.reset(category)

        if self.model_dir is not None:
            save_pipeline(pipeline, self.model_dir)
            ctx.emit("model_published", directory=str(self.model_dir))

        stats_after = store.stats() if store is not None else {}
        delta = {
            key: stats_after.get(key, 0) - stats_before.get(key, 0)
            for key in stats_after
        }
        report = RetrainReport(
            retrained=retrained,
            kept=kept,
            reused_datasets=delta.get("hits", 0),
            reencoded_documents=delta.get("encoded_documents", 0),
            store_stats=delta,
            features_changed=features_changed,
        )
        ctx.emit("retrain_finished", **report.to_payload())
        return report
