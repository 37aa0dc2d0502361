"""Dict-loop oracles for the columnar inference and assignment engines.

Each ported algorithm has one production implementation, the columnar
engine over :class:`~repro.data.columnar.ColumnarClaims`. The per-object
dict loops it replaced are kept here, and only here, as the parity ground
truth: they are the shape the paper's equations are written in, and
``tests/test_columnar_parity.py`` compares every production class with its
oracle (confidences within 1e-8, identical iteration counts and truths;
EAI and QASCA assignments bitwise equal). Before these moved here, the
production classes selected them with ``use_columnar=False``.

Each oracle subclasses one production class and overrides only what the
dict loops did:

* ``fit`` for VOTE, CRH, DS, ZenCrowd, TDH, LFC, ACCU/POPACCU, LCA, DOCS and
  ASUMS (the confusion-family oracles accept and ignore ``warm_start=``, as
  the dict loops always did);
* the per-pair quality measure of EAI (Eq. 14-18 over the per-object
  :class:`~repro.inference._structures.ObjectStructure` matrices) and the
  Algorithm 1 walk that calls it once per lookup;
* QASCA's per-evaluation improvement.

Subclassing keeps ``isinstance`` checks working, so
:class:`~repro.crowd.simulator.CrowdSimulator` drives a whole dict-loop
crowd loop with :class:`TDHOracle` and :class:`EAIOracle`. The module is
importable from ``tests/`` and ``benchmarks/`` through the ``pythonpath``
setting of ``[tool.pytest.ini_options]`` in ``pyproject.toml``.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.assignment import EAIAssigner, QascaAssigner
from repro.assignment.base import Assignment, worker_accuracy
from repro.data.model import ObjectId, SourceId, TruthDiscoveryDataset, WorkerId
from repro.hierarchy.tree import Value
from repro.inference import (
    Accu,
    Asums,
    Crh,
    DawidSkene,
    Docs,
    GuessLca,
    Lfc,
    PopAccu,
    TDHModel,
    Vote,
    ZenCrowd,
)
from repro.inference._structures import StructureCache
from repro.inference.base import (
    InferenceResult,
    claim_counts,
    initial_confidences,
    validate_warm_start,
)
from repro.inference.tdh import TDHResult


def _claims_of(dataset: TruthDiscoveryDataset, obj: ObjectId) -> Dict[Hashable, Value]:
    """``claimant -> value`` for one object: sources by id, workers as
    ``("worker", id)`` — the claimant keys of the columnar encoding."""
    claims: Dict[Hashable, Value] = dict(dataset.records_for(obj))
    for worker, value in dataset.answers_for(obj).items():
        claims[("worker", worker)] = value
    return claims


class VoteOracle(Vote):
    """Majority vote by a per-object dict loop."""

    def fit(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        confidences: Dict[ObjectId, np.ndarray] = {}
        for obj in dataset.objects:
            ctx = dataset.context(obj)
            counts = np.zeros(ctx.size, dtype=float)
            for value in dataset.records_for(obj).values():
                counts[ctx.index[value]] += 1.0
            for value in dataset.answers_for(obj).values():
                counts[ctx.index[value]] += 1.0
            total = counts.sum()
            confidences[obj] = (
                counts / total if total > 0 else np.full(ctx.size, 1.0 / ctx.size)
            )
        return InferenceResult(dataset, confidences, iterations=1, converged=True)


class CrhOracle(Crh):
    """CRH's weighted vote and 0-1 loss re-weighting by dict loops."""

    def fit(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        claims_cache = {obj: _claims_of(dataset, obj) for obj in dataset.objects}
        claimants = {c for claims in claims_cache.values() for c in claims}
        weights: Dict[Hashable, float] = {c: 1.0 for c in claimants}
        confidences: Dict[ObjectId, np.ndarray] = {}
        iterations = 0
        converged = False

        for iterations in range(1, self.max_iter + 1):
            # Truth step: weighted vote.
            confidences = {}
            for obj, claims in claims_cache.items():
                ctx = dataset.context(obj)
                scores = np.zeros(ctx.size)
                for claimant, value in claims.items():
                    scores[ctx.index[value]] += weights[claimant]
                total = scores.sum()
                confidences[obj] = (
                    scores / total if total > 0 else np.full(ctx.size, 1.0 / ctx.size)
                )
            truths = {
                obj: dataset.context(obj).values[int(np.argmax(vec))]
                for obj, vec in confidences.items()
            }
            # Weight step: 0-1 loss against current truths.
            losses: Dict[Hashable, float] = {c: 0.0 for c in claimants}
            counts: Dict[Hashable, int] = {c: 0 for c in claimants}
            for obj, claims in claims_cache.items():
                for claimant, value in claims.items():
                    losses[claimant] += 0.0 if value == truths[obj] else 1.0
                    counts[claimant] += 1
            total_loss = sum(
                (losses[c] + 0.5) / (counts[c] + 1.0) for c in claimants
            )
            new_weights = {
                c: -math.log(((losses[c] + 0.5) / (counts[c] + 1.0)) / total_loss)
                for c in claimants
            }
            delta = max(
                abs(new_weights[c] - weights[c]) for c in claimants
            ) if claimants else 0.0
            weights = new_weights
            if delta < self.tol:
                converged = True
                break
        result = InferenceResult(dataset, confidences, iterations, converged)
        result.source_weights = weights  # type: ignore[attr-defined]
        return result


class DawidSkeneOracle(DawidSkene):
    """Dawid-Skene EM over per-claimant confusion dicts."""

    def fit(self, dataset: TruthDiscoveryDataset, warm_start=None) -> InferenceResult:
        mu = initial_confidences(dataset)
        claims_cache = {obj: _claims_of(dataset, obj) for obj in dataset.objects}
        iterations = 0
        converged = False

        for iterations in range(1, self.max_iter + 1):
            # M-step: confusion cells and per-truth totals.
            cells: Dict[Hashable, Dict[Tuple[Value, Value], float]] = {}
            totals: Dict[Hashable, Dict[Value, float]] = {}
            for obj, claims in claims_cache.items():
                ctx = dataset.context(obj)
                probs = mu[obj]
                for claimant, claimed in claims.items():
                    cell = cells.setdefault(claimant, {})
                    total = totals.setdefault(claimant, {})
                    for pos, truth in enumerate(ctx.values):
                        weight = float(probs[pos])
                        if weight <= 0:
                            continue
                        cell[(truth, claimed)] = cell.get((truth, claimed), 0.0) + weight
                        total[truth] = total.get(truth, 0.0) + weight

            # Class prior per object from current confidences (the original's
            # marginal class probabilities, localised to the candidate set).
            new_mu: Dict[ObjectId, np.ndarray] = {}
            delta = 0.0
            for obj, claims in claims_cache.items():
                ctx = dataset.context(obj)
                n = ctx.size
                log_post = np.log(np.maximum(mu[obj], 1e-12))
                for claimant, claimed in claims.items():
                    cell = cells.get(claimant, {})
                    total = totals.get(claimant, {})
                    for pos, truth in enumerate(ctx.values):
                        numerator = cell.get((truth, claimed), 0.0) + self.smoothing
                        denominator = total.get(truth, 0.0) + self.smoothing * n
                        log_post[pos] += np.log(numerator / denominator)
                log_post -= log_post.max()
                posterior = np.exp(log_post)
                posterior /= posterior.sum()
                delta = max(delta, float(np.max(np.abs(posterior - mu[obj]))))
                new_mu[obj] = posterior
            mu = new_mu
            if delta < self.tol:
                converged = True
                break
        return InferenceResult(dataset, mu, iterations, converged)


class ZenCrowdOracle(ZenCrowd):
    """ZenCrowd EM over a per-claimant reliability dict."""

    def fit(self, dataset: TruthDiscoveryDataset, warm_start=None) -> InferenceResult:
        mu = initial_confidences(dataset)
        claims_cache = {obj: _claims_of(dataset, obj) for obj in dataset.objects}
        claimants = {c for claims in claims_cache.values() for c in claims}
        reliability: Dict[Hashable, float] = {
            c: self.prior_reliability for c in claimants
        }
        iterations = 0
        converged = False

        for iterations in range(1, self.max_iter + 1):
            new_mu: Dict[ObjectId, np.ndarray] = {}
            delta = 0.0
            correct_mass = {c: 0.0 for c in claimants}
            counts = {c: 0 for c in claimants}
            for obj, claims in claims_cache.items():
                ctx = dataset.context(obj)
                n = ctx.size
                log_post = np.log(np.maximum(mu[obj], 1e-12))
                for claimant, claimed in claims.items():
                    r = min(max(reliability[claimant], 1e-3), 1 - 1e-3)
                    like = np.full(n, (1.0 - r) / max(n - 1, 1))
                    like[ctx.index[claimed]] = r
                    log_post += np.log(like)
                log_post -= log_post.max()
                posterior = np.exp(log_post)
                posterior /= posterior.sum()
                delta = max(delta, float(np.max(np.abs(posterior - mu[obj]))))
                new_mu[obj] = posterior
                for claimant, claimed in claims.items():
                    correct_mass[claimant] += float(posterior[ctx.index[claimed]])
                    counts[claimant] += 1
            mu = new_mu
            reliability = {
                c: (correct_mass[c] + 1.0) / (counts[c] + 2.0) for c in claimants
            }
            if delta < self.tol:
                converged = True
                break
        result = InferenceResult(dataset, mu, iterations, converged)
        result.reliability = reliability  # type: ignore[attr-defined]
        return result


class LfcOracle(Lfc):
    """LFC EM over per-claimant confusion dicts."""

    def fit(self, dataset: TruthDiscoveryDataset, warm_start=None) -> InferenceResult:
        mu = initial_confidences(dataset)
        claims_cache = {
            obj: _claims_of(dataset, obj) for obj in dataset.objects
        }
        iterations = 0
        converged = False
        confusion: Dict[Hashable, Dict[Tuple[Value, Value], float]] = {}
        totals: Dict[Hashable, Dict[Value, float]] = {}

        for iterations in range(1, self.max_iter + 1):
            # M-step for confusion matrices from current responsibilities.
            confusion = {}
            totals = {}
            for obj, claims in claims_cache.items():
                ctx = dataset.context(obj)
                probs = mu[obj]
                for claimant, claimed in claims.items():
                    cell = confusion.setdefault(claimant, {})
                    tot = totals.setdefault(claimant, {})
                    for pos, truth in enumerate(ctx.values):
                        weight = float(probs[pos])
                        if weight <= 0:
                            continue
                        cell[(truth, claimed)] = cell.get((truth, claimed), 0.0) + weight
                        tot[truth] = tot.get(truth, 0.0) + weight

            # E-step: posterior over candidate truths.
            new_mu: Dict[ObjectId, np.ndarray] = {}
            delta = 0.0
            for obj, claims in claims_cache.items():
                ctx = dataset.context(obj)
                n = ctx.size
                log_post = np.zeros(n)
                for claimant, claimed in claims.items():
                    cell = confusion.get(claimant, {})
                    tot = totals.get(claimant, {})
                    for pos, truth in enumerate(ctx.values):
                        numerator = cell.get((truth, claimed), 0.0) + self.smoothing
                        denominator = tot.get(truth, 0.0) + self.smoothing * n
                        log_post[pos] += np.log(numerator / denominator)
                log_post -= log_post.max()
                posterior = np.exp(log_post)
                posterior /= posterior.sum()
                delta = max(delta, float(np.max(np.abs(posterior - mu[obj]))))
                new_mu[obj] = posterior
            mu = new_mu
            if delta < self.tol:
                converged = True
                break
        return InferenceResult(dataset, mu, iterations, converged)


class GuessLcaOracle(GuessLca):
    """GuessLCA EM over a per-claimant honesty dict."""

    def fit(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        mu = initial_confidences(dataset)
        claims_cache = {obj: _claims_of(dataset, obj) for obj in dataset.objects}
        claimants = {c for claims in claims_cache.values() for c in claims}
        honesty: Dict[Hashable, float] = {c: self.prior_honesty for c in claimants}

        # Guess distributions q_o from claim popularity (records + answers).
        guess: Dict[ObjectId, np.ndarray] = {}
        for obj in dataset.objects:
            ctx = dataset.context(obj)
            counts = claim_counts(dataset, obj)
            for value in dataset.answers_for(obj).values():
                counts[ctx.index[value]] += 1.0
            counts += 1.0  # smooth so every candidate is guessable
            guess[obj] = counts / counts.sum()

        iterations = 0
        converged = False
        for iterations in range(1, self.max_iter + 1):
            new_mu: Dict[ObjectId, np.ndarray] = {}
            correct_mass: Dict[Hashable, float] = {c: 0.0 for c in claimants}
            claim_count: Dict[Hashable, int] = {c: 0 for c in claimants}
            delta = 0.0
            for obj, claims in claims_cache.items():
                ctx = dataset.context(obj)
                n = ctx.size
                q = guess[obj]
                log_post = np.log(np.maximum(mu[obj], 1e-12))
                for claimant, value in claims.items():
                    u = ctx.index[value]
                    h = honesty[claimant]
                    like = np.empty(n)
                    for v in range(n):
                        if v == u:
                            like[v] = h
                        else:
                            denom = max(1.0 - q[v], 1e-9)
                            like[v] = (1.0 - h) * q[u] / denom
                    log_post += np.log(np.maximum(like, 1e-12))
                log_post -= log_post.max()
                posterior = np.exp(log_post)
                posterior /= posterior.sum()
                delta = max(delta, float(np.max(np.abs(posterior - mu[obj]))))
                new_mu[obj] = posterior
                for claimant, value in claims.items():
                    correct_mass[claimant] += float(posterior[ctx.index[value]])
                    claim_count[claimant] += 1
            mu = new_mu
            honesty = {
                c: min(
                    max(
                        (correct_mass[c] + self.smoothing)
                        / (claim_count[c] + 2.0 * self.smoothing),
                        0.01,
                    ),
                    0.99,
                )
                for c in claimants
            }
            if delta < self.tol:
                converged = True
                break
        result = InferenceResult(dataset, mu, iterations, converged)
        result.honesty = honesty  # type: ignore[attr-defined]
        return result


class DocsOracle(Docs):
    """DOCS EM over a ``(claimant, domain)`` accuracy dict."""

    def fit(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        mu = initial_confidences(dataset)
        domains = {obj: self.object_domain(dataset, obj) for obj in dataset.objects}
        claims_cache = {obj: _claims_of(dataset, obj) for obj in dataset.objects}

        # accuracy[(claimant, domain)] with global fallback.
        prior_correct = 0.7
        accuracy: Dict[Tuple[Hashable, Value], float] = {}

        iterations = 0
        converged = False
        for iterations in range(1, self.max_iter + 1):
            new_mu: Dict[ObjectId, np.ndarray] = {}
            delta = 0.0
            for obj, claims in claims_cache.items():
                ctx = dataset.context(obj)
                n = ctx.size
                domain = domains[obj]
                log_post = np.log(np.maximum(mu[obj], 1e-12))
                for claimant, value in claims.items():
                    u = ctx.index[value]
                    acc = accuracy.get((claimant, domain), prior_correct)
                    acc = min(max(acc, 1e-3), 1.0 - 1e-3)
                    like = np.full(n, (1.0 - acc) / max(n - 1, 1))
                    like[u] = acc
                    log_post += np.log(like)
                log_post -= log_post.max()
                posterior = np.exp(log_post)
                posterior /= posterior.sum()
                delta = max(delta, float(np.max(np.abs(posterior - mu[obj]))))
                new_mu[obj] = posterior
            mu = new_mu

            # Per-domain accuracy update with Beta smoothing.
            correct_mass: Dict[Tuple[Hashable, Value], float] = {}
            counts: Dict[Tuple[Hashable, Value], float] = {}
            for obj, claims in claims_cache.items():
                ctx = dataset.context(obj)
                domain = domains[obj]
                probs = mu[obj]
                for claimant, value in claims.items():
                    key = (claimant, domain)
                    correct_mass[key] = correct_mass.get(key, 0.0) + float(
                        probs[ctx.index[value]]
                    )
                    counts[key] = counts.get(key, 0.0) + 1.0
            accuracy = {
                key: (correct_mass[key] + self.smoothing * prior_correct)
                / (counts[key] + self.smoothing)
                for key in counts
            }
            if delta < self.tol:
                converged = True
                break

        result = InferenceResult(dataset, mu, iterations, converged)
        result.domain_accuracy = accuracy  # type: ignore[attr-defined]
        result.domains = domains  # type: ignore[attr-defined]
        return result


class AsumsOracle(Asums):
    """ASUMS's fixed point over per-object belief vectors."""

    def fit(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        claims_cache = {obj: _claims_of(dataset, obj) for obj in dataset.objects}
        claimants = {c for claims in claims_cache.values() for c in claims}
        trust: Dict[Hashable, float] = {c: 1.0 for c in claimants}
        beliefs: Dict[ObjectId, np.ndarray] = {
            obj: np.ones(dataset.context(obj).size) for obj in dataset.objects
        }
        iterations = 0
        converged = False

        for iterations in range(1, self.max_iter + 1):
            # Belief step: claims support the claimed value and, partially,
            # its candidate ancestors.
            new_beliefs: Dict[ObjectId, np.ndarray] = {}
            for obj, claims in claims_cache.items():
                ctx = dataset.context(obj)
                belief = np.zeros(ctx.size)
                for claimant, value in claims.items():
                    u = ctx.index[value]
                    belief[u] += trust[claimant]
                    for ancestor_pos in ctx.ancestor_sets[u]:
                        belief[ancestor_pos] += self.ancestor_support * trust[claimant]
                new_beliefs[obj] = belief
            max_belief = max(
                (float(vec.max()) for vec in new_beliefs.values()), default=1.0
            )
            max_belief = max(max_belief, 1e-12)
            for obj in new_beliefs:
                new_beliefs[obj] = new_beliefs[obj] / max_belief

            # Trust step: a source is trusted if its claimed values are believed.
            new_trust: Dict[Hashable, float] = {c: 0.0 for c in claimants}
            counts: Dict[Hashable, int] = {c: 0 for c in claimants}
            for obj, claims in claims_cache.items():
                ctx = dataset.context(obj)
                belief = new_beliefs[obj]
                for claimant, value in claims.items():
                    new_trust[claimant] += float(belief[ctx.index[value]])
                    counts[claimant] += 1
            max_trust = max(new_trust.values(), default=1.0)
            max_trust = max(max_trust, 1e-12)
            new_trust = {c: t / max_trust for c, t in new_trust.items()}

            delta = max(
                float(np.max(np.abs(new_beliefs[obj] - beliefs[obj])))
                for obj in beliefs
            )
            beliefs = new_beliefs
            trust = new_trust
            if delta < self.tol:
                converged = True
                break

        # Truth selection: deepest candidate within tau of the max belief.
        confidences: Dict[ObjectId, np.ndarray] = {}
        hierarchy = dataset.hierarchy
        for obj in dataset.objects:
            ctx = dataset.context(obj)
            belief = beliefs[obj]
            peak = float(belief.max())
            chosen = 0
            best_depth = -1
            for pos, value in enumerate(ctx.values):
                if peak <= 0 or belief[pos] < self.tau * peak:
                    continue
                depth = hierarchy.depth(value)
                if depth > best_depth or (
                    depth == best_depth and belief[pos] > belief[chosen]
                ):
                    chosen = pos
                    best_depth = depth
            # Encode the selection while preserving belief ordering elsewhere.
            scores = belief.copy()
            if scores.sum() > 0:
                scores = scores / scores.sum()
            boost = np.zeros(ctx.size)
            boost[chosen] = 1.0
            confidences[obj] = 0.5 * scores + 0.5 * boost
        result = InferenceResult(dataset, confidences, iterations, converged)
        result.trust = trust  # type: ignore[attr-defined]
        return result


class AccuOracle(Accu):
    """ACCU (and, through :class:`PopAccuOracle`, POPACCU) by dict loops,
    with the pairwise copy detection over claimant pairs."""

    def fit(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        claimants = self._claimants(dataset)
        accuracy: Dict[Hashable, float] = {c: 0.8 for c in claimants}
        confidences: Dict[ObjectId, np.ndarray] = {}
        iterations = 0
        converged = False

        for iterations in range(1, self.max_iter + 1):
            weights = (
                self._independence_weights(dataset, accuracy)
                if self.detect_dependence
                else {}
            )
            confidences = self._vote(dataset, accuracy, weights)
            new_accuracy = self._update_accuracy(dataset, confidences)
            delta = max(
                abs(new_accuracy[c] - accuracy[c]) for c in new_accuracy
            ) if new_accuracy else 0.0
            accuracy = new_accuracy
            if delta < self.tol:
                converged = True
                break
        result = InferenceResult(dataset, confidences, iterations, converged)
        result.source_accuracy = accuracy  # type: ignore[attr-defined]
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _claimants(dataset: TruthDiscoveryDataset) -> List[Hashable]:
        """Sources plus workers — answers are treated as single-claim sources."""
        return list(dataset.sources) + [("worker", w) for w in dataset.workers]

    def _vote(
        self,
        dataset: TruthDiscoveryDataset,
        accuracy: Mapping[Hashable, float],
        weights: Mapping[Tuple[Hashable, ObjectId], float],
    ) -> Dict[ObjectId, np.ndarray]:
        confidences: Dict[ObjectId, np.ndarray] = {}
        for obj in dataset.objects:
            ctx = dataset.context(obj)
            n_false = (
                self.n_false_values
                if self.n_false_values is not None
                else max(ctx.size - 1, 1)
            )
            if self.popularity:
                counts = claim_counts(dataset, obj)
                total = counts.sum()
                pop = counts / total if total > 0 else np.full(ctx.size, 1.0 / ctx.size)
            scores = np.zeros(ctx.size)
            for claimant, value in _claims_of(dataset, obj).items():
                acc = min(max(accuracy.get(claimant, 0.8), 0.01), 0.99)
                if self.popularity:
                    # POPACCU: false values drawn by popularity, not uniformly.
                    false_mass = max(1.0 - pop[ctx.index[value]], 1e-6)
                    vote = math.log(max(acc, 1e-6) / max((1.0 - acc) * false_mass, 1e-9))
                else:
                    vote = math.log(n_false * acc / (1.0 - acc))
                vote *= weights.get((claimant, obj), 1.0)
                scores[ctx.index[value]] += vote
            scores -= scores.max()
            exp_scores = np.exp(scores)
            confidences[obj] = exp_scores / exp_scores.sum()
        return confidences

    def _update_accuracy(
        self, dataset: TruthDiscoveryDataset, confidences: Mapping[ObjectId, np.ndarray]
    ) -> Dict[Hashable, float]:
        sums: Dict[Hashable, float] = {}
        counts: Dict[Hashable, int] = {}
        for obj in dataset.objects:
            ctx = dataset.context(obj)
            probs = confidences[obj]
            for claimant, value in _claims_of(dataset, obj).items():
                sums[claimant] = sums.get(claimant, 0.0) + float(probs[ctx.index[value]])
                counts[claimant] = counts.get(claimant, 0) + 1
        return {
            claimant: min(max(sums[claimant] / counts[claimant], 0.01), 0.99)
            for claimant in sums
        }

    # ------------------------------------------------------------------
    def _independence_weights(
        self, dataset: TruthDiscoveryDataset, accuracy: Mapping[Hashable, float]
    ) -> Dict[Tuple[Hashable, ObjectId], float]:
        """Per-claim independence weight ``I(s, o)`` from copy detection.

        For every source pair sharing objects we compute the posterior
        probability of dependence from the fraction of *identical* claims —
        many shared identical values beyond what their accuracies explain is
        evidence of copying (the kernel of ACCU's Bayesian dependence
        analysis). A claim's weight is the probability that it was produced
        independently, aggregated over suspected providers.
        """
        shared: Dict[Tuple[Hashable, Hashable], Tuple[int, int]] = {}
        claims_cache = {obj: _claims_of(dataset, obj) for obj in dataset.objects}
        providers: Dict[Hashable, List[ObjectId]] = {}
        for obj, claims in claims_cache.items():
            for claimant in claims:
                providers.setdefault(claimant, []).append(obj)

        for obj, claims in claims_cache.items():
            claimants = list(claims)
            for a, b in combinations(claimants, 2):
                key = (a, b) if repr(a) <= repr(b) else (b, a)
                same, total = shared.get(key, (0, 0))
                shared[key] = (same + (claims[a] == claims[b]), total + 1)

        dependence: Dict[Tuple[Hashable, Hashable], float] = {}
        for (a, b), (same, total) in shared.items():
            if total < 2:
                continue
            acc_a = accuracy.get(a, 0.8)
            acc_b = accuracy.get(b, 0.8)
            p_same_indep = acc_a * acc_b + (1 - acc_a) * (1 - acc_b) * 0.2
            p_same_dep = self.copy_rate + (1 - self.copy_rate) * p_same_indep
            ratio = same / total
            # Bayes factor of observed agreement under dependence vs independence.
            like_dep = p_same_dep ** same * (1 - p_same_dep) ** (total - same)
            like_ind = p_same_indep ** same * (1 - p_same_indep) ** (total - same)
            prior = self.alpha_dependence
            posterior = prior * like_dep / max(
                prior * like_dep + (1 - prior) * like_ind, 1e-300
            )
            if posterior > 0.5 and ratio > 0.5:
                dependence[(a, b)] = posterior

        weights: Dict[Tuple[Hashable, ObjectId], float] = {}
        for (a, b), post in dependence.items():
            # The less accurate party is treated as the copier; its agreeing
            # claims are discounted.
            copier = a if accuracy.get(a, 0.8) <= accuracy.get(b, 0.8) else b
            other = b if copier is a else a
            for obj in providers.get(copier, ()):
                claims = claims_cache[obj]
                if other in claims and claims.get(copier) == claims.get(other):
                    key = (copier, obj)
                    weights[key] = min(
                        weights.get(key, 1.0), 1.0 - post * self.copy_rate
                    )
        return weights


class PopAccuOracle(AccuOracle, PopAccu):
    """POPACCU: :class:`AccuOracle`'s loops with PopAccu's settings."""


class TDHOracle(TDHModel):
    """TDH's MAP EM (Section 3.2) walking per-object dicts with the small
    per-object likelihood matrices of :mod:`repro.inference._structures`."""

    def fit(
        self,
        dataset: TruthDiscoveryDataset,
        warm_start: Optional[TDHResult] = None,
        structures: Optional[StructureCache] = None,
    ) -> TDHResult:
        warm_start = validate_warm_start(dataset, warm_start)
        cache = structures if structures is not None else self.make_structure_cache(dataset)
        objects = dataset.objects
        prior_phi = self.alpha / self.alpha.sum()
        prior_psi = self.beta / self.beta.sum()

        phi: Dict[SourceId, np.ndarray] = {}
        for source in dataset.sources:
            if warm_start is not None and source in warm_start.phi:
                phi[source] = warm_start.phi[source].copy()
            else:
                phi[source] = prior_phi.copy()
        psi: Dict[WorkerId, np.ndarray] = {}
        for worker in dataset.workers:
            if warm_start is not None and worker in warm_start.psi:
                psi[worker] = warm_start.psi[worker].copy()
            else:
                psi[worker] = prior_psi.copy()

        mu: Dict[ObjectId, np.ndarray] = {}
        for obj in objects:
            structure = cache.get(obj)
            counts = structure.counts.copy()
            for value in dataset.answers_for(obj).values():
                counts[structure.index[value]] += 1.0
            total = counts.sum()
            mu[obj] = (
                counts / total
                if total > 0
                else np.full(structure.size, 1.0 / structure.size)
            )

        numerators: Dict[ObjectId, np.ndarray] = {}
        denominators: Dict[ObjectId, float] = {}
        iterations = 0
        converged = False

        records_by_object = {obj: dataset.records_for(obj) for obj in objects}
        answers_by_object = {obj: dataset.answers_for(obj) for obj in objects}

        for iterations in range(1, self.max_iter + 1):
            new_mu, numerators, denominators, g_source, g_worker = self._em_sweep(
                objects, records_by_object, answers_by_object, cache, mu, phi, psi
            )
            # M-step for trustworthiness (Eq. 10-11).
            phi = self._update_trust(g_source, self.alpha, prior_phi)
            psi = self._update_trust(g_worker, self.beta, prior_psi)

            delta = max(
                (float(np.max(np.abs(new_mu[obj] - mu[obj]))) for obj in objects),
                default=0.0,
            )
            mu = new_mu
            if delta < self.tol:
                converged = True
                break

        return TDHResult(
            dataset=dataset,
            confidences=mu,
            phi=phi,
            psi=psi,
            numerators=numerators,
            denominators=denominators,
            structures=cache,
            iterations=iterations,
            converged=converged,
        )

    # ------------------------------------------------------------------
    def _em_sweep(
        self,
        objects,
        records_by_object,
        answers_by_object,
        cache: StructureCache,
        mu: Dict[ObjectId, np.ndarray],
        phi: Dict[SourceId, np.ndarray],
        psi: Dict[WorkerId, np.ndarray],
    ):
        """One fused E-step + confidence M-step over all claims.

        Returns the new confidences, their numerators/denominators (Eq. 9) and
        the per-source / per-worker case-responsibility sums feeding Eq. (10)
        and (11).
        """
        gamma_minus_1 = self.gamma - 1.0
        new_mu: Dict[ObjectId, np.ndarray] = {}
        numerators: Dict[ObjectId, np.ndarray] = {}
        denominators: Dict[ObjectId, float] = {}
        g_source: Dict[SourceId, np.ndarray] = {}
        g_worker: Dict[WorkerId, np.ndarray] = {}

        for obj in objects:
            structure = cache.get(obj)
            mu_o = mu[obj]
            n = structure.size
            f_sum = np.zeros(n)
            claims = records_by_object[obj]
            answers = answers_by_object[obj]

            for source, value in claims.items():
                u = structure.index[value]
                likelihood = structure.source_likelihood_row(u, phi[source])
                joint = likelihood * mu_o
                z = joint.sum()
                if z <= 0:
                    # Degenerate likelihood (e.g. zero-mass claim); fall back
                    # to the prior confidence so EM keeps moving.
                    f = mu_o.copy()
                    g = np.array([1.0 / 3, 1.0 / 3, 1.0 / 3])
                else:
                    f = joint / z
                    g1 = phi[source][0] * mu_o[u] / z
                    g2 = phi[source][1] * float(
                        structure.source_case2[u] @ mu_o
                    ) / z
                    g = np.array([g1, g2, max(0.0, 1.0 - g1 - g2)])
                f_sum += f
                g_source.setdefault(source, np.zeros(3))
                g_source[source] += g

            for worker, value in answers.items():
                u = structure.index[value]
                likelihood = structure.worker_likelihood_row(u, psi[worker])
                joint = likelihood * mu_o
                z = joint.sum()
                if z <= 0:
                    f = mu_o.copy()
                    g = np.array([1.0 / 3, 1.0 / 3, 1.0 / 3])
                else:
                    f = joint / z
                    g1 = psi[worker][0] * mu_o[u] / z
                    g2 = psi[worker][1] * float(
                        structure.worker_case2[u] @ mu_o
                    ) / z
                    g = np.array([g1, g2, max(0.0, 1.0 - g1 - g2)])
                f_sum += f
                g_worker.setdefault(worker, np.zeros(3))
                g_worker[worker] += g

            numerator = f_sum + gamma_minus_1
            denominator = len(claims) + len(answers) + n * gamma_minus_1
            numerators[obj] = numerator
            denominators[obj] = denominator
            new_mu[obj] = numerator / denominator if denominator > 0 else (
                np.full(n, 1.0 / n)
            )

        return new_mu, numerators, denominators, g_source, g_worker

    @staticmethod
    def _update_trust(
        g_sums: Dict,
        prior: np.ndarray,
        prior_mean: np.ndarray,
    ) -> Dict:
        """Eq. (10)/(11): Dirichlet-MAP update of a trustworthiness triple."""
        updated = {}
        prior_minus_1 = prior - 1.0
        prior_total = prior_minus_1.sum()
        for key, sums in g_sums.items():
            count = sums.sum()  # responsibilities per claim sum to 1 => |Os|
            denominator = count + prior_total
            if denominator <= 0:
                updated[key] = prior_mean.copy()
                continue
            vec = (sums + prior_minus_1) / denominator
            vec = np.clip(vec, 1e-12, None)
            updated[key] = vec / vec.sum()
        return updated


class EAIOracle(EAIAssigner):
    """EAI's quality measure one ``(worker, object)`` pair per call, over the
    fit's per-object :class:`~repro.inference._structures.ObjectStructure`
    matrices, and Algorithm 1 calling it once per lookup.

    It reads only ``result.confidences`` / ``numerators`` / ``denominators``
    / ``structures``, so it also serves :class:`TDHOracle` fits, which carry
    no columnar state."""

    def conditional_confidence(
        self, result: TDHResult, obj: ObjectId, worker_psi: np.ndarray, answer_pos: int
    ) -> np.ndarray:
        structure = result.structures.get(obj)
        mu = result.confidences[obj]
        likelihood = structure.worker_likelihood_row(answer_pos, worker_psi)
        joint = likelihood * mu
        z = joint.sum()
        f = joint / z if z > 0 else mu
        numerator = result.numerators[obj] + f
        return numerator / (result.denominators[obj] + 1.0)

    def answer_distribution(
        self, result: TDHResult, obj: ObjectId, worker_psi: np.ndarray
    ) -> np.ndarray:
        structure = result.structures.get(obj)
        mu = result.confidences[obj]
        likelihood = structure.worker_likelihood(worker_psi)  # rows = answers
        dist = likelihood @ mu
        total = dist.sum()
        return dist / total if total > 0 else np.full(len(mu), 1.0 / len(mu))

    def eai(
        self,
        result: TDHResult,
        obj: ObjectId,
        worker_psi: np.ndarray,
        n_objects: Optional[int] = None,
    ) -> float:
        self.eai_evaluations += 1
        self.eai_pairs_computed += 1
        n_objects = n_objects if n_objects is not None else len(result.confidences)
        mu = result.confidences[obj]
        current_best = float(mu.max())
        answer_probs = self.answer_distribution(result, obj, worker_psi)
        expected_best = 0.0
        for answer_pos, p_answer in enumerate(answer_probs):
            if p_answer <= 0:
                continue
            conditional = self.conditional_confidence(result, obj, worker_psi, answer_pos)
            expected_best += float(p_answer) * float(conditional.max())
        return (expected_best - current_best) / n_objects

    def assign(
        self,
        dataset: TruthDiscoveryDataset,
        result: TDHResult,
        workers: Sequence[WorkerId],
        k: int,
    ) -> Assignment:
        if not isinstance(result, TDHResult):
            raise TypeError("EAI requires a TDHResult (it reuses the EM state)")
        self.eai_evaluations = 0
        self.eai_pairs_computed = 0
        objects = list(result.confidences)
        n_objects = len(objects)
        if not workers or k <= 0 or n_objects == 0:
            return {w: [] for w in workers}

        psi_by_worker = {w: result.worker_psi(w, self.default_psi) for w in workers}
        # Workers in decreasing order of psi_{w,1} (line 3 of Algorithm 1).
        ordered_workers = sorted(
            workers, key=lambda w: float(psi_by_worker[w][0]), reverse=True
        )

        ueai = np.array([self.ueai(result, obj, n_objects) for obj in objects])
        # The walk pops objects in decreasing UEAI, ties in insertion order
        # (lines 1-2), and addresses them by that rank from here on.
        order = np.argsort(-ueai, kind="stable")
        ranked_objects = [objects[i] for i in order.tolist()]
        bounds = ueai[order].tolist()

        def lookup_for(worker: WorkerId):
            psi = psi_by_worker[worker]
            return lambda rank: self.eai(result, ranked_objects[rank], psi, n_objects)

        # Per-worker min-heaps of assigned (EAI, seq, rank).
        eai_heaps: Dict[WorkerId, List[Tuple[float, int, int]]] = {
            w: [] for w in ordered_workers
        }
        lanes = [
            (set(dataset.objects_of_worker(w)), eai_heaps[w], lookup_for(w))
            for w in ordered_workers
        ]
        pruning = self.use_pruning
        seq = 0
        n_full = 0  # heaps holding k tasks; a full heap stays full
        # Lowest worst-assigned EAI over all heaps once every heap is full;
        # None when not yet known (it can only rise when a heap evicts).
        floor: Optional[float] = None

        for rank in range(n_objects):
            upper = bounds[rank]
            if pruning and n_full == len(eai_heaps):
                if floor is None:
                    floor = min(heap[0][0] for heap in eai_heaps.values())
                if floor >= upper:
                    break  # no remaining object can beat any assigned one (line 8-9)

            # Try to place `rank`, cascading displaced objects to later workers.
            pending, obj = rank, ranked_objects[rank]
            for answered, heap, lookup in lanes:
                if obj in answered:
                    continue
                if pruning and len(heap) >= k and heap[0][0] >= upper:
                    # This worker's worst task already beats the bound; the
                    # object cannot enter this heap (line 11-12).
                    continue
                value = lookup(pending)
                seq += 1
                if len(heap) < k:
                    heapq.heappush(heap, (value, seq, pending))
                    n_full += len(heap) == k
                    break
                if value > heap[0][0]:
                    # Reassign the evicted object (line 17).
                    _, _, pending = heapq.heapreplace(heap, (value, seq, pending))
                    obj, upper, floor = ranked_objects[pending], bounds[pending], None
                # else: try the next worker with the same object

        return {
            w: [ranked_objects[r] for _, _, r in sorted(eai_heaps[w], reverse=True)]
            for w in ordered_workers
        }


class QascaOracle(QascaAssigner):
    """QASCA normalising ``result.confidences[obj]`` and rebuilding the
    worker likelihood matrix on every ``(worker, object)`` evaluation."""

    def improvement(
        self,
        dataset: TruthDiscoveryDataset,
        result: InferenceResult,
        obj: ObjectId,
        worker: WorkerId,
    ) -> float:
        mu = np.asarray(result.confidences[obj], dtype=float)
        total = mu.sum()
        mu = mu / total if total > 0 else np.full(len(mu), 1.0 / len(mu))
        n = len(mu)
        accuracy = min(max(worker_accuracy(result, worker), 1e-3), 1 - 1e-3)

        # Sample the hypothetical answer from the predictive distribution.
        if n == 1:
            return 0.0
        likelihood = np.full((n, n), (1.0 - accuracy) / (n - 1))
        np.fill_diagonal(likelihood, accuracy)
        predictive = likelihood @ mu
        predictive = predictive / predictive.sum()
        sampled = int(self._rng.choice(n, p=predictive))

        posterior = mu * likelihood[sampled]
        z = posterior.sum()
        if z <= 0:
            return 0.0
        posterior /= z
        n_objects = max(len(result.confidences), 1)
        return (float(posterior.max()) - float(mu.max())) / n_objects
