"""Beam search for location patterns (§II-D).

Level-wise exploration of conjunctions: keep the ``beam_width`` highest-
SI descriptions of each arity, expand each by every admissible condition,
and log the overall ``top_k``. The information content (Eq. 13) of a
candidate depends on its extension only through its size, its target
sum and its row count in each background-model block, so a level's
candidates come from
:meth:`~repro.lang.refinement.RefinementOperator.expand` as integer codes
plus those sums — one matrix product per chunk of distinct parent
extensions against the scorer's :attr:`LocationICScorer.features` — and
no candidate's mask is built to score it. Candidates that add one
condition to parents with one extension share a row of sums, so each
distinct row is scored once and every candidate reads its IC through
``sums_row``. The IC then takes one of three paths:

- **uniform** — every model block shares one covariance (always true
  before any spread pattern has been assimilated, since location updates
  leave covariances alone): two BLAS calls score the whole batch.
- **low-rank** — after spread updates the block covariances differ, but
  each Theorem 2 update is a rank-one correction along ``Sigma_b w``, so
  every block is ``Sigma_0 + Q M_b Q'`` with ``Q`` an orthonormal basis of
  the span of ``Sigma_0 W`` (``W`` the assimilated spread directions).
  The determinant lemma and Woodbury identity then score the batch with
  ``r x r`` algebra per candidate, in one vectorised pass.
- **exact** — the per-candidate loop with two ``d x d`` factorisations.
  It is the reference the others are tested against, and the fallback
  for candidates the low-rank guard rejects (see
  :class:`LocationICScorer`).

Each level's distinct rows of sums are scored in contiguous blocks, one
``score_sums`` call per block, dispatched through an
:class:`~repro.engine.executor.Executor`. A block holds at most
:data:`BLOCK_VALUES` sums values, so a block's rows depend only on the
level's row count and width — never on the worker count — and the
blocks' results are concatenated in row order, so a
``ProcessExecutor`` run returns bit-identical results to a serial one.

SI is then one vector division. The next beam is taken straight from
the level's codes, and only a level's best ``top_k`` candidates are
materialised as :class:`~repro.search.results.ScoredSubgroup` records:
no other candidate can reach the log. Masks are built, by
:meth:`~repro.lang.refinement.RefinementOperator.child_masks`, for
those candidates and the next beam only. With an observer attached,
every candidate is materialised, in generation order, so that the
observer sees them all; the log and the beam are the same either way.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy import linalg as sla

from repro.engine.executor import Executor, SerialExecutor
from repro.errors import SearchError
from repro.events import MiningObserver
from repro.interest.dl import LOCATION, DLParams, description_length
from repro.interest.si import PatternScore
from repro.lang.refinement import RefinementOperator
from repro.model.background import BackgroundModel
from repro.model.gaussian import LOG_2PI
from repro.model.patterns import SpreadConstraint
from repro.obs import clock
from repro.obs.instruments import (
    BEAM_CANDIDATES,
    BEAM_DROPPED_COVERAGE,
    BEAM_DROPPED_DUPLICATE,
    BEAM_PARENT_EXTENSIONS,
    BEAM_PHASE_CANDIDATE_GEN,
    BEAM_PHASE_MERGE,
    BEAM_PHASE_PRUNE,
    BEAM_PHASE_SCORE,
    IC_KERNEL_EXACT,
    IC_KERNEL_LOWRANK,
    IC_KERNEL_UNIFORM,
)
from repro.obs.trace import TRACER, current
from repro.search.config import SearchConfig
from repro.search.results import ScoredSubgroup, SearchResult
from repro.utils.linalg import log_det_psd, solve_psd
from repro.utils.timer import TimeBudget


#: Low-rank guard: a candidate whose ``det(I + K G)`` — the ratio of its
#: pooled covariance determinant to the prior's — falls below this is
#: scored by the exact loop instead. Such a candidate's IC hinges on a
#: direction a spread update shrank to rounding noise, where the Woodbury
#: correction cancels catastrophically.
LOWRANK_MIN_DET = 1e-4
_LOG_LOWRANK_MIN_DET = math.log(LOWRANK_MIN_DET)
#: Largest relative Frobenius error tolerated when rebuilding a block
#: covariance as ``Sigma_0 + Q M_b Q'``; past it the scorer stays exact.
_LOWRANK_RECONSTRUCTION_RTOL = 1e-10
#: Most sums values one ``score_sums`` call scores: a level's rows go to
#: the kernels in contiguous blocks of ``max(1, BLOCK_VALUES // width)``
#: rows (1 MiB of sums), which caps each call's temporaries. A level of
#: synthetic fits one block; mammals' ``(rows, d)`` uniform-path arrays
#: (d = 124) are what the cap keeps small.
BLOCK_VALUES = 2**17


class _LowRankSplit(NamedTuple):
    """Every block covariance as ``Sigma_0 + Q M_b Q'``, ``Sigma_0`` factored."""

    chol: np.ndarray  # lower Cholesky factor of Sigma_0
    logdet0: float  # logdet Sigma_0
    basis: np.ndarray  # Q, (d, r), orthonormal
    gram: np.ndarray  # G = Q' Sigma_0^-1 Q, (r, r)
    blocks: np.ndarray  # M_b flattened, (B, r * r)


class LocationICScorer:
    """Batched Eq. 13 evaluation against a frozen background model.

    The scorer snapshots the model's block structure once; it must be
    rebuilt after the model assimilates a pattern (the miner does this).

    A candidate is scored from its sums over :attr:`features`, the
    ``(n, 1 + d + B)`` matrix ``[w, w * targets, w * onehot(block)]``
    (``w`` the case weights, ``1`` on unweighted models): its weighted
    size, its weighted target sums and its weighted row count per block.
    :meth:`score_sums` takes them in
    :meth:`~repro.lang.refinement.RefinementOperator.expand`'s layout
    (the row count, then the feature sums); :meth:`score_masks` forms
    the same sums from a mask stack and runs the same kernels, and is
    the reference.

    With ``c_kb`` the (weighted) rows of candidate ``k`` in block ``b``
    and ``|I|`` its size, the subgroup mean has covariance
    ``Sigma_I = sum_b c_kb Sigma_b / |I|^2``. Which kernel evaluates it is
    fixed at construction:

    - **uniform**: one shared covariance, so ``Sigma_I = Sigma / |I|``
      and one precision matrix scores every candidate.
    - **low-rank**: blocks differ only by spread updates, so
      ``Sigma_b = Sigma_0 + Q M_b Q'`` with ``Sigma_0`` the prior
      covariance, ``Q`` (``d x r``) orthonormal and ``M_b`` ``r x r``.
      With ``K_k = sum_b (c_kb / |I|) M_b``, ``G = Q' Sigma_0^-1 Q`` and
      ``z = Q' Sigma_0^-1 delta``, the determinant lemma gives
      ``logdet(|I| Sigma_I) = logdet Sigma_0 + logdet(I + K_k G)`` and
      Woodbury gives
      ``delta' Sigma_I^-1 delta = |I| (delta' Sigma_0^-1 delta -
      z' (I + K_k G)^-1 K_k z)``, batched over ``(k, r, r)`` stacks.
      When ``r`` reaches ``d`` the same algebra is simply the exact
      computation, vectorised.
    - **exact**: the per-candidate loop (two ``d x d`` factorisations
      each), used when the low-rank split does not reproduce the block
      covariances to ``1e-10`` relative or ``Sigma_0`` will not factor.

    **Guard.** On the low-rank path, candidates whose ``I + K_k G`` has a
    non-positive determinant or one below :data:`LOWRANK_MIN_DET` are
    rescored by the exact loop, bit for bit as if it had scored them.
    Counter ``sisd_ic_kernel_candidates_total{path}`` records how many
    rows each path scored; the beam search passes one row per distinct
    candidate extension.
    """

    def __init__(self, model: BackgroundModel, targets: np.ndarray) -> None:
        targets = np.asarray(targets, dtype=float)
        if targets.ndim == 1:
            targets = targets[:, None]
        if targets.shape != (model.n_rows, model.dim):
            raise SearchError(
                f"targets shape {targets.shape} does not match model "
                f"({model.n_rows}, {model.dim})"
            )
        self.model = model
        self.targets = targets
        self._n_blocks = model.n_blocks
        self._block_means = np.stack(
            [model.block_mean(b) for b in range(model.n_blocks)]
        )
        self._block_covs = np.stack(
            [model.block_cov(b) for b in range(model.n_blocks)]
        )
        # One layout for weighted and unweighted models alike, so unit
        # weights run the very same products as no weights.
        n = model.n_rows
        weights = np.ones(n) if model.weights is None else model.weights
        onehot = np.zeros((n, model.n_blocks))
        onehot[np.arange(n), np.asarray(model.labels)] = 1.0
        #: ``[w, w * targets, w * onehot(block)]``, ``(n, 1 + d + B)``.
        self.features = np.hstack([np.ones((n, 1)), targets, onehot]) * weights[:, None]

        first = self._block_covs[0]
        self._uniform_cov = all(
            np.array_equal(first, self._block_covs[b]) for b in range(self._n_blocks)
        )
        #: ``None`` when the general path must use the exact loop.
        self._lowrank: _LowRankSplit | None = None
        if self._uniform_cov:
            d = model.dim
            self._precision = solve_psd(first, np.eye(d))
            self._logdet = log_det_psd(first)
        else:
            self._lowrank = self._lowrank_split()

    def _lowrank_split(self) -> _LowRankSplit | None:
        """Factor the block covariances as ``Sigma_0 + Q M_b Q'``, if they are."""
        directions = [
            c.direction for c in self.model.constraints if isinstance(c, SpreadConstraint)
        ]
        if not directions:
            return None
        sigma0 = self.model.prior.cov
        q, _ = np.linalg.qr(sigma0 @ np.stack(directions, axis=1))
        m = q.T @ (self._block_covs - sigma0) @ q  # (B, r, r)
        error = np.linalg.norm(sigma0 + q @ m @ q.T - self._block_covs, axis=(1, 2))
        scale = np.linalg.norm(self._block_covs, axis=(1, 2))
        if not np.all(error <= _LOWRANK_RECONSTRUCTION_RTOL * scale):
            return None
        try:
            chol, _ = sla.cho_factor(sigma0, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            return None
        logdet0 = 2.0 * float(np.sum(np.log(np.diag(chol))))
        gram = q.T @ sla.cho_solve((chol, True), q, check_finite=False)
        return _LowRankSplit(chol, logdet0, q, gram, m.reshape(len(m), -1))

    def _mask_sums(self, masks: np.ndarray) -> np.ndarray:
        """The :meth:`score_sums` input of a ``(k, n)`` boolean mask stack."""
        masks = np.asarray(masks)
        if masks.ndim != 2 or masks.shape[1] != self.model.n_rows:
            raise SearchError(f"masks must be (k, {self.model.n_rows}), got {masks.shape}")
        fmasks = masks.astype(float)
        return np.hstack([fmasks.sum(axis=1)[:, None], fmasks @ self.features])

    def _moments(self, sums: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(sizes, observed, block_counts, diffs)`` of ``(k, 1 + m)`` sums.

        On weighted models, ``sizes`` is the total subgroup weight and
        the per-block counts are weighted counts; the IC formulas are
        unchanged because the weighted model covariance stays
        ``Sigma_I = sum_b c_b Sigma_b / W^2`` with weighted ``c_b``
        (frequency semantics — see the background model).
        """
        sums = np.asarray(sums)
        if sums.ndim != 2 or sums.shape[1] != 1 + self.features.shape[1]:
            raise SearchError(
                f"sums must be (k, {1 + self.features.shape[1]}), got {sums.shape}"
            )
        d = self.model.dim
        sizes = sums[:, 1]
        if np.any(sizes == 0):
            raise SearchError("cannot score an empty subgroup")
        observed = sums[:, 2 : 2 + d] / sizes[:, None]
        block_counts = sums[:, 2 + d :]  # (k, B)
        model_means = (block_counts @ self._block_means) / sizes[:, None]
        return sizes, observed, block_counts, observed - model_means

    def _prefix(self, masks: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(sizes, observed, block_counts, diffs)`` of a mask stack."""
        return self._moments(self._mask_sums(masks))

    def score_masks(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """ICs and observed means for a ``(k, n)`` boolean mask stack."""
        return self.score_sums(self._mask_sums(masks))

    def score_sums(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """ICs and observed means from per-candidate sums over :attr:`features`.

        ``sums`` is ``(k, 1 + m)``: each candidate's row count (unused
        here), then its column sums of the ``(n, m)`` :attr:`features`.
        """
        sizes, observed, block_counts, diffs = self._moments(sums)
        k = len(sizes)
        if self._uniform_cov:
            # Sigma_I = Sigma / |I|: Mahalanobis scales by |I|, logdet by
            # -d log |I|. Two BLAS calls score every candidate.
            d = self.model.dim
            maha = np.einsum("kd,kd->k", diffs @ self._precision, diffs) * sizes
            logdet = self._logdet - d * np.log(sizes)
            IC_KERNEL_UNIFORM.inc(k)
            return 0.5 * (d * LOG_2PI + logdet + maha), observed
        if self._lowrank is None:
            IC_KERNEL_EXACT.inc(k)
            return self._exact_ics(block_counts, sizes, diffs), observed
        ics, routed = self._lowrank_ics(block_counts, sizes, diffs)
        ics[routed] = self._exact_ics(block_counts[routed], sizes[routed], diffs[routed])
        n_routed = int(np.count_nonzero(routed))
        IC_KERNEL_LOWRANK.inc(k - n_routed)
        IC_KERNEL_EXACT.inc(n_routed)
        return ics, observed

    def _lowrank_ics(
        self, block_counts: np.ndarray, sizes: np.ndarray, diffs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Low-rank ICs, and the rows the guard routes to the exact loop.

        Routed rows are left as NaN for the caller to fill in.
        """
        chol, logdet0, q, gram, m = self._lowrank
        d, r = q.shape
        solved = sla.cho_solve((chol, True), diffs.T, check_finite=False).T
        quad0 = np.einsum("kd,kd->k", solved, diffs)  # delta' Sigma_0^-1 delta
        z = solved @ q  # (k, r)
        kmat = ((block_counts / sizes[:, None]) @ m).reshape(-1, r, r)
        lemma = np.eye(r) + kmat @ gram  # I + K_k G
        sign, logabsdet = np.linalg.slogdet(lemma)
        # Negated >= so that a NaN determinant is routed as well.
        routed = (sign <= 0) | ~(logabsdet >= _LOG_LOWRANK_MIN_DET)
        ok = ~routed
        kz = np.einsum("krs,ks->kr", kmat[ok], z[ok])
        correction = np.einsum(
            "kr,kr->k", z[ok], np.linalg.solve(lemma[ok], kz[..., None])[..., 0]
        )
        maha = sizes[ok] * (quad0[ok] - correction)
        logdet = logdet0 + logabsdet[ok] - d * np.log(sizes[ok])
        ics = np.full(len(sizes), np.nan)
        ics[ok] = 0.5 * (d * LOG_2PI + logdet + maha)
        return ics, routed

    def _exact_ics(
        self, block_counts: np.ndarray, sizes: np.ndarray, diffs: np.ndarray
    ) -> np.ndarray:
        """The per-candidate reference: pool ``Sigma_I``, factor it twice."""
        d = self.model.dim
        ics = np.empty(len(sizes))
        for k in range(len(sizes)):
            cov = np.einsum(
                "b,bde->de", block_counts[k], self._block_covs
            ) / sizes[k] ** 2
            maha = float(diffs[k] @ solve_psd(cov, diffs[k]))
            ics[k] = 0.5 * (d * LOG_2PI + log_det_psd(cov) + maha)
        return ics

    def score_mask(self, mask: np.ndarray) -> tuple[float, np.ndarray]:
        """IC and observed mean of a single subgroup mask."""
        ics, observed = self.score_masks(np.asarray(mask)[None, :])
        return float(ics[0]), observed[0]


def _best_first(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best scores, best first, ties in index order.

    Equals ``np.argsort(-scores, kind="stable")[:k]`` but sorts only the
    rows at or above the cut. Every row tied with the ``k``-th best is
    kept, in index order, so the stable sort breaks the ties at the cut as
    the full sort would. NaN compares false, so a NaN row is kept too and
    sorts last, as in the full sort.
    """
    negated = -scores
    if k >= len(negated):
        return np.argsort(negated, kind="stable")
    cut = np.partition(negated, k - 1)[k - 1]
    kept = np.flatnonzero(~(negated > cut))
    return kept[np.argsort(negated[kept], kind="stable")[:k]]


class _ResultLog:
    """Keeps the ``top_k`` entries by score, ties broken by insertion order."""

    def __init__(self, top_k: int) -> None:
        self.top_k = top_k
        self._entries: list[tuple[float, int, object]] = []
        self._counter = 0

    def add(self, score: float, entry) -> None:
        self._entries.append((score, self._counter, entry))
        self._counter += 1
        if len(self._entries) > 4 * self.top_k:
            self._shrink()

    def _shrink(self) -> None:
        self._entries.sort(key=lambda t: (-t[0], t[1]))
        del self._entries[self.top_k:]

    def ranked(self) -> list:
        self._shrink()
        return [entry for _, _, entry in self._entries]


def _score_blocks(session, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ICs and observed means of a level's ``(u, 1 + m)`` sums, in row order.

    The rows go to ``score_sums`` in contiguous blocks of
    ``max(1, BLOCK_VALUES // width)`` rows, the last one ragged. The
    blocks are a function of the sums' shape alone, never of the
    executor, which is what makes serial and parallel runs identical.
    """
    rows = max(1, BLOCK_VALUES // sums.shape[1])
    blocks = [sums[i : i + rows] for i in range(0, len(sums), rows)]
    ics, observed = zip(*session.map(LocationICScorer.score_sums, blocks))
    return np.concatenate(ics), np.concatenate(observed)


class LocationBeamSearch:
    """Beam search maximizing the SI of location patterns.

    Parameters
    ----------
    operator:
        Refinement operator over the dataset's description attributes.
    scorer:
        Batched IC scorer bound to the current background model.
    config:
        Beam width, depth, coverage limits, time budget.
    dl_params:
        DL weights; SI of a candidate with ``c`` conditions is
        ``IC / (gamma c + eta)``.
    executor:
        Backend scoring each level's blocks of sums rows; serial by
        default, and guaranteed to return the serial result at any
        parallelism (see module docstring).
    observer:
        Optional :class:`~repro.events.MiningObserver`; its
        ``on_candidate`` hook fires for every admissible candidate the
        search scores, in generation order, in the coordinating process
        (block scoring may be parallel, event delivery never is).

    Generation order is parents in beam order, and each parent's
    refinements in pool order. Descriptions travel through the search as
    canonical integer codes, and candidates are scored from their sums
    over :attr:`LocationICScorer.features`: one row of sums, scored once,
    per distinct (parent extension, added condition) pair, which each
    candidate reads through the level's ``sums_row``. A mask and a
    :class:`~repro.search.results.ScoredSubgroup` are built only for a
    level's ``top_k`` best candidates (best SI first, generation order
    among ties), and for every candidate when an observer is attached;
    the next beam's masks are built alongside. Either way the result is
    the same. Counters: ``sisd_beam_candidates_total`` for the scored
    candidates, ``sisd_beam_candidates_dropped_total{reason}`` for the
    refinements dropped as duplicates or by the coverage bounds, and
    ``sisd_beam_parent_extensions_total`` for the distinct parent
    extensions expanded.
    """

    def __init__(
        self,
        operator: RefinementOperator,
        scorer: LocationICScorer,
        *,
        config: SearchConfig = SearchConfig(),
        dl_params: DLParams = DLParams(),
        executor: Executor | None = None,
        observer: MiningObserver | None = None,
    ) -> None:
        self.operator = operator
        self.scorer = scorer
        self.config = config
        self.dl_params = dl_params
        self.executor = executor if executor is not None else SerialExecutor()
        self.observer = observer

    def run(self) -> SearchResult:
        """Execute the level-wise search; returns the winner and the log."""
        config = self.config
        operator = self.operator
        n_rows = self.scorer.model.n_rows
        budget = TimeBudget(config.time_budget_seconds)
        max_size = config.max_size(n_rows)
        # DL by condition count; a refinement may tighten a bound in place,
        # so a level's codes can be shorter than its depth.
        dl = [
            description_length(c, kind=LOCATION, params=self.dl_params)
            for c in range(1, config.max_depth + 1)
        ]
        dl_array = np.array(dl)

        log = _ResultLog(config.top_k)
        beam: list[tuple[int, np.ndarray]] = [(0, np.ones(n_rows, dtype=bool))]
        seen: set[int] = set()
        n_evaluated = 0
        depth_reached = 0
        expired = False

        # Phase instrumentation: two clock reads per phase per level,
        # recorded against pre-bound histogram children. Spans reuse the
        # same boundaries and only materialize inside an active trace.
        trace_ctx = current()

        # The scorer is shipped to the workers once per run, not per level.
        with self.executor.session(self.scorer) as session:
            for depth in range(1, config.max_depth + 1):
                t_gen = clock.perf_counter()
                level = operator.expand(
                    beam,
                    seen,
                    features=self.scorer.features,
                    min_size=config.min_coverage,
                    max_size=max_size,
                    budget=budget,
                )
                codes = level.codes
                t_score = clock.perf_counter()
                BEAM_PHASE_CANDIDATE_GEN.observe(t_score - t_gen)
                TRACER.record("candidate_gen", t_gen, t_score, trace_ctx)
                BEAM_DROPPED_DUPLICATE.inc(level.duplicates)
                BEAM_DROPPED_COVERAGE.inc(level.out_of_range)
                BEAM_PARENT_EXTENSIONS.inc(level.extensions)
                if level.expired:
                    expired = True
                    break
                if not len(codes):
                    break
                BEAM_CANDIDATES.inc(len(codes))

                depth_reached = depth
                # Score each distinct row of sums once.
                row_ics, observed = _score_blocks(session, level.sums)
                ics = row_ics[level.sums_row]
                n_evaluated += len(codes)
                t_merge = clock.perf_counter()
                BEAM_PHASE_SCORE.observe(t_merge - t_score)
                TRACER.record(
                    "score",
                    t_score,
                    t_merge,
                    trace_ctx,
                    tags={"depth": depth, "candidates": len(codes)},
                )

                si = ics / dl_array[level.lengths - 1]
                # Best first, generation order among ties; only a level's
                # best top_k can reach the log, and an observer sees every
                # candidate.
                ranking = _best_first(si, max(config.top_k, config.beam_width))
                chosen = ranking[: config.top_k]
                if self.observer is not None:
                    chosen = np.arange(len(si))
                survivors = ranking[: config.beam_width]
                # Masks for the logged candidates and the next beam only.
                rows = np.union1d(chosen, survivors)
                masks = operator.child_masks(beam, level.parents[rows], level.ranks[rows])
                mask_of = dict(zip(rows.tolist(), masks))
                for i in np.sort(chosen).tolist():
                    entry = ScoredSubgroup(
                        description=operator.describe(codes[i]),
                        indices=np.flatnonzero(mask_of[i]),
                        observed_mean=observed[level.sums_row[i]],
                        score=PatternScore(ic=float(ics[i]), dl=dl[level.lengths[i] - 1]),
                    )
                    log.add(entry.si, entry)
                    if self.observer is not None:
                        self.observer.on_candidate(entry)
                t_prune = clock.perf_counter()
                BEAM_PHASE_MERGE.observe(t_prune - t_merge)
                TRACER.record("merge", t_merge, t_prune, trace_ctx)

                beam = [(codes[i], mask_of[i].copy()) for i in survivors.tolist()]
                # The beam holds copies: free the level's masks and sums
                # before the next expansion builds its own.
                del level, codes, masks, mask_of, observed, row_ics
                t_done = clock.perf_counter()
                BEAM_PHASE_PRUNE.observe(t_done - t_prune)
                TRACER.record("prune", t_prune, t_done, trace_ctx)

        ranked = log.ranked()
        return SearchResult(
            best=ranked[0] if ranked else None,
            log=tuple(ranked),
            n_evaluated=n_evaluated,
            depth_reached=depth_reached,
            expired=expired,
        )

