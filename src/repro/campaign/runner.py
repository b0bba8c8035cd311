"""Campaign execution: adaptive sharding, resumable, deterministic.

The runner expands a :class:`~repro.campaign.grid.ParameterGrid` into
``len(grid) * trials_per_point`` trial specs, derives every trial's seed
from ``(base_seed, point key, trial index)`` via
:func:`repro.util.rng.derive_seed`, and executes the specs on one of the
executors in :mod:`repro.campaign.executors` — serial, a thread pool,
or a fork/process pool. Because seeds depend only on the campaign's
base seed and each trial's identity — never on execution order, worker
assignment, or executor kind — all three modes produce identical
records, and the aggregation (performed in spec order in every mode) is
bit-identical.

By default the executor is chosen *adaptively*: the first executed spec
doubles as a calibration probe, and the measured per-trial cost decides
whether parallelism can amortise pool startup at all (serial below the
threshold), whether trials are too tiny for process IPC (thread pool),
or whether the fork pool pays for itself (process pool) — see
:func:`repro.campaign.executors.choose_executor`. Pass ``executor=`` to
force a specific mode; ``workers=0/1`` always forces serial.

Trial functions must be module-level callables of the form
``trial_fn(params, seed) -> float | Mapping[str, float]`` so they can be
pickled to workers; anything unpicklable silently degrades to the serial
path (the results are the same, only slower).

Long sweeps get four conveniences:

* **progress** — pass ``on_progress`` and the runner reports one
  :class:`CampaignProgress` (completed/total, elapsed, ETA) per
  finished trial, in every mode;
* **result caching** — pass ``cache_dir`` and finished campaigns are
  written to disk keyed by a content hash of the campaign's identity
  (trial-function source, grid points, per-trial seeds, statistics and
  sampling configuration). Re-running an identical campaign is a no-op:
  the records are rehydrated from the cache (``mode == "cached"``, hit
  logged on the ``repro.campaign`` logger) and any drift in the code or
  the grid changes the hash and forces recomputation. The directory is
  bounded: after every write an LRU sweep (mtime order; hits refresh a
  file's mtime; the just-written entry is exempt) evicts the
  least-recently-used entries above ``cache_max_bytes``;
* **resumability** — pass ``journal_dir`` and every finished trial is
  appended to a per-campaign completion journal
  (``<journal_dir>/<name>-<fingerprint16>.jsonl``) as it lands. A
  killed sweep restarts where it stopped: recovered ``(point key,
  trial)`` identities are not re-executed, and the resumed records are
  bit-identical to an uninterrupted run's. The journal is deleted when
  the campaign completes — see :mod:`repro.campaign.journal`;
* **adaptive sampling** — pass
  ``adaptive=AdaptiveSampling(max_trials=..., ci_width=...)`` and
  ``trials_per_point`` becomes a floor: points whose confidence
  interval is still wider than ``ci_width`` keep receiving
  deterministically-seeded extra trials (up to ``max_trials``), so the
  trial budget concentrates where the variance lives — see
  :mod:`repro.campaign.sampling`.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.campaign.aggregate import Aggregator, CampaignResult, TrialRecord
from repro.campaign.executors import (
    ExecutorChoice,
    Spec,
    TrialFn,
    choose_executor,
    execute_spec,
    run_processes,
    run_serial,
    run_threads,
)
from repro.campaign.grid import GridPoint, ParameterGrid
from repro.campaign.journal import CampaignJournal, journal_path
from repro.campaign.sampling import AdaptiveSampling
from repro.util.rng import derive_seed
from repro.util.stats import RunningStats

logger = logging.getLogger("repro.campaign")

#: The executor policies ``CampaignRunner(executor=...)`` accepts.
EXECUTORS = ("adaptive", "serial", "threads", "processes")


@dataclass(frozen=True)
class CampaignProgress:
    """One progress tick, delivered after each finished trial.

    Under adaptive sampling ``total`` can grow between ticks as
    unconverged points request extra trials; ``completed`` counts both
    executed and journal-resumed trials.
    """

    name: str
    completed: int
    total: int
    elapsed_s: float
    eta_s: Optional[float]        # None until at least one trial lands
    cached: bool = False          # whole campaign served from cache

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 1.0


ProgressCallback = Callable[[CampaignProgress], None]


def trial_seed(base_seed: int, point_key: str, trial: int) -> int:
    """The deterministic seed for one trial of one grid point."""
    return derive_seed(base_seed, "campaign", point_key, str(trial))


class TracedTrial:
    """A trial function wrapped with a per-trial :class:`Tracer`.

    Module-level and picklable (the wrapped ``trial_fn`` must be, like
    any campaign trial function), so traced sweeps run on every
    executor. The head-sampling decision is made from the trial's
    ``(point key, trial)`` identity — the same identity that keys
    seeds, caches and journals — so a sampled sweep resumes and caches
    exactly like an unsampled one, and a sampled-out trial runs with
    *no* tracer installed (zero per-event cost, bit-identical results).
    """

    def __init__(self, trial_fn: TrialFn, point_key: str, trial: int,
                 sample: float) -> None:
        self.trial_fn = trial_fn
        self.point_key = point_key
        self.trial = trial
        self.sample = sample

    def __call__(self, params: Mapping[str, Any], seed: int):
        from repro.telemetry.trace import Tracer, should_sample, use_tracer

        if not should_sample(self.point_key, self.trial, self.sample):
            return self.trial_fn(params, seed)
        tracer = Tracer()
        with use_tracer(tracer):
            root = tracer.begin("campaign.trial",
                                attrs={"point": self.point_key,
                                       "trial": self.trial, "seed": seed})
            with tracer.scope(root):
                outcome = self.trial_fn(params, seed)
            tracer.finish(root)
        telemetry = None
        if isinstance(outcome, tuple):
            outcome, telemetry = outcome[0], outcome[1]
        return outcome, telemetry, tracer.snapshot_json()


_source_fingerprint_cache: Optional[str] = None


def _source_tree_fingerprint() -> str:
    """Hash of every ``repro`` source file (memoised per process).

    Trial results depend on the whole simulation stack, so the result
    cache must key on all of it — not just the trial function's own
    source. ~100 small files hash in a few milliseconds, once.
    """
    global _source_fingerprint_cache
    if _source_fingerprint_cache is None:
        import repro

        hasher = hashlib.sha256()
        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            hasher.update(str(path.relative_to(root)).encode("utf-8"))
            try:
                hasher.update(path.read_bytes())
            except OSError:
                hasher.update(b"<unreadable>")
        _source_fingerprint_cache = hasher.hexdigest()
    return _source_fingerprint_cache


def _rehydrate(entry: Optional[Mapping[str, Any]], point_index: int,
               key: str, params: Mapping[str, Any], trial: int,
               seed: int) -> Optional[TrialRecord]:
    """One cached or journaled entry as a live record, or ``None`` when
    it cannot be trusted (missing, wrong seed, malformed metrics).

    Params come from the live spec, so Python types survive the JSON
    round trip; a ``None`` makes the caller re-execute the trial.
    """
    if entry is None or entry.get("seed") != seed:
        return None
    metrics = entry.get("metrics")
    if not isinstance(metrics, dict):
        return None
    try:
        metrics = {str(k): float(v) for k, v in metrics.items()}
    except (TypeError, ValueError):
        return None
    return TrialRecord(point_index=point_index, point_key=key,
                       params=params, trial=trial, seed=seed,
                       metrics=metrics, telemetry=entry.get("telemetry"),
                       trace=entry.get("trace"))


class _Execution:
    """Shared execution state across a campaign's base pass and its
    adaptive-sampling rounds: one executor decision (made once, from
    the calibration probe), one journal, one progress stream, one
    growing completed/total count."""

    def __init__(self, runner: "CampaignRunner", name: str,
                 journal: Optional[CampaignJournal],
                 recovered: Mapping[Tuple[str, int], Mapping[str, Any]],
                 progress: Optional[ProgressCallback]) -> None:
        self._runner = runner
        self._name = name
        self._journal = journal
        self._recovered = recovered
        self._progress = progress
        self._started = time.monotonic()
        self._choice: Optional[ExecutorChoice] = None
        self._completed = 0
        self._total = 0
        self.resumed = 0

    @property
    def mode(self) -> str:
        if self._choice is not None:
            return self._choice.mode
        return "resumed" if self.resumed else "serial"

    # ------------------------------------------------------------------

    def run_specs(self, specs: List[Spec]) -> List[TrialRecord]:
        """Execute ``specs`` (skipping journal-recovered identities) and
        return their records in spec order."""
        self._total += len(specs)
        slots: List[Optional[TrialRecord]] = [None] * len(specs)
        slot_of: Dict[Tuple[str, int], int] = {}
        pending: List[Spec] = []
        for index, spec in enumerate(specs):
            record = _rehydrate(self._recovered.get((spec[2], spec[4])),
                                *spec[1:])
            if record is not None:
                slots[index] = record
                self.resumed += 1
                self._tick()
            else:
                slot_of[(spec[2], spec[4])] = index
                pending.append(spec)

        def emit(record: TrialRecord) -> None:
            slots[slot_of[(record.point_key, record.trial)]] = record
            if self._journal is not None and record.error is None:
                # Errored trials stay out of the journal so a resumed
                # run re-executes them instead of trusting the crash.
                self._journal.append(record)
            self._tick()

        if pending:
            if self._choice is None:
                pending = self._decide(pending, emit)
            self._dispatch(pending, emit)
        assert all(record is not None for record in slots)
        return slots  # type: ignore[return-value]

    # ------------------------------------------------------------------

    def _decide(self, pending: List[Spec],
                emit: Callable[[TrialRecord], None]) -> List[Spec]:
        """Fix the executor choice; returns the specs still to run
        (adaptive mode consumes the first one as its timing probe)."""
        runner = self._runner
        cap = runner._workers if runner._workers is not None \
            else (os.cpu_count() or 1)
        if cap <= 1 or runner._executor == "serial" or len(pending) == 1:
            self._choice = ExecutorChoice("serial", 1)
            return pending
        if runner._executor in ("threads", "processes"):
            # Forced executors honour the explicit worker count (capped
            # only by the amount of work there is to share).
            workers = max(1, min(cap, len(pending)))
            self._choice = ExecutorChoice(runner._executor, workers)
            return pending
        started = time.perf_counter()
        emit(execute_spec(pending[0]))
        per_spec_s = time.perf_counter() - started
        self._choice = choose_executor(per_spec_s, len(pending) - 1, cap)
        logger.debug("campaign %r: calibration probe %.3gs/trial -> %s",
                     self._name, per_spec_s, self._choice.mode)
        return pending[1:]

    def _dispatch(self, pending: List[Spec],
                  emit: Callable[[TrialRecord], None]) -> None:
        if not pending:
            return
        choice = self._choice
        assert choice is not None
        if choice.kind == "threads":
            run_threads(pending, choice.workers, self._runner._chunk_size,
                        emit)
            return
        if choice.kind == "processes":
            if run_processes(pending, choice.workers,
                             self._runner._chunk_size, emit) is not None:
                return
            # Unpicklable specs or no process support: the serial path
            # gives identical results, only slower.
            self._choice = ExecutorChoice("serial", 1)
        run_serial(pending, emit)

    def _tick(self) -> None:
        self._completed += 1
        if self._progress is None:
            return
        elapsed = time.monotonic() - self._started
        remaining = self._total - self._completed
        eta = (elapsed / self._completed * remaining
               if self._completed else None)
        self._progress(CampaignProgress(
            name=self._name, completed=self._completed, total=self._total,
            elapsed_s=elapsed, eta_s=eta))


class CampaignRunner:
    """Run every trial of a parameter grid and aggregate the results.

    :param trial_fn: module-level callable ``(params, seed) -> metrics``.
        A scalar return value becomes the metric ``"value"``.
    :param trials_per_point: how many independently seeded trials to run
        at each grid point. With ``adaptive`` set this is a *floor*
        (effective minimum 2 — variance needs two samples).
    :param base_seed: root of the per-trial seed derivation.
    :param workers: worker budget. ``None`` uses ``os.cpu_count()``;
        ``0`` or ``1`` forces the serial path; an explicit count is
        honoured by the forced executors and treated as a cap by the
        adaptive one (which also never exceeds the machine's cores).
    :param executor: ``"adaptive"`` (default: measure the first trial,
        then pick serial / threads / processes — see
        :func:`repro.campaign.executors.choose_executor`), or force
        ``"serial"``, ``"threads"`` or ``"processes"``. All modes
        produce bit-identical records.
    :param chunk_size: trials per work unit handed to a worker. Defaults
        to spreading the specs roughly four chunks per worker, so slow
        grid points do not serialise the whole campaign behind them.
    :param confidence: confidence level for aggregate intervals (and
        for ``adaptive``'s convergence test).
    :param adaptive: an :class:`~repro.campaign.sampling.AdaptiveSampling`
        policy, or ``None`` for the classic fixed trial count.
    :param include_telemetry: export each trial's registry snapshot
        (when the trial function attaches one) into the aggregated
        result and its JSON — see ``Aggregator``.
    :param include_traces: run each trial under a per-trial
        :class:`~repro.telemetry.Tracer` and export the trace snapshot
        into the record, the aggregated result and its JSON. Traces are
        deterministic (virtual timestamps, counter span IDs) so all
        executors produce identical ones.
    :param trace_sample: head-sampling rate for traced runs — the
        fraction of ``(point, trial)`` identities that actually carry a
        tracer (default 1.0, everything). Sampling is keyed on the same
        identity as the seeds, so it is stable across executors,
        resumes and cache hits; sampled-out trials run tracer-free at
        zero cost.
    :param name: campaign label carried into the result/JSON.
    :param cache_dir: directory for content-hashed result caching; when
        set, rerunning an identical campaign loads its records instead
        of recomputing them.
    :param cache_max_bytes: size cap on ``cache_dir``. After each cache
        write, least-recently-used entries (by mtime; cache hits touch
        their file; the entry just written is exempt) are evicted until
        the directory fits. ``None`` disables the sweep.
    :param journal_dir: directory for per-campaign completion journals;
        when set, an interrupted campaign resumes where it stopped on
        the next run — see :mod:`repro.campaign.journal`.
    :param on_progress: default progress callback (see
        :class:`CampaignProgress`); :meth:`run` can override per run.
    """

    #: Default cache size cap: plenty for every stock benchmark's
    #: records while keeping an unattended results/.cache bounded.
    DEFAULT_CACHE_MAX_BYTES = 64 * 1024 * 1024

    def __init__(self, trial_fn: TrialFn, *, trials_per_point: int = 1,
                 base_seed: int = 0, workers: Optional[int] = None,
                 executor: str = "adaptive",
                 chunk_size: Optional[int] = None,
                 confidence: float = 0.95,
                 adaptive: Optional[AdaptiveSampling] = None,
                 include_telemetry: bool = False,
                 include_traces: bool = False, trace_sample: float = 1.0,
                 name: str = "campaign",
                 cache_dir: "Optional[Path | str]" = None,
                 cache_max_bytes: Optional[int] = DEFAULT_CACHE_MAX_BYTES,
                 journal_dir: "Optional[Path | str]" = None,
                 on_progress: Optional[ProgressCallback] = None) -> None:
        if trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if workers is not None and workers < 0:
            raise ValueError("workers must be >= 0")
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, "
                             f"got {executor!r}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if cache_max_bytes is not None and cache_max_bytes < 1:
            raise ValueError("cache_max_bytes must be >= 1 (or None)")
        if adaptive is not None and not isinstance(adaptive, AdaptiveSampling):
            raise TypeError("adaptive must be an AdaptiveSampling (or None)")
        if not 0.0 <= trace_sample <= 1.0:
            raise ValueError(
                f"trace_sample must be in [0, 1], got {trace_sample}")
        self._trial_fn = trial_fn
        self._trials_per_point = trials_per_point
        self._base_seed = int(base_seed)
        self._workers = workers
        self._executor = executor
        self._chunk_size = chunk_size
        self._confidence = confidence
        self._adaptive = adaptive
        self._include_telemetry = include_telemetry
        self._include_traces = include_traces
        self._trace_sample = float(trace_sample)
        self._name = name
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._cache_max_bytes = cache_max_bytes
        self._journal_dir = (Path(journal_dir) if journal_dir is not None
                             else None)
        self._on_progress = on_progress
        if adaptive is not None and adaptive.max_trials < self._floor:
            raise ValueError(
                f"adaptive.max_trials ({adaptive.max_trials}) is below the "
                f"per-point floor ({self._floor})")

    @property
    def _floor(self) -> int:
        """Trials every point starts with. Adaptive sampling needs two
        samples before a variance estimate exists, hence the minimum."""
        if self._adaptive is not None:
            return max(self._trials_per_point, 2)
        return self._trials_per_point

    # ------------------------------------------------------------------
    # Spec expansion.
    # ------------------------------------------------------------------

    def specs(self, grid: ParameterGrid) -> List[Spec]:
        """Every base (point, trial) pair in deterministic expansion
        order (the floor only — adaptive rounds extend this)."""
        return self._base_specs(grid.points())

    def _base_specs(self, points: List[GridPoint]) -> List[Spec]:
        return [self._make_spec(point, trial)
                for point in points
                for trial in range(self._floor)]

    def _make_spec(self, point: GridPoint, trial: int) -> Spec:
        trial_fn = self._trial_fn
        if self._include_traces:
            trial_fn = TracedTrial(trial_fn, point.key, trial,
                                   self._trace_sample)
        return (trial_fn, point.index, point.key, point.params,
                trial, trial_seed(self._base_seed, point.key, trial))

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(self, grid: ParameterGrid,
            on_progress: Optional[ProgressCallback] = None) -> CampaignResult:
        """Execute the campaign and return its aggregated result.

        With ``cache_dir`` configured, an identical earlier run is
        served from its cache file (``mode == "cached"``) instead of
        recomputing anything; with ``journal_dir`` configured, an
        earlier *interrupted* run is resumed instead of restarted.
        """
        progress = on_progress or self._on_progress
        points = grid.points()
        specs = self._base_specs(points)
        name = grid.name or self._name
        fingerprint = self._fingerprint(name, specs)
        cache_path = self._cache_path(name, fingerprint)

        cached = self._load_cache(cache_path, specs, points)
        if cached is not None:
            logger.info("campaign %r: cache hit (%d records at %s); "
                        "skipping execution", name, len(cached), cache_path)
            self._touch_cache(cache_path)
            if progress is not None:
                progress(CampaignProgress(name=name, completed=len(cached),
                                          total=len(cached), elapsed_s=0.0,
                                          eta_s=0.0, cached=True))
            return self._finalise(name, cached, mode="cached")

        journal = None
        recovered: Dict[Tuple[str, int], Any] = {}
        if self._journal_dir is not None:
            journal = CampaignJournal(
                journal_path(self._journal_dir, name, fingerprint))
            recovered = journal.recover()

        execution = _Execution(self, name, journal, recovered, progress)
        try:
            records = execution.run_specs(specs)
            if self._adaptive is not None:
                records = self._adaptive_rounds(points, records, execution)
        finally:
            if journal is not None:
                journal.close()
        if all(record.error is None for record in records):
            self._write_cache(cache_path, records)
            if journal is not None:
                journal.discard()
        # A sweep with crashed trials keeps its journal and writes no
        # cache: the next run resumes the successful records and
        # re-executes exactly the failed identities.
        return self._finalise(name, records, mode=execution.mode,
                              resumed=execution.resumed)

    def _adaptive_rounds(self, points: List[GridPoint],
                         records: List[TrialRecord],
                         execution: _Execution) -> List[TrialRecord]:
        """Keep adding trials to unconverged points until every point's
        CI is narrow enough or its ``max_trials`` budget is spent.

        Deterministic end to end: the decision to add trials depends
        only on the records, which depend only on the seeds — so serial,
        threaded, process and resumed runs all expand (and record) the
        exact same trial set.
        """
        adaptive = self._adaptive
        assert adaptive is not None
        stats: Dict[str, Dict[str, RunningStats]] = {}
        trials_done: Dict[str, int] = {}

        def fold(record: TrialRecord) -> None:
            trials_done[record.point_key] = \
                trials_done.get(record.point_key, 0) + 1
            per_metric = stats.setdefault(record.point_key, {})
            for metric, value in record.metrics.items():
                per_metric.setdefault(metric, RunningStats()).add(value)

        for record in records:
            fold(record)
        while True:
            requests: List[Spec] = []
            for point in points:
                done = trials_done.get(point.key, 0)
                if done >= adaptive.max_trials:
                    continue
                if self._converged(stats.get(point.key, {}), done):
                    continue
                batch = adaptive.next_batch(done)
                requests.extend(self._make_spec(point, trial)
                                for trial in range(done, done + batch))
            if not requests:
                break
            fresh = execution.run_specs(requests)
            records.extend(fresh)
            for record in fresh:
                fold(record)
        # Canonical record order: base specs land point-major already;
        # adaptive rounds interleave, so normalise before aggregation —
        # every mode folds the same records in the same order.
        records.sort(key=lambda record: (record.point_index, record.trial))
        return records

    def _converged(self, per_metric: Mapping[str, RunningStats],
                   done: int) -> bool:
        """Whether a point's CI is already narrow enough to stop."""
        adaptive = self._adaptive
        assert adaptive is not None
        if done < 2:
            return False
        if adaptive.metric is not None:
            watched = per_metric.get(adaptive.metric)
            if watched is None:      # point never reports it: nothing to do
                return True
            return watched.ci_width(self._confidence) <= adaptive.ci_width
        return all(stats.ci_width(self._confidence) <= adaptive.ci_width
                   for stats in per_metric.values())

    def _finalise(self, name: str, records: List[TrialRecord],
                  mode: str, resumed: int = 0) -> CampaignResult:
        aggregator = Aggregator(confidence=self._confidence,
                                include_telemetry=self._include_telemetry,
                                include_traces=self._include_traces)
        aggregator.extend(records)
        return CampaignResult(
            name=name, base_seed=self._base_seed,
            trials_per_point=self._trials_per_point, mode=mode,
            records=records, summaries=aggregator.summaries(),
            executor=self._executor, resumed=resumed,
            failed=sum(1 for record in records if record.error is not None))

    # ------------------------------------------------------------------
    # Content-hash result caching.
    # ------------------------------------------------------------------

    def _fingerprint(self, name: str, specs: List[Spec]) -> str:
        """Content hash of everything that determines the records.

        Covers the whole ``repro`` source tree (a trial function's
        results depend on the entire simulation stack beneath it, so
        *any* code edit must invalidate the cache), the trial function's
        identity, the statistics and sampling configuration, and every
        base spec's identity — point key, canonical parameter rendering,
        trial index and derived seed (which folds in the base seed).
        The executor and worker count are deliberately excluded: they
        cannot change the records.

        Known limits: helpers a trial function calls *outside* the
        ``repro`` tree are only covered through the function's own
        source, and the tree hash is memoised per process — keep trial
        logic inside ``repro`` (all stock trials are) and don't edit
        sources mid-run if you rely on invalidation.
        """
        try:
            fn_identity = inspect.getsource(self._trial_fn)
        except (OSError, TypeError):
            fn_identity = repr(self._trial_fn)
        hasher = hashlib.sha256()
        adaptive = self._adaptive
        payload = {
            "name": name,
            "code": _source_tree_fingerprint(),
            "trial_fn": f"{getattr(self._trial_fn, '__module__', '?')}."
                        f"{getattr(self._trial_fn, '__qualname__', '?')}",
            "source": fn_identity,
            "confidence": self._confidence,
            "adaptive": ([adaptive.max_trials, adaptive.ci_width,
                          adaptive.metric] if adaptive is not None else None),
            # Tracing changes record *content* (unlike the executor or
            # worker count), so traced and untraced runs must not share
            # a cache entry or a journal.
            "traces": ([self._trace_sample]
                       if self._include_traces else None),
            "specs": [
                [key, trial, seed,
                 repr(sorted(params.items(), key=lambda kv: kv[0]))]
                for _, _, key, params, trial, seed in specs
            ],
        }
        hasher.update(json.dumps(payload, sort_keys=True).encode("utf-8"))
        return hasher.hexdigest()

    def _cache_path(self, name: str, fingerprint: str) -> Optional[Path]:
        if self._cache_dir is None:
            return None
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
        return self._cache_dir / f"{safe}-{fingerprint[:16]}.json"

    def _load_cache(self, cache_path: Optional[Path], specs: List[Spec],
                    points: List[GridPoint]) -> Optional[List[TrialRecord]]:
        """Rehydrate records from a cache file, or ``None`` on any
        mismatch (missing file, corrupt JSON, changed specs)."""
        if cache_path is None or not cache_path.exists():
            return None
        try:
            payload = json.loads(cache_path.read_text())
            by_identity: Dict[Tuple[str, int], Dict[str, Any]] = {
                (entry["point_key"], entry["trial"]): entry
                for entry in payload["records"]
            }
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if self._adaptive is not None:
            return self._load_adaptive_cache(by_identity, points)
        records = []
        for _, point_index, key, params, trial, seed in specs:
            record = _rehydrate(by_identity.get((key, trial)),
                                point_index, key, params, trial, seed)
            if record is None:
                return None
            records.append(record)
        return records

    def _load_adaptive_cache(
            self, by_identity: Dict[Tuple[str, int], Dict[str, Any]],
            points: List[GridPoint]) -> Optional[List[TrialRecord]]:
        """Adaptive campaigns cache a *variable* number of trials per
        point. The cached set is trusted iff each point's trials are
        contiguous from 0, within ``[floor, max_trials]``, and every
        seed matches its derivation — determinism guarantees a re-run
        would reproduce exactly that set."""
        adaptive = self._adaptive
        assert adaptive is not None
        records = []
        for point in points:
            trials = sorted(trial for key, trial in by_identity
                            if key == point.key)
            count = len(trials)
            if (count < self._floor or count > adaptive.max_trials
                    or trials != list(range(count))):
                return None
            for trial in trials:
                record = _rehydrate(
                    by_identity[(point.key, trial)], point.index, point.key,
                    point.params, trial,
                    trial_seed(self._base_seed, point.key, trial))
                if record is None:
                    return None
                records.append(record)
        return records

    def _write_cache(self, cache_path: Optional[Path],
                     records: List[TrialRecord]) -> None:
        if cache_path is None:
            return
        from repro.campaign.aggregate import json_value

        payload = {
            # Self-description: each record carries its parameters
            # (specs render as their full nested dict), so a cache file
            # alone says exactly which worlds produced it.  Only
            # point_key/trial/seed/metrics/telemetry are read back.
            "records": [
                {"point_key": record.point_key, "trial": record.trial,
                 "seed": record.seed, "metrics": dict(record.metrics),
                 "params": {name: json_value(value)
                            for name, value in record.params.items()},
                 **({"telemetry": record.telemetry}
                    if record.telemetry is not None else {}),
                 **({"trace": record.trace}
                    if record.trace is not None else {})}
                for record in records
            ],
        }
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            cache_path.write_text(json.dumps(payload, sort_keys=True))
        except OSError:  # caching is best-effort, never fatal
            logger.warning("campaign cache write failed at %s", cache_path)
            return
        self._sweep_cache(protect=cache_path)

    @staticmethod
    def _touch_cache(cache_path: Optional[Path]) -> None:
        """Refresh a hit entry's mtime so the LRU sweep keeps it."""
        if cache_path is None:
            return
        try:
            os.utime(cache_path, None)
        except OSError:
            pass

    def _sweep_cache(self, protect: Optional[Path] = None) -> None:
        """Evict least-recently-used cache files above the size cap.

        mtime is the recency signal: writes create files and hits touch
        them, so eviction order tracks actual use. Ties break on name
        for determinism. ``protect`` (the entry this sweep is running
        on behalf of) is always exempt — without it, a single entry
        larger than the cap would evict *itself* immediately after
        being written, turning every run into a write/evict loop.
        Best-effort like the rest of the cache — a vanished file
        (concurrent campaign) is simply skipped.
        """
        if self._cache_dir is None or self._cache_max_bytes is None:
            return
        entries = []
        for path in self._cache_dir.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path.name, stat.st_size, path))
        total = sum(size for _, _, size, _ in entries)
        if total <= self._cache_max_bytes:
            return
        for _, _, size, path in sorted(entries):
            if protect is not None and path == protect:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            logger.info(
                "campaign cache: evicted %s (%d bytes, LRU sweep; "
                "%d bytes still cached, cap %d)",
                path, size, total, self._cache_max_bytes)
            if total <= self._cache_max_bytes:
                return
