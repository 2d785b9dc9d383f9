"""The three workloads and the metrics each run reports.

``crime-location`` and ``mammals-spread`` mine inline through
``Workspace.stream(MiningSpec)``; ``served-sessions`` drives a
``python -m repro serve`` process with two closed-loop
``RemoteWorkspace.stream`` clients. Every run starts from cold
process-wide caches, and a served run boots its own server processes.

Timings are taken as clock readings while a :class:`Speedometer` samples
the speed of the CPUs the work runs on, and reported in reference-core
seconds (see ``perfbench/speed.py``); the wall seconds are kept beside
them. An inline run pins itself to one CPU, so that its one sampling
thread measures the core the miner runs on; a served run samples both.

A run returns a :class:`Outcome`; ``perfbench/run.py`` prints it.
"""

from __future__ import annotations

import gc
import json
import os
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from pathlib import Path

from perfbench import checks
from perfbench.speed import Speedometer, clock
from perfbench.tracing import Tracer, install_client, install_engine

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: The paper's search settings (also the spec defaults, stated here so a
#: change of defaults cannot silently change the workload).
PAPER_SEARCH = {"beam_width": 40, "max_depth": 4, "top_k": 150}
#: The smoke test's search settings.
TOY_SEARCH = {"beam_width": 4, "max_depth": 2, "top_k": 10}
#: Every workload mines the datasets generated at this seed; ``--seed``
#: drives the mining seeds. Dataset seeds change the work itself (one
#: synthetic seed makes every served request 3x slower), which would
#: swamp the change a benchmark run is meant to see.
DATASET_SEED = 0

#: A timed inline run repeats its job until ``--seconds`` have passed.
INLINE = {
    "crime-location": {"dataset": "crime", "kind": "location", "steps": 2},
    "mammals-spread": {"dataset": "mammals", "kind": "spread", "steps": 2},
}

#: Cold set-ups per inline run, about half before the jobs and half
#: after, so that their median samples the whole run; ``setup_s`` is it.
SETUP_REPEATS = 15
#: Server boots per served run, split the same way around the load
#: phase (the last boot before it serves the load); ``setup_s`` is
#: their median.
BOOTS = 5
#: Served plan: sessions of n_iterations = 1, 2, 3 on one dataset.
SESSIONS = 40
SESSION_STEPS = (1, 2, 3)
CLIENTS = 2
#: Give up on a server that has not announced itself by then.
BOOT_TIMEOUT = 60.0
#: Tolerance of the traced run's beam cross-check: the wrapper's
#: ``LocationBeamSearch.run`` seconds against the sum of the program's
#: own ``sisd_beam_phase_seconds`` deltas.
CROSSCHECK_TOL = 0.10


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: The timing metrics again, in wall seconds instead of reference seconds.
    wall: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: dict[str, str] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    #: The issue's predicted splits for the traced run: (claim, holds).
    predictions: list[tuple[str, bool]] = field(default_factory=list)


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #
def cold_caches() -> None:
    """Empty the process-wide caches a previous job could have filled.

    The refinement operator's mask memo lives on the operator, which
    every miner builds afresh, so it starts cold with each job.
    """
    from repro.engine.cache import BELIEF_CACHE, DATASET_CACHE

    DATASET_CACHE.clear()
    BELIEF_CACHE.clear()
    gc.collect()


def pin_to_one_cpu() -> int:
    """Pin this thread, and the threads it starts later, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def timings(speed: Speedometer, spans: list[tuple[float, float]]):
    """(reference seconds, wall seconds) of each ``(start, end)`` reading."""
    return [speed.scaled(a, b) for a, b in spans], [b - a for a, b in spans]


def p90(values: list[float]) -> float:
    """90th percentile, or the median when there are too few samples.

    A p90 needs at least ten samples beyond it to be read from the run;
    with fewer samples (an inline run's one or two jobs) it would only
    echo the slowest job, so the median stands in for it.
    """
    if len(values) < 11:
        return statistics.median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def parse_metrics(text: str) -> dict[tuple[str, tuple], float]:
    """Prometheus text as ``{(sample name, sorted labels): value}``."""
    samples: dict[tuple[str, tuple], float] = {}
    pattern = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        samples[(name, tuple(sorted(pattern.findall(labels))))] = float(value)
    return samples


def registry_delta(before: dict, after: dict) -> dict[str, float]:
    """The counters this report needs, as after - before."""

    def get(samples, name, **labels):
        return samples.get((name, tuple(sorted(labels.items()))), 0.0)

    def delta(name, **labels):
        return get(after, name, **labels) - get(before, name, **labels)

    out = {
        f"phase.{phase}": delta("sisd_beam_phase_seconds_sum", phase=phase)
        for phase in ("candidate_gen", "score", "merge", "prune")
    }
    out.update(
        {
            f"step.{phase}": delta("sisd_step_phase_seconds_sum", phase=phase)
            for phase in ("location", "spread")
        }
    )
    out.update(
        belief_hits=delta("sisd_belief_cache_hits"),
        belief_misses=delta("sisd_belief_cache_misses"),
        steps_mined=delta("sisd_miner_steps_total", outcome="mined"),
        steps_replayed=delta("sisd_miner_steps_total", outcome="replayed"),
        queue_wait_sum=delta("sisd_queue_wait_seconds_sum"),
        queue_wait_count=delta("sisd_queue_wait_seconds_count"),
        jobs_done=delta("sisd_jobs_finished_total", state="done"),
        events_published=delta("sisd_events_published"),
        events_dropped=delta("sisd_events_dropped"),
        http_requests=sum(
            after[key] - before.get(key, 0.0)
            for key in after
            if key[0] == "sisd_http_requests_total"
        ),
    )
    return out


def layer_metrics(totals: dict, delta: dict, latency_s: float) -> dict[str, float]:
    """Per-layer metrics from wrapper totals and a registry delta.

    ``latency_s`` is the request latency the engine share is taken of:
    the job time inline, the summed request latency when served.
    """
    sec, self_sec, counts, gauges = (
        totals["seconds"], totals["self_seconds"], totals["counts"], totals["gauges"]
    )
    refinements = counts.get("lang.refinements", 0)
    candidates = counts.get("beam.candidates", 0)
    beam_run = sec.get("beam.run", 0.0)
    lookups = delta["belief_hits"] + delta["belief_misses"]
    step_s = delta["step.location"] + delta["step.spread"]
    phases = sum(delta[f"phase.{p}"] for p in ("candidate_gen", "score", "merge", "prune"))
    return {
        "datasets.load_s": sec.get("datasets.load", 0.0),
        "lang.operator_build_s": sec.get("lang.operator_build", 0.0),
        "lang.refine_s": sec.get("lang.refine", 0.0),
        "lang.refinements": refinements,
        "lang.mask_s": sec.get("lang.mask", 0.0),
        "lang.mask_calls": counts.get("lang.mask", 0),
        "beam.run_s": beam_run,
        "beam.self_s": self_sec.get("beam.run", 0.0),
        "beam.scorer_build_s": sec.get("beam.scorer_build", 0.0),
        "beam.score_uniform_s": sec.get("beam.score_uniform", 0.0),
        "beam.score_general_s": sec.get("beam.score_general", 0.0),
        "beam.candidates": candidates,
        "beam.candidates_general": counts.get("beam.candidates_general", 0),
        "beam.materialised": counts.get("beam.materialised", 0),
        "beam.admit_ratio": candidates / refinements if refinements else 0.0,
        "beam.candidates_per_s": candidates / beam_run if beam_run else 0.0,
        "model.prior_fit_s": sec.get("model.prior_fit", 0.0),
        "model.assimilate_s": sec.get("model.assimilate", 0.0),
        "model.assimilate_calls": counts.get("model.assimilate", 0),
        "model.blocks": gauges.get("model.blocks", 0),
        "interest.score_s": sec.get("interest.score_spread", 0.0),
        "spread.search_s": sec.get("spread.search", 0.0),
        "spread.objective_evals": counts.get("spread.objective_evals", 0),
        "spread.ascent_iterations": counts.get("spread.ascent_iterations", 0),
        "cache.belief_hits": delta["belief_hits"],
        "cache.belief_misses": delta["belief_misses"],
        "cache.belief_hit_ratio": delta["belief_hits"] / lookups if lookups else 0.0,
        "miner.steps_mined": delta["steps_mined"],
        "miner.steps_replayed": delta["steps_replayed"],
        "service.queue_wait_s": delta["queue_wait_sum"],
        "service.queue_wait_s.mean": (
            delta["queue_wait_sum"] / delta["queue_wait_count"]
            if delta["queue_wait_count"]
            else 0.0
        ),
        "service.jobs_done": delta["jobs_done"],
        "server.events_published": delta["events_published"],
        "server.events_dropped": delta["events_dropped"],
        "server.http_requests": delta["http_requests"],
        **{f"engine.beam_phase_s.{p}": delta[f"phase.{p}"]
           for p in ("candidate_gen", "score", "merge", "prune")},
        "engine.step_phase_s.location": delta["step.location"],
        "engine.step_phase_s.spread": delta["step.spread"],
        "engine.share": step_s / latency_s if latency_s else 0.0,
        "engine.beam_share": phases / latency_s if latency_s else 0.0,
        "trace.crosscheck_gap": abs(beam_run - phases) / beam_run if beam_run else 0.0,
    }


def crosscheck(metrics: dict[str, float]) -> tuple[str, bool, str]:
    """Wrapper beam time against the program's own phase histograms."""
    phases = sum(
        metrics[f"engine.beam_phase_s.{p}"]
        for p in ("candidate_gen", "score", "merge", "prune")
    )
    gap = metrics["trace.crosscheck_gap"]
    ok = metrics["beam.run_s"] > 0 and gap <= CROSSCHECK_TOL
    return (
        "crosscheck",
        ok,
        f"beam.run {metrics['beam.run_s']:.4f} s vs phase sum {phases:.4f} s "
        f"(gap {gap:.2%}, tolerance {CROSSCHECK_TOL:.0%})",
    )


# --------------------------------------------------------------------- #
# Inline workloads
# --------------------------------------------------------------------- #
def inline_spec(name: str, seed: int, toy: bool):
    from repro import MiningSpec

    cfg = INLINE[name]
    return MiningSpec.build(
        cfg["dataset"],
        kind=cfg["kind"],
        n_iterations=cfg["steps"],
        dataset_seed=DATASET_SEED,
        seed=seed,
        **(TOY_SEARCH if toy else PAPER_SEARCH),
    )


@dataclass
class Job:
    """One cold ``Workspace.stream`` job, as clock readings."""

    start: float
    first: float
    end: float
    iterations: list
    error: str | None


def mine_job(spec) -> Job:
    """Mine ``spec`` from cold caches; a failed step is counted, not fatal."""
    from repro import Workspace

    cold_caches()
    workspace = Workspace()
    iterations: list = []
    first = None
    error = None
    start = clock()
    try:
        for iteration in workspace.stream(spec):
            if first is None:
                first = clock()
            iterations.append(iteration)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    end = clock()
    return Job(start, end if first is None else first, end, iterations, error)


def _inline_checks(name: str, spec, seed: int, toy: bool, iterations) -> list:
    from repro.engine.cache import load_dataset_cached

    found = []
    if iterations:
        dataset = load_dataset_cached(spec.dataset.name, seed=spec.dataset.seed)
        found.append(
            checks.first_step_check(
                dataset, iterations[0], spec.interest.gamma, spec.interest.eta
            )
        )
    found.append(checks.spread_norm_check(iterations))
    if seed == checks.REFERENCE_SEED and not toy:
        found.append(checks.reference_check(name, iterations))
    return found


def _registry_samples() -> dict:
    from repro.obs.instruments import METRICS

    return parse_metrics(METRICS.render())


def run_inline(name: str, seed: int, seconds: float, toy: bool, trace: bool) -> Outcome:
    from repro.api import build_miner

    spec = inline_spec(name, seed, toy)
    steps = spec.search.n_iterations
    with Speedometer([pin_to_one_cpu()]) as speed:
        if trace:
            return _trace_inline(name, spec, seed, toy, speed)

        setups: list[tuple[float, float]] = []

        def set_up(times: int) -> None:
            for _ in range(times):
                cold_caches()
                start = clock()
                miner = build_miner(spec)
                setups.append((start, clock()))
                del miner

        set_up(1 if toy else SETUP_REPEATS - SETUP_REPEATS // 2)
        jobs = []
        phase_start = clock()
        while True:
            jobs.append(mine_job(spec))
            if jobs[-1].error is not None or clock() - phase_start >= seconds:
                break
        phase_end = clock()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        set_up(1 if toy else SETUP_REPEATS // 2)

    setup, setup_wall = timings(speed, setups)
    firsts, firsts_wall = timings(speed, [(j.start, j.first) for j in jobs])
    totals, totals_wall = timings(speed, [(j.start, j.end) for j in jobs])
    (phase,), (phase_wall,) = timings(speed, [(phase_start, phase_end)])
    errors = [job.error for job in jobs if job.error is not None]
    done = len(jobs) - len(errors)
    failed = sum(steps - len(job.iterations) for job in jobs)
    found = [("steps", not errors, errors[0] if errors else f"{len(jobs)} job(s) x {steps} steps")]
    for job in jobs[1:]:
        found.append(checks.same_iterations("repeat", jobs[0].iterations, job.iterations))
    found += _inline_checks(name, spec, seed, toy, jobs[0].iterations)

    def report(setup, firsts, totals, phase):
        return {
            "setup_s": statistics.median(setup),
            "first_pattern_s": statistics.median(firsts),
            "job_s": statistics.median(totals),
            # Inline, one request is one stream() call: the whole job.
            "request_s.p50": statistics.median(totals),
            "request_s.p90": p90(totals),
            "requests_per_s": done / phase,
        }

    return Outcome(
        metrics={**report(setup, firsts, totals, phase), "peak_rss_mb": peak_rss_mb},
        wall=report(setup_wall, firsts_wall, totals_wall, phase_wall),
        attempted=steps * len(jobs),
        failed=failed,
        checks=found,
        notes={
            "request_s.p50": "inline, a request is one stream() call (one job), so "
            "p50 = job_s; with fewer than 11 jobs p90 is the median too",
        },
        detail={
            "setup_samples_s": setup,
            "jobs": [{"first_pattern_s": f, "job_s": t} for f, t in zip(firsts, totals)],
            "speed": speed.summary(),
            "steps": [checks.step_summary(it) for it in jobs[0].iterations],
        },
    )


def _trace_inline(name: str, spec, seed: int, toy: bool, speed: Speedometer) -> Outcome:
    """Untraced job, then the same job with every layer wrapped."""
    steps = spec.search.n_iterations
    plain = mine_job(spec)
    tracer = Tracer()
    tracer.set_request(f"{name}-seed{seed}")
    before = _registry_samples()
    patches = install_engine(tracer)
    try:
        traced = tracer.call("workspace.stream", mine_job, spec)
    finally:
        patches.restore()
    delta = registry_delta(before, _registry_samples())
    traced_s = traced.end - traced.start
    metrics = layer_metrics(tracer.totals(), delta, traced_s)
    spans = tracer.spans()
    metrics.update(
        {
            "client.first_event_s.p50": 0.0,
            "client.new_pattern_s.p50": 0.0,
            "client.tail_s.p50": 0.0,
            "client.events_per_request": 0.0,
            "trace.overhead_frac": speed.scaled(traced.start, traced.end)
            / speed.scaled(plain.start, plain.end) - 1.0,
        }
    )
    errors = [job.error for job in (plain, traced) if job.error is not None]
    found = [
        ("steps", not errors, errors[0] if errors else f"2 jobs x {steps} steps"),
        checks.same_iterations("traced-equals-untraced", plain.iterations, traced.iterations),
        crosscheck(metrics),
    ]
    found += _inline_checks(name, spec, seed, toy, traced.iterations)
    notes = {
        "client.*": "inline has no client layer",
        "service.*, server.*": "inline runs no service or server",
        "cache.*": "inline Workspace runs without a belief cache",
    }
    if name == "crime-location":
        notes["spread.*, interest.score_s"] = "location-only workload: no spread step"
        notes["beam.score_general_s"] = "location updates keep one covariance: uniform path only"
        spread_spans = [s for s in spans if s["name"].startswith("spread.")]
        predictions = [(
            "beam.candidates_general = 0 and no spread.* spans",
            metrics["beam.candidates_general"] == 0 and not spread_spans,
        )]
    else:
        predictions = [(
            f"beam.score_general_s ({metrics['beam.score_general_s']:.2f} s) is more than "
            f"half of job_s ({traced_s:.2f} s)",
            metrics["beam.score_general_s"] > 0.5 * traced_s,
        )]
    return Outcome(
        metrics=metrics,
        attempted=2 * steps,
        failed=2 * steps - len(plain.iterations) - len(traced.iterations),
        checks=found,
        notes=notes,
        detail={"job_s_untraced": plain.end - plain.start, "job_s_traced": traced_s},
        spans=spans,
        predictions=predictions,
    )


# --------------------------------------------------------------------- #
# Served workload
# --------------------------------------------------------------------- #
def server_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def http_get(port: int, path: str, timeout: float = 10.0) -> tuple[int, str]:
    conn = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


class Server:
    """One server process: spawned, announced, healthy, then stopped."""

    def __init__(self, argv: list[str], log: Path) -> None:
        log.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log, "w", encoding="utf-8")
        self.start = start = clock()
        self.process = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=server_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            self.port = self._announced_port()
            while True:
                try:
                    if http_get(self.port, "/health")[0] == 200:
                        break
                except OSError:
                    pass
                if clock() - start > BOOT_TIMEOUT:
                    raise RuntimeError("server never answered /health")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.ready = clock()

    def _announced_port(self) -> int:
        deadline = clock() + BOOT_TIMEOUT
        while clock() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if ready:
                line = self.process.stdout.readline()
                if not line:
                    break
                match = re.search(r"listening on http://[\d.]+:(\d+)", line)
                if match:
                    return int(match.group(1))
            elif self.process.poll() is not None:
                break
        raise RuntimeError(f"server did not announce a port (exit {self.process.poll()})")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def metrics(self) -> dict:
        return parse_metrics(http_get(self.port, "/metrics")[1])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def serve_argv(traced_out: Path | None = None) -> list[str]:
    tail = ["serve", "--quiet", "--port", "0"]
    if traced_out is None:
        return [sys.executable, "-m", "repro", *tail]
    return [sys.executable, str(Path(__file__).with_name("serve_traced.py")), str(traced_out), *tail]


@dataclass
class Request:
    k: int
    start: float = 0.0
    end: float = 0.0
    first_iteration: float | None = None
    new_iteration: float | None = None
    first_event: float | None = None
    events: int = 0
    iterations: list = field(default_factory=list)
    error: str | None = None

    @property
    def complete(self) -> bool:
        return self.error is None and len(self.iterations) == self.k


def session_spec(session_seed: int, k: int, toy: bool):
    from repro import MiningSpec

    return MiningSpec.build(
        "synthetic",
        kind="spread",
        n_iterations=k,
        dataset_seed=DATASET_SEED,
        seed=session_seed,
        **(TOY_SEARCH if toy else PAPER_SEARCH),
    )


_current = threading.local()


def _client(port: int, plan: list[tuple[int, int]], specs: dict, out: dict, tracer) -> None:
    """One closed-loop client: each request waits for the previous one."""
    from repro.client import RemoteWorkspace

    workspace = RemoteWorkspace(f"http://127.0.0.1:{port}", timeout=60.0)
    for session, k in plan:
        request = out[(session, k)] = Request(k)
        _current.request = request
        if tracer is not None:
            tracer.set_request(f"s{session}-k{k}")

        def consume():
            for iteration in workspace.stream(specs[(session, k)]):
                now = clock()
                if request.first_iteration is None:
                    request.first_iteration = now
                request.iterations.append(iteration)
                if len(request.iterations) == k:
                    request.new_iteration = now

        request.start = clock()
        try:
            if tracer is None:
                consume()
            else:
                tracer.call("client.request", consume)
        except Exception as exc:  # a failed request is counted, not fatal
            request.error = f"{type(exc).__name__}: {exc}"
        request.end = clock()


def _on_event(now: float) -> None:
    request = getattr(_current, "request", None)
    if request is not None:
        request.events += 1
        if request.first_event is None:
            request.first_event = now


def load_phase(server: Server, specs: dict, n_sessions: int, tracer=None):
    """Run the session plan; returns (requests, (start, end), delta)."""
    plans = [
        [(s, k) for s in range(c, n_sessions, CLIENTS) for k in SESSION_STEPS]
        for c in range(CLIENTS)
    ]
    requests: dict = {}
    threads = [
        threading.Thread(target=_client, args=(server.port, plan, specs, requests, tracer),
                         daemon=True)
        for plan in plans
    ]
    before = server.metrics()
    start = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170.0)
    end = clock()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load client did not finish in time")
    return requests, (start, end), registry_delta(before, server.metrics())


def _served_checks(requests: dict, delta: dict, n_sessions: int) -> list:
    n_requests = n_sessions * len(SESSION_STEPS)
    hits = n_sessions * sum(k - 1 for k in SESSION_STEPS)
    bad = [r for r in requests.values() if not r.complete]
    found = [
        ("requests", not bad and len(requests) == n_requests,
         f"{len(requests) - len(bad)}/{n_requests} complete"
         + (f"; first failure: {bad[0].error}" if bad else "")),
        ("belief-hits", delta["belief_hits"] == hits, f"{delta['belief_hits']:g} == {hits}"),
        ("steps-mined", delta["steps_mined"] == n_requests,
         f"{delta['steps_mined']:g} == {n_requests}"),
        ("steps-replayed", delta["steps_replayed"] == delta["belief_hits"],
         f"{delta['steps_replayed']:g} == {delta['belief_hits']:g}"),
    ]
    # Request k replays request k-1's iterations from the belief cache.
    mismatched = [
        (s, k)
        for (s, k), r in requests.items()
        if k > 1 and (s, k - 1) in requests
        and checks.keys(requests[(s, k - 1)].iterations) != checks.keys(r.iterations[: k - 1])
    ]
    found.append(("replay-prefix", not mismatched, f"{len(mismatched)} mismatched prefixes"))
    return found


def _local_check(requests: dict, specs: dict, seed: int, n_sessions: int):
    """One sampled session against a local ``Workspace.mine`` of its spec."""
    from repro import Workspace

    session, k = seed % n_sessions, SESSION_STEPS[-1]
    cold_caches()
    local = Workspace().mine(specs[(session, k)]).iterations
    return checks.same_iterations(f"remote-equals-local(s{session})",
                                  requests[(session, k)].iterations, local)


def run_served(seed: int, toy: bool, trace: bool) -> Outcome:
    n_sessions = 2 if toy else SESSIONS
    specs = {
        (s, k): session_spec(seed * 1000 + s, k, toy)
        for s in range(n_sessions)
        for k in SESSION_STEPS
    }
    n_requests = n_sessions * len(SESSION_STEPS)
    with Speedometer(os.sched_getaffinity(0)) as speed:
        if trace:
            return _trace_served(seed, specs, n_sessions, toy, speed)

        boots: list[tuple[float, float]] = []

        def boot(tag: str) -> Server:
            server = Server(serve_argv(), OUT / f"server-{seed}-{tag}.log")
            boots.append((server.start, server.ready))
            return server

        for i in range(0 if toy else BOOTS - BOOTS // 2 - 1):
            boot(f"before{i}").stop()
        server = boot("load")
        try:
            requests, load, delta = load_phase(server, specs, n_sessions)
            peak_rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        for i in range(0 if toy else BOOTS // 2):
            boot(f"after{i}").stop()

    done = [r for r in requests.values() if r.complete]
    setup, setup_wall = timings(speed, boots)
    latencies, latencies_wall = timings(speed, [(r.start, r.end) for r in done])
    waits, waits_wall = timings(speed, [(r.start, r.new_iteration) for r in done])
    (phase,), (phase_wall,) = timings(speed, [load])
    found = _served_checks(requests, delta, n_sessions)
    found.append(_local_check(requests, specs, seed, n_sessions))

    def report(setup, waits, phase, latencies):
        return {
            "setup_s": statistics.median(setup),
            "first_pattern_s": statistics.median(waits) if waits else 0.0,
            "job_s": phase,
            "request_s.p50": statistics.median(latencies) if latencies else 0.0,
            "request_s.p90": p90(latencies) if latencies else 0.0,
            "requests_per_s": len(done) / phase,
        }

    return Outcome(
        metrics={**report(setup, waits, phase, latencies), "peak_rss_mb": peak_rss_mb},
        wall=report(setup_wall, waits_wall, phase_wall, latencies_wall),
        attempted=n_requests,
        failed=n_requests - len(done),
        checks=found,
        notes={
            "job_s": "served, the job is the whole session plan: load-phase time",
            "first_pattern_s": "served, median over all requests of submit to the newly "
            "mined iteration (request k replays k-1 first): the wait for the next pattern",
        },
        detail={
            "boot_samples_s": setup,
            "speed": speed.summary(),
            "requests": len(requests),
            "events_published": delta["events_published"],
            "events_dropped": delta["events_dropped"],
            "belief_hits": delta["belief_hits"],
        },
    )


def _trace_served(seed: int, specs: dict, n_sessions: int, toy: bool,
                  speed: Speedometer) -> Outcome:
    """Untraced load phase, then the same plan against a traced server."""
    n_requests = n_sessions * len(SESSION_STEPS)
    server = Server(serve_argv(), OUT / f"server-{seed}-plain.log")
    try:
        plain, plain_load, _ = load_phase(server, specs, n_sessions)
    finally:
        server.stop()

    dump = OUT / f"served-seed{seed}-server-trace.json"
    dump.unlink(missing_ok=True)
    tracer = Tracer()
    patches = install_client(tracer, _on_event)
    server = Server(serve_argv(dump), OUT / f"server-{seed}-traced.log")
    try:
        traced, traced_load, delta = load_phase(server, specs, n_sessions, tracer)
    finally:
        patches.restore()
        server.stop()
    server_trace = json.loads(dump.read_text())

    done = [r for r in traced.values() if r.complete]
    summed_latency = sum(r.end - r.start for r in done)
    metrics = layer_metrics(server_trace["totals"], delta, summed_latency)
    metrics.update(
        {
            "client.first_event_s.p50": statistics.median(
                [r.first_event - r.start for r in done if r.first_event is not None] or [0.0]
            ),
            "client.new_pattern_s.p50": statistics.median(
                [r.new_iteration - r.start for r in done] or [0.0]
            ),
            "client.tail_s.p50": statistics.median(
                [r.end - r.new_iteration for r in done] or [0.0]
            ),
            "client.events_per_request": sum(r.events for r in done) / max(len(done), 1),
            "trace.overhead_frac": speed.scaled(*traced_load) / speed.scaled(*plain_load) - 1.0,
        }
    )
    found = _served_checks(traced, delta, n_sessions)
    unequal = [
        key for key in plain
        if checks.keys(plain[key].iterations) != checks.keys(traced[key].iterations)
    ]
    found.append(("traced-equals-untraced", not unequal and len(plain) == len(traced),
                  f"{len(plain) - len(unequal)}/{len(plain)} requests identical"))
    found.append(crosscheck(metrics))
    found.append(_local_check(traced, specs, seed, n_sessions))
    client_spans = tracer.spans()
    for span in client_spans:
        span["process"] = "client"
    for span in server_trace["spans"]:
        span["process"] = "server"
    return Outcome(
        metrics=metrics,
        attempted=2 * n_requests,
        failed=2 * n_requests - len(done) - sum(r.complete for r in plain.values()),
        checks=found,
        notes={"trace.overhead_frac": "served: traced / untraced load-phase time - 1"},
        detail={"wall_untraced_s": plain_load[1] - plain_load[0],
                "wall_traced_s": traced_load[1] - traced_load[0]},
        spans=client_spans + server_trace["spans"],
        predictions=[(
            f"engine.share ({metrics['engine.share']:.3f}: step-phase seconds / summed "
            f"request latency) < 0.5",
            metrics["engine.share"] < 0.5,
        )],
    )
