"""The three workloads: eager training, thread and process fleets.

A run repeats whole rounds of one workload for about ``--seconds``.
Every round builds its own data, model and (for fleets) its own
fleet from the run's seed, so each round does the same work; a fleet
round draws its request windows from the seed and its own index, and
its arrival times from its index alone.
"""

from __future__ import annotations

import os
import resource
import select
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

import checks
from probe import Probe, proc_snapshot, span_durations_ms

from repro.autodiff import Tensor, no_grad
from repro.core import TGCRN
from repro.data import load_task
from repro.serve import ForecastFleet
from repro.serve.proc import FrameConn
from repro.training import Trainer, TrainingConfig

# Quick bench scale (benchmarks/bench_utils.py "quick"), one layer.  The
# synthetic city is the same for every seed: cities differ in how hard
# they are to forecast, which would swamp what forecast_mae says about
# the code.
DATASET, NODES, DAYS, DATA_SEED = "hzmetro", 12, 10, 0
# The open loop's Poisson arrival times are likewise the same for every
# seed (round k of every run replays the same draw): a round's latency
# tail follows how its arrivals happen to bunch, and with a draw per
# seed four process-fleet runs read p90s from 11.8 to 21.8 ms.  The seed
# drives everything else, the request windows too.
ARRIVAL_SEED = 0
MODEL = dict(hidden_dim=16, node_dim=16, time_dim=8, num_layers=1)
BATCH, EPOCHS = 16, 4
SHARDS, REPLICAS, MAX_BATCH = 2, 1, 8
# Well below capacity, so that few requests queue behind another: at 40
# arrivals/s about a quarter did, and the p90 then swung with small
# changes in service time.  Over runs taken in turn, the process fleet's
# p90 read a quartile spread of 0.19 at 40/s against 0.09 at 20/s, and the
# thread fleet's 0.34 at 20/s against 0.18 at 10/s.
OPEN_RATE, OPEN_REQUESTS = 10.0, 40       # Poisson arrivals per second, count
CLOSED_REQUESTS, OUTSTANDING = 300, 16
REPLICA_TIMEOUT = 5.0   # seconds; well above any healthy round trip
WAIT_S = 0.002          # longest wait for a replica before the router runs a round again
ROUND_LIMIT_S = 60.0    # a phase still unanswered after this counts as failed

TRAIN_WORKLOADS = ("train-eager",)
FLEET_WORKLOADS = {"fleet-thread": "thread", "fleet-proc": "process"}
WORKLOADS = TRAIN_WORKLOADS + tuple(FLEET_WORKLOADS)


def make_task():
    return load_task(DATASET, num_nodes=NODES, num_days=DAYS, seed=DATA_SEED)


def make_model(task, seed: int, stream: int) -> TGCRN:
    return TGCRN(
        num_nodes=task.num_nodes, in_dim=task.in_dim, out_dim=task.out_dim,
        horizon=task.horizon, steps_per_day=task.steps_per_day, **MODEL,
        rng=np.random.default_rng([seed, stream]))


def direct_forecast(model, task, split: str = "test") -> np.ndarray:
    """The model's forecast of every window of a split, in original units."""
    windows = getattr(task, split)
    model.eval()
    with no_grad():
        scaled = model(Tensor(windows.inputs), windows.time_indices).numpy()
    return checks.inverse_scale(scaled, task.scaler.mean, task.scaler.std)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class Outcome:
    """What a run measured: operation counts, metrics, and notes for the record."""

    attempted: int = 0
    failed: int = 0
    setups: list = field(default_factory=list)
    throughputs: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)
    forecast_mae: float = float("nan")
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def end_to_end(self, import_s: float) -> dict:
        """``import_s`` is the median time to import the program, in seconds."""
        return {
            "setup_s": import_s + median(self.setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "throughput": median(self.throughputs),
            "forecast_mae": self.forecast_mae,
            "lat_p50_ms": percentile(self.latencies_ms, 50),
            "lat_p90_ms": percentile(self.latencies_ms, 90),
        }


def whole_rounds(seconds: float, traced: bool, one_round) -> list:
    """Run ``one_round(i)`` until about ``seconds`` have passed.

    A round starts only while it is expected to end less than half a
    round past ``seconds``, so a run stays close to its length whatever
    the host's speed.  A traced run times one plain round first, to
    report the tracing overhead against it.
    """
    began = time.perf_counter()
    rounds, took = [], []
    while True:
        started = time.perf_counter()
        rounds.append(one_round(len(rounds)))
        took.append(time.perf_counter() - started)
        if traced and len(rounds) < 2:
            continue
        if time.perf_counter() - began + median(took) / 2 > seconds:
            return rounds


# --------------------------------------------------------------------- #
# training
# --------------------------------------------------------------------- #


class StepRecorder:
    """Sentinel seam of ``Trainer.fit``: each step's loss and when it ended.

    ``on_batch`` runs once per step, after backward and clipping and
    before the optimizer update, so the gap between two calls in one
    epoch is one full step.  ``on_step`` lets a traced round hook extra
    work (allocation sampling) onto the same boundary.
    """

    def __init__(self, on_step=None):
        self.losses: list[tuple[int, float]] = []
        self.stamps: list[tuple[int, float]] = []
        self._on_step = on_step

    def on_batch(self, epoch, batch, loss, grad_norm) -> None:
        self.stamps.append((epoch, time.perf_counter()))
        self.losses.append((epoch, loss))
        if self._on_step is not None:
            self._on_step()

    def on_epoch(self, epoch, train_loss, val_mae, best_val_mae) -> None:
        pass

    def epoch_losses(self, epoch: int) -> list[float]:
        return [loss for e, loss in self.losses if e == epoch]

    def step_ms(self) -> list[float]:
        return [(b - a) * 1000.0 for (ea, a), (eb, b) in zip(self.stamps, self.stamps[1:])
                if ea == eb]

    def epoch_step_ms(self) -> list[float]:
        """Each epoch's mean step wall time.

        The host alternates between fast and slow spells a few seconds
        long, so single step times fall into two clusters and their
        median jumps between them from run to run; an epoch's mean
        moves smoothly with the share of slow steps.
        """
        steps: dict[int, list[float]] = {}
        for (ea, a), (eb, b) in zip(self.stamps, self.stamps[1:]):
            if ea == eb:
                steps.setdefault(ea, []).append((b - a) * 1000.0)
        return [float(np.mean(ms)) for ms in steps.values()]


def fit_round(seed: int, compiled: bool, epochs: int = EPOCHS, recorder=None,
              traced: bool = False) -> dict:
    """Build data and model, then fit; a traced round probes the fit only."""
    started = time.perf_counter()
    task = make_task()
    loaded = time.perf_counter()
    model = make_model(task, seed, 0)
    recorder = recorder or StepRecorder()
    trainer = Trainer(TrainingConfig(epochs=epochs, batch_size=BATCH, seed=seed,
                                     compile=compiled))
    built = time.perf_counter()
    probe = Probe.for_training() if traced else None
    try:
        trainer.fit(model, task, sentinel=recorder)
    finally:
        if probe is not None:
            probe.restore()
    fit_s = time.perf_counter() - built
    return dict(task=task, model=model, trainer=trainer, recorder=recorder, probe=probe,
                data_s=loaded - started, setup_s=built - started, fit_s=fit_s,
                throughput=epochs * len(task.train) / fit_s)


def check_fit(out: Outcome, run: dict) -> dict:
    """Count the round's steps and its test evaluation as operations.

    Returns the round's figures without the model and data, so a run
    holds one round's memory at a time.
    """
    rec, task = run["recorder"], run["task"]
    losses = [loss for _, loss in rec.losses]
    out.attempted += len(losses) + 1
    bad_steps = checks.nonfinite_losses(losses)
    prediction = direct_forecast(run["model"], task)
    target = checks.inverse_scale(task.test.targets, task.scaler.mean, task.scaler.std)
    model_mae = checks.mae(prediction, target)
    baseline = checks.last_value_mae(task.test.inputs, task.test.targets,
                                     task.scaler.mean, task.scaler.std)
    bad_eval = checks.forecast_beats_last_value(model_mae, baseline)
    out.failed += bad_steps + bad_eval
    out.forecast_mae = model_mae
    out.notes["last_value_mae"] = baseline
    return {k: run[k] for k in ("recorder", "probe", "data_s", "setup_s", "throughput")}


def run_training(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    rounds = whole_rounds(seconds, traced, lambda i: check_fit(
        out, fit_round(seed, False, traced=traced and i > 0)))
    for run in rounds:
        if run["probe"] is None:
            out.setups.append(run["setup_s"])
            out.throughputs.append(run["throughput"])
            out.latencies_ms.extend(run["recorder"].epoch_step_ms())
    if traced:
        out.layers = training_layers(out, rounds, seed)
        out.spans = rounds[-1]["probe"].spans
    return out


def training_layers(out: Outcome, rounds, seed: int) -> dict:
    """Per-layer figures from the last probed round and two extra epochs."""
    run = rounds[-1]
    probe = run["probe"]
    steps = len(run["recorder"].losses)
    per_step = lambda key: probe.total_ms(key) / steps  # noqa: E731
    layers = {
        "data.load_s": median(r["data_s"] for r in rounds),
        "data.batch_wait_ms": probe.median_ms("DataLoader.next"),
        "core.tagsl_ms_per_step": per_step("TagSL.forward"),
        "core.gcgru_ms_per_step": per_step("GCGRUCell.forward"),
        "core.graph_conv_ms_per_step": per_step("NodeAdaptiveGraphConv.forward"),
        "autodiff.backward_ms_per_step": per_step("Tensor.backward"),
        "nn.optim_ms_per_step": per_step("Adam.step"),
        "nn.clip_ms_per_step": per_step("clip_grad_norm"),
        "training.step_ms_p50": percentile(run["recorder"].step_ms(), 50),
        "training.validate_s": probe.median_ms("Trainer.validate") / 1000.0,
        "model.predict_ms": probe.median_ms("TGCRN.forward"),
        "trace.overhead_pct": overhead_pct(rounds),
    }
    layers.update(count_epoch(seed))
    layers.update(compiled_epoch(out, seed, run["recorder"].epoch_losses(0)))
    return layers


def overhead_pct(rounds) -> float:
    """How much slower the probed rounds ran than the plain ones."""
    plain = median(r["throughput"] for r in rounds if r["probe"] is None)
    probed = median(r["throughput"] for r in rounds if r["probe"] is not None)
    return (plain / probed - 1.0) * 100.0


def count_epoch(seed: int) -> dict:
    """One epoch under the op tracer and tracemalloc: ops and bytes per step."""
    import tracemalloc

    from repro.obs.trace import trace

    samples: list[int] = []
    base = [0]

    def sample() -> None:
        current, peak = tracemalloc.get_traced_memory()
        samples.append(peak - base[0])
        tracemalloc.reset_peak()
        base[0] = current

    tracemalloc.start()
    try:
        with trace(max_events=0) as tracer:
            run = fit_round(seed, False, epochs=1, recorder=StepRecorder(on_step=sample))
    finally:
        tracemalloc.stop()
    steps = len(run["recorder"].losses)
    return {
        "autodiff.ops_per_step": tracer.graph_nodes / steps,
        "autodiff.alloc_mb_per_step": median(samples[1:]) / 2**20,
    }


def compiled_epoch(out: Outcome, seed: int, eager_losses) -> dict:
    """One probed epoch with ``compile=True``: the engine's layer figures.

    Its step losses must equal, bit for bit, the first epoch of the eager
    rounds fitted from the same seed, and every step must be captured or
    replayed; each step and the engine's state count as operations.
    """
    run = fit_round(seed, True, epochs=1, traced=True)
    losses = run["recorder"].epoch_losses(0)
    engine = run["trainer"].last_engine
    stats = dict(engine.stats) if engine is not None else {}
    out.attempted += len(losses) + 1
    bad_steps = checks.nonfinite_losses(losses) + checks.loss_mismatches(losses, eager_losses)
    bad_engine = int(not stats or stats["eager_steps"] != 0 or stats["invalidations"] != 0)
    out.failed += min(bad_steps, len(losses)) + bad_engine
    probe = run["probe"]
    return {
        "engine.captures": stats.get("captures", 0),
        "engine.replays": stats.get("replays", 0),
        "engine.eager_steps": stats.get("eager_steps", 0),
        "engine.invalidations": stats.get("invalidations", 0),
        "engine.capture_s": probe.total_ms("engine.capture") / 1000.0,
        "engine.replay_ms_per_step": probe.median_ms("engine.replay"),
    }


# --------------------------------------------------------------------- #
# fleets
# --------------------------------------------------------------------- #


def replica_model_factory(seed: int):
    def factory(sub_task, shard_id, replica_id):
        return make_model(sub_task, seed, 100 + shard_id)
    return factory


def shard_references(seed: int, shards) -> list[np.ndarray]:
    """Each shard's model, rebuilt from the seed, on every test window."""
    task = make_task()
    factory = replica_model_factory(seed)
    refs = []
    for shard_id, nodes in enumerate(shards):
        sub = task.node_subset(nodes)
        refs.append(direct_forecast(factory(sub, shard_id, f"s{shard_id}r0"), sub))
    return refs


class Schedule:
    """The request stream of one round: windows from the seed, arrival gaps fixed.

    Each round of a run has its own arrival draw, so a run's latency
    covers as many different arrival bursts as it has rounds.
    """

    def __init__(self, seed: int, round_index: int, num_windows: int):
        rng = np.random.default_rng([seed, 7, round_index])
        self.windows = rng.integers(0, num_windows, size=OPEN_REQUESTS + CLOSED_REQUESTS + 1)
        arrivals = np.random.default_rng([ARRIVAL_SEED, 7, round_index])
        self.gaps = arrivals.exponential(1.0 / OPEN_RATE, size=OPEN_REQUESTS)

    def payload(self, task, i: int) -> dict:
        j = int(self.windows[i])
        return {"id": f"q{i}", "window": task.test.inputs[j],
                "time_index": task.test.time_indices[j]}


def pin_replicas(fleet) -> None:
    """Give each process replica a core of its own, round robin.

    Left to the scheduler, one round in a run, most often the first,
    served its whole open loop with a median of 12 to 20 ms instead of
    8 to 10 ms; with the replicas pinned, no round did.  The router is
    left free to run anywhere.
    """
    if fleet.transport != "process":
        return
    cores = sorted(os.sched_getaffinity(0))
    for k, rep in enumerate(fleet.replicas):
        os.sched_setaffinity(rep.server.pid, {cores[k % len(cores)]})


def replica_connections(fleet) -> list:
    """The router's end of every process replica's socket.

    ``ProcReplicaClient`` has no accessor for its connection, so it is
    found by type, the one :class:`FrameConn` the client holds, not by
    attribute name.  A client that holds none stops the run at set-up.
    """
    if fleet.transport != "process":
        return []
    conns = []
    for rep in fleet.replicas:
        held = [v for v in vars(rep.server).values() if isinstance(v, FrameConn)]
        if len(held) != 1:
            raise RuntimeError(f"replica {rep.server.replica_id}: expected one FrameConn, "
                               f"found {len(held)}")
        conns.extend(held)
    return conns


class LoadGenerator:
    """The one load-generating thread: submits, pumps the router, times answers."""

    def __init__(self, fleet, task, schedule):
        self.fleet, self.task, self.schedule = fleet, task, schedule
        self.pending: dict[str, tuple[int, float]] = {}  # request id -> (index, due)
        self.answers: list = []      # (index, FleetResponse, seconds since due)
        self.rejected = 0
        # With process replicas, wait on their sockets rather than spin:
        # a polling router would contend with the replicas for the cores.
        self.sockets = replica_connections(fleet)

    def submit(self, i: int, due: float) -> None:
        try:
            self.pending[self.fleet.submit(self.schedule.payload(self.task, i))] = (i, due)
        except Exception:  # a refused request is a failed operation, counted later
            self.rejected += 1

    def idle(self, seconds: float) -> None:
        """Wait up to ``seconds`` for a replica to write, or for the next arrival."""
        seconds = max(0.0, seconds)
        if self.sockets and self.pending:
            select.select(self.sockets, [], [], seconds)
        else:
            time.sleep(seconds)

    def pump(self) -> int:
        responses = self.fleet.process_once()
        back = time.perf_counter()
        for resp in responses:
            i, due = self.pending.pop(resp.request_id)
            self.answers.append((i, resp, back - due))
        return len(responses)

    def open_loop(self, first: int) -> list[float]:
        """Seeded Poisson arrivals; returns how late each one was sent, in ms."""
        due = time.perf_counter() + 0.01 + np.cumsum(self.schedule.gaps)
        late, sent, give_up = [], 0, time.perf_counter() + ROUND_LIMIT_S
        while (sent < len(due) or self.pending) and time.perf_counter() < give_up:
            now = time.perf_counter()
            while sent < len(due) and due[sent] <= now:
                self.submit(first + sent, due[sent])
                late.append((time.perf_counter() - due[sent]) * 1000.0)
                sent += 1
            if not self.pump():
                wait = due[sent] - time.perf_counter() if sent < len(due) else WAIT_S
                self.idle(min(WAIT_S, wait) if self.pending else wait)
        return late

    def closed_loop(self, first: int) -> float:
        """OUTSTANDING requests in flight until all are answered; returns seconds."""
        sent, started = 0, time.perf_counter()
        give_up = started + ROUND_LIMIT_S
        while (sent < CLOSED_REQUESTS or self.pending) and time.perf_counter() < give_up:
            while len(self.pending) < OUTSTANDING and sent < CLOSED_REQUESTS:
                self.submit(first + sent, time.perf_counter())
                sent += 1
            if not self.pump():
                self.idle(WAIT_S)
        return time.perf_counter() - started


def fleet_round(seed: int, transport: str, round_index: int = 0, traced: bool = False) -> dict:
    started = time.perf_counter()
    task = make_task()
    loaded = time.perf_counter()
    fleet = ForecastFleet(
        task, replica_model_factory(seed), num_shards=SHARDS,
        replicas_per_shard=REPLICAS, max_batch=MAX_BATCH, transport=transport,
        replica_timeout=REPLICA_TIMEOUT)
    spawned = time.perf_counter()
    probe = None
    try:
        pin_replicas(fleet)
        schedule = Schedule(seed, round_index, len(task.test))
        gen = LoadGenerator(fleet, task, schedule)
        gen.submit(OPEN_REQUESTS + CLOSED_REQUESTS, started)  # warm-up batch
        while not gen.pump():
            gen.idle(WAIT_S)
        gen.answers.clear()
        setup_s = time.perf_counter() - started
        pids = [rep.server.pid for rep in fleet.replicas] if transport == "process" else []
        probe = Probe.for_fleet(transport) if traced else None
        before = proc_snapshot(pids)
        late = gen.open_loop(0)
        opened = len(gen.answers)
        closed_s = gen.closed_loop(OPEN_REQUESTS)
        after = proc_snapshot(pids)
        slo_events = max(status.events for status in fleet.slo.evaluate())
    finally:
        if probe is not None:
            probe.restore()
        fleet.stop(drain=False)
    open_answers = gen.answers[:opened]
    return dict(
        task=task, shards=[np.asarray(nodes) for nodes in fleet.partition.shards],
        schedule=schedule, answers=gen.answers, rejected=gen.rejected,
        data_s=loaded - started, spawn_s=spawned - loaded, setup_s=setup_s,
        latencies=[s * 1000.0 for _, _, s in open_answers], late=late,
        reported_ms=[resp.latency_ms for _, resp, _ in open_answers],
        throughput=CLOSED_REQUESTS / closed_s, before=before, after=after,
        slo_events=slo_events, probe=probe)


def check_fleet(out: Outcome, run: dict, refs) -> float:
    """Every answer must come from the model and match the shards' references.

    Returns the round's MAE against the test targets, in original units.
    """
    task, schedule = run["task"], run["schedule"]
    target = checks.inverse_scale(task.test.targets, task.scaler.mean, task.scaler.std)
    requests = OPEN_REQUESTS + CLOSED_REQUESTS
    out.attempted += requests
    bad = requests - len(run["answers"])  # refused or never answered
    errors = []
    for i, resp, _ in run["answers"]:
        j = int(schedule.windows[i])
        wrong = resp.source != "model" or checks.served_mismatches(
            resp.prediction, run["shards"], [ref[j] for ref in refs])
        bad += int(bool(wrong))
        if resp.prediction is not None:
            errors.append(np.abs(resp.prediction - target[j]).mean())
    out.failed += bad
    return float(np.mean(errors)) if errors else float("nan")


def run_fleet(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    transport = FLEET_WORKLOADS[workload]
    out = Outcome()
    refs = []

    def checked_round(i: int) -> dict:
        run = fleet_round(seed, transport, i, traced=traced and i > 0)
        if not refs:
            refs.extend(shard_references(seed, run["shards"]))
        run["mae"] = check_fleet(out, run, refs)
        del run["answers"], run["task"]
        return run

    rounds = whole_rounds(seconds, traced, checked_round)
    for run in rounds:
        if run["probe"] is None:
            out.setups.append(run["setup_s"])
            out.throughputs.append(run["throughput"])
            out.latencies_ms.extend(run["latencies"])
    out.forecast_mae = median(run["mae"] for run in rounds)
    out.notes["round_lat_p50_ms"] = [percentile(run["latencies"], 50) for run in rounds
                                     if run["probe"] is None]
    if traced:
        out.layers = fleet_layers(rounds, transport)
        out.spans = rounds[-1]["probe"].spans
    return out


def fleet_layers(rounds, transport: str) -> dict:
    """Per-layer figures from the last probed round."""
    run = rounds[-1]
    probe = run["probe"]
    requests = OPEN_REQUESTS + CLOSED_REQUESTS
    forwards = max(1, len(probe.samples["TGCRN.forward"]))
    per_forward = lambda key: probe.total_ms(key) / forwards  # noqa: E731
    served = [n for _, n in probe.samples["ForecastServer.process_once"] if n]
    before, after = run["before"], run["after"]
    # Replica children prefix their span ids with "<replica>.<pid>.".
    replica_spans = [rec for rec in probe.spans if "." in str(rec.get("span_id", ""))]
    layers = {
        "data.load_s": median(r["data_s"] for r in rounds),
        "core.tagsl_ms_per_step": per_forward("TagSL.forward"),
        "core.gcgru_ms_per_step": per_forward("GCGRUCell.forward"),
        "core.graph_conv_ms_per_step": per_forward("NodeAdaptiveGraphConv.forward"),
        "fleet.submit_ms": probe.median_ms("ForecastFleet.submit"),
        "fleet.round_ms": probe.median_ms("ForecastFleet.process_once", busy=True),
        "fleet.reported_lat_p50_ms": percentile(
            [ms for r in rounds for ms in r["reported_ms"]], 50),
        "server.process_ms": probe.median_ms("ForecastServer.process_once", busy=True),
        "server.batch_mean": float(np.mean(served)) if served else 0.0,
        "model.predict_ms": probe.median_ms("TGCRN.forward"),
        "gen.late_p90_ms": percentile([ms for r in rounds for ms in r["late"]], 90),
        "slo.evaluate_ms": probe.mean_ms("SLOMonitor.evaluate"),
        "slo.events": run["slo_events"],
        "proc.submit_ms": probe.median_ms("ProcReplicaClient.submit"),
        "proc.poll_ms": probe.median_ms("ProcReplicaClient.process_once"),
        "supervisor.poll_ms": probe.median_ms("ReplicaSupervisor.poll"),
        "replica.predict_ms": percentile(span_durations_ms(replica_spans, "predict") or [0.0], 50),
        "proc.wire_bytes_per_req": (probe.total("wire.sent") + probe.total("wire.received"))
        / requests,
        "proc.span_records_per_req": len(replica_spans) / requests,
        "proc.replica_cpu_ms_per_req": (after["cpu_s"] - before["cpu_s"]) * 1000.0 / requests,
        "proc.router_cpu_ms_per_req": (after["self_cpu_s"] - before["self_cpu_s"])
        * 1000.0 / requests,
        "proc.spawn_s": median(r["spawn_s"] for r in rounds) if transport == "process" else 0.0,
        "proc.replica_peak_rss_mb": after["peak_rss_mb"],
        "trace.overhead_pct": overhead_pct(rounds),
    }
    return layers
