"""Self-tests of the benchmark: each check passes the real answer and fails a planted one.

    python3 -m pytest perfbench -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def served():
    """A few real answers of the benchmark's thread fleet, with their references."""
    from repro.serve import ForecastFleet

    task = workloads.make_task()
    fleet = ForecastFleet(task, workloads.replica_model_factory(SEED),
                          num_shards=workloads.SHARDS, replicas_per_shard=workloads.REPLICAS,
                          max_batch=workloads.MAX_BATCH)
    windows = [0, 5, 17]
    for j in windows:
        fleet.submit({"id": f"w{j}", "window": task.test.inputs[j],
                      "time_index": task.test.time_indices[j]})
    answers = {resp.request_id: resp for resp in fleet.drain()}
    shards = [np.asarray(nodes) for nodes in fleet.partition.shards]
    refs = workloads.shard_references(SEED, shards)
    return [(answers[f"w{j}"].prediction, [ref[j] for ref in refs]) for j in windows], shards


@pytest.fixture(scope="module")
def losses():
    """First-epoch step losses of a compiled fit and of its eager twin."""
    compiled = workloads.fit_round(SEED, True, epochs=1)["recorder"].epoch_losses(0)
    eager = workloads.fit_round(SEED, False, epochs=1)["recorder"].epoch_losses(0)
    return compiled, eager


def test_served_answer_matches_reference(served):
    cases, shards = served
    for prediction, refs in cases:
        assert checks.served_mismatches(prediction, shards, refs) == 0


def test_perturbed_served_value_fails(served):
    cases, shards = served
    prediction, refs = cases[0]
    planted = prediction.copy()
    planted[1, shards[1][0], 0] += 1e-6 * (1.0 + abs(planted[1, shards[1][0], 0]))
    assert checks.served_mismatches(planted, shards, refs) == 1


def test_swapped_shard_slices_fail(served):
    cases, shards = served
    prediction, refs = cases[0]
    assert len(shards[0]) == len(shards[1])
    planted = prediction.copy()
    planted[:, shards[0], :] = prediction[:, shards[1], :]
    planted[:, shards[1], :] = prediction[:, shards[0], :]
    assert checks.served_mismatches(planted, shards, refs) == 2


def test_missing_or_nonfinite_answer_fails_every_shard(served):
    cases, shards = served
    prediction, refs = cases[0]
    planted = prediction.copy()
    planted[0, 0, 0] = np.nan
    assert checks.served_mismatches(planted, shards, refs) == len(shards)
    assert checks.served_mismatches(None, shards, refs) == len(shards)


def test_finite_losses_pass_and_a_nonfinite_one_fails(losses):
    compiled, _ = losses
    assert checks.nonfinite_losses(compiled) == 0
    for bad in (np.nan, np.inf):
        planted = list(compiled)
        planted[4] = bad
        assert checks.nonfinite_losses(planted) == 1


def test_compiled_losses_equal_eager_twin_and_one_ulp_fails(losses):
    compiled, eager = losses
    assert checks.loss_mismatches(compiled, eager) == 0
    planted = list(compiled)
    planted[7] = float(np.nextafter(planted[7], np.inf))
    assert checks.loss_mismatches(planted, eager) == 1
    assert checks.loss_mismatches(compiled[:-1], eager) == 1


def test_last_value_baseline_is_the_persistence_forecast():
    task = workloads.make_task()
    mean, std = task.scaler.mean, task.scaler.std
    x, y = task.test.inputs, task.test.targets
    d = y.shape[-1]
    by_hand = np.mean([np.abs((x[b, -1, :, :d] - y[b, q]) * std[:d])
                       for b in range(len(x)) for q in range(y.shape[1])])
    assert checks.last_value_mae(x, y, mean, std) == pytest.approx(by_hand, rel=1e-12)
    assert checks.forecast_beats_last_value(by_hand * 0.9, by_hand) == 0
    assert checks.forecast_beats_last_value(by_hand, by_hand) == 1
    assert checks.forecast_beats_last_value(float("nan"), by_hand) == 1


def test_process_fleet_wire_is_reached():
    """The socket wait and the wire counters reach a live process fleet.

    Both go through the program's ``FrameConn``; if it moved, the
    benchmark would fail here rather than mid-run or with wire bytes of 0.
    """
    from probe import Probe
    from repro.serve import ForecastFleet

    task = workloads.make_task()
    fleet = ForecastFleet(task, workloads.replica_model_factory(SEED),
                          num_shards=workloads.SHARDS, replicas_per_shard=workloads.REPLICAS,
                          max_batch=workloads.MAX_BATCH, transport="process",
                          replica_timeout=workloads.REPLICA_TIMEOUT)
    probe = None
    try:
        conns = workloads.replica_connections(fleet)
        probe = Probe.for_fleet("process")
        for j in range(3):
            fleet.submit({"id": f"w{j}", "window": task.test.inputs[j],
                          "time_index": task.test.time_indices[j]})
        answers = fleet.drain()
    finally:
        if probe is not None:
            probe.restore()
        fleet.stop(drain=False)
    assert len(conns) == workloads.SHARDS * workloads.REPLICAS
    assert [a.source for a in answers] == ["model"] * 3
    assert probe.total("wire.sent") > 0 and probe.total("wire.received") > 0
    assert len(probe.samples["ProcReplicaClient.submit"]) == 3 * workloads.SHARDS


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_benchmark_json_has_its_fixed_form():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    spec = json.loads(raw)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    command, paths = spec["command"], spec["paths"]
    assert 1 <= len(command) <= 32 and all(isinstance(a, str) and len(a) <= 200
                                           for a in command)
    assert not any(a.startswith("/") or ".." in a.split("/") for a in command)
    assert 1 <= len(paths) <= 16
    for path in paths:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    files = [a for a in command[1:] if "/" in a]
    assert files and all(any(f.startswith(p.rstrip("/") + "/") for p in paths) for f in files)
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60

    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
