"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-eager --seed 1 --seconds 34 --trace 0

Run from the root of a checkout.  Every line but the last is a record of
the run; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 0 only when every operation passed its
checks.  See perfbench/README.md for the workloads.
"""

import os

# One BLAS thread, fixed before numpy loads; replica processes are forked
# from this one and inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The program's import is most of the set-up time and swings with the
# host, so it is timed this many times, this process first, and setup_s
# takes the median.
IMPORT_REPEATS = 3
IMPORT_CODE = (
    "import sys, time\n"
    "started = time.perf_counter()\n"
    f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
    "import workloads\n"
    "print(time.perf_counter() - started)\n")


def import_seconds_in_fresh_interpreter() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.split()[-1])


# The cores each workload keeps awake (see keep_awake): every core the
# process fleet spreads over, or the one core the thread fleet is pinned
# to.  Training never waits, so none of its cores halts.
AWAKE_CORES = {"fleet-proc": "all", "fleet-thread": "pinned"}


def keep_awake(workload: str) -> list[int]:
    """Keep the cores the workload waits on awake; returns the loops' pids.

    An idle core of a virtual machine may halt, and waking it again for
    a timer or a socket then takes long and varies with the host.  So
    each such core runs a busy loop under ``SCHED_IDLE``, which gets the
    core only when nothing else wants it and so takes no time from the
    program.  On a 2-vCPU VM, in runs taken in turn:

    - the process fleet crosses cores on every request; its open-loop
      median read 6.8 ms with both cores kept busy and 9.1 ms without;
    - the thread fleet was less steady with a loop on the core it did
      not use (its p50 read a quartile spread of 0.22, against 0.10
      with no loop), and steadiest pinned to one core kept awake (its
      p90 read 9.9 ms and a spread of 0.04, against 13.1 ms and 0.40
      with no loop).

    Each loop ends by itself once this process is gone.
    """
    cores = AWAKE_CORES.get(workload)
    if cores is None:
        return []
    if cores == "pinned":
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    parent = os.getpid()
    pids = []
    for core in sorted(os.sched_getaffinity(0)):
        pid = os.fork()
        if pid == 0:
            try:
                os.sched_setaffinity(0, {core})
                os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
                while os.getppid() == parent:
                    pass
            finally:
                os._exit(0)
        pids.append(pid)
    return pids


def stop_keep_awake(pids) -> None:
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    for pid in pids:
        os.waitpid(pid, 0)


def host_ref_rate(blocks: int = 40) -> float:
    """Blocks per second of a fixed numpy + Python loop: the host's speed now."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((64, 64)) * 0.01
    started = time.perf_counter()
    for _ in range(blocks):
        m = a
        total = 0.0
        for _ in range(200):
            m = np.tanh(m @ a)
            total += float(m[0, 0])
    return blocks / (time.perf_counter() - started)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpus": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    awake = keep_awake(args.workload)
    try:
        return measure(args, spec)
    finally:
        stop_keep_awake(awake)


def measure(args, spec) -> int:
    started = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    import_s = [time.perf_counter() - started]
    import_s += [import_seconds_in_fresh_interpreter() for _ in range(IMPORT_REPEATS - 1)]
    ref_before = host_ref_rate()
    run = workloads.run_training if args.workload.startswith("train") else workloads.run_fleet
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    ref_after = host_ref_rate()

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(out.setups), "import_s": import_s,
              "host_ref_rate": [ref_before, ref_after], "threads": thread_count(),
              **fingerprint(), **out.notes}
    print(json.dumps({"run_record": record}))

    if args.trace:
        layers = dict(out.layers, **{"host.ref_rate": (ref_before + ref_after) / 2.0})
        wanted = spec["per_layer"]
        # A layer the workload never runs reads 0 (see README).
        values = {m["name"]: float(layers.get(m["name"], 0.0)) for m in wanted}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.write_text("".join(json.dumps(r) + "\n" for r in out.spans))
        print(json.dumps({"spans_file": str(spans.relative_to(ROOT)),
                          "spans": len(out.spans)}))
    else:
        wanted = spec["end_to_end"]
        values = out.end_to_end(median(import_s))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = out.failed == 0
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
