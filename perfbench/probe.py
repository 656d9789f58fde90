"""Traced-mode instrumentation, applied from outside the program.

A :class:`Probe` replaces public functions of the program with timed
wrappers for the length of one round and puts the originals back when
the round ends.  It also installs an in-memory span collector, so the
spans the program already emits, including those replica children ship
back over the wire, are kept for the run's trace file.  Nothing here is
imported into the program or active during untraced runs.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from statistics import median

from repro.obs.spans import SpanCollector


class Probe:
    def __init__(self):
        # key -> [(seconds, size)]; size is what ``size(result)`` counted.
        self.samples: dict[str, list] = defaultdict(list)
        self._undo: list = []
        self._collector = SpanCollector().install()
        self.spans = self._collector.records

    # -- installing ------------------------------------------------------ #

    def wrap(self, owner, attr: str, key: str, size=None) -> None:
        """Time every call of ``owner.attr`` (a class or a module)."""
        own = owner.__dict__.get(attr)
        func = getattr(owner, attr)
        samples = self.samples[key]

        @functools.wraps(func)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            result = func(*args, **kwargs)
            samples.append((time.perf_counter() - started,
                            size(result) if size is not None else 0))
            return result

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, own))

    def restore(self) -> None:
        for owner, attr, own in reversed(self._undo):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._undo.clear()
        self._collector.close()

    @classmethod
    def for_training(cls) -> "Probe":
        from repro.autodiff import Tensor
        from repro.core import TGCRN
        from repro.core.gcgru import GCGRUCell, NodeAdaptiveGraphConv
        from repro.core.tagsl import TagSL
        from repro.nn import Adam
        from repro.training import trainer

        probe = cls()
        probe.wrap(TagSL, "forward", "TagSL.forward")
        probe.wrap(GCGRUCell, "forward", "GCGRUCell.forward")
        probe.wrap(NodeAdaptiveGraphConv, "forward", "NodeAdaptiveGraphConv.forward")
        probe.wrap(TGCRN, "forward", "TGCRN.forward")
        probe.wrap(Tensor, "backward", "Tensor.backward")
        probe.wrap(Adam, "step", "Adam.step")
        # Trainer.fit calls the name it imported into its own module.
        probe.wrap(trainer, "clip_grad_norm", "clip_grad_norm")
        probe.wrap(trainer.Trainer, "validate", "Trainer.validate")
        probe._wrap_engine()
        probe._wrap_loader()
        return probe

    @classmethod
    def for_fleet(cls, transport: str) -> "Probe":
        from repro.core import TGCRN
        from repro.core.gcgru import GCGRUCell, NodeAdaptiveGraphConv
        from repro.core.tagsl import TagSL
        from repro.obs.slo import SLOMonitor
        from repro.serve import ForecastFleet, ForecastServer

        probe = cls()
        probe.wrap(ForecastFleet, "submit", "ForecastFleet.submit")
        probe.wrap(ForecastFleet, "process_once", "ForecastFleet.process_once", size=len)
        probe.wrap(SLOMonitor, "evaluate", "SLOMonitor.evaluate")
        if transport == "process":
            from repro.resilience.supervisor import ReplicaSupervisor
            from repro.serve.proc import ProcReplicaClient

            probe.wrap(ProcReplicaClient, "submit", "ProcReplicaClient.submit")
            probe.wrap(ProcReplicaClient, "process_once", "ProcReplicaClient.process_once")
            probe.wrap(ReplicaSupervisor, "poll", "ReplicaSupervisor.poll")
            probe._count_wire()
        else:
            probe.wrap(ForecastServer, "process_once", "ForecastServer.process_once",
                       size=len)
            probe.wrap(TGCRN, "forward", "TGCRN.forward")
            probe.wrap(TagSL, "forward", "TagSL.forward")
            probe.wrap(GCGRUCell, "forward", "GCGRUCell.forward")
            probe.wrap(NodeAdaptiveGraphConv, "forward", "NodeAdaptiveGraphConv.forward")
        return probe

    def _count_wire(self) -> None:
        """Bytes framed onto and read off the router's end of every replica socket.

        /proc/<pid>/io cannot give these: socket send/recv calls do not
        add to rchar/wchar.  Frames sent are counted as ``encode_frame``
        builds them; frames received as their encoding again, which is
        what the replica framed.
        """
        from repro.serve import proc

        encode, receive = proc.encode_frame, proc.FrameConn.recv_frames
        sent, received = self.samples["wire.sent"], self.samples["wire.received"]

        @functools.wraps(encode)
        def counted_encode(ftype, payload):
            blob = encode(ftype, payload)
            sent.append((0.0, len(blob)))
            return blob

        @functools.wraps(receive)
        def counted_receive(conn, timeout=0.0):
            frames = receive(conn, timeout)
            for ftype, payload in frames:
                if ftype is not None:  # a corrupt frame parses as (None, None)
                    received.append((0.0, len(encode(ftype, payload))))
            return frames

        proc.encode_frame = counted_encode
        proc.FrameConn.recv_frames = counted_receive
        self._undo += [(proc, "encode_frame", encode),
                       (proc.FrameConn, "recv_frames", receive)]

    def total(self, key: str) -> int:
        return sum(n for _, n in self.samples[key])

    def _wrap_engine(self) -> None:
        """Split ``ExecutionEngine.run`` calls into captures and replays."""
        from repro.autodiff.engine import ExecutionEngine

        run = ExecutionEngine.run
        captures, replays = self.samples["engine.capture"], self.samples["engine.replay"]

        @functools.wraps(run)
        def timed(engine, fn, *args, key=()):
            before = dict(engine.stats)
            started = time.perf_counter()
            result = run(engine, fn, *args, key=key)
            seconds = time.perf_counter() - started
            if engine.stats["captures"] > before["captures"]:
                captures.append((seconds, 0))
            elif engine.stats["replays"] > before["replays"]:
                replays.append((seconds, 0))
            return result

        ExecutionEngine.run = timed
        self._undo.append((ExecutionEngine, "run", run))

    def _wrap_loader(self) -> None:
        """Time the wait for each batch of a shuffling (training) loader."""
        from repro.data.loader import DataLoader

        iterate = DataLoader.__iter__
        waits = self.samples["DataLoader.next"]

        @functools.wraps(iterate)
        def timed(loader):
            batches = iterate(loader)
            if not loader.shuffle:
                yield from batches
                return
            while True:
                started = time.perf_counter()
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                waits.append((time.perf_counter() - started, 0))
                yield batch

        DataLoader.__iter__ = timed
        self._undo.append((DataLoader, "__iter__", iterate))

    # -- reading --------------------------------------------------------- #

    def total_ms(self, key: str) -> float:
        return sum(s for s, _ in self.samples[key]) * 1000.0

    def median_ms(self, key: str, busy: bool = False) -> float:
        """Median call time; ``busy`` keeps only calls whose result was non-empty."""
        values = [s for s, n in self.samples[key] if n or not busy]
        return median(values) * 1000.0 if values else 0.0

    def mean_ms(self, key: str) -> float:
        values = self.samples[key]
        return sum(s for s, _ in values) * 1000.0 / len(values) if values else 0.0


def span_durations_ms(records, name: str) -> list[float]:
    return [(rec["end"] - rec["start"]) * 1000.0 for rec in records
            if rec.get("name") == name and rec.get("end") is not None]


def proc_snapshot(pids) -> dict:
    """Replica CPU and peak memory read from /proc, plus this process's CPU."""
    tick = os.sysconf("SC_CLK_TCK")
    cpu_s, peak_kb = 0.0, 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        cpu_s += (int(fields[11]) + int(fields[12])) / tick  # utime, stime
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    peak_kb = max(peak_kb, int(line.split()[1]))
    return {"cpu_s": cpu_s, "self_cpu_s": time.process_time(),
            "peak_rss_mb": peak_kb / 1024.0}
