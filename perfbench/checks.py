"""Correctness checks the benchmark applies to every operation it times.

Each check compares the program's output with a value the benchmark
computes itself, in numpy, from the same generated inputs.  None of them
compares with a stored copy of an earlier output.  Every check returns
the number of items that failed it, so a failed check counts its
operation as failed instead of aborting the run.
"""

from __future__ import annotations

import numpy as np

# Served forecasts must match a direct no-grad evaluation of the shard's
# model to this tolerance.  They have matched bit for bit; the slack
# admits a BLAS build that blocks a batch of 1..max_batch windows unlike
# the whole test split, which moves float64 results by a few ulps.  A
# wrong answer moves them by orders of magnitude more.
SERVE_RTOL = 1e-9
SERVE_ATOL = 1e-9


def nonfinite_losses(losses) -> int:
    """Training steps whose loss is NaN or infinite."""
    return int(np.count_nonzero(~np.isfinite(np.asarray(losses, dtype=np.float64))))


def loss_mismatches(losses, reference) -> int:
    """Steps whose loss differs, bit for bit, from the reference run.

    A length mismatch counts every step of the longer sequence that the
    shorter one has no partner for.
    """
    a = np.asarray(losses, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    n = min(len(a), len(b))
    differ = int(np.count_nonzero(a[:n].view(np.uint64) != b[:n].view(np.uint64)))
    return differ + abs(len(a) - len(b))


def inverse_scale(scaled: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Undo standardization on the trailing feature axis."""
    d = scaled.shape[-1]
    return scaled * std[:d] + mean[:d]


def mae(prediction: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean(np.abs(prediction - target)))


def last_value_mae(inputs: np.ndarray, targets: np.ndarray,
                   mean: np.ndarray, std: np.ndarray) -> float:
    """MAE of repeating each window's last observed frame over the horizon.

    ``inputs`` is (B, P, N, d_in) and ``targets`` (B, Q, N, d_out), both
    scaled; the MAE is in original units.
    """
    d = targets.shape[-1]
    last = np.broadcast_to(inputs[:, -1:, :, :d], targets.shape)
    return mae(inverse_scale(last, mean, std), inverse_scale(targets, mean, std))


def forecast_beats_last_value(model_mae: float, baseline_mae: float) -> int:
    """1 when the trained model is no better than the last-value forecast."""
    return 0 if np.isfinite(model_mae) and model_mae < baseline_mae else 1


def served_mismatches(prediction, shard_nodes, references) -> int:
    """Shards whose slice of a served forecast disagrees with the reference.

    ``prediction`` is the full-graph (Q, N, d) forecast; ``shard_nodes``
    lists each shard's node indices and ``references`` the matching
    (Q, n_shard, d) forecasts of that shard's model evaluated directly.
    A missing or non-finite prediction fails every shard.
    """
    if prediction is None or not np.all(np.isfinite(prediction)):
        return len(shard_nodes)
    bad = 0
    for nodes, ref in zip(shard_nodes, references):
        got = prediction[:, nodes, :]
        if got.shape != ref.shape or not np.allclose(got, ref, rtol=SERVE_RTOL,
                                                     atol=SERVE_ATOL):
            bad += 1
    return bad
