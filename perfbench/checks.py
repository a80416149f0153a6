"""Output checks applied to every benchmark unit. Each returns a list of
problems; an empty list means the output passed."""

from __future__ import annotations

import math

HISTORY_FLOATS = ("objective", "total", "kl", "ce", "mse", "alpha_mean",
                  "val_l1", "val_mae", "best_val_l1")


def check_history(label: str, records: list[dict]) -> list[str]:
    """Every value finite, at least one snapshot, and ``best_val_l1`` at
    snapshots strictly decreasing (the outer loop's acceptance invariant)."""
    problems = []
    for r in records:
        values = [r[key] for key in HISTORY_FLOATS] + list(r["sigmas"]) + list(r["alphas"])
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{label}: non-finite history at epoch {r['epoch']}")
            break
    accepted = [r["best_val_l1"] for r in records if r["snapshot"]]
    if not accepted:
        problems.append(f"{label}: no snapshot was taken")
    if any(a <= b for a, b in zip(accepted, accepted[1:])):
        problems.append(f"{label}: best_val_l1 at snapshots not strictly decreasing")
    return problems


def check_test_mae(label: str, got: dict[str, float], recorded: dict[str, float] | None,
                   rel_tol: float) -> list[str]:
    """Each arm's test MAE equals the value recorded for this data seed.

    ``rel_tol`` admits arithmetic that differs by rounding, as a reordered
    or vectorized sum does, but not a change in what is learned. README.md
    gives how far rounding-level changes were measured to move the MAE.
    """
    if recorded is None:
        return [f"{label}: no recorded test MAE for this data seed"]
    problems = []
    for arm, want in recorded.items():
        have = got.get(arm)
        if have is None:
            problems.append(f"{label}/{arm}: no test MAE")
        elif not math.isclose(have, want, rel_tol=rel_tol, abs_tol=0.0):
            problems.append(f"{label}/{arm}: test MAE {have!r} != recorded {want!r}")
    return problems
