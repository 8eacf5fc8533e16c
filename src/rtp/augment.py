"""Physics-guided data augmentation via the power-ratio relation.

New samples are produced by jittering the rod heights of real observations
and propagating the implied reactivity change to power through the
power-ratio relation, valid only for small (<= 0.5 $) reactivity changes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .domain import FULL_POWER_W, MAX_ROD_TRAVEL_IN, rod_worths_by_ordinal
from .ingest import SHUTDOWN_POWER_W, ObservationTable

# The power-ratio relation loses validity above this reactivity change.
MAX_VALID_DELTA_RHO = 0.5

# The rod jitter of one draw: rods 1-3 get Gaussian noise of this sigma plus
# a bias of this many inches in the sign of the requested change; the
# regulating rod gets the same noise scaled up.
BASE_NOISE_SIGMA = 0.15
DIRECTIONAL_BIAS = 0.3
REG_ROD_SCALE = 10.0


class ProgressError(RuntimeError):
    """The acceptance rule rejects essentially every draw."""


def perturb_rows(
    powers: np.ndarray,
    rods: np.ndarray,
    worths: np.ndarray,
    noise: np.ndarray,
    change: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One perturbation draw per state; returns (new_rods, new_powers, ok).

    Row k is a state of power powers[k] with rod heights rods[k] under rod
    worths worths[k]; noise[k] is its (4,) draw from N(0, BASE_NOISE_SIGMA).
    Rods 1-3 move by the noise plus change * DIRECTIONAL_BIAS, the
    regulating rod by REG_ROD_SCALE times its noise. The power follows the
    power-ratio relation P * (1 - rho_new) / (1 - rho_old). A draw is
    rejected (ok False) when a rod leaves its travel, the reactivity changes
    by more than MAX_VALID_DELTA_RHO, the ratio is undefined or not
    positive, or the power leaves (0, FULL_POWER_W].
    """
    delta = noise * np.array([1.0, 1.0, 1.0, REG_ROD_SCALE])
    delta[:, :3] += change * DIRECTIONAL_BIAS
    new_rods = rods + delta
    ok = (new_rods.max(axis=1) <= MAX_ROD_TRAVEL_IN) & (new_rods.min(axis=1) >= 0.0)
    rho_old = np.sum(rods / MAX_ROD_TRAVEL_IN * worths, axis=1)
    rho_new = np.sum(new_rods / MAX_ROD_TRAVEL_IN * worths, axis=1)
    ok &= np.abs(rho_new - rho_old) <= MAX_VALID_DELTA_RHO
    denom = 1.0 - rho_old
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denom != 0.0, (1.0 - rho_new) / denom, -1.0)
    ok &= ratio > 0.0
    new_powers = powers * ratio
    ok &= (new_powers > 0.0) & (new_powers <= FULL_POWER_W)
    return new_rods, new_powers, ok


def over_sample(
    dataset: ObservationTable,
    n: int = 0,
    change: int = 0,
    seed: int = 0,
) -> ObservationTable:
    """Generate exactly n accepted synthetic observations, rows numbered from 1.

    Each draw picks a uniform-random source row, resolves its core
    configuration by date, and perturbs both the initial and the final state;
    the output row keeps its source's date and times. Rejected draws are
    resampled; a progress guard aborts if the acceptance rate collapses.
    Deterministic per seed. Draws are batched for speed, which does not affect
    the per-seed output.
    """
    if n == 0:
        return dataset.take(slice(0, 0))
    if not dataset:
        raise ValueError("dataset must be non-empty")

    rng = np.random.default_rng(seed)
    worths = rod_worths_by_ordinal(dataset.date)
    kept = []  # (source rows, powers, rods) of each batch's kept draws
    n_kept = 0
    attempts = 0
    accepted = 0
    probe_window = 10_000

    while n_kept < n:
        batch = max(256, 2 * (n - n_kept))
        idx = rng.integers(0, len(dataset), size=batch)

        w = worths[idx]
        noise_i = rng.normal(0.0, BASE_NOISE_SIGMA, size=(batch, 4))
        new_rods_i, new_powers_i, ok_i = perturb_rows(
            dataset.powers[idx, 0], dataset.rods[idx, :4], w, noise_i, change
        )
        noise_f = rng.normal(0.0, BASE_NOISE_SIGMA, size=(batch, 4))
        new_rods_f, new_powers_f, ok_f = perturb_rows(
            dataset.powers[idx, 1], dataset.rods[idx, 4:], w, noise_f, change
        )
        ok = ok_i & ok_f
        # Keep the synthetic rows consistent with the ingestion filters.
        ok &= new_powers_f >= SHUTDOWN_POWER_W
        ok &= new_powers_f != new_powers_i

        attempts += batch
        accepted += int(ok.sum())
        if attempts >= probe_window and accepted / attempts < 0.001:
            raise ProgressError(
                f"acceptance rate {accepted / attempts:.5f} below 0.1% after {attempts} draws"
            )

        take = np.flatnonzero(ok)[: n - n_kept]
        kept.append((
            idx[take],
            np.column_stack([new_powers_i, new_powers_f])[take],
            np.hstack([new_rods_i, new_rods_f])[take],
        ))
        n_kept += take.size

    sources, new_powers, new_rods = (np.concatenate(column) for column in zip(*kept))
    return replace(
        dataset.take(sources), row_index=np.arange(1, n + 1), powers=new_powers, rods=new_rods
    )
