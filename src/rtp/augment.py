"""Physics-guided data augmentation via the power-ratio relation.

New samples are produced by jittering the rod heights of real observations
and propagating the implied reactivity change to power through the
power-ratio relation, valid only for small (<= 0.5 $) reactivity changes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domain import (
    FULL_POWER_W,
    MAX_ROD_TRAVEL_IN,
    check_settings,
    is_finite,
    is_finite_positive,
    rod_worths_by_ordinal,
)
from .ingest import SHUTDOWN_POWER_W, ObservationTable

# The power-ratio relation loses validity above this reactivity change.
MAX_VALID_DELTA_RHO = 0.5


class ProgressError(RuntimeError):
    """Perturbation policy rejects essentially every draw."""


_POLICY_RULES = {
    "base_noise_sigma": ("a finite number > 0", is_finite_positive),
    "directional_bias": ("a finite number", is_finite),
    "reg_rod_scale": ("a finite number", is_finite),
    "max_delta_rho": ("a finite number > 0", is_finite_positive),
}


@dataclass(frozen=True)
class PerturbationPolicy:
    """Rod-jitter policy for one perturbation draw.

    Rods 1-3 get Gaussian noise plus a directional bias matching the sign of
    the requested change; the regulating rod gets the same noise scaled up.
    """

    base_noise_sigma: float = 0.15
    directional_bias: float = 0.3
    reg_rod_scale: float = 10.0
    max_delta_rho: float = 0.5

    def __post_init__(self) -> None:
        check_settings(self, _POLICY_RULES)


def perturb_rows(
    powers: np.ndarray,
    rods: np.ndarray,
    worths: np.ndarray,
    noise: np.ndarray,
    change: int,
    policy: PerturbationPolicy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One perturbation draw per state; returns (new_rods, new_powers, ok).

    Row k is a state of power powers[k] with rod heights rods[k] under rod
    worths worths[k]; noise[k] is its (4,) draw from N(0, base_noise_sigma).
    Rods 1-3 move by the noise plus change * directional_bias, the
    regulating rod by reg_rod_scale times its noise. The power follows the
    power-ratio relation P * (1 - rho_new) / (1 - rho_old). A draw is
    rejected (ok False) when a rod leaves its travel, the reactivity changes
    by more than the policy cap or MAX_VALID_DELTA_RHO, the ratio is
    undefined or not positive, or the power leaves (0, FULL_POWER_W].
    """
    delta = noise * np.array([1.0, 1.0, 1.0, policy.reg_rod_scale])
    delta[:, :3] += change * policy.directional_bias
    new_rods = rods + delta
    ok = (new_rods.max(axis=1) <= MAX_ROD_TRAVEL_IN) & (new_rods.min(axis=1) >= 0.0)
    rho_old = np.sum(rods / MAX_ROD_TRAVEL_IN * worths, axis=1)
    rho_new = np.sum(new_rods / MAX_ROD_TRAVEL_IN * worths, axis=1)
    ok &= np.abs(rho_new - rho_old) <= min(policy.max_delta_rho, MAX_VALID_DELTA_RHO)
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
    policy: PerturbationPolicy = PerturbationPolicy(),
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
        noise_i = rng.normal(0.0, policy.base_noise_sigma, size=(batch, 4))
        new_rods_i, new_powers_i, ok_i = perturb_rows(
            dataset.powers[idx, 0], dataset.rods[idx, :4], w, noise_i, change, policy
        )
        noise_f = rng.normal(0.0, policy.base_noise_sigma, size=(batch, 4))
        new_rods_f, new_powers_f, ok_f = perturb_rows(
            dataset.powers[idx, 1], dataset.rods[idx, 4:], w, noise_f, change, policy
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
