"""Physics-guided data augmentation via the power-ratio relation.

New samples are produced by jittering the rod heights of real observations
and propagating the implied reactivity change to power through the
power-ratio relation, valid only for small (<= 0.5 $) reactivity changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import (
    DEFAULT_CONFIGS,
    FULL_POWER_W,
    MAX_ROD_TRAVEL_IN,
    CoreConfiguration,
    ReactorState,
    TransientObservation,
    reactivity_of_state,
    rod_worths_by_ordinal,
)
from .ingest import SHUTDOWN_POWER_W

# The power-ratio relation loses validity above this reactivity change.
MAX_VALID_DELTA_RHO = 0.5


class ValidityError(ValueError):
    """Reactivity change too large for the power-ratio relation."""


class SingularityError(ValueError):
    """Power ratio undefined or non-positive for the given reactivities."""


class OverPowerError(ValueError):
    """Resulting power exceeds full power."""


class ProgressError(RuntimeError):
    """Perturbation policy rejects essentially every draw."""


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
        if self.base_noise_sigma <= 0:
            raise ValueError("base_noise_sigma must be positive")
        if self.max_delta_rho <= 0:
            raise ValueError("max_delta_rho must be positive")


def apply_power_ratio(power: float, rho_i: float, rho_f: float) -> float:
    """New stable power after a small reactivity change rho_i -> rho_f.

    Returns power * (1 - rho_f) / (1 - rho_i), the executable form of the
    power-ratio relation.
    """
    if abs(rho_f - rho_i) > MAX_VALID_DELTA_RHO:
        raise ValidityError(
            f"|delta rho| = {abs(rho_f - rho_i):.4f} $ exceeds {MAX_VALID_DELTA_RHO} $"
        )
    denom = 1.0 - rho_i
    if denom == 0.0:
        raise SingularityError("initial reactivity of exactly 1 $ has no defined ratio")
    ratio = (1.0 - rho_f) / denom
    if ratio <= 0.0:
        raise SingularityError(f"non-positive power ratio {ratio:.4f}")
    new_power = power * ratio
    if new_power > FULL_POWER_W:
        raise OverPowerError(f"{new_power:.1f} W exceeds full power {FULL_POWER_W} W")
    return new_power


def perturb_state(
    state: ReactorState,
    config: CoreConfiguration,
    change: int,
    policy: PerturbationPolicy,
    rng: np.random.Generator,
) -> tuple[ReactorState, bool]:
    """One perturbation draw; returns (new_state, accepted).

    Rejected draws (rod out of travel, reactivity change beyond the policy
    cap, or power out of range) return the original state with accepted=False.
    """
    delta = rng.normal(0.0, policy.base_noise_sigma, size=4)
    delta[:3] += change * policy.directional_bias
    delta[3] *= policy.reg_rod_scale
    new_rods = np.asarray(state.rod_heights) + delta
    if new_rods.max() > MAX_ROD_TRAVEL_IN or new_rods.min() < 0.0:
        return state, False

    new_state_rods = tuple(float(h) for h in new_rods)
    rho_old = reactivity_of_state(state, config)
    rho_new = reactivity_of_state(ReactorState(state.power, new_state_rods), config)
    if abs(rho_new - rho_old) > policy.max_delta_rho:
        return state, False
    try:
        new_power = apply_power_ratio(state.power, rho_old, rho_new)
    except (ValidityError, SingularityError, OverPowerError):
        return state, False
    if new_power <= 0.0:
        return state, False
    return ReactorState(new_power, new_state_rods), True


def over_sample(
    dataset: Sequence[TransientObservation],
    configs: tuple[CoreConfiguration, ...] = DEFAULT_CONFIGS,
    n: int = 0,
    change: int = 0,
    policy: PerturbationPolicy = PerturbationPolicy(),
    seed: int = 0,
) -> list[TransientObservation]:
    """Generate exactly n accepted synthetic observations.

    Each draw picks a uniform-random source observation, resolves its core
    configuration by date, and perturbs both the initial and the final state.
    Rejected draws are resampled; a progress guard aborts if the acceptance
    rate collapses. Deterministic per seed. Draws are batched for speed, which
    does not affect the per-seed output.
    """
    if n == 0:
        return []
    if not dataset:
        raise ValueError("dataset must be non-empty")

    rng = np.random.default_rng(seed)
    m = len(dataset)
    powers_i = np.array([obs.initial.power for obs in dataset])
    powers_f = np.array([obs.final.power for obs in dataset])
    rods_i = np.array([obs.initial.rod_heights for obs in dataset])
    rods_f = np.array([obs.final.rod_heights for obs in dataset])
    worths = rod_worths_by_ordinal(np.array([obs.date.toordinal() for obs in dataset]), configs)

    out: list[TransientObservation] = []
    attempts = 0
    accepted = 0
    probe_window = 10_000

    while len(out) < n:
        batch = max(256, 2 * (n - len(out)))
        idx = rng.integers(0, m, size=batch)

        def perturb(powers: np.ndarray, rods: np.ndarray):
            delta = rng.normal(0.0, policy.base_noise_sigma, size=(batch, 4))
            delta[:, :3] += change * policy.directional_bias
            delta[:, 3] *= policy.reg_rod_scale
            new_rods = rods[idx] + delta
            ok = (new_rods.max(axis=1) <= MAX_ROD_TRAVEL_IN) & (new_rods.min(axis=1) >= 0.0)
            w = worths[idx]
            rho_old = np.sum(rods[idx] / MAX_ROD_TRAVEL_IN * w, axis=1)
            rho_new = np.sum(new_rods / MAX_ROD_TRAVEL_IN * w, axis=1)
            ok &= np.abs(rho_new - rho_old) <= min(policy.max_delta_rho, MAX_VALID_DELTA_RHO)
            denom = 1.0 - rho_old
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(denom != 0.0, (1.0 - rho_new) / denom, -1.0)
            ok &= ratio > 0.0
            new_powers = powers[idx] * ratio
            ok &= (new_powers > 0.0) & (new_powers <= FULL_POWER_W)
            return new_rods, new_powers, ok

        new_rods_i, new_powers_i, ok_i = perturb(powers_i, rods_i)
        new_rods_f, new_powers_f, ok_f = perturb(powers_f, rods_f)
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

        for k in np.nonzero(ok)[0]:
            if len(out) == n:
                break
            src = dataset[int(idx[k])]
            out.append(
                TransientObservation(
                    date=src.date,
                    start_time=src.start_time,
                    end_time=src.end_time,
                    initial=ReactorState(
                        float(new_powers_i[k]), tuple(float(h) for h in new_rods_i[k])
                    ),
                    final=ReactorState(
                        float(new_powers_f[k]), tuple(float(h) for h in new_rods_f[k])
                    ),
                )
            )
    return out
