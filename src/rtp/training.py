"""Mini-batch training loop with Adam/SGD, a seeded check split, and early
stopping that restores the best-epoch weights."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import (
    check_settings,
    is_count,
    is_finite_nonnegative,
    is_finite_positive,
    is_integer,
    is_number,
)
from .engine import (
    LOSS_CCE,
    NetworkModel,
    backward_with_loss,
    clone_model,
    data_loss,
    forward,
    regularization_loss,
)

MONITORED_METRICS = ("val_accuracy", "val_loss", "val_mse")


class DivergenceError(RuntimeError):
    """Loss became NaN/Inf during training."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


# What each setting must be, and the test for it, in field order.
_SETTING_RULES = {
    "optimizer": ("'adam' or 'sgd'", lambda x: x in ("adam", "sgd")),
    # Zero freezes the weights, which the early-stopping checks rely on.
    "learning_rate": ("a finite number >= 0", is_finite_nonnegative),
    "adam_betas": (
        "two numbers in [0, 1)",
        lambda x: isinstance(x, (tuple, list))
        and len(x) == 2
        and all(is_number(b) and 0.0 <= b < 1.0 for b in x),
    ),
    "adam_eps": ("a finite number > 0", is_finite_positive),
    "batch_size": ("an integer >= 1", is_count),
    "max_epochs": ("an integer >= 1", is_count),
    "check_fraction": ("a number in (0, 1)", lambda x: is_number(x) and 0.0 < x < 1.0),
    "early_stop_patience": ("an integer >= 1", is_count),
    "early_stop_min_delta": ("a finite number >= 0", is_finite_nonnegative),
    "monitored_metric": (f"one of {MONITORED_METRICS}", lambda x: x in MONITORED_METRICS),
    "shuffle_each_epoch": ("true or false", lambda x: isinstance(x, bool)),
    "seed": ("an integer >= 0", lambda x: is_integer(x) and x >= 0),
}


@dataclass
class TrainingConfig:
    optimizer: str = "adam"  # "adam" | "sgd"
    learning_rate: float = 1e-3
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 1000
    check_fraction: float = 0.33
    early_stop_patience: int = 5
    early_stop_min_delta: float = 0.005
    monitored_metric: str = "val_accuracy"
    shuffle_each_epoch: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        check_settings(self, _SETTING_RULES)


@dataclass
class TrainingHistory:
    records: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False

    @property
    def n_epochs(self) -> int:
        return len(self.records)


class SGD:
    """Plain gradient descent; updates `params` in place through one scratch
    vector made on the first step."""

    def __init__(self, learning_rate: float):
        self.lr = learning_rate
        self.scratch: np.ndarray | None = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        if self.scratch is None:
            self.scratch = np.empty_like(params)
        params -= np.multiply(grad, self.lr, out=self.scratch)


class Adam:
    """Adam with bias correction. Its moments and two scratch vectors are
    made on the first step; every later step updates `params` in place,
    rounding each term as `lr * (m / c1) / (sqrt(v / c2) + eps)` would."""

    def __init__(self, learning_rate: float, betas=(0.9, 0.999), eps: float = 1e-8):
        self.lr = learning_rate
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.scratch: tuple[np.ndarray, np.ndarray] | None = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
            self.scratch = (np.empty_like(params), np.empty_like(params))
        m, v, (a, b) = self.m, self.v, self.scratch
        self.t += 1
        correction1 = 1.0 - self.beta1**self.t
        correction2 = 1.0 - self.beta2**self.t
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=a)
        v *= self.beta2
        np.square(grad, out=a)
        v += np.multiply(a, 1.0 - self.beta2, out=a)
        np.divide(m, correction1, out=a)
        a *= self.lr
        np.divide(v, correction2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        params -= a


def _make_optimizer(config: TrainingConfig):
    if config.optimizer == "sgd":
        return SGD(config.learning_rate)
    return Adam(config.learning_rate, config.adam_betas, config.adam_eps)


def _subset(inputs: dict[str, np.ndarray], idx: np.ndarray) -> dict[str, np.ndarray]:
    return {name: arr[idx] for name, arr in inputs.items()}


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean(np.argmax(predictions, axis=1) == np.argmax(targets, axis=1)))


def _evaluate_metrics(model: NetworkModel, inputs, targets) -> dict[str, float]:
    out = forward(model, inputs)
    metrics = {
        "loss": data_loss(out, targets, model.loss_kind) + regularization_loss(model),
    }
    if model.loss_kind == LOSS_CCE:
        metrics["accuracy"] = accuracy(out, targets)
    else:
        metrics["mae"] = float(np.mean(np.abs(out - targets)))
        metrics["mse"] = float(np.mean(np.square(out - targets)))
    return metrics


def _train_epoch(model, optimizer, inputs, targets, rows, batch_size: int, epoch: int) -> float:
    """One optimizer step per minibatch of `rows`, in order; the mean batch loss.

    The rows are gathered once, so each batch is a slice of them; the copy
    lives only for the epoch.
    """
    epoch_inputs = _subset(inputs, rows)
    epoch_targets = targets[rows]
    total = 0.0
    for batch_no, start in enumerate(range(0, rows.size, batch_size), start=1):
        stop = start + batch_size
        batch_targets = epoch_targets[start:stop]
        grad, batch_loss = backward_with_loss(
            model,
            {name: arr[start:stop] for name, arr in epoch_inputs.items()},
            batch_targets,
            model.loss_kind,
        )
        if not math.isfinite(batch_loss):
            raise DivergenceError(epoch, batch_no)
        total += batch_loss * len(batch_targets)
        optimizer.step(model.params, grad)
    return total / rows.size


def train(
    model: NetworkModel,
    inputs: dict[str, np.ndarray],
    targets: np.ndarray,
    config: TrainingConfig,
) -> tuple[NetworkModel, TrainingHistory]:
    """Train a copy of the model; returns (trained model, history).

    A seeded check split of `check_fraction` is evaluated each epoch; training
    stops once the monitored metric fails to improve by at least
    `early_stop_min_delta` for `patience` consecutive epochs, and the
    best-epoch weights are restored.
    """
    model = clone_model(model)
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    n_total = targets.shape[0]
    if n_total == 0:
        raise ValueError("dataset must be non-empty")

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n_total)
    n_val = max(1, round(config.check_fraction * n_total))
    if n_val >= n_total:
        raise ValueError("check split leaves no training samples")
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    val_inputs = _subset(inputs, val_idx)
    val_targets = targets[val_idx]
    n_train = train_idx.size

    optimizer = _make_optimizer(config)
    mode = "max" if config.monitored_metric == "val_accuracy" else "min"

    history = TrainingHistory()
    best_value = -math.inf if mode == "max" else math.inf
    best = model.params.copy()
    wait = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n_train) if config.shuffle_each_epoch else np.arange(n_train)
        epoch_loss = _train_epoch(
            model, optimizer, inputs, targets, train_idx[order], config.batch_size, epoch
        )

        val_metrics = _evaluate_metrics(model, val_inputs, val_targets)
        record = {"epoch": epoch, "train_batch_loss": epoch_loss}
        record.update({f"val_{k}": v for k, v in val_metrics.items()})
        history.records.append(record)

        value = record[config.monitored_metric]
        if not math.isfinite(value):
            raise DivergenceError(epoch, 0)
        improved = (
            value > best_value + config.early_stop_min_delta
            if mode == "max"
            else value < best_value - config.early_stop_min_delta
        )
        if improved or epoch == 1:
            best_value = value
            best = model.params.copy()
            history.best_epoch = epoch
            wait = 0
        else:
            wait += 1
            if wait >= config.early_stop_patience:
                history.stopped_early = True
                break

    model.params[...] = best
    return model, history
