"""Dense feedforward network engine: forward, analytic backprop, serialization.

Supported topology: one or more input branches, each a stack of dense layers,
merged by concatenation together with an optional auxiliary input vector,
followed by a trunk of dense layers whose last layer is the output head.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Union

import numpy as np

from .domain import N_CLASSES, is_count, is_nonnegative_integer, is_number, shown
from .files import writing

# Format 2 stores all parameters as one binary block; format 1 files still load.
FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2)

# Model-file head names and their layers' (activation, width).
HEAD_SOFTMAX = f"softmax-{N_CLASSES}"
HEAD_SIGMOID = "sigmoid-1"
HEAD_LAYERS = {HEAD_SOFTMAX: ("softmax", N_CLASSES), HEAD_SIGMOID: ("sigmoid", 1)}

LOSS_CCE = "categorical_cross_entropy"
LOSS_MAE = "mean_absolute_error"

CCE_CLAMP = 1e-12


class ShapeError(ValueError):
    """Input matrix does not match the model's declared input sizes."""


class ModelFormatError(ValueError):
    """Model file is corrupt or has an unsupported format version."""


@dataclass
class DenseLayer:
    weights: np.ndarray  # (n_in, n_out)
    biases: np.ndarray  # (n_out,)
    activation: str  # relu | linear | softmax | sigmoid
    l1: float = 0.0
    l2: float = 0.0

    def __post_init__(self) -> None:
        if self.activation not in ("relu", "linear", "softmax", "sigmoid"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("regularization coefficients must be non-negative")
        if self.weights.shape[1] != self.biases.shape[0]:
            raise ValueError(
                f"bias width {self.biases.shape[0]} != weight columns {self.weights.shape[1]}"
            )

    @property
    def n_in(self) -> int:
        return self.weights.shape[0]

    @property
    def n_out(self) -> int:
        return self.weights.shape[1]


@dataclass
class NetworkModel:
    """Two-branch-merge dense network (single-branch covers the AIO case).

    All weights and biases live in one float64 vector, `params`, layer by
    layer in all_layers() order, each layer's weights (row-major) before its
    biases; every layer's arrays are views into it. `l1` and `l2` hold each
    parameter's penalty coefficient in the same layout (zero on biases).
    `branch_widths` maps each branch to its input width, in branch order.
    """

    branches: dict[str, list[DenseLayer]]
    aux_width: int
    trunk: list[DenseLayer]
    head: str
    variant_id: str | None = None
    branch_widths: dict[str, int] = field(init=False, repr=False, compare=False)
    params: np.ndarray = field(init=False, repr=False, compare=False)
    l1: np.ndarray = field(init=False, repr=False, compare=False)
    l2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.head, str) or self.head not in HEAD_LAYERS:
            raise ValueError(f"unknown head {self.head!r}")
        if not self.trunk:
            raise ValueError("trunk must contain at least the head layer")
        head_layer = self.trunk[-1]
        if (head_layer.activation, head_layer.n_out) != HEAD_LAYERS[self.head]:
            raise ValueError(
                f"head layer ({head_layer.activation}, {head_layer.n_out}) "
                f"does not match declared head {self.head}"
            )
        for name, layers in [*self.branches.items(), ("trunk", self.trunk)]:
            for below, above in zip(layers, layers[1:]):
                if below.n_out != above.n_in:
                    raise ValueError(f"{name}: output width {below.n_out} feeds input {above.n_in}")
        widths = [layers[-1].n_out for layers in self.branches.values() if layers]
        n_open = len(self.branches) - len(widths)
        left = self.trunk[0].n_in - sum(widths) - self.aux_width
        # At most one branch may have no layers; it takes the width left over.
        if n_open > 1 or (left < 1 if n_open else left != 0):
            raise ValueError(
                f"trunk input width {self.trunk[0].n_in} != branches {widths} + aux {self.aux_width}"
            )
        self.branch_widths = {
            name: layers[0].n_in if layers else left for name, layers in self.branches.items()
        }
        layers = self.all_layers()
        if any(layer.activation == "softmax" for layer in layers[:-1]):
            raise ValueError("softmax is only valid as the head activation")

        self.params = np.empty(sum(layer.weights.size + layer.n_out for layer in layers))
        self.l1 = np.zeros_like(self.params)
        self.l2 = np.zeros_like(self.params)
        for layer, (w, b), (l1, _), (l2, _) in zip(
            layers, _views(self, self.params), _views(self, self.l1), _views(self, self.l2)
        ):
            w[...] = layer.weights
            b[...] = layer.biases
            l1[...] = layer.l1
            l2[...] = layer.l2
            layer.weights, layer.biases = w, b

    @property
    def loss_kind(self) -> str:
        return LOSS_CCE if self.head == HEAD_SOFTMAX else LOSS_MAE

    def all_layers(self) -> list[DenseLayer]:
        return [layer for layers in [*self.branches.values(), self.trunk] for layer in layers]


def _views(model: NetworkModel, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weights, biases) views of a vector laid out like model.params."""
    views = []
    start = 0
    for layer in model.all_layers():
        split = start + layer.weights.size
        end = split + layer.n_out
        views.append((flat[start:split].reshape(layer.n_in, layer.n_out), flat[split:end]))
        start = end
    return views


def init_layer(
    n_in: int,
    n_out: int,
    activation: str,
    rng: np.random.Generator,
    l1: float = 0.0,
    l2: float = 0.0,
) -> DenseLayer:
    """Symmetric fan-based uniform initialization, zero biases."""
    limit = math.sqrt(6.0 / (n_in + n_out))
    weights = rng.uniform(-limit, limit, size=(n_in, n_out))
    return DenseLayer(weights=weights, biases=np.zeros(n_out), activation=activation, l1=l1, l2=l2)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    """The activation of pre-activation z, for every activation but relu."""
    if activation == "linear":
        return z
    if activation == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    # softmax, shifted for stability
    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _activation_backward(da: np.ndarray, a: np.ndarray, activation: str, out=None):
    """The gradient at a layer's pre-activation from the gradient da at its
    output a, written into `out` if given (which may be da itself); relu's
    mask a > 0 is the mask z > 0 of its pre-activation z."""
    if activation == "relu":
        return np.multiply(da, a > 0.0, out=out)
    if activation == "linear":
        return da
    if activation == "sigmoid":
        return np.multiply(da, a * (1.0 - a), out=out)
    raise ValueError("softmax gradient is fused with the cross-entropy loss")


def _forward_stack(layers: list[DenseLayer], a: np.ndarray, cache: list | None = None):
    """Run a layer stack; with a `cache` list, append each layer's (input, output).

    relu overwrites z, as its backward pass reads only the output.
    """
    for layer in layers:
        z = a @ layer.weights
        z += layer.biases
        if layer.activation == "relu":
            a_next = np.maximum(z, 0.0, out=z)
        else:
            a_next = _activate(z, layer.activation)
        if cache is not None:
            cache.append((a, a_next))
        a = a_next
    return a


def _check_input(model: NetworkModel, x: np.ndarray) -> np.ndarray:
    """`x` as a float64 matrix; ShapeError unless it is 2-D and as wide as
    the model's branch inputs and aux input together."""
    x = np.asarray(x, dtype=np.float64)
    width = sum(model.branch_widths.values()) + model.aux_width
    if x.ndim != 2 or x.shape[1] != width:
        raise ShapeError(f"input has shape {x.shape}, expected (n, {width})")
    return x


def run_layers(model: NetworkModel, x: np.ndarray, caches: list | None = None) -> np.ndarray:
    """Network output from the input matrix `x`: each branch's columns side
    by side in model.branches order, then the aux columns.

    Nothing is checked: `x` must be 2-D and as wide as the model takes. With
    a `caches` list, appends one per-layer cache list per branch, then one
    for the trunk; without, each layer's arrays are freed as it is passed.
    """

    def run(layers: list[DenseLayer], a: np.ndarray) -> np.ndarray:
        if caches is None:
            return _forward_stack(layers, a)
        caches.append([])
        return _forward_stack(layers, a, caches[-1])

    pieces = []
    start = 0
    for name, layers in model.branches.items():
        stop = start + model.branch_widths[name]
        a = x[:, start:stop]
        if layers:
            # The columns are a strided view of x, and BLAS computes the
            # weight gradient a.T @ dz of a strided `a` on another path that
            # rounds differently; a packed copy keeps the bits of a packed input.
            a = np.ascontiguousarray(a)
        pieces.append(run(layers, a))
        start = stop
    if model.aux_width:
        pieces.append(x[:, start:])
    merged = np.concatenate(pieces, axis=1) if len(pieces) > 1 else pieces[0]
    return run(model.trunk, merged)


def forward(model: NetworkModel, x: np.ndarray) -> np.ndarray:
    """Network output (n, outputs) for an (n, k) input matrix, laid out as
    run_layers takes it; ShapeError if `x` is not such a matrix."""
    return run_layers(model, _check_input(model, x))


def regularization_loss(model: NetworkModel) -> float:
    # np.add.reduce sums in a fixed order; a BLAS dot product splits a long
    # vector across threads, so its last bits moved with the thread count.
    l1 = np.add.reduce(model.l1 * np.abs(model.params))
    return float(l1 + np.add.reduce(model.l2 * np.square(model.params)))


def data_loss(prediction: np.ndarray, target: np.ndarray, kind: str) -> float:
    pred = np.atleast_2d(np.asarray(prediction, dtype=np.float64))
    targ = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if pred.shape != targ.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {targ.shape}")
    return _data_loss(pred, targ, kind)


def _data_loss(pred: np.ndarray, targ: np.ndarray, kind: str) -> float:
    """data_loss of two float64 matrices of one shape, unchecked. The ufuncs
    are the ones np.clip and np.mean(np.sum(...)) run, so the bits are theirs."""
    if kind == LOSS_CCE:
        clamped = np.minimum(np.maximum(pred, CCE_CLAMP), 1.0)
        rows = np.add.reduce(targ * np.log(clamped), axis=1)
        return float(-(np.add.reduce(rows) / rows.size))
    if kind == LOSS_MAE:
        errors = np.abs(pred - targ)
        return float(np.add.reduce(errors, axis=None) / errors.size)
    raise ValueError(f"unknown loss kind {kind!r}")


def _backprop_stack(layers, cache, dz, grads, input_grad: bool = True):
    """Carry dz, the gradient at the top layer's pre-activation, down a stack.

    Writes each layer's gradient into its (weights, biases) views in `grads`:
    the data gradient, then on the weights the layer's L1 and L2 penalty.
    Returns the gradient at the stack's input, or None without `input_grad`.
    """
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        dw, db = grads[i]
        np.matmul(cache[i][0].T, dz, out=dw)
        np.add.reduce(dz, axis=0, out=db)
        if layer.l1:
            dw += layer.l1 * np.sign(layer.weights)
        if layer.l2:
            dw += 2.0 * layer.l2 * layer.weights
        if i == 0 and not input_grad:
            return None
        da = dz @ layer.weights.T
        if i > 0:
            dz = _activation_backward(da, cache[i - 1][1], layers[i - 1].activation, out=da)
    return da


def gradient_buffer(model: NetworkModel) -> tuple[np.ndarray, list]:
    """A vector laid out like model.params and its per-layer (weights,
    biases) views, for backward_with_loss to write gradients into."""
    grad = np.empty_like(model.params)
    return grad, _views(model, grad)


def backward_with_loss(
    model: NetworkModel, x: np.ndarray, target: np.ndarray, out: tuple | None = None
) -> tuple[np.ndarray, float]:
    """Gradient of the total loss (the model's data loss plus L1/L2 penalty)
    w.r.t. model.params (same layout), and the data loss from the same
    forward pass on the input matrix `x`.

    Each layer's gradient and penalty are written into their views of the
    returned vector: a fresh one, or the vector of `out`, a
    gradient_buffer(model) that a training loop makes once and reuses.
    """
    caches: list = []
    output = run_layers(model, _check_input(model, x), caches)
    trunk_cache = caches[-1]
    targ = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if targ.shape != output.shape:
        raise ShapeError(f"target shape {targ.shape} != output shape {output.shape}")

    if model.loss_kind == LOSS_CCE:
        dz = (output - targ) / output.shape[0]  # softmax and cross-entropy, fused
    else:
        da = np.sign(output - targ) / targ.size  # subgradient 0 at ties
        dz = _activation_backward(da, trunk_cache[-1][1], model.trunk[-1].activation, out=da)

    grad, views = gradient_buffer(model) if out is None else out
    d_merged = _backprop_stack(
        model.trunk, trunk_cache, dz, views[-len(model.trunk) :], any(model.branches.values())
    )
    offset = first = 0  # column of d_merged, index of views
    for (name, layers), cache in zip(model.branches.items(), caches):
        width = layers[-1].n_out if layers else model.branch_widths[name]
        if layers:
            da = d_merged[:, offset : offset + width]
            dz = _activation_backward(da, cache[-1][1], layers[-1].activation)
            _backprop_stack(layers, cache, dz, views[first : first + len(layers)], input_grad=False)
        first += len(layers)
        offset += width
    return grad, _data_loss(output, targ, model.loss_kind)


def clone_model(model: NetworkModel) -> NetworkModel:
    """An independent copy: fresh layers packed into a fresh buffer."""
    branches = {name: [replace(lr) for lr in layers] for name, layers in model.branches.items()}
    return NetworkModel(
        branches=branches,
        aux_width=model.aux_width,
        trunk=[replace(layer) for layer in model.trunk],
        head=model.head,
        variant_id=model.variant_id,
    )


def _layer_to_dict(layer: DenseLayer, branch: str) -> dict:
    return {
        "branch": branch,
        "shape": [layer.n_in, layer.n_out],
        "activation": layer.activation,
        "l1": layer.l1,
        "l2": layer.l2,
    }


def model_to_dict(model: NetworkModel) -> dict:
    """The format-2 document: layer records without values, and `params` as
    base64 of the parameter vector in little-endian float64."""
    layers = []
    for name, branch_layers in model.branches.items():
        layers.extend(_layer_to_dict(layer, name) for layer in branch_layers)
    layers.extend(_layer_to_dict(layer, "trunk") for layer in model.trunk)
    return {
        "format_version": FORMAT_VERSION,
        "variant_id": model.variant_id,
        "head": model.head,
        "merge_topology": {
            "branches": list(model.branches.keys()),
            "aux_width": model.aux_width,
        },
        "layers": layers,
        "params": base64.b64encode(model.params.astype("<f8").tobytes()).decode("ascii"),
    }


def check_format_version(version: Any) -> None:
    if version not in READABLE_VERSIONS:
        raise ModelFormatError(
            f"unsupported format_version {version!r}; expected one of {list(READABLE_VERSIONS)}"
        )


# What the fields of a model document and of its records must be, and the
# test for each, in the order they are checked.
_DOCUMENT_RULES = {
    "merge_topology": ("an object", lambda x: isinstance(x, dict)),
    "layers": ("a list", lambda x: isinstance(x, list)),
}
_PARAMS_RULE = {"params": ("a base64 string", lambda x: isinstance(x, str))}
_TOPOLOGY_RULES = {
    "branches": (
        "a list of strings",
        lambda x: isinstance(x, list) and all(isinstance(name, str) for name in x),
    ),
    "aux_width": ("an integer >= 0", is_nonnegative_integer),
}
_LAYER_RULES = {
    "shape": (
        "two integers >= 1",
        lambda x: isinstance(x, list) and len(x) == 2 and all(map(is_count, x)),
    ),
    "activation": ("a string", lambda x: isinstance(x, str)),
    "l1": ("a number", is_number),
    "l2": ("a number", is_number),
}


def _numbers(n: int) -> tuple[str, Callable[[Any], bool]]:
    """The rule of a format-1 record's list of `n` values."""
    return (
        f"a list of {n} numbers",
        lambda x: isinstance(x, list) and len(x) == n and all(map(is_number, x)),
    )


def check_fields(doc: dict, rules: dict, where: str = "") -> None:
    """ValueError, after `where`, naming the first field of `rules` that
    `doc` lacks or whose value breaks its rule."""
    for name, (must_be, valid) in rules.items():
        if name not in doc:
            raise ValueError(f"{where}missing field {name!r}")
        if not valid(doc[name]):
            raise ValueError(f"{where}field {name!r} must be {must_be}, got {shown(doc[name])}")


def _layer_from_dict(doc: dict, params: np.ndarray | None, start: int) -> DenseLayer:
    """The layer of a checked record: its values are in the record (format 1)
    or start at params[start] (format 2); model_from_dict reports a malformed one."""
    n_in, n_out = doc["shape"]
    if params is None:
        weights = np.asarray(doc["weights"], dtype=np.float64).reshape(n_in, n_out)
        biases = np.asarray(doc["biases"], dtype=np.float64)
    else:
        split, end = start + n_in * n_out, start + (n_in + 1) * n_out
        if end > params.size:
            raise ValueError(f"params has {params.size} values, fewer than the layers need")
        weights, biases = params[start:split].reshape(n_in, n_out), params[split:end]
    return DenseLayer(
        weights=weights,
        biases=biases,
        activation=doc["activation"],
        l1=float(doc["l1"]),
        l2=float(doc["l2"]),
    )


def model_from_dict(doc: dict) -> NetworkModel:
    """A model from a format-1 or format-2 document. Each record is checked
    before its values are used; a message names the record and field."""
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelFormatError("not a model document: missing format_version")
    check_format_version(doc["format_version"])
    try:
        version_rules = _PARAMS_RULE if doc["format_version"] == 2 else {}
        check_fields(doc, {**_DOCUMENT_RULES, **version_rules})
        params = None
        if version_rules:
            params = np.frombuffer(base64.b64decode(doc["params"], validate=True), dtype="<f8")
        check_fields(doc["merge_topology"], _TOPOLOGY_RULES, "merge_topology: ")
        branch_names = doc["merge_topology"]["branches"]
        aux_width = doc["merge_topology"]["aux_width"]
        names = [*branch_names, "trunk"]
        branch_rule = {"branch": (f"one of {names}", lambda x: x in names)}
        branches: dict[str, list[DenseLayer]] = {name: [] for name in branch_names}
        trunk: list[DenseLayer] = []
        used = 0
        for number, layer_doc in enumerate(doc["layers"], start=1):
            if not isinstance(layer_doc, dict):
                raise ValueError(f"layer {number} must be an object, got {shown(layer_doc)}")
            check_fields(layer_doc, {**branch_rule, **_LAYER_RULES}, f"layer {number}: ")
            if params is None:
                n_in, n_out = layer_doc["shape"]
                rules = {"weights": _numbers(n_in * n_out), "biases": _numbers(n_out)}
                check_fields(layer_doc, rules, f"layer {number}: ")
            layer = _layer_from_dict(layer_doc, params, used)
            used += layer.weights.size + layer.n_out
            if layer_doc["branch"] == "trunk":
                trunk.append(layer)
            else:
                branches[layer_doc["branch"]].append(layer)
        head, variant_id = doc.get("head"), doc.get("variant_id")
        if not isinstance(variant_id, (str, type(None))):
            raise TypeError(f"variant_id must be a string or null, got {shown(variant_id)}")
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ModelFormatError(f"corrupt model document: {exc}") from exc
    try:
        model = NetworkModel(
            branches=branches, aux_width=aux_width, trunk=trunk, head=head, variant_id=variant_id
        )
    except ValueError as exc:
        raise ModelFormatError(f"invalid model: {exc}") from exc
    # Checked once the layers are known to chain, so a missing layer reports as such.
    if params is not None and used != params.size:
        raise ModelFormatError(f"params has {params.size} values, the layers {used}")
    return model


def save_model(model: NetworkModel, path: Union[str, Path]) -> None:
    """Write the model as a format-2 JSON document; every parameter keeps its bits."""
    with writing(path) as handle:
        json.dump(model_to_dict(model), handle, sort_keys=True)
        handle.write("\n")


def load_document(path: Union[str, Path], from_dict: Callable[[Any], Any]) -> Any:
    """from_dict of the JSON document in `path`; ModelFormatError if not JSON or lacking a key."""
    try:
        with open(path) as handle:
            return from_dict(json.load(handle))
    except (json.JSONDecodeError, KeyError) as exc:
        raise ModelFormatError(str(exc)) from exc


def load_model(path: Union[str, Path]) -> NetworkModel:
    return load_document(path, model_from_dict)
