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

# Format 2 stores all parameters as one binary block; format 1 files still load.
FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2)

HEAD_SOFTMAX = "softmax-5"
HEAD_SIGMOID = "sigmoid-1"

LOSS_CCE = "categorical_cross_entropy"
LOSS_MAE = "mean_absolute_error"

CCE_CLAMP = 1e-12


class ShapeError(ValueError):
    """Input vector does not match the model's declared input sizes."""


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
    """

    branches: dict[str, list[DenseLayer]]
    aux_width: int
    trunk: list[DenseLayer]
    head: str
    variant_id: str | None = None
    params: np.ndarray = field(init=False, repr=False, compare=False)
    l1: np.ndarray = field(init=False, repr=False, compare=False)
    l2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.head not in (HEAD_SOFTMAX, HEAD_SIGMOID):
            raise ValueError(f"unknown head {self.head!r}")
        if not self.trunk:
            raise ValueError("trunk must contain at least the head layer")
        head_layer = self.trunk[-1]
        expected = ("softmax", 5) if self.head == HEAD_SOFTMAX else ("sigmoid", 1)
        if (head_layer.activation, head_layer.n_out) != expected:
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

    def branch_input_width(self, name: str) -> int:
        layers = self.branches[name]
        if layers:
            return layers[0].n_in
        # A branch with no layers feeds the merge directly; its width is
        # whatever the trunk expects after the other branches and aux.
        others = sum(ls[-1].n_out for ls in self.branches.values() if ls)
        return self.trunk[0].n_in - self.aux_width - others


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
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "linear":
        return z
    if activation == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    # softmax, shifted for stability
    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _activation_backward(da: np.ndarray, z: np.ndarray, a: np.ndarray, activation: str):
    """The gradient at a layer's pre-activation z from the gradient da at its output a."""
    if activation == "relu":
        return da * (z > 0.0)
    if activation == "linear":
        return da
    if activation == "sigmoid":
        return da * (a * (1.0 - a))
    raise ValueError("softmax gradient is fused with the cross-entropy loss")


def _as_batch(x: np.ndarray, width: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ShapeError(f"input '{name}' has shape {np.asarray(x).shape}, expected width {width}")
    return arr


def _forward_stack(layers: list[DenseLayer], a: np.ndarray, cache: list | None = None):
    """Run a layer stack; with a `cache` list, append each layer's (input, z, a).

    Without a cache, relu overwrites z, so a layer holds only its input and output.
    """
    for layer in layers:
        z = a @ layer.weights
        z += layer.biases
        if cache is None and layer.activation == "relu":
            a_next = np.maximum(z, 0.0, out=z)
        else:
            a_next = _activate(z, layer.activation)
        if cache is not None:
            cache.append((a, z, a_next))
        a = a_next
    return a


def _check_inputs(model: NetworkModel, inputs: dict[str, np.ndarray]):
    """Each branch's input as a matrix, in model.branches order, and the aux
    matrix (None when the model takes none); ShapeError names an input that
    is missing or has the wrong width or row count."""
    branch_inputs: list[np.ndarray] = []
    n = None
    for name in model.branches:
        if name not in inputs:
            raise ShapeError(f"missing input for branch '{name}'")
        a = _as_batch(inputs[name], model.branch_input_width(name), name)
        if n is None:
            n = a.shape[0]
        elif a.shape[0] != n:
            raise ShapeError(f"branch '{name}' batch size {a.shape[0]} != {n}")
        branch_inputs.append(a)
    aux = None
    if model.aux_width > 0:
        if "aux" not in inputs:
            raise ShapeError("missing input 'aux'")
        aux = _as_batch(inputs["aux"], model.aux_width, "aux")
        if n is not None and aux.shape[0] != n:
            raise ShapeError(f"aux batch size {aux.shape[0]} != {n}")
    return branch_inputs, aux


def run_layers(
    model: NetworkModel,
    branch_inputs: list[np.ndarray],
    aux: np.ndarray | None,
    caches: list | None = None,
) -> np.ndarray:
    """Network output from each branch's input matrix, in model.branches
    order, and the aux matrix (None when the model takes none).

    Nothing is checked: the matrices must have the widths the model takes
    and one row count. With a `caches` list, appends one per-layer cache list
    per branch, then one for the trunk; without, each layer's arrays are
    freed as it is passed.
    """

    def run(layers: list[DenseLayer], a: np.ndarray) -> np.ndarray:
        if caches is None:
            return _forward_stack(layers, a)
        caches.append([])
        return _forward_stack(layers, a, caches[-1])

    pieces = [run(layers, a) for layers, a in zip(model.branches.values(), branch_inputs)]
    if aux is not None:
        pieces.append(aux)
    merged = np.concatenate(pieces, axis=1) if len(pieces) > 1 else pieces[0]
    del pieces  # merged holds their values; free them before the trunk runs
    return run(model.trunk, merged)


def _forward_cached(model: NetworkModel, inputs: dict[str, np.ndarray]):
    """Forward pass keeping the (input, z, a) caches needed by backprop:
    returns the output, the caches (one per branch, then the trunk's) and
    each branch's output width."""
    branch_inputs, aux = _check_inputs(model, inputs)
    caches: list = []
    out = run_layers(model, branch_inputs, aux, caches)
    widths = [
        layers[-1].n_out if layers else a.shape[1]
        for layers, a in zip(model.branches.values(), branch_inputs)
    ]
    return out, caches, widths


def forward(model: NetworkModel, inputs: dict[str, np.ndarray]) -> np.ndarray:
    """Network output for a single sample (1-D inputs) or a batch (2-D)."""
    single = all(np.asarray(v).ndim == 1 for v in inputs.values())
    out = run_layers(model, *_check_inputs(model, inputs))
    return out[0] if single else out


def regularization_loss(model: NetworkModel) -> float:
    return float(model.l1 @ np.abs(model.params) + model.l2 @ np.square(model.params))


def data_loss(prediction: np.ndarray, target: np.ndarray, kind: str) -> float:
    pred = np.atleast_2d(np.asarray(prediction, dtype=np.float64))
    targ = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if pred.shape != targ.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {targ.shape}")
    if kind == LOSS_CCE:
        clamped = np.clip(pred, CCE_CLAMP, 1.0)
        return float(-np.mean(np.sum(targ * np.log(clamped), axis=1)))
    if kind == LOSS_MAE:
        return float(np.mean(np.abs(pred - targ)))
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
        np.sum(dz, axis=0, out=db)
        if layer.l1:
            dw += layer.l1 * np.sign(layer.weights)
        if layer.l2:
            dw += 2.0 * layer.l2 * layer.weights
        if i == 0 and not input_grad:
            return None
        da = dz @ layer.weights.T
        if i > 0:
            _, z, a = cache[i - 1]
            dz = _activation_backward(da, z, a, layers[i - 1].activation)
    return da


def backward_with_loss(
    model: NetworkModel, inputs: dict[str, np.ndarray], target: np.ndarray, kind: str
) -> tuple[np.ndarray, float]:
    """Gradient of the total loss (data loss plus L1/L2 penalty) w.r.t.
    model.params (same layout), and the data loss from the same forward pass.

    The returned vector is the only parameter-sized array a call allocates:
    each layer's gradient and penalty are written into their views of it.
    """
    output, caches, branch_widths = _forward_cached(model, inputs)
    trunk_cache = caches[-1]
    targ = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if targ.shape != output.shape:
        raise ShapeError(f"target shape {targ.shape} != output shape {output.shape}")

    head = model.trunk[-1]
    if kind == LOSS_CCE:
        if head.activation != "softmax":
            raise ValueError("categorical cross-entropy requires a softmax head")
        dz = (output - targ) / output.shape[0]
    elif kind == LOSS_MAE:
        da = np.sign(output - targ) / targ.size  # subgradient 0 at ties
        _, z, a = trunk_cache[-1]
        dz = _activation_backward(da, z, a, head.activation)
    else:
        raise ValueError(f"unknown loss kind {kind!r}")

    grad = np.empty_like(model.params)
    views = _views(model, grad)  # branch layers first, then the trunk
    d_merged = _backprop_stack(
        model.trunk, trunk_cache, dz, views[-len(model.trunk) :], any(model.branches.values())
    )
    offset = 0
    for layers, cache, width in zip(model.branches.values(), caches, branch_widths):
        if layers:
            _, z, a = cache[-1]
            da = d_merged[:, offset : offset + width]
            dz = _activation_backward(da, z, a, layers[-1].activation)
            _backprop_stack(layers, cache, dz, views[: len(layers)], input_grad=False)
        del views[: len(layers)]
        offset += width
    return grad, data_loss(output, targ, kind)


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


def _layer_from_dict(doc: dict, params: np.ndarray | None, start: int) -> DenseLayer:
    """The layer of a record: its values are in the record (format 1) or
    start at params[start] (format 2)."""
    try:
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
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"corrupt layer record: {exc}") from exc


def model_from_dict(doc: dict) -> NetworkModel:
    """A model from a format-1 or format-2 document."""
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelFormatError("not a model document: missing format_version")
    check_format_version(doc["format_version"])
    try:
        params = None
        if doc["format_version"] == 2:
            params = np.frombuffer(base64.b64decode(doc["params"], validate=True), dtype="<f8")
        branch_names = doc["merge_topology"]["branches"]
        aux_width = int(doc["merge_topology"]["aux_width"])
        branches: dict[str, list[DenseLayer]] = {name: [] for name in branch_names}
        trunk: list[DenseLayer] = []
        used = 0
        for layer_doc in doc["layers"]:
            layer = _layer_from_dict(layer_doc, params, used)
            used += layer.weights.size + layer.n_out
            if layer_doc["branch"] == "trunk":
                trunk.append(layer)
            else:
                branches[layer_doc["branch"]].append(layer)
        head, variant_id = doc["head"], doc.get("variant_id")
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
    with open(path, "w") as handle:
        json.dump(model_to_dict(model), handle, sort_keys=True)
        handle.write("\n")


def load_document(path: Union[str, Path], from_dict: Callable[[Any], Any]) -> Any:
    """from_dict of the JSON document in `path`; a malformed document raises
    ModelFormatError naming the file."""
    try:
        with open(path) as handle:
            return from_dict(json.load(handle))
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, ModelFormatError) as exc:
        raise ModelFormatError(f"model file {path}: {exc}") from exc


def load_model(path: Union[str, Path]) -> NetworkModel:
    return load_document(path, model_from_dict)
