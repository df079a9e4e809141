"""Module system: layers with learnable parameters and composition helpers.

Mirrors the subset of ``torch.nn`` needed by the paper's evaluation models:
``Linear``, ``Conv2d``, ``BatchNorm2d``, ``LayerNorm``, ``Embedding``,
activations, pooling, ``Dropout``, ``Sequential``.  Modules register their
parameters and submodules automatically via attribute assignment so that
``parameters()`` and ``named_modules()`` walk the whole tree, which the
quantized trainers rely on to enumerate layers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor, as_tensor

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "LayerNorm",
    "Embedding",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "GELU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
    "Sequential",
    "ModuleList",
]


class Parameter(Tensor):
    """A tensor that is a learnable parameter of a module.

    Carries a monotonically increasing ``version`` counter that optimizers
    bump on every in-place update.  Quantized layers key their cached
    quantized weights on it, so unchanged weights (eval, TTA, repeated
    forward passes) are never re-quantized.  Code that mutates ``data``
    directly should call :meth:`bump_version` to invalidate those caches.
    """

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.version = 0

    def bump_version(self) -> None:
        """Mark the parameter as modified (invalidates quantization caches)."""
        self.version += 1


class Module:
    """Base class for all neural network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", [])
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
            # A submodule attached after ``eval()``/``train()`` inherits the
            # parent's current mode, so one toggle on the root governs every
            # training-only branch (dropout, batch-norm statistics).
            if value.training != self.training:
                value.train(self.training)
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, value: Optional[Parameter]) -> None:
        if value is not None:
            self._parameters[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-learnable state array (e.g. batch-norm statistics).

        Buffers join :meth:`state_dict`/:meth:`load_state_dict` so running
        statistics survive checkpointing, but they are not returned by
        :meth:`parameters` and receive no gradients.  Reassigning the
        attribute updates the buffer (the name stays registered).
        """
        if name not in self._buffers:
            self._buffers.append(name)
        object.__setattr__(self, name, np.asarray(value))

    def named_buffers(self, prefix: str = "") -> List[Tuple[str, np.ndarray]]:
        result = [(prefix + name, getattr(self, name)) for name in self._buffers]
        for name, module in self._modules.items():
            result.extend(module.named_buffers(prefix=prefix + name + "."))
        return result

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        if module.training != self.training:
            module.train(self.training)
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        """All learnable parameters of this module and its submodules."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> List[Tuple[str, Parameter]]:
        result = []
        for name, param in self._parameters.items():
            result.append((prefix + name, param))
        for name, module in self._modules.items():
            result.extend(module.named_parameters(prefix=prefix + name + "."))
        return result

    def named_modules(self, prefix: str = "") -> List[Tuple[str, "Module"]]:
        result = [(prefix.rstrip("."), self)] if prefix else [("", self)]
        for name, module in self._modules.items():
            result.extend(module.named_modules(prefix=prefix + name + "."))
        return result

    def modules(self) -> List["Module"]:
        return [module for _, module in self.named_modules()]

    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def to(self, dtype) -> "Module":
        """Cast every floating parameter and buffer to ``dtype`` in place.

        The cast bumps parameter versions and clears per-layer quantized
        weight caches so stale arrays at the old dtype are never reused.
        Integer buffers (e.g. token indices) are left untouched.  Optimizers
        built *before* the cast hold state at the old dtype -- construct them
        after ``to()`` (matching the usual build/cast/optimize order).
        """
        dtype = np.dtype(dtype)
        for param in self.parameters():
            if np.issubdtype(param.data.dtype, np.floating) and param.data.dtype != dtype:
                param.data = param.data.astype(dtype)
                param.grad = None
                if isinstance(param, Parameter):
                    param.bump_version()
        for _, module in self.named_modules():
            for name in module._buffers:
                value = getattr(module, name)
                if (isinstance(value, np.ndarray)
                        and np.issubdtype(value.dtype, np.floating)
                        and value.dtype != dtype):
                    object.__setattr__(module, name, value.astype(dtype))
            clear_cache = getattr(module, "clear_weight_cache", None)
            if clear_cache is not None:
                clear_cache()
        return self

    def float(self) -> "Module":
        """Cast to float32 (the compute-dtype training/serving mode)."""
        return self.to(np.float32)

    def double(self) -> "Module":
        """Cast to float64 (the bit-exact default precision)."""
        return self.to(np.float64)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        """A flat name -> array snapshot of all parameters and buffers."""
        state = {name: param.data.copy() for name, param in self.named_parameters(prefix)}
        for name, value in self.named_buffers(prefix):
            state[name] = np.array(value)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for name, param in self.named_parameters():
            if name in state:
                # Load at the parameter's own dtype so a float32-cast model
                # stays float32 when restoring a checkpoint (float64 models
                # load bit-identically as before).
                param.data = np.array(state[name], dtype=param.data.dtype).reshape(param.shape)
                if isinstance(param, Parameter):
                    param.bump_version()
        for path, module in self.named_modules():
            prefix = path + "." if path else ""
            for name in module._buffers:
                key = prefix + name
                if key in state:
                    object.__setattr__(module, name, np.array(state[key]))

    def num_parameters(self) -> int:
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------ #
    # Invocation
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{type(self).__name__}()"


class Linear(Module):
    """Fully connected layer ``y = x @ W.T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None,
                 dtype=None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng=rng,
                                                     dtype=dtype))
        self.bias = Parameter(init.zeros(out_features, dtype=dtype)) if bias else None

    def forward(self, x) -> Tensor:
        return F.linear(as_tensor(x), self.weight, self.bias)


class Conv2d(Module):
    """2D convolution layer (NCHW layout, square kernels)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        groups: int = 1,
        rng=None,
        dtype=None,
    ):
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError("in_channels and out_channels must be divisible by groups")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        weight_shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(weight_shape, rng=rng, dtype=dtype))
        self.bias = Parameter(init.zeros(out_channels, dtype=dtype)) if bias else None

    def forward(self, x) -> Tensor:
        return F.conv2d(as_tensor(x), self.weight, self.bias, stride=self.stride,
                        padding=self.padding, groups=self.groups)


class BatchNorm2d(Module):
    """Batch normalization over the channel axis of NCHW tensors."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1,
                 dtype=None):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones(num_features, dtype=dtype))
        self.bias = Parameter(init.zeros(num_features, dtype=dtype))
        buffer_dtype = np.float64 if dtype is None else dtype
        self.register_buffer("running_mean", np.zeros(num_features, dtype=buffer_dtype))
        self.register_buffer("running_var", np.ones(num_features, dtype=buffer_dtype))

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean.data.reshape(-1)
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var.data.reshape(-1)
            )
        else:
            mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1, 1))
        normalized = (x - mean) / ((var + self.eps) ** 0.5)
        weight = self.weight.reshape(1, -1, 1, 1)
        bias = self.bias.reshape(1, -1, 1, 1)
        return normalized * weight + bias


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5, dtype=None):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(init.ones(normalized_shape, dtype=dtype))
        self.bias = Parameter(init.zeros(normalized_shape, dtype=dtype))

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normalized = (x - mean) / ((var + self.eps) ** 0.5)
        return normalized * self.weight + self.bias


class Embedding(Module):
    """Token embedding table."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng=None, dtype=None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), std=0.02, rng=rng,
                                            dtype=dtype))

    def forward(self, indices) -> Tensor:
        return F.embedding(self.weight, np.asarray(indices))


class ReLU(Module):
    def forward(self, x) -> Tensor:
        return as_tensor(x).relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.1):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x) -> Tensor:
        return as_tensor(x).leaky_relu(self.negative_slope)


class Sigmoid(Module):
    def forward(self, x) -> Tensor:
        return as_tensor(x).sigmoid()


class Tanh(Module):
    def forward(self, x) -> Tensor:
        return as_tensor(x).tanh()


class GELU(Module):
    """Gaussian error linear unit (tanh approximation)."""

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        inner = (x + x * x * x * 0.044715) * np.sqrt(2.0 / np.pi)
        return x * 0.5 * (inner.tanh() + 1.0)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x) -> Tensor:
        return F.max_pool2d(as_tensor(x), self.kernel_size, self.stride)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x) -> Tensor:
        return F.avg_pool2d(as_tensor(x), self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    """Average over the spatial dimensions, producing (N, C)."""

    def forward(self, x) -> Tensor:
        return as_tensor(x).mean(axis=(2, 3))


class Flatten(Module):
    def __init__(self, start_dim: int = 1):
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x) -> Tensor:
        return as_tensor(x).flatten(self.start_dim)


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng=None):
        super().__init__()
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()  # repro-lint: disable=RL005 -- API fallback; repro paths thread a seeded rng

    def forward(self, x) -> Tensor:
        return F.dropout(as_tensor(x), self.p, training=self.training, rng=self.rng)


class Identity(Module):
    def forward(self, x) -> Tensor:
        return as_tensor(x)


class Sequential(Module):
    """Compose modules in order.

    One fusion rule: a :class:`ReLU` immediately followed by a
    :class:`MaxPool2d` runs as one :func:`~repro.nn.functional.relu_max_pool2d`,
    which equals the two modules run in turn bit for bit (values and
    gradients) but keeps neither the ReLU output nor its mask in the graph.
    """

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = str(index)
            self.add_module(name, module)
            self._order.append(name)

    def append(self, module: Module) -> "Sequential":
        name = str(len(self._order))
        self.add_module(name, module)
        self._order.append(name)
        return self

    def __iter__(self):
        return (self._modules[name] for name in self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def __len__(self) -> int:
        return len(self._order)

    def forward(self, x):
        modules = list(self)
        index = 0
        while index < len(modules):
            module = modules[index]
            following = modules[index + 1] if index + 1 < len(modules) else None
            if type(module) is ReLU and type(following) is MaxPool2d:
                x = F.relu_max_pool2d(as_tensor(x), following.kernel_size, following.stride)
                index += 2
                continue
            x = module(x)
            index += 1
        return x


class ModuleList(Module):
    """A list of modules whose parameters are registered with the parent."""

    def __init__(self, modules=()):
        super().__init__()
        self._order: List[str] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = str(len(self._order))
        self.add_module(name, module)
        self._order.append(name)
        return self

    def __iter__(self):
        return (self._modules[name] for name in self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def __len__(self) -> int:
        return len(self._order)

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not called
        raise RuntimeError("ModuleList is a container and cannot be called")
