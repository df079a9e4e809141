"""A small reverse-mode automatic differentiation engine on NumPy arrays.

The paper trains DNNs with PyTorch; this module is the from-scratch
substitute.  A :class:`Tensor` wraps a NumPy array and records the operations
applied to it so that :meth:`Tensor.backward` can propagate gradients through
the graph with reverse-mode accumulation.

Only the operations needed by the models in :mod:`repro.models` are
implemented, but each supports full NumPy broadcasting and batched shapes.
Gradient correctness is checked against numerical differentiation in
``tests/nn/test_gradcheck.py``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor", "set_sanitizer"]


_GRAD_ENABLED = True

#: Non-finite-provenance hook (same gate idiom as the kernel profiler).
#: ``None`` keeps op construction on the pre-existing code path: one global
#: load and one branch per op.  Installed/removed by
#: :mod:`repro.devtools.sanitize` -- this module never imports devtools.
_SANITIZER = None


def set_sanitizer(sanitizer) -> object:
    """Install (or with ``None`` remove) the op-result sanitizer; returns
    the previous one.  ``sanitizer`` needs one method:
    ``check_tensor_op(out, parents)``."""
    global _SANITIZER
    previous = _SANITIZER
    _SANITIZER = sanitizer
    return previous


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Whether operations currently record gradients."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _adoptable(grad, dtype) -> bool:
    """Whether ``grad`` can become a ``.grad`` as it is: it is the array
    ``np.array(grad, dtype=dtype, copy=True)`` would produce."""
    return (isinstance(grad, np.ndarray) and grad.dtype == dtype and grad.flags.writeable
            and (grad.flags.c_contiguous or grad.flags.f_contiguous))


def _graph_freed(grad) -> None:
    """The backward of a node :meth:`Tensor.backward` has already released."""
    raise RuntimeError(
        "backward() through a graph that has already been freed: a backward pass "
        "releases the graph it runs through; run the forward again")


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Convert ``value`` (array-like or Tensor) to a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


class Tensor:
    """A NumPy-backed tensor that records operations for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "op", "name",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, parents: Sequence["Tensor"] = (), op: str = "",
                 dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        # float32 is preserved so low-precision activation pipelines are not
        # silently upcast; every other dtype is promoted to float64 as before.
        # An explicit ``dtype`` overrides both rules (the compute-dtype entry
        # point used by initializers and ``Module.to``).
        array = np.asarray(data)
        if dtype is not None:
            self.data = np.asarray(array, dtype=dtype)
        else:
            self.data = array if array.dtype == np.float32 else np.asarray(array, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = tuple(parents) if self.requires_grad else ()
        self.op = op
        self.name: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.ndim else float(self.data)

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return self.data.shape[0]

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(data, parents: Sequence["Tensor"], backward: Callable[[np.ndarray], None], op: str) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, parents=[p for p in parents if p.requires_grad], op=op)
        if requires:
            out._backward = backward
        if _SANITIZER is not None:
            _SANITIZER.check_tensor_op(out, parents)
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        # Gradients live in the tensor's own dtype: a float32 parameter gets
        # float32 gradients (and float32 accumulation), the float64 default
        # keeps its bit-exact float64 stream.
        #
        # Ownership: a vjp passes ``owned=True`` for an array it has just
        # allocated and keeps no other reference to, and a first gradient in
        # that case is adopted instead of copied.  It is adopted only when
        # the copy would be the same array -- right dtype, writeable,
        # contiguous -- so what reads it later sees the same strides.
        # Pass-through gradients (views, the array ``add`` hands to both
        # parents) are copied, so no two tensors' ``.grad`` share memory.
        if self.grad is None:
            if owned and _adoptable(grad, self.data.dtype):
                self.grad = grad
            else:
                self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        The graph is freed as backward consumes it: once a node's vjp has
        run, the node drops its ``.grad``, its backward closure (with the
        arrays the forward saved for it) and its parents, so each
        activation goes as soon as nothing still to run needs it.  Leaf
        tensors -- parameters and inputs built with ``requires_grad`` --
        keep their ``.grad``, which accumulates across calls.  A second
        ``backward()`` through a freed node raises :class:`RuntimeError`;
        run the forward again to build a new graph.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order of the graph reachable from this tensor.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        # Pop in reverse topological order, so a processed node is
        # referenced by nothing here once it has been released.
        while topo:
            node = topo.pop()
            vjp = node._backward
            if vjp is None:  # a leaf: its .grad is the result
                continue
            if node.grad is not None:
                vjp(node.grad)
            node.grad = None
            node._backward = _graph_freed
            node._parents = ()

    def _coerce(self, other) -> "Tensor":
        """Tensor-ify an operand, keeping scalars at this tensor's dtype.

        Python/NumPy scalars (learning rates, ``1/count`` factors,
        ``np.sqrt(dim)`` results) would otherwise become float64 0-d arrays
        and silently promote a float32 pipeline to float64.  Arrays and
        tensors keep their own dtype, so genuine mixed-dtype operands still
        follow NumPy promotion.
        """
        if isinstance(other, Tensor):
            return other
        if np.isscalar(other) and np.issubdtype(self.data.dtype, np.floating):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return Tensor(other)

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad, owned=True)

        return Tensor._make(-self.data, (self,), backward, "neg")

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad * self.data / (other.data ** 2), other.shape),
                                  owned=True)

        return Tensor._make(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1), owned=True)

        return Tensor._make(out_data, (self,), backward, "pow")

    # ------------------------------------------------------------------ #
    # Matrix multiplication
    # ------------------------------------------------------------------ #
    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = np.matmul(self.data, other.data)

        def backward(grad):
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    grad_a = np.multiply.outer(grad, b) if a.ndim > 1 else grad * b
                else:
                    grad_a = np.matmul(grad, np.swapaxes(b, -1, -2))
                if a.ndim == 1 and grad_a.ndim > 1:
                    grad_a = grad_a.sum(axis=tuple(range(grad_a.ndim - 1)))
                self._accumulate(_unbroadcast(grad_a, a.shape), owned=True)
            if other.requires_grad:
                if a.ndim == 1:
                    grad_b = np.multiply.outer(a, grad) if b.ndim > 1 else a * grad
                else:
                    grad_b = np.matmul(np.swapaxes(a, -1, -2), grad)
                if b.ndim == 1 and grad_b.ndim > 1:
                    grad_b = grad_b.sum(axis=tuple(range(grad_b.ndim - 1)))
                other._accumulate(_unbroadcast(grad_b, b.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward, "matmul")

    def matmul(self, other) -> "Tensor":
        return self @ other

    # ------------------------------------------------------------------ #
    # Elementwise nonlinear functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data, owned=True)

        return Tensor._make(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data, owned=True)

        return Tensor._make(out_data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2), owned=True)

        return Tensor._make(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data), owned=True)

        return Tensor._make(out_data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return Tensor._make(out_data, (self,), backward, "relu")

    def leaky_relu(self, negative_slope: float = 0.1) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope).astype(self.data.dtype, copy=False)
        out_data = self.data * scale

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * scale, owned=True)

        return Tensor._make(out_data, (self,), backward, "leaky_relu")

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * sign, owned=True)

        return Tensor._make(out_data, (self,), backward, "abs")

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return Tensor._make(out_data, (self,), backward, "clip")

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            grad = np.asarray(grad)
            if axis is None:
                expanded = np.broadcast_to(grad, self.shape)
            else:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.ndim for a in axes)
                if not keepdims:
                    for a in sorted(axes):
                        grad = np.expand_dims(grad, a)
                expanded = np.broadcast_to(grad, self.shape)
            self._accumulate(expanded.copy(), owned=True)

        return Tensor._make(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            grad = np.asarray(grad)
            if axis is None:
                expanded_max = np.full(self.shape, out_data, dtype=self.data.dtype)
                expanded_grad = np.broadcast_to(grad, self.shape)
            else:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.ndim for a in axes)
                grad_k = grad
                max_k = out_data
                if not keepdims:
                    for a in sorted(axes):
                        grad_k = np.expand_dims(grad_k, a)
                        max_k = np.expand_dims(max_k, a)
                expanded_max = np.broadcast_to(max_k, self.shape)
                expanded_grad = np.broadcast_to(grad_k, self.shape)
            mask = (self.data == expanded_max).astype(self.data.dtype)
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            mask = mask / np.broadcast_to(counts, self.shape)
            self._accumulate(expanded_grad * mask, owned=True)

        return Tensor._make(out_data, (self,), backward, "max")

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward, "reshape")

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward, "transpose")

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        original_shape = self.shape

        def backward(grad):
            if self.requires_grad:
                full = np.zeros(original_shape, dtype=self.data.dtype)
                np.add.at(full, index, grad)
                self._accumulate(full, owned=True)

        return Tensor._make(out_data, (self,), backward, "getitem")

    def pad(self, pad_width) -> "Tensor":
        """Zero-pad; ``pad_width`` follows :func:`numpy.pad` conventions."""
        out_data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(before, before + size)
            for (before, _), size in zip(pad_width, self.shape)
        )

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad[slices])

        return Tensor._make(out_data, (self,), backward, "pad")

    # ------------------------------------------------------------------ #
    # Composite helpers
    # ------------------------------------------------------------------ #
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True).detach()
        exps = shifted.exp()
        return exps / exps.sum(axis=axis, keepdims=True)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True).detach()
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tensors, backward, "concat")


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        slices = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, slices):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tensors, backward, "stack")


# Re-export module-level helpers on the class for convenience.
Tensor.concat = staticmethod(concat)
Tensor.stack = staticmethod(stack)
