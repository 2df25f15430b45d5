"""Small dense-tensor library with reverse-mode automatic differentiation.

Values are float64 numpy arrays in row-major order. Differentiation is
tape-free: every op records its operands and a backward closure, and
``backward()`` walks the implicit graph in reverse topological order.

The ops are ``+``, ``*``, ``matmul``, ``rows``, ``sigmoid`` and ``concat``.
Larger layers (the LSTM pass, the conv-pool, BiDAF attention, the BCE loss)
are each one node with a hand-written backward, next to the code that uses
them.

There is no broadcasting: the operands of ``+`` and ``*`` must be tensors
of equal shape, else :class:`ShapeError`. Forward results are bitwise
deterministic.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Dict, Iterator, Sequence, Tuple

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class InvalidAxisError(ValueError):
    """Axis index outside the operand's rank."""


class GraphError(RuntimeError):
    """Backward called on something that is not a scalar graph output."""


class Tensor:
    """A dense array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents: Tuple["Tensor", ...] = (),
                 _backward: Callable[[np.ndarray], None] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.size == 0:
            raise ShapeError("empty tensor is not allowed")
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = _backward

    # ---- basic introspection -------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # ---- arithmetic ----------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        self.grad += g  # backward() zeroed every reachable grad first

    def _same_shape(self, other, op: str) -> None:
        if not (isinstance(other, Tensor) and other.shape == self.shape):
            raise ShapeError(f"{op}: operands {self.shape} and {getattr(other, 'shape', other)}"
                             " differ (there is no broadcasting)")

    def __add__(self, other: "Tensor") -> "Tensor":
        self._same_shape(other, "add")
        out = Tensor(self.data + other.data, (self, other))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g)
            other._accumulate(g)

        out._backward = backward
        return out

    def __mul__(self, other: "Tensor") -> "Tensor":
        self._same_shape(other, "mul")
        out = Tensor(self.data * other.data, (self, other))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * other.data)
            other._accumulate(g * self.data)

        out._backward = backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    # ---- shape manipulation ----------------------------------------------------

    def rows(self, start: int, stop: int) -> "Tensor":
        """Contiguous row slice [start, stop) along axis 0."""
        n = self.shape[0]
        if not (0 <= start < stop <= n):
            raise ShapeError(f"row slice [{start}, {stop}) out of range for {self.shape}")
        out = Tensor(self.data[start:stop].copy(), (self,))

        def backward(g: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            full[start:stop] = g
            self._accumulate(full)

        out._backward = backward
        return out

    # ---- nonlinearities ----------------------------------------------------

    def sigmoid(self) -> "Tensor":
        val = logistic(self.data)
        out = Tensor(val, (self,))
        out._backward = lambda g: self._accumulate(g * val * (1.0 - val))
        return out

    # ---- backward ----------------------------------------------------------

    def backward(self) -> None:
        """Populate grads of all tensors reachable from this scalar output."""
        if self.data.size != 1:
            raise GraphError(f"backward requires a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in order:
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


# ---- free functions --------------------------------------------------------


def logistic(a: np.ndarray) -> np.ndarray:
    """The sigmoid of a numpy array; every sigmoid in verseqa is this one."""
    with np.errstate(over="ignore"):  # exp overflows to inf below ~-709: 1/inf = 0
        return 1.0 / (1.0 + np.exp(-a))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul requires rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data, (a, b))

    def backward(g: np.ndarray) -> None:
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    out._backward = backward
    return out


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along ``axis`` in one graph node and one copy."""
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    if not (0 <= axis < parts[0].ndim):
        raise InvalidAxisError(f"axis {axis} out of range for shape {parts[0].shape}")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:  # rank or off-axis extent mismatch
        raise ShapeError(f"concat of shapes {[p.shape for p in parts]}: {exc}") from exc
    out = Tensor(data, parts)

    def backward(g: np.ndarray) -> None:
        bounds = list(accumulate(p.shape[axis] for p in parts[:-1]))
        for p, gp in zip(parts, np.split(g, bounds, axis=axis)):
            p._accumulate(gp)

    out._backward = backward
    return out


class ParameterSet:
    """Named tensors with deterministic (lexicographic) iteration order."""

    def __init__(self, items: Dict[str, Tensor] | None = None):
        self._items: Dict[str, Tensor] = {}
        if items:
            for name, t in items.items():
                self.add(name, t)

    def add(self, name: str, t: Tensor) -> Tensor:
        if not name or not name.isascii():
            raise ValueError(f"parameter name must be non-empty ASCII: {name!r}")
        if name in self._items:
            raise ValueError(f"duplicate parameter name: {name}")
        self._items[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._items[name]

    def items(self) -> Iterator[Tuple[str, Tensor]]:
        for name in sorted(self._items):
            yield name, self._items[name]

    def copy_values(self) -> Dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.items()}

    def load_values(self, values: Dict[str, np.ndarray]) -> None:
        for name, t in self.items():
            src = values[name]
            if src.shape != t.data.shape:
                raise ShapeError(f"parameter {name}: shape {src.shape} "
                                 f"does not match {t.data.shape}")
            t.data = src.astype(np.float64).copy()

