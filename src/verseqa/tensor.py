"""Parameters and scalar outputs with a reverse-mode backward.

Values are float64 numpy arrays in row-major order. There is no graph and
no ops. Each layer (the LSTM pass, the conv-pool, BiDAF attention, the
logistic readout) returns its output arrays and its backward, a closure
that takes the output's gradient, adds into its parameters' ``grad`` and
returns the gradient of its input arrays. Each model's ``score`` calls
those backwards in the reverse of the order it ran the layers; ``logistic``
is the sigmoid they share. Forward results are bitwise deterministic.

A :class:`Tensor` is a parameter, a model's [B, 1] output or a loss: an
array, its ``grad`` and at most one closure. ``backward()`` on a scalar
runs the closure once and drops it, so the arrays a layer saved for its
backward are freed once that layer's backward has run; a second call
raises :class:`GraphError`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Tuple

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class GraphError(RuntimeError):
    """Backward called on something that is not a scalar, that has no
    backward, or whose backward already ran."""


class Tensor:
    """An array, its gradient and the closure that backpropagates into it."""

    __slots__ = ("data", "grad", "_backward")
    # the benchmark's tracer counts graph nodes over ``_parents``: there are none
    _parents: tuple = ()

    def __init__(self, data, backward: Callable[[np.ndarray], None] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.size == 0:
            raise ShapeError("empty tensor is not allowed")
        self.grad: np.ndarray | None = None
        self._backward = backward  # takes the gradient of ``data``

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def backward(self) -> None:
        """Backpropagate from this scalar: run its closure on a gradient of one."""
        if self.data.size != 1:
            raise GraphError(f"backward requires a scalar, got shape {self.data.shape}")
        self.backward_from(np.ones_like(self.data))

    def backward_from(self, grad: np.ndarray) -> None:
        """Run the closure on ``grad``, the gradient of ``data``, and drop
        it. GraphError if there is none: a parameter, or a backward that
        already ran."""
        run, self._backward = self._backward, None
        if run is None:
            raise GraphError("no backward to run: a leaf, or its backward already ran")
        run(grad)

    def add_grad(self, g: np.ndarray) -> None:
        """``grad += g``, ``grad`` starting at zeros if it is None."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g


def logistic(a: np.ndarray) -> np.ndarray:
    """The sigmoid of a numpy array. Every sigmoid in verseqa is this
    expression; the LSTM pass evaluates it in place, step by step."""
    with np.errstate(over="ignore"):  # exp overflows to inf below ~-709: 1/inf = 0
        return 1.0 / (1.0 + np.exp(-a))


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
            t.data = np.array(src, dtype=np.float64)  # always a copy

