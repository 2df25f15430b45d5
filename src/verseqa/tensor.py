"""Small dense-tensor library with reverse-mode automatic differentiation.

Values are float64 numpy arrays in row-major order. Differentiation is
tape-free: every node records its operands and a backward closure, and
``backward()`` walks the implicit graph in reverse topological order.

The engine has no ops. Every layer (the LSTM pass, the conv-pool, BiDAF
attention, the logistic readout, the BCE loss) is one node per call with a
hand-written backward, next to the code that uses it, and sequences pass
between them as (node, rows) pairs; ``logistic`` is the sigmoid they
share. Forward results are bitwise deterministic.

A leaf made with ``requires_grad=False`` is a constant: its ``grad`` stays
None, and the layers it feeds neither list it among a node's parents nor
keep it for their backward, so it is freed when the forward that read it
ends. Embedded inputs are such constants, since training never updates the
embedding table. Every other node reached by ``backward()`` gets a
gradient.

``backward()`` frees the graph as it goes. A node's ``grad`` is made, as
zeros, just before the first closure that adds into it runs, and each
node's closure is dropped once it has run, so the arrays a stage saved for
its backward are freed as soon as the walk has passed it. A graph's
backward therefore runs once; a second call raises :class:`GraphError`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class GraphError(RuntimeError):
    """Backward called on something that is not a scalar graph output, or
    through a graph whose backward already ran."""


class Tensor:
    """A dense array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, _parents: Tuple["Tensor", ...] = (), *,
                 requires_grad: bool = True):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.size == 0:
            raise ShapeError("empty tensor is not allowed")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = None  # the layer that builds the node sets its closure

    # ---- basic introspection -------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # ---- backward ----------------------------------------------------------

    def backward(self) -> None:
        """Populate grads of all tensors reachable from this scalar output,
        constants (``requires_grad=False``) apart: their grad stays None. A
        grad starts at zero when the first closure that adds into it runs;
        each closure is dropped once it has run, freeing what it saved.
        GraphError if a node of the graph has already been through a
        backward."""
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
            if node._parents and node._backward is None:
                raise GraphError("backward already ran through this graph")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        made = {id(self)}
        for node in reversed(order):
            if node._backward is None:
                continue
            for p in node._parents:
                if p.requires_grad and id(p) not in made:
                    made.add(id(p))
                    p.grad = np.zeros_like(p.data)
            node._backward(node.grad)
            node._backward = None


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

