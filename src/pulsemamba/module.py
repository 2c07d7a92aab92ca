"""Minimal layer container: named parameters, buffers, train/eval state."""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from .tensor import Tensor


class Module:
    """Base for layers holding Tensor parameters and ndarray buffers.

    Attribute discovery follows insertion order, so parameter naming is
    deterministic: Tensor attributes are parameters, ndarray attributes
    are buffers (running stats), Module / list-of-Module attributes
    recurse with dotted names.
    """

    def __init__(self):
        self.training = True

    def _walk(self, prefix: str = "") -> Iterator[Tuple[str, object]]:
        """Pre-order walk: (prefix, self), then every Tensor, ndarray and
        sub-Module entry in insertion order under its dotted name."""
        yield prefix, self
        for key, val in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(val, (Tensor, np.ndarray)):
                yield name, val
            elif isinstance(val, Module):
                yield from val._walk(f"{name}.")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item._walk(f"{name}.{i}.")

    def named_parameters(self) -> Iterator[Tuple[str, Tensor]]:
        return ((n, v) for n, v in self._walk() if isinstance(v, Tensor))

    def parameters(self) -> Iterator[Tensor]:
        return (p for _, p in self.named_parameters())

    def named_buffers(self) -> Iterator[Tuple[str, np.ndarray]]:
        return ((n, v) for n, v in self._walk() if isinstance(v, np.ndarray))

    def modules(self) -> Iterator["Module"]:
        return (m for _, m in self._walk() if isinstance(m, Module))

    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())
