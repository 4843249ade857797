"""Shared test helpers."""

from __future__ import annotations


class Sgd:
    """Plain gradient descent in the optimizer interface of nets.AdamState.

    The updates take ascent gradients g and pass -g to step, so a step moves
    each parameter by p - lr * (-g), which is bit for bit p + lr * g.
    """

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: list, grads: list) -> None:
        for p, g in zip(params, grads):
            p -= self.lr * g
