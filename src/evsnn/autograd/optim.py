"""Optimizer, LR schedule, gradient clipping and weight init."""

from __future__ import annotations

import math

import numpy as np


def cosine_lr(step, total_steps, lr0):
    """Cosine annealing from lr0 at step 0 to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr0 * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0


def clip_grad_norm(params, max_norm=1.0):
    """Scale all gradients so the global L2 norm is at most max_norm.

    Returns the pre-clip norm.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def kaiming_uniform_init(shape, fan_in, rng):
    """Uniform on [-b, b] with b = sqrt(6 / fan_in) (ReLU-family gain)."""
    if fan_in <= 0:
        raise ValueError("fan_in must be positive")
    b = math.sqrt(6.0 / fan_in)
    return rng.uniform(-b, b, size=shape).astype(np.float32)


class AdamW:
    """AdamW with decoupled weight decay.

    The decay shrinks parameters by lr * weight_decay independently of the
    bias-corrected moment update.
    """

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=1e-4):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                g = np.zeros_like(p.data)
            else:
                g = p.grad
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            p.data -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(p.data.dtype)
