"""Random-number streams and one-step integrators for the coupled simulations.

The generator is counter-based (Philox keyed by (seed, stream id)), so every
path owns an independent stream and parallel runs reproduce bitwise no matter
how work is scheduled.  The integrators are weak order-1 Euler-type steps that
renormalize back onto the model constraint after every move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CouplingConstraintError, DomainError, StepTooLargeError
from .spaces import ModelSpace


class NoiseStream:
    """Reproducible Gaussian stream identified by a 64-bit seed and a stream id."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)


@dataclass
class StepNoise:
    """Fresh standard-normal draws for one step: the primary driver and, for
    strategies that need an independent driver, an auxiliary block."""

    primary: np.ndarray
    auxiliary: np.ndarray | None = None


# -- one-step integrators -----------------------------------------------------


def stroock_step(x, noise, h: float) -> np.ndarray:
    """One projected Euler step of the ambient sphere SDE
    dX = (I - X X') dB - X dt, renormalized back onto the unit sphere."""
    if h <= 0.0:
        raise DomainError(f"step size must be positive, got {h}")
    x = np.asarray(x, float)
    noise = np.asarray(noise, float)
    scaled = np.sqrt(h) * noise
    move = scaled - np.sum(x * scaled, axis=-1, keepdims=True) * x
    out = x * (1.0 - h) + move
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


def geodesic_walk_step(space: ModelSpace, x, noise, h: float, frame) -> np.ndarray:
    """Geodesic random-walk step: exponential of sqrt(h) * sum_i noise_i frame_i.

    ``frame`` holds an orthonormal tangent basis at x with shape
    (..., d, ambient); ``noise`` has shape (..., d).
    """
    if h <= 0.0:
        raise DomainError(f"step size must be positive, got {h}")
    x = np.asarray(x, float)
    noise = np.asarray(noise, float)
    tangent = np.sqrt(h) * np.einsum("...j,...ja->...a", noise, np.asarray(frame, float))
    check_step_length(space, tangent)
    return space.exp_tangent(x, tangent)


def check_step_length(space: ModelSpace, tangent) -> None:
    """Raise StepTooLargeError if a tangent step on the sphere is pi/2 or longer;
    every geodesic step, the walk's and the rotation coupling's, obeys it."""
    if space.curvature == 1:
        lengths = space.metric_norm(tangent)
        if np.any(lengths >= np.pi / 2.0):
            raise StepTooLargeError(
                f"step length {np.max(lengths):.4f} >= pi/2; decrease the step size"
            )


def kendall_compose(j, k, db, dc) -> np.ndarray:
    """Driver increment J dB + K dC of the composed coupling representation.

    J and K are (..., d, d) matrices, or arrays with one axis fewer than dB
    whose entries stand for those multiples of the identity (the mixing
    c dB + s dC of two independent drivers).  They may carry leading batch
    axes; the pair must satisfy J J' + K K' = I within 1e-10.
    """
    j = np.asarray(j, float)
    k = np.asarray(k, float)
    db = np.asarray(db, float)
    dc = np.asarray(dc, float)
    if j.ndim < db.ndim:
        resid = np.max(np.abs(j * j + k * k - 1.0))
        out = j[..., None] * db + k[..., None] * dc
    else:
        gram = np.einsum("...ij,...kj->...ik", j, j) + np.einsum("...ij,...kj->...ik", k, k)
        resid = np.max(np.abs(gram - np.eye(j.shape[-1])))
        out = np.einsum("...ij,...j->...i", j, db) + np.einsum("...ij,...j->...i", k, dc)
    if resid > 1e-10:
        raise CouplingConstraintError(f"J J' + K K' deviates from I by {resid:.3e}")
    return out


# -- one-step spectral factors (deterministic weak-error diagnostics) ---------


def stroock_linear_factor(h: float, n_nodes: int = 120) -> float:
    """Exact one-step multiplier of linear functionals under stroock_step.

    By rotational symmetry E[v . X_next | X] = factor(h) * (v . X); the factor
    is a one-dimensional Gaussian integral evaluated by Gauss-Laguerre
    quadrature, so weak-error decay can be measured without Monte Carlo.
    """
    nodes, weights = np.polynomial.laguerre.laggauss(n_nodes)
    # |P G|^2 with G standard 3-normal and P the tangent projector is chi^2_2,
    # i.e. 2T with T ~ Exp(1).
    vals = (1.0 - h) / np.sqrt((1.0 - h) ** 2 + 2.0 * h * nodes)
    return float(np.sum(weights * vals))


def walk_linear_factor(h: float, dim: int, n_nodes: int = 160) -> float:
    """Exact one-step multiplier of ambient-linear functionals under
    geodesic_walk_step on the sphere of dimension ``dim``."""
    from math import gamma

    nodes, weights = np.polynomial.laguerre.laggauss(n_nodes)
    power = dim / 2.0 - 1.0
    vals = np.cos(np.sqrt(2.0 * h * nodes)) * nodes**power
    return float(np.sum(weights * vals) / gamma(dim / 2.0))
