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

    def step_noise(self, primary_dim: int, aux_dim: int = 0, n: int | None = None) -> "StepNoise":
        shape = (primary_dim,) if n is None else (n, primary_dim)
        primary = self._gen.standard_normal(shape)
        aux = None
        if aux_dim:
            aux_shape = (aux_dim,) if n is None else (n, aux_dim)
            aux = self._gen.standard_normal(aux_shape)
        return StepNoise(primary=primary, auxiliary=aux)


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
    if space.curvature == 1:
        lengths = space.metric_norm(tangent)
        if np.any(lengths >= np.pi / 2.0):
            raise StepTooLargeError(
                f"step length {np.max(lengths):.4f} >= pi/2; decrease the step size"
            )
    return space.exp_tangent(x, tangent)


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


def so3_exp(omega) -> np.ndarray:
    """Matrix exponential of the cross-product matrix of omega (axis-angle form)."""
    omega = np.asarray(omega, float)
    theta = float(np.linalg.norm(omega))
    if theta < 1e-154:
        return np.eye(3)
    axis = omega / theta
    hat = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(theta) * hat + (1.0 - np.cos(theta)) * (hat @ hat)


def reorthonormalize_rotation(z: np.ndarray) -> np.ndarray:
    """Project a near-rotation 3x3 matrix back onto SO(3) (Gram-Schmidt on rows)."""
    r0 = z[0] / np.linalg.norm(z[0])
    r1 = z[1] - np.dot(r0, z[1]) * r0
    r1 /= np.linalg.norm(r1)
    r2 = np.cross(r0, r1)
    return np.array([r0, r1, r2])


def so3_flow_step(z, noise, h: float) -> np.ndarray:
    """One step of the rotation-group random walk Z -> exp(sqrt(h) [noise]_x) Z.

    The unit generator scaling makes Z_t x a spherical Brownian motion with
    generator Laplacian/2 (linear functionals decay like exp(-t)).
    """
    if h <= 0.0:
        raise DomainError(f"step size must be positive, got {h}")
    z = np.asarray(z, float)
    if z.shape != (3, 3):
        raise DomainError(f"rotation state must be 3x3, got {z.shape}")
    rot = so3_exp(np.sqrt(h) * np.asarray(noise, float))
    return reorthonormalize_rotation(rot @ z)


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
