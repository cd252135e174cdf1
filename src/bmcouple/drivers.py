"""Random-number streams and one-step integrators for the coupled simulations.

The generator is counter-based (Philox keyed by (seed, stream id)), so every
path owns an independent stream and parallel runs reproduce bitwise no matter
how work is scheduled.  The integrators are weak order-1 Euler-type steps that
renormalize back onto the model constraint after every move; the geodesic
random walk applies the reference frame in closed form and builds no frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CouplingConstraintError, DomainError, StepTooLargeError
from .spaces import ModelSpace, rowsum


def stream_keys(seed: int, stream_ids) -> np.ndarray:
    """Philox keys (seed mod 2^64, id mod 2^64) of the streams, shape (n, 2)."""
    keys = np.empty((len(stream_ids), 2), dtype=np.uint64)
    keys[:, 0] = int(seed) % 2**64
    keys[:, 1] = [int(sid) % 2**64 for sid in stream_ids]
    return keys


class NoiseStream:
    """Reproducible Gaussian stream identified by a 64-bit seed and a stream id.

    Philox is counter-based, so one generator serves many streams: ``rekey``
    moves it to the start of another stream, ``tell`` writes its position
    into ``POSITION_WORDS`` words of a uint64 array (the Philox counter and
    the unused words of its last block), and ``seek`` resumes a stream from
    such a position.  Either way it draws what a generator built on that key
    draws, without the build.
    """

    POSITION_WORDS = 11

    def __init__(self, seed: int, stream_id: int = 0):
        self._bitgen = np.random.Philox(key=stream_keys(seed, [stream_id])[0])
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state  # each seek rewrites it
        self._origin = np.empty(self.POSITION_WORDS, dtype=np.uint64)
        self.tell(self._origin)

    def rekey(self, key) -> None:
        """Restart at the beginning of the stream with Philox key ``key``
        (a row of ``stream_keys``)."""
        self.seek(key, self._origin)

    def tell(self, out) -> None:
        """Write the position in the stream into the uint64 array ``out`` of
        ``POSITION_WORDS`` words."""
        state = self._bitgen.state
        out[:4] = state["state"]["counter"]
        out[4:8] = state["buffer"]
        out[8:] = state["buffer_pos"], state["has_uint32"], state["uinteger"]

    def seek(self, key, position) -> None:
        """Continue the stream with Philox key ``key`` from the ``position``
        that ``tell`` wrote."""
        words, state = position.tolist(), self._state
        state["state"]["key"] = key
        state["state"]["counter"] = words[:4]
        state["buffer"] = words[4:8]
        state["buffer_pos"], state["has_uint32"], state["uinteger"] = words[8:]
        self._bitgen.state = state

    def standard_normal(self, shape=None, out=None) -> np.ndarray:
        """Next standard normals of the stream, as a new array of ``shape`` or
        filled in place into the C-contiguous float array ``out`` (which is
        returned); both draw the same values in the same order."""
        return self._gen.standard_normal(shape, out=out)


@dataclass
class StepNoise:
    """Fresh standard-normal draws for one step: the primary driver and, for
    strategies that need an independent driver, an auxiliary block."""

    primary: np.ndarray
    auxiliary: np.ndarray | None = None


# -- one-step integrators -----------------------------------------------------


def _check_step_size(h) -> None:
    """Reject a non-positive step size: one float, or a (rows, 1) column of
    them, one per row of the points it moves."""
    bad = h <= 0.0
    if bad if isinstance(bad, bool) else bad.any():
        raise DomainError(f"step size must be positive, got {np.min(h)}")


def stroock_step(x, noise, h) -> np.ndarray:
    """One projected Euler step of the ambient sphere SDE
    dX = (I - X X') dB - X dt, renormalized back onto the unit sphere; ``h``
    is one step size or a (rows, 1) column of them, and sqrt(h) noise has
    the shape of the result.  The step is formed in place of its own
    temporaries, never of x or noise: rows stepped in lockstep share views
    of one draw.  On transposed coordinate rows the result is one too."""
    _check_step_size(h)
    x = np.asarray(x, float)
    out = np.sqrt(h) * np.asarray(noise, float)
    out -= rowsum(x * out)[..., None] * x
    out += x * (1.0 - h)
    out /= np.sqrt(rowsum(out * out))[..., None]
    return out


def geodesic_walk_step(space: ModelSpace, x, noise, h) -> np.ndarray:
    """Geodesic random-walk step: exponential of sqrt(h) * sum_i noise_i b_i
    over the reference frame b at x (``ModelSpace.frame_apply``); ``noise``
    has shape (..., d), and ``h`` is one step size or a (rows, 1) column."""
    _check_step_size(h)
    x = np.asarray(x, float)
    tangent = np.sqrt(h) * space.frame_apply(x, noise)
    return _exp_step(space, x, tangent)


def check_step_length(space: ModelSpace, tangent):
    """Raise StepTooLargeError if a tangent step on the sphere is pi/2 or longer;
    every geodesic step, the walk's and the rotation coupling's, obeys it.
    Returns the step lengths ``metric_norm(tangent)`` on the sphere, else None."""
    if space.curvature != 1:
        return None
    lengths = space.metric_norm(tangent)
    if (lengths >= np.pi / 2.0).any():
        raise StepTooLargeError(f"step length {np.max(lengths):.4f} >= pi/2; decrease the step size")
    return lengths


def _exp_step(space: ModelSpace, x, tangent) -> np.ndarray:
    """``space.exp_tangent(x, tangent)`` after ``check_step_length``, with each
    tangent measured once: the lengths the check took feed the exponential."""
    lengths = check_step_length(space, tangent)
    if lengths is None:
        return space.exp_tangent(x, tangent)
    return space._exp_length(x, tangent, lengths)


def kendall_compose(c, s, db, dc) -> np.ndarray:
    """Driver increment c dB + s dC of the composed coupling representation:
    J dB + K dC with J = c I and K = s I.  c and s carry one weight per row
    of dB and dC (one axis fewer); the weights must satisfy c^2 + s^2 = 1
    within 1e-10."""
    c = np.asarray(c, float)
    s = np.asarray(s, float)
    resid = np.max(np.abs(c * c + s * s - 1.0))
    if resid > 1e-10:
        raise CouplingConstraintError(f"J J' + K K' deviates from I by {resid:.3e}")
    return c[..., None] * np.asarray(db, float) + s[..., None] * np.asarray(dc, float)
