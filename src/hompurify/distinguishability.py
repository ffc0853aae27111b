"""Internal-state overlap models: constant overlap, pure-dephasing
wavepackets (analytic pairwise value and Monte Carlo trajectories), and
polarization rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .permanents import DistinguishabilityMatrix

# Time steps per block of the dephasing sampler's Gram accumulation.
_TIME_BLOCK = 256


@dataclass(frozen=True)
class DephasingParams:
    """Emitter decay rate, pure dephasing rate and optional per-photon slow
    detunings (all in mutually consistent rate units)."""

    gamma: float
    gamma_d: float = 0.0
    deltas: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"decay rate gamma must be finite and positive, got {self.gamma!r}")
        if not 0.0 <= self.gamma_d < math.inf:
            raise ValueError(f"dephasing rate gamma_d must be finite and >= 0, got {self.gamma_d!r}")
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        if not all(map(math.isfinite, self.deltas)):
            raise ValueError(f"detunings deltas must be finite, got {self.deltas!r}")

    @property
    def x(self) -> float:
        """Dimensionless dephasing strength 2 * gamma_d / gamma."""
        return 2.0 * self.gamma_d / self.gamma

    @classmethod
    def from_x(cls, x: float) -> "DephasingParams":
        if not 0.0 <= x < math.inf:
            raise ValueError(f"x must be a finite number >= 0, got {x!r}")
        return cls(gamma=1.0, gamma_d=x / 2.0)


@dataclass(frozen=True)
class PolarizationState:
    """Single-photon polarization, |amplitude_h|^2 + |amplitude_v|^2 = 1."""

    amplitude_h: complex
    amplitude_v: complex

    def __post_init__(self):
        norm = abs(self.amplitude_h) ** 2 + abs(self.amplitude_v) ** 2
        if not abs(norm - 1.0) <= 1e-12:  # false for NaN and inf amplitudes too
            raise ValueError(f"polarization state needs finite amplitudes with norm^2 = 1, "
                             f"got ({self.amplitude_h!r}, {self.amplitude_v!r}), "
                             f"norm^2 = {norm}")

    @classmethod
    def linear(cls, angle_rad: float) -> "PolarizationState":
        """Linear polarization rotated by `angle_rad` from horizontal (the
        action of a half-wave plate at half that angle)."""
        if not math.isfinite(angle_rad):
            raise ValueError(f"polarization angle must be finite, got {angle_rad!r}")
        return cls(float(np.cos(angle_rad)), float(np.sin(angle_rad)))

    def overlap(self, other: "PolarizationState") -> complex:
        return (
            np.conj(self.amplitude_h) * other.amplitude_h
            + np.conj(self.amplitude_v) * other.amplitude_v
        )


def constant_overlap_S(n: int, c: float) -> DistinguishabilityMatrix:
    """Gram matrix with every off-diagonal overlap equal to `c`: identical
    indistinguishable components of weight c, mutually orthogonal rest."""
    return DistinguishabilityMatrix(_constant_overlap_grams(n, [c])[0])


def _constant_overlap_grams(n: int, cs) -> np.ndarray:
    """Unchecked stack (g, n, n) of `constant_overlap_S(n, c)` for each of
    g overlaps `cs`, each in [0, 1]."""
    cs = np.asarray(cs, dtype=float)
    outside = ~((0.0 <= cs) & (cs <= 1.0))
    if outside.any():
        raise ValueError(f"overlap must be in [0, 1], got {cs[outside][0]}")
    s = np.empty((len(cs), n, n), dtype=complex)
    s[...] = cs[:, None, None]
    s[:, range(n), range(n)] = 1.0
    return s


def dephasing_overlap(params: DephasingParams) -> float:
    """Mean squared wavepacket overlap gamma / (gamma + 2 gamma_d) of two
    photons from the same emitter (zero mutual detuning)."""
    return params.gamma / (params.gamma + 2.0 * params.gamma_d)


def polarization_S(states) -> DistinguishabilityMatrix:
    """Gram matrix of a list of polarization states, one per photon."""
    h = np.array([[state.amplitude_h for state in states]])
    v = np.array([[state.amplitude_v for state in states]])
    return DistinguishabilityMatrix(_polarization_grams(h, v)[0])


def _polarization_grams(h, v) -> np.ndarray:
    """Unchecked stack (g, n, n) of the Gram matrices of g sets of n
    polarization states with amplitudes `h` and `v` (g, n): overlaps
    conj(h_j) h_k + conj(v_j) v_k for j < k, their conjugates below the
    diagonal and exact ones on it. Real amplitudes (linear states) give
    the real overlaps cos_j cos_k + sin_j sin_k."""
    s = (np.conj(h)[:, :, None] * h[:, None, :] + np.conj(v)[:, :, None] * v[:, None, :])
    s = s.astype(complex)
    n = s.shape[-1]
    j, k = np.triu_indices(n, 1)
    s[:, k, j] = s[:, j, k].conj()
    s[:, range(n), range(n)] = 1.0
    return s


def _gram_chunk(phi, det_phase, density, out):
    """Gram matrices of phase trajectories `phi` (b, p, steps), written
    into `out` (b samples, or any count when b = 1 and every sample is the
    same)."""
    b, p, nt = phi.shape
    acc = np.zeros((b, 2 * p, 2 * p))
    cos_sin = np.empty((b, 2 * p, _TIME_BLOCK))
    for lo in range(0, nt, _TIME_BLOCK):
        block = slice(lo, lo + _TIME_BLOCK)
        theta = phi[:, :, block]
        if det_phase is not None:
            theta = theta + det_phase[:, block]
        a = cos_sin[:, :, : theta.shape[2]]
        np.cos(theta, out=a[:, :p])
        np.sin(theta, out=a[:, p:])
        acc += (a * density[block]) @ a.transpose(0, 2, 1)
    cc, cs = acc[:, :p, :p], acc[:, :p, p:]
    sc, ss = acc[:, p:, :p], acc[:, p:, p:]
    grams = (cc + ss) + 1j * (sc - cs)
    # enforce exact unit diagonal / Hermiticity against roundoff
    grams = 0.5 * (grams + grams.conj().transpose(0, 2, 1))
    idx = np.arange(p)
    grams[:, idx, idx] = 1.0
    out[...] = grams


def sampler_grid(params: DephasingParams, dt: float | None = None,
                 horizon: float | None = None) -> tuple[float, float]:
    """The time step and horizon of `sample_dephased_overlaps`: `dt` and
    `horizon`, or 0.01 / gamma and 15 / gamma where they are None."""
    return (0.01 / params.gamma if dt is None else float(dt),
            15.0 / params.gamma if horizon is None else float(horizon))


def sample_dephased_overlaps(
    params: DephasingParams,
    n_photons: int,
    n_samples: int,
    dt: float | None = None,
    horizon: float | None = None,
    seed: int | None = None,
    chunk: int = 128,
) -> np.ndarray:
    """Monte Carlo Gram matrices of randomly dephased wavepackets.

    Each photon gets an exponential wavepacket sqrt(gamma) exp(-gamma t / 2)
    with a slow detuning phase and a Wiener random phase of variance
    2 gamma_d t, discretized on a uniform grid and normalized; pairwise
    overlaps are trapezoid-rule inner products. Returns an
    (n_samples, n_photons, n_photons) array of sampled Gram matrices whose
    mean |S[i, j]|^2 converges to `dephasing_overlap`.

    The phase theta = phi + delta t leaves |f|^2 alone, so every wavepacket
    has the same closed-form norm and S[i, j] = sum_t W_t exp(i (theta_i -
    theta_j)) with one density W = w gamma e^(-gamma t) / sum(w gamma
    e^(-gamma t)). The sums are taken in real arithmetic: over time blocks
    of `_TIME_BLOCK` steps, A = [cos theta; sin theta] gives (A W) A^T,
    whose cos/sin blocks make Re S = CC + SS and Im S = SC - CS.

    Samples run in chunks of `chunk` draws as a two-stage pipeline: this
    thread draws and sums the phases of one chunk while a single worker
    thread turns the previous chunk into Gram matrices. At most two chunks
    of draws, (chunk, n_photons, steps) floats each, are live at once,
    whatever `n_samples` is. With gamma_d = 0 every sample is the same,
    so one Gram matrix is computed and broadcast.

    A seed is required: sampling is deterministic given
    (seed, dt, horizon, n_samples); `chunk` does not change the result.
    """
    if seed is None:
        raise ValueError("a seed is required; no ambient randomness")
    if n_photons < 2:
        raise ValueError("need at least two photons for overlaps")
    gamma, gamma_d = params.gamma, params.gamma_d
    dt, horizon = sampler_grid(params, dt, horizon)
    if dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive")
    deltas = np.zeros(n_photons) if not params.deltas else np.asarray(params.deltas, float)
    if deltas.shape != (n_photons,):
        raise ValueError("one detuning per photon required")

    t = np.arange(0.0, horizon + dt / 2, dt)
    nt = t.size
    density = np.full(nt, dt)
    density[0] = density[-1] = dt / 2
    density *= gamma * np.exp(-gamma * t)
    density /= density.sum()
    det_phase = deltas[:, None] * t[None, :] if deltas.any() else None

    p = n_photons
    out = np.empty((n_samples, p, p), dtype=complex)
    if gamma_d == 0:
        _gram_chunk(np.zeros((1, p, nt)), det_phase, density, out)
        return out

    # The draws stay on this thread, in order: the PCG64 stream defines
    # every seeded result. numpy drops the GIL in the draws and in the
    # cos/sin/matmul loops, so the two stages overlap. Imported here so
    # that `import hompurify` does not load concurrent.futures.
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(seed)
    sigma_step = np.sqrt(2.0 * gamma_d * dt)
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = None
        for done in range(0, n_samples, chunk):
            b = min(chunk, n_samples - done)
            phi = rng.normal(scale=sigma_step, size=(b, p, nt))
            phi[:, :, 0] = 0.0
            np.cumsum(phi, axis=2, out=phi)
            if pending is not None:
                pending.result()  # re-raises a worker error here
            pending = worker.submit(_gram_chunk, phi, det_phase, density, out[done : done + b])
        if pending is not None:
            pending.result()
    return out
