"""Closed-form pure-dephasing model of the two-copy purifier.

The heralded coincidence at the final coupler depends not only on pairwise
wavepacket overlaps but on three- and four-photon overlap cycles,

    p = <|a_ij|^2>,  T = <a_ij a_jk a_ki>,  Q = <a_ij a_jk a_kl a_li>.

Each copy heralds the internal state (rho + rho^2) / (1 + p), and the
indistinguishability of two such photons is

    W = (p + 2 T + Q) / (1 + p)^2,

so the conditional coincidence probability is (1 - W) / 2. For Wiener
phase noise of variance 2 gamma_d t on each wavepacket the cycle moments
close (`pd_moments`), and `pd_purified` is W at those moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OverlapMoments:
    """Pairwise, triple-cycle and quadruple-cycle overlap moments."""

    pair: float
    triple: float
    quad: float

    def __post_init__(self):
        if not 0.0 <= self.pair <= 1.0 + 1e-12:
            raise ValueError(f"pair moment must be in [0, 1], got {self.pair}")
        if abs(self.triple) > 1.0 + 1e-12 or abs(self.quad) > 1.0 + 1e-12:
            raise ValueError("cycle moments must lie in [-1, 1]")


def _purified_overlap(moments: OverlapMoments) -> float:
    """W = (p + 2 T + Q) / (1 + p)^2 of two heralded photons."""
    p = moments.pair
    return (p + 2.0 * moments.triple + moments.quad) / (1.0 + p) ** 2


def pd_coincidence(moments: OverlapMoments) -> float:
    """Conditional coincidence probability (1 - W) / 2 of the two purified
    photons.

    Ranges from 0 (perfect photons) to 1/2 (fully dephased); values outside
    [0, 1/2] signal inconsistent moments.
    """
    val = (1.0 - _purified_overlap(moments)) / 2.0
    if val < -1e-9 or val > 0.5 + 1e-9:
        raise ValueError(f"coincidence probability {val} outside [0, 1/2]")
    return float(min(max(val, 0.0), 0.5))


def pd_moments(x: float) -> OverlapMoments:
    """Exact overlap-cycle moments of the Wiener dephasing model at
    x = 2 gamma_d / gamma (zero detuning), finite for every finite x >= 0:
    a product of the denominators that overflows gives inf, and its
    reciprocal 0 (`a * a`, because a float `**` raises on overflow)."""
    if not 0.0 <= x < math.inf:
        raise ValueError(f"x must be a finite number >= 0, got {x!r}")
    a, b, c = 1.0 + x, 2.0 + x, 3.0 + x
    quad = 4.0 / (c * b * a) + 1.0 / (c * (a * a))
    return OverlapMoments(pair=1.0 / a, triple=2.0 / (a * b), quad=quad)


def pd_purified(x: float) -> float:
    """Purified indistinguishability W under pure dephasing of strength
    x = 2 gamma_d / gamma (raw pairwise indistinguishability 1 / (1 + x)),
    at the exact Wiener moments; it equals 1 at x = 0 and decays like 1/x.
    """
    return float(_purified_overlap(pd_moments(x)))


def moment_samples(gram_stack: np.ndarray) -> dict[str, np.ndarray]:
    """Per-sample pair, triple-cycle and quadruple-cycle overlap products
    from a stack of sampled Gram matrices (needs >= 3 photons for the
    triple, >= 4 for the quad)."""
    s = np.asarray(gram_stack)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise ValueError("expected a stack of square Gram matrices")
    n = s.shape[1]
    out = {"pair": np.abs(s[:, 0, 1]) ** 2}
    if n >= 3:
        out["triple"] = (s[:, 0, 1] * s[:, 1, 2] * s[:, 2, 0]).real
    if n >= 4:
        out["quad"] = (s[:, 0, 1] * s[:, 1, 2] * s[:, 2, 3] * s[:, 3, 0]).real
    return out
