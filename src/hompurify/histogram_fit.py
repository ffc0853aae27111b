"""Correlation-peak counting models and their closed-form inversion.

The raw and purified interference setups are beamsplitter networks with
pairwise-interference bunching rules; their central and side
correlation-peak probabilities are short polynomials in the system
efficiency t, linear in the visibility. Fitting inverts (central, side)
counts for (t, V) on the same polynomials, a quadratic in raw mode and the
one root of a quintic in t in purified mode, solved by bracket-safeguarded
Newton steps, and a Poissonian Monte Carlo propagates count noise into
parameter uncertainties.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

MIN_RESAMPLES = 100
MAX_FAILURE_FRACTION = 0.01  # resamples with no (t, V) in range that sigma may leave out


@dataclass(frozen=True)
class PeakCounts:
    """Measured central-peak counts, mean side-peak counts and the
    normalization metadata of the correlation histogram."""

    central: float
    side: float
    repetition_rate: float = 10e6
    integration_time: float = 30.0

    def __post_init__(self):
        for name in ("central", "side"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} count must be finite and non-negative, got {value}")
        for name in ("repetition_rate", "integration_time"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @property
    def trials(self) -> float:
        return self.repetition_rate * self.integration_time


@dataclass(frozen=True)
class SetupGeometry:
    """Splitting ratios of the measurement network. `split_bs_reflectivity`
    is the fraction continuing toward the final beamsplitter at the
    second (45:55) splitters. `demux_split` is the fraction the raw setup's
    demultiplexer routes toward its splitter; the purified model has no
    demultiplexer and does not read it. The final beamsplitters are
    balanced."""

    demux_split: float = 0.5
    split_bs_reflectivity: float = 0.55
    mode: str = "raw"

    def __post_init__(self):
        if not 0.0 <= self.demux_split <= 1.0 or not 0.0 <= self.split_bs_reflectivity <= 1.0:
            raise ValueError("splitting ratios must be in [0, 1]")
        if self.mode not in ("raw", "purified"):
            raise ValueError("mode must be 'raw' or 'purified'")


@dataclass(frozen=True)
class FitResult:
    t: float
    v: float
    residual: float
    sigma_t: float | None = None
    sigma_v: float | None = None


class FitError(RuntimeError):
    pass


def _check_unit(name, value):
    value = np.asarray(value, dtype=float)
    if np.any(value < 0) or np.any(value > 1):
        raise ValueError(f"{name} must lie in [0, 1]")
    return value


def raw_count_model(t, v_raw, geometry: SetupGeometry, counts_meta: PeakCounts):
    """Expected (central, side) counts of the two-photon raw HOM setup.

    With x = d r t the probability that one photon survives and threads
    the demultiplexer and splitter to the final beamsplitter, the central
    peak needs both there and anti-bunched, p_central = x^2 (1 - V) / 2.
    The side peak is the square of the single-detector click probability
    of one pulse period: 1/2 when one photon reaches the final
    beamsplitter and 1 - (1 + V)/4 when both do, which sums to
    p_1D = x - x^2/2 + p_central/2. `_invert` solves these two lines for
    x and V.
    """
    t = _check_unit("t", t)
    v_raw = _check_unit("v_raw", v_raw)
    x = geometry.demux_split * geometry.split_bs_reflectivity * t
    p_central = 0.5 * x**2 * (1.0 - v_raw)
    p_1d = x - 0.5 * x**2 + 0.5 * p_central
    return counts_meta.trials * p_central, counts_meta.trials * p_1d**2


def pure_sub_probabilities(t, v_raw, v_pure, geometry: SetupGeometry) -> dict:
    """Per-copy routing probabilities of the purified setup.

    Top copy (heralded): h1t1 / h1t0 / h2t0 = herald click with one / no
    photon passed on, or both photons on the herald. Bottom copy: b0 / b1 /
    b2 photons reaching the final beamsplitter's lower input.
    """
    t = _check_unit("t", t)
    v_raw = _check_unit("v_raw", v_raw)
    _check_unit("v_pure", v_pure)
    r = geometry.split_bs_reflectivity
    h = 1.0 - r  # herald arm of the 45:55 splitter
    p_bunch = 0.25 * (1.0 + v_raw)
    p_split = 2.0 * r * (1.0 - r)
    b1 = t * (2.0 * (1.0 - t) * 0.5 * r + t * (p_bunch * p_split + (1.0 - 2.0 * p_bunch) * r))
    b2 = t**2 * p_bunch * r**2
    return {
        "p_bunch": p_bunch,
        "p_split": p_split,
        "h1t1": t**2 * p_bunch * p_split,
        "h1t0": t * (2.0 * (1.0 - t) * 0.5 * h + t * (1.0 - 2.0 * p_bunch) * h),
        "h2t0": t**2 * p_bunch * h**2,
        "b0": 1.0 - b1 - b2,
        "b1": b1,
        "b2": b2,
    }


def pure_count_model(t, v_raw, v_pure, geometry: SetupGeometry, counts_meta: PeakCounts):
    """Expected (central, side) counts of the four-photon purified setup.

    With u = 1 - V_pure and the coefficients of `_pure_coefficients`,
    p_central = 4 b4 t^4 u and p_1D = c5 t^4 + c4 t^3 + c3 t^2 + u (b4 t^4 +
    b3 t^3): the top-copy herald cases, the bottom-copy photon numbers and
    the final-beamsplitter input configurations (single / split / bunched /
    three-photon), expanded in t. A split input mixes one purified with one
    unpurified photon, so its visibility is taken as the average of the raw
    and purified values. See notes/decisions.md.
    """
    t = _check_unit("t", t)
    coeffs = _pure_coefficients(_check_unit("v_raw", v_raw), geometry.split_bs_reflectivity)
    u = 1.0 - _check_unit("v_pure", v_pure)
    trials = counts_meta.trials
    return trials * 4.0 * coeffs[3] * t**4 * u, trials * _pure_p1d(t, u, coeffs) ** 2


def _pure_coefficients(v_raw, r):
    """(c5, c4, c3, b4, b3) of the purified model at split reflectivity r:
    p_1D = c5 t^4 + c4 t^3 + c3 t^2 + (1 - V) (b4 t^4 + b3 t^3) and
    p_central = 4 b4 t^4 (1 - V)."""
    rs, w = r * (1.0 - r), 1.0 + v_raw
    return (
        rs * r * w**2 * (2.0 * r + 2.0 * v_raw - 1.0) / 64.0,
        -rs * w * (r * v_raw + 2.0 * r + 2.0) / 16.0,
        rs * (v_raw + 3.0) / 4.0,
        (rs * w) ** 2 / 32.0,
        rs * r * w / 16.0,
    )


def _pure_p1d(t, u, coeffs):
    """p_1D of the purified model at t and u = 1 - V."""
    c5, c4, c3, b4, b3 = coeffs
    return ((c5 * t + c4) * t + c3) * t**2 + u * (b4 * t + b3) * t**3


def _p1d_and_slope(t, a, coeffs):
    """p_1D and dp_1D/dt at t along V = 1 - a/t^4, where
    t p_1D = c5 t^5 + c4 t^4 + c3 t^3 + a b4 t + a b3."""
    c5, c4, c3, b4, b3 = coeffs
    c1, c0 = a * b4, a * b3
    p_1d = ((c5 * t + c4) * t + c3) * t**2 + c1 + c0 / t
    return p_1d, ((4.0 * c5 * t + 3.0 * c4) * t + 2.0 * c3) * t - c0 / t**2


def _invert(central, side, counts_meta, geometry, v_raw):
    """Exact (t, V) for arrays of (central, side) counts.

    Raw mode takes the root of a quadratic. Purified mode runs Newton
    steps on the side-count polynomial along V = 1 - a/t^4 for all entries
    at once, each kept inside a bracket that starts at [a^(1/4), 1] and
    narrows by the sign of the residual, until no step exceeds 16 eps t.
    Returns t, V and, per entry, the first constraint that no solution
    meets ("real root", "t > 0", "t <= 1" or "V >= 0"), or "" where the
    solution lies in (0, 1] x [0, 1]. See notes/decisions.md.
    """
    if geometry.mode == "purified" and v_raw is None:
        raise FitError("purified-mode fit needs the raw visibility from a prior raw fit")
    trials = counts_meta.trials
    with np.errstate(divide="ignore", invalid="ignore"):
        if geometry.mode == "raw":
            # p_1D = x - x^2/2 + C/(2N) with x = d r t: the root with x <= 1
            dr = geometry.demux_split * geometry.split_bs_reflectivity
            q = np.sqrt(side / trials) - central / (2.0 * trials)
            x = 2.0 * q / (1.0 + np.sqrt(1.0 - 2.0 * q))
            t, v = x / dr, 1.0 - 2.0 * central / (trials * x**2)
            return t, v, np.select(
                [~np.isfinite(t), t <= 0, t > 1, v < 0],
                ["real root", "t > 0", "t <= 1", "V >= 0"],
                default="",
            )
        # the central count fixes V = 1 - a / t^4; along that curve p_1D
        # rises strictly with t, so Newton steps solve p_1D = sqrt(S/N)
        # inside [a^(1/4), 1]
        # t, V stay in [0, 1] below, so v_raw is the one input to check
        coeffs = _pure_coefficients(_check_unit("v_raw", v_raw), geometry.split_bs_reflectivity)
        a = central / (trials * 4.0 * coeffs[3])
        lo = np.minimum(a**0.25, 1.0)
        # the side counts at the bracket ends, as `pure_count_model` has them
        side_v0 = trials * _pure_p1d(lo, 1.0, coeffs) ** 2
        side_t1 = trials * _pure_p1d(1.0, 1.0 - np.clip(1.0 - a, 0.0, 1.0), coeffs) ** 2
        failed = np.select(
            [~np.isfinite(a), side <= 0, (a > 1) | (side_v0 > side), side_t1 < side],
            ["real root", "t > 0", "V >= 0", "t <= 1"],
            default="",
        )
        hi = np.where(failed == "", 1.0, lo)
        y = np.sqrt(side / trials)
        t = 0.5 * (lo + hi)
        while True:
            p_1d, slope = _p1d_and_slope(t, a, coeffs)
            f = p_1d - y
            lo, hi = np.where(f < 0, t, lo), np.where(f > 0, t, hi)
            # a Newton step strictly inside the bracket, or none at all;
            # else the midpoint. Each evaluation then narrows the bracket,
            # so no two iterates can cycle
            newton = t - f / slope
            ok = ((lo < newton) & (newton < hi)) | (newton == t)
            t_next = np.where(ok, newton, 0.5 * (lo + hi))
            step, t = np.abs(t_next - t), t_next
            if not np.any(step > 16.0 * np.finfo(float).eps * t):
                return t, np.clip(1.0 - a / t**4, 0.0, 1.0), failed


def fit(counts: PeakCounts, geometry: SetupGeometry, v_raw: float | None = None) -> FitResult:
    """Exact inversion of (central, side) counts for (t, V).

    Raw mode solves a quadratic in t; purified mode solves the side count's
    quintic in t along the curve on which the central count matches, with
    `v_raw` from a prior raw fit as a constant. Raises `FitError` when no
    (t, V) in (0, 1] x [0, 1] reproduces the counts, naming the constraint
    that fails.
    """
    if counts.central == 0 and counts.side == 0:
        raise FitError("degenerate input: central and side counts are both zero")
    t, v, failed = _invert(
        np.array([counts.central]), np.array([counts.side]), counts, geometry, v_raw
    )
    if failed[0]:
        raise FitError(f"no (t, V) reproduces the counts: constraint {failed[0]} fails")
    if geometry.mode == "raw":
        model = raw_count_model(t, v, geometry, counts)
    else:
        model = pure_count_model(t, v_raw, v, geometry, counts)
    model, observed = np.concatenate(model), np.array([counts.central, counts.side])
    rel_residual = float(np.linalg.norm(model - observed) / np.linalg.norm(observed))
    return FitResult(t=float(t[0]), v=float(v[0]), residual=rel_residual)


def mc_uncertainty(
    counts: PeakCounts,
    geometry: SetupGeometry,
    n_resamples: int,
    seed: int,
    v_raw: float | None = None,
) -> tuple[float, float]:
    """Monte Carlo (sigma_t, sigma_v) assuming Poissonian counting noise.

    All resamples of the central and side counts are drawn at once from
    Poisson distributions with the observed means and inverted together;
    deterministic for a given seed. Resamples with no (t, V) in range are
    left out: above `MAX_FAILURE_FRACTION` of them this raises `FitError`,
    below it logs a warning with the count.
    """
    if n_resamples < MIN_RESAMPLES:
        raise ValueError(f"need at least {MIN_RESAMPLES} resamples, got {n_resamples}")
    rng = np.random.default_rng(seed)
    draws = rng.poisson([counts.central, counts.side], size=(n_resamples, 2)).astype(float)
    t, v, failed = _invert(draws[:, 0], draws[:, 1], counts, geometry, v_raw)
    ok = failed == ""
    if not ok.all():
        names, sizes = np.unique(failed[~ok], return_counts=True)
        detail = ", ".join(f"{name} fails for {k}" for name, k in zip(names, sizes))
        n_failed = n_resamples - int(ok.sum())
        if n_failed > MAX_FAILURE_FRACTION * n_resamples:
            raise FitError(
                f"{n_failed}/{n_resamples} resamples have no (t, V) in range ({detail}); "
                "counts too degenerate"
            )
        logger.warning(
            "%d/%d resamples have no (t, V) in range (%s); left out of sigma",
            n_failed, n_resamples, detail,
        )
    return float(np.std(t[ok], ddof=1)), float(np.std(v[ok], ddof=1))


def read_peak_counts(path, repetition_rate: float = 10e6, integration_time: float = 30.0) -> PeakCounts:
    """Read pre-integrated peak counts from delimited text with columns
    (peak_index, counts); peak 0 is the central peak, the side value is the
    mean over all other peaks. Each peak_index must be a distinct integer."""
    peaks: dict[int, float] = {}
    for lineno, idx, value in _read_two_columns(path, ("peak_index", "counts")):
        if not idx.is_integer():
            raise ValueError(f"{path}:{lineno}: peak_index must be an integer, got {idx!r}")
        if idx in peaks:
            raise ValueError(f"{path}:{lineno}: peak_index {int(idx)} is repeated")
        peaks[int(idx)] = value
    return _central_and_side(path, peaks, repetition_rate, integration_time)


def read_histogram(
    path, repetition_rate: float = 10e6, integration_time: float = 30.0
) -> PeakCounts:
    """Read a time-tag histogram with columns (time_bin_ns, counts) and
    integrate peak k over the half-open window [kT - T/2, kT + T/2) of
    the pulse period T, so every bin lands in exactly one peak; peak 0 is
    central. Only the first and last peak of the file can be cut by its
    edge: either is left out of the side mean when it holds fewer bins
    than the central peak by more than one, since on a regular grid whose
    bin width does not divide T complete windows differ by one bin."""
    rows = _read_two_columns(path, ("time_bin_ns", "counts"))
    period_ns = 1e9 / repetition_rate
    peaks: dict[int, float] = {}
    bins: dict[int, int] = {}
    for _, t_ns, value in rows:
        k = math.floor((t_ns + period_ns / 2) / period_ns)
        peaks[k] = peaks.get(k, 0.0) + value
        bins[k] = bins.get(k, 0) + 1
    edges = {min(bins), max(bins)}
    full = {k: v for k, v in peaks.items() if k not in edges or bins[k] >= bins.get(0, 0) - 1}
    return _central_and_side(path, full, repetition_rate, integration_time)


def _central_and_side(path, peaks: dict[int, float], repetition_rate, integration_time):
    """`PeakCounts` with peak 0 as the central count and the mean of the
    other peaks as the side count."""
    if 0 not in peaks:
        raise ValueError(f"{path}: no central peak (peak 0) found")
    sides = [v for k, v in peaks.items() if k != 0]
    if not sides:
        raise ValueError(f"{path}: no side peaks found")
    return PeakCounts(peaks[0], float(np.mean(sides)), repetition_rate, integration_time)


def _read_two_columns(path, columns: tuple[str, str]) -> list[tuple[int, float, float]]:
    """(line number, first, second) for every data row of `path`."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {line!r}")
            try:
                row = (float(parts[0]), float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric value in {line!r}") from exc
            for name, value in zip(columns, row):
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: {name} must be finite, got {value}")
            rows.append((lineno, *row))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def format_fit_report(result: FitResult, geometry: SetupGeometry) -> str:
    """Human-readable key = value block for a fit result. A residual
    below 1e-12 is rounding noise and prints as 0, so the report does not
    move with the last bit of t; the result keeps its exact value."""
    residual = "0" if result.residual < 1e-12 else f"{result.residual:.6g}"
    lines = [
        f"mode = {geometry.mode}",
        f"t = {result.t:.10g}",
        f"v = {result.v:.10g}",
        f"residual = {residual}",
    ]
    if result.sigma_t is not None:
        lines.append(f"sigma_t = {result.sigma_t:.6g}")
        lines.append(f"sigma_v = {result.sigma_v:.6g}")
    return "\n".join(lines)
