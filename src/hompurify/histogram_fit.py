"""Correlation-peak counting models and their closed-form inversion.

The raw and purified interference setups are modeled as explicit
beamsplitter networks with pairwise-interference bunching rules; central
and side correlation-peak counts follow from the system efficiency t and
the visibilities. Fitting inverts (central, side) counts for (t, V)
exactly, a quadratic in raw mode and the one root of a closed-form quintic
in t in purified mode, solved by bracket-safeguarded Newton steps, and a
Poissonian Monte Carlo propagates count noise into parameter
uncertainties.
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

    Central peak: both photons survive, route to the final beamsplitter
    and anti-bunch. Side peak: the square of the single-detector click
    probability P_1D of one pulse period.
    """
    t = _check_unit("t", t)
    v_raw = _check_unit("v_raw", v_raw)
    d = geometry.demux_split
    r = geometry.split_bs_reflectivity
    trials = counts_meta.trials
    p_central = t**2 * d**2 * r**2 * 0.5 * (1.0 - v_raw)
    # one photon lost: the survivor threads demux, splitter and final BS;
    # both photons alive: either both reach the final BS and the detector
    # is not avoided by bunching, or exactly one threads through fully.
    p_1d = (
        2.0 * t * (1.0 - t) * d * r * 0.5
        + t**2 * (d**2 * r**2 * 0.25 * (3.0 - v_raw) + 2.0 * d * r * 0.5 * (1.0 - d * r))
    )
    return trials * p_central, trials * p_1d**2


def pure_sub_probabilities(t, v_raw, v_pure, geometry: SetupGeometry) -> dict:
    """Per-copy routing probabilities of the purified setup.

    Top copy (heralded): h1t1 / h1t0 / h2t0 = herald click with one / no
    photon passed on, or both photons on the herald. Bottom copy: b0 / b1 /
    b2 photons reaching the final beamsplitter's lower input.
    """
    _check_unit("v_pure", v_pure)
    return _sub_probabilities(_check_unit("t", t), _check_unit("v_raw", v_raw), geometry)


def _sub_probabilities(t, v_raw, geometry: SetupGeometry) -> dict:
    r = geometry.split_bs_reflectivity
    h = 1.0 - r  # herald arm of the 45:55 splitter
    p_bunch = 0.25 * (1.0 + v_raw)
    p_split = 2.0 * r * (1.0 - r)
    h1t1 = t**2 * p_bunch * p_split
    h1t0 = t * (2.0 * (1.0 - t) * 0.5 * h + t * (1.0 - 2.0 * p_bunch) * h)
    h2t0 = t**2 * p_bunch * h**2
    b1 = t * (2.0 * (1.0 - t) * 0.5 * r + t * (p_bunch * p_split + (1.0 - 2.0 * p_bunch) * r))
    b2 = t**2 * p_bunch * r**2
    b0 = 1.0 - b1 - b2
    return {
        "p_bunch": p_bunch,
        "p_split": p_split,
        "h1t1": h1t1,
        "h1t0": h1t0,
        "h2t0": h2t0,
        "b0": b0,
        "b1": b1,
        "b2": b2,
    }


def pure_count_model(t, v_raw, v_pure, geometry: SetupGeometry, counts_meta: PeakCounts):
    """Expected (central, side) counts of the four-photon purified setup.

    The side-peak click probability combines the top-copy herald cases with
    the bottom-copy photon numbers and the final-beamsplitter input
    configurations (single / split / bunched / three-photon). A split input
    mixes one purified with one unpurified photon, so its visibility is
    approximated by the average of the raw and purified values, with an
    explicit correction for the fully-purified sub-case.
    """
    return _pure_counts(
        _check_unit("t", t), _check_unit("v_raw", v_raw), _check_unit("v_pure", v_pure),
        geometry, counts_meta.trials,
    )


def _pure_counts(t, v_raw, v_pure, geometry: SetupGeometry, trials):
    """`pure_count_model` on inputs already checked to lie in [0, 1]."""
    sub = _sub_probabilities(t, v_raw, geometry)
    p_central = t**4 * sub["p_bunch"] ** 2 * sub["p_split"] ** 2 * 0.5 * (1.0 - v_pure)
    p_single = 0.5
    p_split_input = 0.25 * (3.0 - (v_raw + v_pure) / 2.0)
    p_bunched_input = 0.75
    p_three_photon = 1.0 - 0.125 * (1.0 + 2.0 * v_pure)
    p_two_purified = t**4 * sub["p_bunch"] ** 2 * sub["p_split"] ** 2
    p_1d = (
        (sub["h1t0"] + sub["h2t0"]) * (sub["b1"] * p_single + sub["b2"] * p_bunched_input)
        + sub["h1t1"]
        * (sub["b0"] * p_single + sub["b1"] * p_split_input + sub["b2"] * p_three_photon)
        - p_two_purified * p_split_input
        + p_two_purified * 0.25 * (3.0 - v_pure)
    )
    return trials * p_central, trials * p_1d**2


def _side_quintic(a, v_raw, r):
    """(c5, c4, c3, c1, c0) with t p_1D = c5 t^5 + c4 t^4 + c3 t^3 + c1 t + c0
    for the purified model along V = 1 - a/t^4, at split reflectivity r;
    there is no t^2 term. See notes/decisions.md."""
    rs, w = r * (1.0 - r), 1.0 + v_raw
    return (
        rs * r * w**2 * (2.0 * r + 2.0 * v_raw - 1.0) / 64.0,
        -rs * w * (r * v_raw + 2.0 * r + 2.0) / 16.0,
        rs * (v_raw + 3.0) / 4.0,
        a * (rs * w) ** 2 / 32.0,
        a * rs * r * w / 16.0,
    )


def _p1d_and_slope(t, coeffs):
    """p_1D and dp_1D/dt at t from `_side_quintic` coefficients."""
    c5, c4, c3, c1, c0 = coeffs
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
        v_raw = _check_unit("v_raw", v_raw)
        a = central / _pure_counts(1.0, v_raw, 0.0, geometry, trials)[0]
        lo = np.minimum(a**0.25, 1.0)
        side_v0 = _pure_counts(lo, v_raw, 0.0, geometry, trials)[1]
        side_t1 = _pure_counts(1.0, v_raw, np.clip(1.0 - a, 0.0, 1.0), geometry, trials)[1]
        failed = np.select(
            [~np.isfinite(a), side <= 0, (a > 1) | (side_v0 > side), side_t1 < side],
            ["real root", "t > 0", "V >= 0", "t <= 1"],
            default="",
        )
        hi = np.where(failed == "", 1.0, lo)
        coeffs = _side_quintic(a, v_raw, geometry.split_bs_reflectivity)
        y = np.sqrt(side / trials)
        t = 0.5 * (lo + hi)
        while True:
            p_1d, slope = _p1d_and_slope(t, coeffs)
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
    if 0 not in peaks:
        raise ValueError(f"{path}: no peak_index 0 (central peak) found")
    sides = [v for k, v in peaks.items() if k != 0]
    if not sides:
        raise ValueError(f"{path}: no side peaks found")
    return PeakCounts(
        central=peaks[0],
        side=float(np.mean(sides)),
        repetition_rate=repetition_rate,
        integration_time=integration_time,
    )


def read_histogram(
    path, repetition_rate: float = 10e6, integration_time: float = 30.0
) -> PeakCounts:
    """Read a time-tag histogram with columns (time_bin_ns, counts) and
    integrate peaks with a window of half the pulse period on each side of
    every multiple of the period; peak 0 is central."""
    rows = _read_two_columns(path, ("time_bin_ns", "counts"))
    period_ns = 1e9 / repetition_rate
    peaks: dict[int, float] = {}
    for _, t_ns, value in rows:
        k = int(np.rint(t_ns / period_ns))
        if abs(t_ns - k * period_ns) <= period_ns / 2:
            peaks[k] = peaks.get(k, 0.0) + value
    if 0 not in peaks:
        raise ValueError(f"{path}: histogram covers no central peak")
    sides = [v for k, v in peaks.items() if k != 0]
    if not sides:
        raise ValueError(f"{path}: histogram covers no side peaks")
    return PeakCounts(
        central=peaks[0],
        side=float(np.mean(sides)),
        repetition_rate=repetition_rate,
        integration_time=integration_time,
    )


def _read_two_columns(path, columns: tuple[str, str]) -> list[tuple[int, float, float]]:
    """(line number, first, second) for every data row of `path`."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) < 2:
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
    """Human-readable key = value block for a fit result."""
    lines = [
        f"mode = {geometry.mode}",
        f"t = {result.t:.10g}",
        f"v = {result.v:.10g}",
        f"residual = {result.residual:.6g}",
    ]
    if result.sigma_t is not None:
        lines.append(f"sigma_t = {result.sigma_t:.6g}")
        lines.append(f"sigma_v = {result.sigma_v:.6g}")
    return "\n".join(lines)
