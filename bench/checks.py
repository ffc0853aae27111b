"""Output checks of the benchmark, each against a computation made apart
from the program: closed forms for the visibilities, an independent copy of
the correlation-peak count model for the fits, and the Wiener-dephasing
moments for the Monte Carlo.

Every check returns a list of failure messages; an empty list is a pass.
Only the standard library is used, so nothing here shares code with
`hompurify`.
"""

from __future__ import annotations

import json
import math

SCENARIO_TOL = 1e-12     # closed forms match the program to ~1e-15
NOISELESS_FIT_TOL = 1e-6
RESIDUAL_TOL = 1e-9      # relative count mismatch at the fitted point
SIGMA_SE_FACTOR = 5.0    # sigma check width, in standard errors of a sample SD
MC_SE_FACTOR = 5.0       # Monte Carlo check width, in standard errors

# Default measurement geometry of `hompurify fit`.
DEMUX = 0.5
SPLIT_R = 0.55


def check_same(name: str, output: bytes, reference: bytes | None) -> list[str]:
    """Determinism: a command run again with the same inputs and seed
    writes the same bytes."""
    if output != reference:
        return [f"{name}: output differs from the first round's"]
    return []


# ---------------------------------------------------------------- visibilities

def hom_from_w(r_final: float, w: float) -> float:
    """Side-peak normalised visibility 4R(1-R)(1+W) - 1 of a final coupler
    of reflectivity R whose two inputs have state overlap W."""
    return 4.0 * r_final * (1.0 - r_final) * (1.0 + w) - 1.0


def pd_raw(x: float) -> float:
    return 1.0 / (1.0 + x)


def pd_pure(x: float) -> float:
    return (x**3 + 10 * x**2 + 32 * x + 24) / ((3 + x) * (2 + x) ** 3)


def constant_pure_w(c: float) -> float:
    u = c * c
    return u * (1 + c) ** 2 / (1 + u) ** 2


def scenario_visibilities(entry: dict) -> tuple[float, float]:
    """Closed-form (v_raw, v_pure) of one scenario-table entry. They hold
    for any r1 and r2, any input transmissions and uniform loss after the
    first beamsplitter."""
    if entry["model"] == "pure_dephasing":
        return pd_raw(entry["x"]), pd_pure(entry["x"])
    r_final = entry.get("reflectivities", [0.5, 0.5, 0.5])[2]
    if entry["model"] == "constant":
        c = entry["c"]
        return hom_from_w(r_final, c * c), hom_from_w(r_final, constant_pure_w(c))
    u = math.cos(math.radians(entry["theta_deg"])) ** 2
    if entry.get("direction", "same") == "same":
        w = (1 + 6 * u + u * u) / (2 * (1 + u) ** 2)
    else:
        w = (1 - 2 * u + 9 * u * u) / (2 * (1 + u) ** 2)
    return hom_from_w(r_final, u), hom_from_w(r_final, w)


def check_scenarios(output: bytes, scenarios: list[dict]) -> list[str]:
    rows = json.loads(output)["rows"]
    if len(rows) != len(scenarios):
        return [f"simulate: {len(rows)} rows for {len(scenarios)} scenarios"]
    failures = []
    for row, entry in zip(rows, scenarios):
        v_raw, v_pure = scenario_visibilities(entry)
        if row["scenario_id"] != entry["id"]:
            failures.append(f"simulate: row {row['scenario_id']} where {entry['id']} was due")
            continue
        for key, want in (("v_raw", v_raw), ("v_pure", v_pure), ("improvement", v_pure - v_raw)):
            if not abs(row[key] - want) <= SCENARIO_TOL:
                failures.append(f"simulate {entry['id']}: {key} {row[key]!r} != {want!r}")
    return failures


def check_sweep(output: bytes) -> list[str]:
    """raw_visibility sweep: the g2 = 0 and pure-dephasing columns against
    their closed forms, the g2 column against the properties the model
    must have."""
    doc = json.loads(output)
    cfg, rows = doc["config"], doc["rows"]
    n = cfg["points"]
    if len(rows) != n:
        return [f"sweep: {len(rows)} rows for {n} points"]
    failures = []
    prev_g2 = -math.inf
    for i, row in enumerate(rows):
        v = row["v_raw"]
        grid = cfg["start"] + (cfg["stop"] - cfg["start"]) * i / (n - 1) if n > 1 else cfg["start"]
        if not abs(v - grid) <= 1e-15:
            failures.append(f"sweep row {i}: v_raw {v!r} off the grid value {grid!r}")
        want = {
            "v_pure_multipermanent": constant_pure_w(math.sqrt(v)),
            "v_pure_pure_dephasing": pd_pure(1.0 / v - 1.0),
        }
        for key, value in want.items():
            if key in row and not abs(row[key] - value) <= SCENARIO_TOL:
                failures.append(f"sweep row {i}: {key} {row[key]!r} != {value!r}")
        g2 = row.get("v_pure_multipermanent_g2")
        if g2 is None:
            continue
        if not -1.0 <= g2 <= 1.0:
            failures.append(f"sweep row {i}: g2 visibility {g2!r} outside [-1, 1]")
        if not g2 > prev_g2:
            failures.append(f"sweep row {i}: g2 visibility {g2!r} does not rise with v_raw")
        if cfg.get("g2", 0.0) > 0 and not g2 < want["v_pure_multipermanent"]:
            failures.append(f"sweep row {i}: g2 visibility {g2!r} not below the g2 = 0 column")
        prev_g2 = g2
    return failures


# ---------------------------------------------------------------- count fits

def raw_counts(t: float, v: float, trials: float) -> tuple[float, float]:
    """Expected (central, side) counts of the two-photon raw HOM setup."""
    dr = DEMUX * SPLIT_R
    central = t * t * dr * dr * 0.5 * (1 - v)
    one_lost = 2 * t * (1 - t) * dr * 0.5
    both_alive = t * t * (dr * dr * 0.25 * (3 - v) + dr * (1 - dr))
    return trials * central, trials * (one_lost + both_alive) ** 2


def pure_counts(t: float, v_raw: float, v_pure: float, trials: float) -> tuple[float, float]:
    """Expected (central, side) counts of the four-photon purified setup."""
    r, h = SPLIT_R, 1 - SPLIT_R
    bunch = 0.25 * (1 + v_raw)
    split = 2 * r * h
    # top (heralded) copy: herald click with one / none passed on, or both on the herald
    h1t1 = t * t * bunch * split
    h1t0 = t * ((1 - t) * h + t * (1 - 2 * bunch) * h)
    h2t0 = t * t * bunch * h * h
    # bottom copy: one or two photons reaching the final coupler
    b1 = t * ((1 - t) * r + t * (bunch * split + (1 - 2 * bunch) * r))
    b2 = t * t * bunch * r * r
    b0 = 1 - b1 - b2
    both_purified = (t * t * bunch * split) ** 2
    mixed_pair = 0.25 * (3 - (v_raw + v_pure) / 2)
    three = 1 - 0.125 * (1 + 2 * v_pure)
    p1 = (
        (h1t0 + h2t0) * (0.5 * b1 + 0.75 * b2)
        + h1t1 * (0.5 * b0 + mixed_pair * b1 + three * b2)
        + both_purified * (0.25 * (3 - v_pure) - mixed_pair)
    )
    central = both_purified * 0.5 * (1 - v_pure)
    return trials * central, trials * p1 * p1


def model_counts(mode: str, t: float, v: float, trials: float, v_raw=None):
    return raw_counts(t, v, trials) if mode == "raw" else pure_counts(t, v_raw, v, trials)


def propagated_sigma(mode, t, v, observed, trials, v_raw=None) -> tuple[float, float]:
    """First-order (sigma_t, sigma_v): the Poisson variances of the observed
    (central, side) counts pushed through the inverse model Jacobian."""
    def f(tt, vv):
        return model_counts(mode, tt, vv, trials, v_raw)

    h = 1e-6
    dt = [(a - b) / (2 * h) for a, b in zip(f(t + h, v), f(t - h, v))]
    dv = [(a - b) / (2 * h) for a, b in zip(f(t, v + h), f(t, v - h))]
    det = dt[0] * dv[1] - dv[0] * dt[1]
    # rows of the inverse Jacobian: d(t, v) / d(central, side)
    inv_t = (dv[1] / det, -dv[0] / det)
    inv_v = (-dt[1] / det, dt[0] / det)
    var_c, var_s = observed
    sigma_t = math.sqrt(inv_t[0] ** 2 * var_c + inv_t[1] ** 2 * var_s)
    sigma_v = math.sqrt(inv_v[0] ** 2 * var_c + inv_v[1] ** 2 * var_s)
    return sigma_t, sigma_v


def check_fit(output: bytes, observed, truth=None, v_raw=None) -> list[str]:
    """A `fit` result: the fitted point reproduces the observed counts;
    noiseless counts give back the generating (t, V); Monte Carlo sigmas
    agree with first-order propagation within the sampling error of a
    standard deviation from `mc_resamples` draws."""
    doc = json.loads(output)
    cfg, row = doc["config"], doc["rows"][0]
    mode = cfg["mode"]
    trials = cfg["rate"] * cfg["time"]
    t, v = row["t"], row["v"]
    failures = []
    model = model_counts(mode, t, v, trials, v_raw)
    for name, got, want in zip(("central", "side"), model, observed):
        if not abs(got - want) <= RESIDUAL_TOL * want:
            failures.append(f"fit {mode}: model {name} {got!r} at the fit != observed {want!r}")
    if truth is not None:
        for name, got, want in (("t", t, truth[0]), ("v", v, truth[1])):
            if not abs(got - want) <= NOISELESS_FIT_TOL:
                failures.append(f"fit {mode}: noiseless {name} {got!r} != generating {want!r}")
    n = cfg["mc_resamples"]
    if n:
        rel = SIGMA_SE_FACTOR / math.sqrt(2 * (n - 1))
        for name, got, want in zip(
            ("sigma_t", "sigma_v"),
            (row["sigma_t"], row["sigma_v"]),
            propagated_sigma(mode, t, v, observed, trials, v_raw),
        ):
            if not abs(got / want - 1) <= rel:
                failures.append(
                    f"fit {mode}: {name} {got!r} vs propagated {want!r} (allowed {rel:.1%})"
                )
    return failures


# ---------------------------------------------------------------- dephasing MC

def purified_from_moments(pair: float, triple: float, quad: float) -> float:
    """1 - 2 P with P the heralded coincidence of the overlap-cycle moments."""
    return 1 - (1 + pair + pair * pair - 2 * triple - quad) / (1 + pair) ** 2


def check_mc_dephasing(output: bytes) -> list[str]:
    """pair_mc within a few pair_se of 1/(1+x); purified_mc within a few
    standard errors of the closed form. The purified standard error is
    bounded from the moment errors the program prints: the delta-method
    error of a sum is at most the sum of the absolute terms."""
    doc = json.loads(output)
    row, x = doc["rows"][0], doc["config"]["x"]
    failures = []
    if not abs(row["pair_mc"] - pd_raw(x)) <= MC_SE_FACTOR * row["pair_se"]:
        failures.append(f"mc x={x}: pair_mc {row['pair_mc']!r} vs {pd_raw(x)!r} (se {row['pair_se']!r})")
    p, tri, quad = row["pair_mc"], row["triple_mc"], row["quad_mc"]
    purified = purified_from_moments(p, tri, quad)
    if not abs(row["purified_mc"] - purified) <= 1e-12:
        failures.append(f"mc x={x}: purified_mc {row['purified_mc']!r} != moments give {purified!r}")
    # V = 1 - (1 + p + p^2 - 2T - Q) / (1 + p)^2
    d_p = -((1 + 2 * p) * (1 + p) - 2 * (1 + p + p * p - 2 * tri - quad)) / (1 + p) ** 3
    d_t = 2 / (1 + p) ** 2
    d_q = 1 / (1 + p) ** 2
    se = abs(d_p) * row["pair_se"] + d_t * row["triple_se"] + d_q * row["quad_se"]
    if not abs(row["purified_mc"] - pd_pure(x)) <= MC_SE_FACTOR * se:
        failures.append(f"mc x={x}: purified_mc {row['purified_mc']!r} vs {pd_pure(x)!r} (se {se!r})")
    return failures
