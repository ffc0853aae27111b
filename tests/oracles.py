"""Independent reference implementations used to validate the package.

Everything here is deliberately written from first principles (polynomial
creation-operator algebra, plain permutation sums, brute-force path
enumeration) and shares no code path with the package kernels it checks.
The least-squares count fits share only the forward count model with the
package; they check its closed-form inversion. The purified bisection is
the package's earlier purified inversion, kept to pin the Newton solve on
the closed-form quintic that replaced it. The composed purified count
model is the package's earlier `pure_count_model`, built here on the
enumerated routing probabilities, kept to pin the polynomial that
replaced it. The expanded emission
mixture shares the signature-probability path with the package; it checks
Ryser's formula with multiplicities, which replaced that expansion. The
complex-exponential dephasing sampler is the package's earlier sampler,
kept to pin the real cos/sin accumulation that replaced it. The rational
pure-dephasing form is the package's earlier `pd_purified`, kept to pin
the moment formula that replaced it. The full-temporary mixture kernel
is the package's earlier `permanent_mixture_batch` on the package's Ryser
tables, kept to pin the unweighted degree-axis kernel that replaced it,
weighted per degree. `lossy_circuit` is a test fixture
builder, not an oracle: it dilates random circuits with the package's own
couplers.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import replace
from math import comb, factorial

import numpy as np
from scipy.optimize import least_squares

from hompurify import FockState, permanents, pure_count_model, raw_count_model, signature_probability
from hompurify.circuits import TransferMatrix, beamsplitter_matrix


def gram_to_state_vectors(s: np.ndarray) -> np.ndarray:
    """Explicit internal-state vectors whose pairwise inner products
    <v_j|v_k> reproduce a Hermitian PSD Gram matrix S (eigenvalues clipped
    at zero)."""
    s = np.asarray(s, dtype=complex)
    w, vecs = np.linalg.eigh(s)
    w = np.clip(w, 0.0, None)
    ell = vecs @ np.diag(np.sqrt(w))
    return ell.conj()


def _mult_factorial(mono) -> int:
    out = 1
    for count in Counter(mono).values():
        out *= factorial(count)
    return out


def fock_polynomial_probabilities(matrix, input_occ, photon_vectors) -> dict:
    """Exact detection probabilities by expanding the product of evolved
    creation operators over (mode, internal-state) labels.

    `matrix` columns index input modes; `photon_vectors[j]` is the internal
    state of the j-th photon (photons ordered by input mode, ascending).
    Returns {output occupation tuple: probability}, normalized by the
    actual squared norm of the input state.
    """
    matrix = np.asarray(matrix, dtype=complex)
    n_modes = matrix.shape[0]
    photon_vectors = np.asarray(photon_vectors, dtype=complex)
    input_modes = []
    for mode, k in enumerate(input_occ):
        input_modes.extend([mode] * k)
    if len(input_modes) != photon_vectors.shape[0]:
        raise ValueError("one internal-state vector per photon required")
    dim = photon_vectors.shape[1]

    def expand(amplitudes_per_photon):
        poly = {(): 1.0 + 0.0j}
        for amps in amplitudes_per_photon:
            amps = [(label, amp) for label, amp in amps if amp != 0]
            new = {}
            for mono, coeff in poly.items():
                for label, amp in amps:
                    key = tuple(sorted(mono + (label,)))
                    new[key] = new.get(key, 0.0 + 0.0j) + coeff * amp
            poly = new
        return poly

    input_terms = [
        [((q, s), photon_vectors[j, s]) for s in range(dim)]
        for j, q in enumerate(input_modes)
    ]
    norm2 = sum(abs(c) ** 2 * _mult_factorial(k) for k, c in expand(input_terms).items())

    output_terms = [
        [
            ((p, s), matrix[p, q] * photon_vectors[j, s])
            for p in range(n_modes)
            for s in range(dim)
        ]
        for j, q in enumerate(input_modes)
    ]
    probs: dict = {}
    for mono, coeff in expand(output_terms).items():
        occ = [0] * n_modes
        for (p, _s) in mono:
            occ[p] += 1
        key = tuple(occ)
        probs[key] = probs.get(key, 0.0) + abs(coeff) ** 2 * _mult_factorial(mono)
    return {k: v / norm2 for k, v in probs.items()}


def n_output_states(n_photons: int, n_modes: int) -> int:
    """Number of Fock states of n_photons in n_modes, C(n + m - 1, m - 1)."""
    return comb(n_photons + n_modes - 1, n_modes - 1)


def patterns_for_clicks(pattern, n_photons: int, n_modes: int) -> list:
    """All output states of fixed total photon number producing a given
    signature on non-photon-number-resolving detectors: >= 1 photon in every
    clicked mode, 0 in every silent mode, anything elsewhere. Found by
    filtering every multiset of output modes, in descending lexicographic
    order; an infeasible signature yields an empty list."""
    if any(m >= n_modes for m in pattern.modes):
        raise ValueError("detector watches a mode outside the circuit")
    states = set()
    for modes in itertools.combinations_with_replacement(range(n_modes), n_photons):
        occ = tuple(modes.count(m) for m in range(n_modes))
        if all(occ[m] for m in pattern.clicked_modes) and not any(
            occ[m] for m in pattern.silent_modes
        ):
            states.add(occ)
    return [FockState(s) for s in sorted(states, reverse=True)]


def placements(n_base: int, eta: int) -> list[tuple[int, ...]]:
    """Photon labels of every placement of eta doubled emissions among
    n_base inputs: each label once, a doubled one twice, ascending."""
    return [
        tuple(sorted([*range(n_base), *doubled]))
        for doubled in itertools.combinations(range(n_base), eta)
    ]


def expanded_mixture_probability(circuit, base_modes, s_base, pattern, p2) -> float:
    """Signature probability under the two-photon emission mixture with
    every placement expanded into repeated photons: a doubled photon is a
    second photon on its sibling's input mode whose Gram row and column
    repeat the sibling's. Sums (1 - p2)^(N - eta) p2^eta over the
    placements of each eta, one `signature_probability` each."""
    n_base = len(base_modes)
    total = 0.0
    for eta in range(n_base + 1):
        weight = (1.0 - p2) ** (n_base - eta) * p2**eta
        for labels in placements(n_base, eta):
            occupations = [0] * circuit.n_modes
            for g in labels:
                occupations[base_modes[g]] += 1
            s_eff = np.asarray(s_base)[np.ix_(labels, labels)]
            total += weight * signature_probability(circuit, FockState(occupations), pattern, s_eff)
    return total


def permanent_perm_sum(a: np.ndarray) -> complex:
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for j in range(n):
            term *= a[perm[j], j]
        total += term
    return total


def batch_permanent_ryser(stack: np.ndarray) -> np.ndarray:
    """Plain permanents of a stack of equal-size square matrices via
    inclusion-exclusion, vectorized over the stack."""
    stack = np.asarray(stack, dtype=complex)
    b, n, _ = stack.shape
    row_sum = np.zeros((b, n), dtype=complex)
    total = np.zeros(b, dtype=complex)
    gray = 0
    for step in range(1, 1 << n):
        new_gray = step ^ (step >> 1)
        bit = (new_gray ^ gray).bit_length() - 1
        if new_gray & (1 << bit):
            row_sum += stack[:, :, bit]
        else:
            row_sum -= stack[:, :, bit]
        gray = new_gray
        sign = -1.0 if (bin(gray).count("1") & 1) else 1.0
        total += sign * np.prod(row_sum, axis=1)
    return total * ((-1.0) ** n)


def mixture_kernel_full_temporaries(a, w1: float, w2: float) -> np.ndarray:
    """The weighted sum over doublings, sum_{M nonempty} w1**(n - |M|)
    w2**|M| perm(A[M]), as `permanent_mixture_batch` computed it before
    the photon-major loop and the degree axis: full single and doubled
    factor arrays, walked by strided photon slices."""
    a = permanents._square_stack(a)
    table, (c1, c2), _ = permanents._ryser_tables(a.shape[-1], 2)
    rows = a @ table
    single = w1 * c1 * rows
    double = w2 * c2 * rows**2
    total, lead = double[..., 0, :], single[..., 0, :]
    for g in range(1, rows.shape[-2]):
        total = total * (single[..., g, :] + double[..., g, :]) + double[..., g, :] * lead
        lead = lead * single[..., g, :]
    return total.sum(axis=-1)


def double_permutation_multipermanent(a_photon_major: np.ndarray, s: np.ndarray) -> complex:
    """Brute-force sum over permutation pairs with photon-major A
    (rows = input photons, columns = output slots)."""
    a = np.asarray(a_photon_major, dtype=complex)
    s = np.asarray(s, dtype=complex)
    n = a.shape[0]
    total = 0.0 + 0.0j
    perms = list(itertools.permutations(range(n)))
    for sg in perms:
        for rh in perms:
            term = 1.0 + 0.0j
            for j in range(n):
                term *= a[sg[j], j] * np.conj(a[rh[j], j]) * s[rh[j], sg[j]]
            total += term
    return total


def lossy_circuit(matrix, transmissions) -> TransferMatrix:
    """The unitary `matrix` after input loss: a coupler of reflectivity
    1 - transmission from each lossy mode to its own vacuum ancilla,
    numbered after the physical modes."""
    n = len(matrix)
    lossy = [i for i, x in enumerate(transmissions) if x < 1.0 - 1e-15]
    if not lossy:
        return TransferMatrix(matrix)
    total = n + len(lossy)
    loss = np.eye(total, dtype=complex)
    for a, i in enumerate(lossy):
        loss = beamsplitter_matrix(1.0 - transmissions[i], (i, n + a), total) @ loss
    padded = np.eye(total, dtype=complex)
    padded[:n, :n] = matrix
    return TransferMatrix(padded @ loss, n_physical=n)


# The canonical purifier transfer matrix, prefactor 1 / (2 sqrt 2),
# rows indexed by input mode (the transpose of the applied convention).
def literal_purifier_matrix() -> np.ndarray:
    s2 = np.sqrt(2.0)
    return (1.0 / (2.0 * s2)) * np.array(
        [
            [2, s2 * 1j, -1, -1j, 0, 0],
            [2j, s2, 1j, -1, 0, 0],
            [0, 2j, s2, s2 * 1j, 0, 0],
            [0, 0, s2 * 1j, s2, 2j, 0],
            [0, 0, -1, 1j, s2, 2j],
            [0, 0, -1j, -1, 1j * s2, 2],
        ],
        dtype=complex,
    )


def literal_probability(m_literal, input_occ, output_occ, s_photons) -> float:
    """Detection probability computed the literal matrix's own way: rows
    picked by input occupations, columns by output occupations (already
    photon-major), double-permutation sum, factorial normalization."""
    rows, cols = [], []
    for mode, k in enumerate(input_occ):
        rows.extend([mode] * k)
    for mode, k in enumerate(output_occ):
        cols.extend([mode] * k)
    a = np.asarray(m_literal)[np.ix_(rows, cols)]
    norm = 1
    for k in input_occ:
        norm *= factorial(k)
    for k in output_occ:
        norm *= factorial(k)
    return double_permutation_multipermanent(a, s_photons).real / norm


# ---------------------------------------------------------------------------
# classical path enumeration of the counting networks
# ---------------------------------------------------------------------------

def raw_network_counts_oracle(t, v_raw, demux=0.5, split=0.55):
    """(P_central, P_1D) of the raw two-photon network by exhaustive path
    enumeration.

    Per photon: survive (t), pass the demultiplexer toward the network
    (demux), continue at the 45:55 splitter (split). If both photons reach
    the balanced final beamsplitter they bunch with visibility v_raw: a
    specific detector clicks unless both exit the other port."""
    p_central = 0.0
    p_click = 0.0
    arrival = [t * demux * split, 1.0 - t * demux * split]
    for a_top, a_bot in itertools.product((True, False), repeat=2):
        weight = arrival[0 if a_top else 1] * arrival[0 if a_bot else 1]
        if a_top and a_bot:
            p_central += weight * 0.5 * (1.0 - v_raw)
            p_click += weight * (1.0 - 0.25 * (1.0 + v_raw))
        elif a_top or a_bot:
            p_click += weight * 0.5
    return p_central, p_click


def pure_network_sub_probs_oracle(t, v_raw, split=0.55):
    """Top-copy herald/feed and bottom-copy feed probabilities of the
    purified setup by exhaustive enumeration of the discrete outcomes.

    First beamsplitter (both photons alive): bunch into the continuing arm
    or the dead-end arm with probability (1 + v_raw) / 4 each, split with
    (1 - v_raw) / 2. A lone photon continues with 1/2. Two bunched photons
    at the 45:55 splitter distribute binomially.
    """
    r = split
    h = 1.0 - r
    top = {}   # (n_herald, n_onward) -> prob
    bottom = {}  # n_onward -> prob

    def add(d, key, w):
        d[key] = d.get(key, 0.0) + w

    for alive_a, alive_b in itertools.product((True, False), repeat=2):
        w0 = (t if alive_a else 1 - t) * (t if alive_b else 1 - t)
        n_alive = alive_a + alive_b
        if n_alive == 0:
            add(top, (0, 0), w0)
            add(bottom, 0, w0)
            continue
        if n_alive == 1:
            # continue toward the splitter or leave via the dead-end arm
            for cont, w1 in ((1, 0.5), (0, 0.5)):
                if cont == 0:
                    add(top, (0, 0), w0 * w1)
                    add(bottom, 0, w0 * w1)
                else:
                    add(top, (0, 1), w0 * w1 * r)   # onward, no herald
                    add(top, (1, 0), w0 * w1 * h)   # herald
                    add(bottom, 1, w0 * w1 * r)
                    add(bottom, 0, w0 * w1 * h)
            continue
        # both alive: joint first-beamsplitter outcome
        for n_cont, w1 in ((2, 0.25 * (1 + v_raw)), (0, 0.25 * (1 + v_raw)), (1, 0.5 * (1 - v_raw))):
            if n_cont == 0:
                add(top, (0, 0), w0 * w1)
                add(bottom, 0, w0 * w1)
            elif n_cont == 1:
                add(top, (0, 1), w0 * w1 * r)
                add(top, (1, 0), w0 * w1 * h)
                add(bottom, 1, w0 * w1 * r)
                add(bottom, 0, w0 * w1 * h)
            else:
                # two photons in one arm split binomially at the 45:55
                add(top, (0, 2), w0 * w1 * r * r)
                add(top, (1, 1), w0 * w1 * 2 * r * h)
                add(top, (2, 0), w0 * w1 * h * h)
                add(bottom, 2, w0 * w1 * r * r)
                add(bottom, 1, w0 * w1 * 2 * r * h)
                add(bottom, 0, w0 * w1 * (h * h + 0.0))
    return {
        "h1t1": top.get((1, 1), 0.0),
        "h1t0": top.get((1, 0), 0.0),
        "h2t0": top.get((2, 0), 0.0),
        "b0": bottom.get(0, 0.0),
        "b1": bottom.get(1, 0.0),
        "b2": bottom.get(2, 0.0),
    }


def pure_network_counts_oracle(t, v_raw, v_pure, split=0.55):
    """(P_central, P_1D) of the purified network, composed from the
    enumerated per-copy probabilities of `pure_network_sub_probs_oracle`
    and the final-beamsplitter input configurations.

    The central peak needs both copies to herald and pass one photon on
    (h1t1 each) and the pair to anti-bunch. A given detector clicks with
    1/2 for one photon, 3/4 for a bunched pair from one copy,
    1 - (1 + 2 V_pure)/8 for three photons, and (3 - V)/4 for a split pair
    of visibility V: the average of V_raw and V_pure when one photon is
    purified, V_pure when both are (probability h1t1^2)."""
    sub = pure_network_sub_probs_oracle(t, v_raw, split)
    both_purified = sub["h1t1"] ** 2
    p_single, p_bunched = 0.5, 0.75
    p_split_input = 0.25 * (3.0 - (v_raw + v_pure) / 2.0)
    p_three_photon = 1.0 - 0.125 * (1.0 + 2.0 * v_pure)
    p_1d = (
        (sub["h1t0"] + sub["h2t0"]) * (sub["b1"] * p_single + sub["b2"] * p_bunched)
        + sub["h1t1"]
        * (sub["b0"] * p_single + sub["b1"] * p_split_input + sub["b2"] * p_three_photon)
        + both_purified * (0.25 * (3.0 - v_pure) - p_split_input)
    )
    return both_purified * 0.5 * (1.0 - v_pure), p_1d


# ---------------------------------------------------------------------------
# least-squares inversion of the count models
# ---------------------------------------------------------------------------

def model_counts(t, v, geometry, counts_meta, v_raw=None):
    """Expected (central, side) counts of `geometry.mode` at (t, V)."""
    if geometry.mode == "raw":
        return raw_count_model(t, v, geometry, counts_meta)
    return pure_count_model(t, v_raw, v, geometry, counts_meta)


def pure_inversion_bisect(central, side, counts_meta, geometry, v_raw):
    """Purified (t, V, failed) for arrays of counts by bisection: the
    central count fixes V = 1 - a/t^4, and the side count of
    `pure_count_model` along that curve is bisected on [a^(1/4), 1] until
    the bracket stops shrinking. Failures are labelled as the package
    labels them."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a = central / pure_count_model(1.0, v_raw, 0.0, geometry, counts_meta)[0]

        def side_at(t):
            v = np.clip(1.0 - a / t**4, 0.0, 1.0)
            return v, pure_count_model(t, v_raw, v, geometry, counts_meta)[1]

        lo = np.minimum(a**0.25, 1.0)
        side_v0 = pure_count_model(lo, v_raw, 0.0, geometry, counts_meta)[1]
        failed = np.select(
            [~np.isfinite(a), side <= 0, (a > 1) | (side_v0 > side), side_at(1.0)[1] < side],
            ["real root", "t > 0", "V >= 0", "t <= 1"],
            default="",
        )
        hi = np.where(failed == "", 1.0, lo)
        while True:
            t = 0.5 * (lo + hi)
            if not np.any((lo < t) & (t < hi)):
                return t, side_at(t)[0], failed
            below = side_at(t)[1] < side
            lo, hi = np.where(below, t, lo), np.where(below, hi, t)


def least_squares_fit(counts, geometry, v_raw=None, grid=11, refine_starts=3):
    """(t, V) by bounded least squares on the count model: a coarse grid
    over [0, 1]^2 picks the starting points, each refined by
    `scipy.optimize.least_squares`; the lowest cost wins."""
    observed = np.array([counts.central, counts.side], dtype=float)
    axis = np.linspace(0.0, 1.0, grid)
    tt, vv = np.meshgrid(axis, axis, indexing="ij")
    central, side = model_counts(tt, vv, geometry, counts, v_raw)
    cost = (central - observed[0]) ** 2 + (side - observed[1]) ** 2

    def residuals(p):
        c, s = model_counts(p[0], p[1], geometry, counts, v_raw)
        return np.array([c - observed[0], s - observed[1]])

    best = None
    for flat in np.argsort(cost, axis=None)[:refine_starts]:
        start = np.clip([tt.flat[flat], vv.flat[flat]], 1e-6, 1 - 1e-6)
        sol = least_squares(
            residuals, start, bounds=([0.0, 0.0], [1.0, 1.0]), xtol=1e-15, ftol=1e-15, gtol=1e-15
        )
        if best is None or sol.cost < best.cost:
            best = sol
    if not best.success:
        raise RuntimeError(f"least squares did not converge: {best.message}")
    return float(best.x[0]), float(best.x[1])


def mc_uncertainty_loop(counts, geometry, n_resamples, seed, v_raw=None):
    """Monte Carlo (sigma_t, sigma_v) one resample at a time: redraw the
    central then the side count from Poisson laws and refit each pair by
    least squares."""
    rng = np.random.default_rng(seed)
    fits = []
    for _ in range(n_resamples):
        resampled = replace(
            counts,
            central=float(rng.poisson(counts.central)),
            side=float(rng.poisson(counts.side)),
        )
        fits.append(least_squares_fit(resampled, geometry, v_raw=v_raw))
    return tuple(float(s) for s in np.std(fits, axis=0, ddof=1))


def fit_joint(raw_counts, pure_counts, raw_geometry, pure_geometry, grid=7, refine_starts=3):
    """Single-stage alternative to the raw-then-purified procedure: fit
    (t, v_raw, v_pure) jointly to all four counts with a shared efficiency.
    Overdetermined (four observations, three parameters)."""
    observed = np.array(
        [raw_counts.central, raw_counts.side, pure_counts.central, pure_counts.side]
    )

    def residuals(p):
        t, v_raw, v_pure = p
        rc, rs = raw_count_model(t, v_raw, raw_geometry, raw_counts)
        pc, ps = pure_count_model(t, v_raw, v_pure, pure_geometry, pure_counts)
        return np.array([rc, rs, pc, ps]) - observed

    axis = np.linspace(0.05, 0.95, grid)
    tt, vr, vp = np.meshgrid(axis, axis, axis, indexing="ij")
    rc, rs = raw_count_model(tt, vr, raw_geometry, raw_counts)
    pc, ps = pure_count_model(tt, vr, vp, pure_geometry, pure_counts)
    cost = (
        (rc - observed[0]) ** 2 + (rs - observed[1]) ** 2
        + (pc - observed[2]) ** 2 + (ps - observed[3]) ** 2
    )
    best = None
    for flat in np.argsort(cost, axis=None)[:refine_starts]:
        start = np.array([tt.flat[flat], vr.flat[flat], vp.flat[flat]])
        sol = least_squares(
            residuals, start, bounds=([0.0] * 3, [1.0] * 3), xtol=1e-15, ftol=1e-15, gtol=1e-15
        )
        if best is None or sol.cost < best.cost:
            best = sol
    if not best.success:
        raise RuntimeError("joint fit did not converge")
    return float(best.x[0]), float(best.x[1]), float(best.x[2])


def pd_purified_rational(x: float) -> float:
    """Purified indistinguishability under Wiener dephasing of strength x,
    as the rational function the exact overlap-cycle moments reduce to."""
    return (x**3 + 10.0 * x**2 + 32.0 * x + 24.0) / ((3.0 + x) * (2.0 + x) ** 3)


def complex_dephased_overlaps(
    params,
    n_photons: int,
    n_samples: int,
    dt: float | None = None,
    horizon: float | None = None,
    seed: int | None = None,
    chunk: int = 1000,
) -> np.ndarray:
    """Monte Carlo Gram matrices of dephased wavepackets built as complex
    exponentials: each sample's wavepackets are formed in full, normalised
    numerically and contracted with one complex einsum. Same arguments,
    draws and output as `hompurify.sample_dephased_overlaps`."""
    if seed is None:
        raise ValueError("a seed is required; no ambient randomness")
    if n_photons < 2:
        raise ValueError("need at least two photons for overlaps")
    gamma, gamma_d = params.gamma, params.gamma_d
    dt = 0.01 / gamma if dt is None else float(dt)
    horizon = 15.0 / gamma if horizon is None else float(horizon)
    if dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive")
    deltas = np.zeros(n_photons) if not params.deltas else np.asarray(params.deltas, float)
    if deltas.shape != (n_photons,):
        raise ValueError("one detuning per photon required")

    t = np.arange(0.0, horizon + dt / 2, dt)
    nt = t.size
    weights = np.full(nt, dt)
    weights[0] = weights[-1] = dt / 2
    envelope = np.sqrt(gamma) * np.exp(-gamma * t / 2.0)
    det_phase = np.exp(-1j * deltas[:, None] * t[None, :])

    rng = np.random.default_rng(seed)
    sigma_step = np.sqrt(2.0 * gamma_d * dt)
    out = np.empty((n_samples, n_photons, n_photons), dtype=complex)
    done = 0
    while done < n_samples:
        b = min(chunk, n_samples - done)
        if gamma_d > 0:
            steps = rng.normal(scale=sigma_step, size=(b, n_photons, nt))
            steps[:, :, 0] = 0.0
            phi = np.cumsum(steps, axis=2)
        else:
            phi = np.zeros((b, n_photons, nt))
        f = envelope[None, None, :] * det_phase[None, :, :] * np.exp(-1j * phi)
        norms = np.sqrt(np.einsum("t,bpt->bp", weights, np.abs(f) ** 2))
        f /= norms[:, :, None]
        # S[b, i, j] = sum_t w_t conj(f_i) f_j
        grams = np.einsum("t,bit,bjt->bij", weights, f.conj(), f)
        # enforce exact unit diagonal / Hermiticity against roundoff
        grams = 0.5 * (grams + grams.conj().transpose(0, 2, 1))
        idx = np.arange(n_photons)
        grams[:, idx, idx] = 1.0
        out[done : done + b] = grams
        done += b
    return out
