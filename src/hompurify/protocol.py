"""End-to-end purification protocol: heralded visibilities, success
probability, multiphoton (g2) mixtures, and imperfection sweeps.

Visibility definition: with P_out the probability of the full detector
signature on the interfering circuit and P_ref the same on the reference
circuit (final coupler removed), the reference routes exactly one photon
to each coincidence detector, so the no-interference coincidence baseline
at a balanced coupler is P_ref / 2 and

    V = 1 - 2 * P_out / P_ref.

This reproduces V = c^2 for the bare two-photon test with constant state
overlap c, and the measured-style purified visibility (the heralded
conditional coincidence equals (1 - V) / 2).

On the purifier, the heralded photons fill the clicked detectors and each
copy's heralding rows see one mode of its first coupler, so at g2 = 0
the visibilities are closed forms in the Gram matrix and the final
reflectivity R alone (notes/decisions.md, "g2 = 0 in closed form"):

    V = 4 R (1 - R) (1 + W) - 1,
    W = Tr(S_AA S_AB S_BB S_BA) / (Tr(S_AA^2) Tr(S_BB^2)),

with S_AB the overlaps of copy A's photons with copy B's; the raw test
has one photon per copy, so W = |S_03|^2 there. No circuit is built.
Under multiphoton noise (g2 > 0) every input may carry a doubled
emission: the placement without one takes the same closed form, scaled by
the reference circuit's route amplitudes, and the weighted sum of all
others is one evaluation of Ryser's formula with multiplicities on the
base photons of both circuits, the emission weights folded into one
factor per photon (`_mixture_probabilities`).

`signature_probability` and `hom_visibility` evaluate any signature on any
circuit: the inclusion-exclusion of `permanents._clicked_subset_sums` over
the rows that the signature watches, divided by the input norm
perm(delta_in o S), and exactly 0 when clicked detectors outnumber the
photons.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import factorial, inf, isfinite, sqrt

import numpy as np

from .circuits import LOSS_STAGES, TransferMatrix, purifier_circuits
from .dephasing import pd_purified
from .distinguishability import _constant_overlap_grams, _polarization_grams, constant_overlap_S
from .fock import AssignmentList, ClickPattern, FockState
from .permanents import (
    DistinguishabilityMatrix,
    _as_gram,
    _checked_grams,
    _clicked_subset_sums,
    _effective_gram,
    _input_norm,
    _real_part,
)

# Purifier mode roles (see circuits module): inputs and detector signature.
PURIFIER_INPUT_MODES = (0, 1, 4, 5)
RAW_INPUT_MODES = (0, 5)
HERALD_PATTERN = ClickPattern.from_modes(clicked=(1, 4), silent=(0, 5))
COINCIDENCE_PATTERN = ClickPattern.from_modes(clicked=(2, 3))
HERALDED_PATTERN = COINCIDENCE_PATTERN.merge(HERALD_PATTERN)
_DEGENERATE = "reference probability is zero: degenerate heralding"


@dataclass(frozen=True)
class NoiseConfig:
    """Multiphoton contamination, beamsplitter reflectivities and per-input
    transmissions of a purifier scenario."""

    g2: float = 0.0
    r1: float = 0.5
    r2: float = 0.5
    r_final: float = 0.5
    transmissions: tuple[float, ...] | None = None
    loss_stage: str = "input"

    def __post_init__(self):
        if not 0.0 <= self.g2 < 0.5:
            raise ValueError("g2 must satisfy 0 <= g2 < 0.5")
        for name in ("r1", "r2", "r_final"):
            r = getattr(self, name)
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.transmissions is not None:
            object.__setattr__(
                self, "transmissions", tuple(float(t) for t in self.transmissions)
            )
            if len(self.transmissions) != 6:
                raise ValueError("six per-mode transmissions required")
            if any(not 0.0 <= t <= 1.0 for t in self.transmissions):
                raise ValueError("transmissions must be in [0, 1]")
        if self.loss_stage not in LOSS_STAGES:
            raise ValueError("loss_stage must be 'input' or 'after_first_bs'")


@dataclass(frozen=True)
class Scenario:
    """One simulation configuration for the CLI / sweep layer."""

    scenario_id: str
    model: str  # constant | pure_dephasing | polarization
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    c: float | None = None
    x: float | None = None
    theta_deg: float | None = None
    direction: str = "same"

    def __post_init__(self):
        if self.model not in ("constant", "pure_dephasing", "polarization"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "constant" and self.c is None:
            raise ValueError("constant model needs an overlap c")
        if self.model == "pure_dephasing" and not (self.x is not None and 0.0 <= self.x < inf):
            raise ValueError(f"pure_dephasing model needs a finite x = 2*gamma_d/gamma >= 0, "
                             f"got {self.x!r}")
        if self.model == "polarization":
            if self.theta_deg is None or not isfinite(self.theta_deg):
                raise ValueError(f"polarization model needs a finite theta_deg, "
                                 f"got {self.theta_deg!r}")
            if self.direction not in ("same", "opposite"):
                raise ValueError("direction must be 'same' or 'opposite'")


def success_probability(n: int) -> float:
    """Heralding success probability of the n-copy cascade at balanced
    reflectivities: (n-1)! / 2^(sum_{i=2..n} i) * n^2 / 2^n."""
    if n < 2:
        raise ValueError("the cascade needs n >= 2 input photons")
    exponent = n * (n + 1) // 2 - 1
    return factorial(n - 1) / 2.0**exponent * n**2 / 2.0**n


def signature_probability(
    circuit: TransferMatrix,
    input_state: FockState,
    pattern: ClickPattern,
    s,
    assignment: AssignmentList | None = None,
) -> float:
    """Probability of a detector signature: at least one photon at every
    clicked detector C, none at a silent one, anything in the free modes F
    (unmonitored physical modes and loss ancillas). By inclusion-exclusion,

        P = sum_{T subset C} (-1)**(|C| - |T|) perm(H_T o S) / perm(delta_in o S),
        H_T = U_in^dagger diag(1_{F | T}) U_in,

    with U_in the circuit columns of the photons' input modes, o the
    entrywise product and S the effective Gram matrix itself, not its
    transpose (H_T[k, l] pairs with S[k, l]). delta_in[k, l] = 1 when
    photons k and l share an input mode, so the denominator is the squared
    norm of the input state: prod n_i! when photons sharing a mode share
    their internal state. More clicked detectors than photons give
    exactly 0; exactly as many leave no photon for F, so F is dropped from
    every term. Derivation in notes/decisions.md.
    """
    n = input_state.n_photons
    if n < 1:
        raise ValueError("at least one photon required")
    s_eff = _effective_gram(s, n, assignment)
    if input_state.n_modes not in (circuit.n_physical, circuit.n_modes):
        raise ValueError("mode count of the input state does not match the circuit")
    if any(m >= circuit.n_modes for m in pattern.modes):
        raise ValueError("detector watches a mode outside the circuit")
    if n < len(pattern.clicked_modes):
        return 0.0
    in_modes = np.array([input_state.mode_list()])
    u_in = circuit.matrix[:, in_modes].transpose(1, 0, 2)  # (1, n_modes, n)
    num = _clicked_subset_sums(u_in, s_eff[None], pattern.clicked_modes, pattern.silent_modes)
    return float(num[0, 0] / _input_norm(in_modes, s_eff[None])[0])


def hom_visibility(
    interfering: TransferMatrix,
    reference: TransferMatrix,
    input_state: FockState,
    coincidence: ClickPattern,
    heralds: ClickPattern | None,
    s,
    assignment: AssignmentList | None = None,
) -> float:
    """Visibility 1 - 2 * P_out / P_ref of a heralded interference test.

    `interfering` and `reference` are the circuits with and without the
    final coupler; the detector signature is the union of the coincidence
    and herald patterns.
    """
    pattern = coincidence if heralds is None else coincidence.merge(heralds)
    p_out = signature_probability(interfering, input_state, pattern, s, assignment)
    p_ref = signature_probability(reference, input_state, pattern, s, assignment)
    if p_ref <= 0.0:
        raise ValueError(_DEGENERATE)
    return 1.0 - 2.0 * p_out / p_ref


def _constant_or_matrix(c_or_s) -> np.ndarray:
    if np.isscalar(c_or_s):
        return constant_overlap_S(4, float(c_or_s)).entries
    arr = _as_gram(c_or_s)
    if arr.shape != (4, 4):
        raise ValueError("expected an overlap scalar or 4 x 4 Gram matrix")
    return arr


def p2_from_g2(g2: float) -> float:
    """Two-photon emission probability implied by g2(0) for a source with
    no higher-order emissions: (1 - g2 - sqrt(1 - 2 g2)) / g2, evaluated as
    g2 / (1 - g2 + sqrt(1 - 2 g2)), the same value without the cancellation
    (exactly 0 at g2 = 0)."""
    if not 0.0 <= g2 < 0.5:
        raise ValueError("g2 must satisfy 0 <= g2 < 0.5")
    return g2 / (1.0 - g2 + sqrt(1.0 - 2.0 * g2))


def _hom(r_final, w):
    """Visibility 4R(1 - R)(1 + W) - 1 of two photons with state overlap W,
    one in each input of a coupler of reflectivity R; R and W may be
    arrays of one shape, or R a number."""
    return 4.0 * r_final * (1.0 - r_final) * (1.0 + w) - 1.0


def _heralded_overlaps(grams) -> tuple[np.ndarray, np.ndarray]:
    """(W, N), each of shape (g,), of a stack of Gram matrices (g, 2k, 2k):
    the state overlap W of the two photons that meet at the final coupler
    at g2 = 0, and the norm N = Tr(S_AA^2) Tr(S_BB^2) of the heralded
    state, for photons whose first half is copy A's and second half copy
    B's:

        W = Tr(S_AA S_AB S_BB S_BA) / N.

    With one photon per copy (the raw test) W = S_01 S_10 and N = 1. The
    traces are two `np.einsum` calls over the stack. Both pass the
    non-real check of every detection probability, so a non-Hermitian
    matrix raises."""
    s = np.asarray(grams)
    k = s.shape[-1] // 2
    blocks = np.stack([s[:, :k, :k], s[:, k:, k:]])  # S_AA, S_BB
    trace = np.einsum("gij,gjh,ghl,gli->g", blocks[0], s[:, :k, k:], blocks[1], s[:, k:, :k])
    squares = np.einsum("xgij,xgji->xg", blocks, blocks)
    trace, norm = _real_part(np.stack([trace, squares[0] * squares[1]]), "detection probability")
    return trace / norm, norm


def _heralds(config: NoiseConfig) -> bool:
    """Whether both copies can herald at g2 = 0. P_ref > 0 exactly when r1
    and r2 lie strictly inside (0, 1) and every loss coupler on a heralded
    photon's path transmits: inputs 0, 1, 4 and 5 for input loss, modes 1
    and 4 for loss after the first couplers. The factors are checked one by
    one, since their product can underflow."""
    t = config.transmissions or (1.0,) * 6
    crossed = (0, 1, 4, 5) if config.loss_stage == "input" else (1, 4)
    return 0.0 < config.r1 < 1.0 and 0.0 < config.r2 < 1.0 and all(t[m] > 0.0 for m in crossed)


def _mixture_probabilities(
    circuits: tuple[TransferMatrix, TransferMatrix], grams, r_final: float, p2: float
) -> np.ndarray:
    """(P_out, P_ref), shape (g, 2), of the photons of each matrix of a
    stack of Gram matrices `grams`, 2 x 2 (raw test) or 4 x 4 (purified), through
    the purifier circuits (`out`, `ref`) under the two-photon mixture.

    Each of the N base photons independently carries a doubled emission
    with probability p2, a second photon in its mode and internal state.
    The base modes are distinct, so a placement M of doubled photons has
    input norm 2^|M|, and

        P = (1 - p2)^N P_0 + sum_{M nonempty} (1 - p2)^(N - |M|) (p2 / 2)^|M| P_M,

    with P_M the unnormalised signature sum of placement M. Without a
    doubling the base photons fill the clicked detectors and the g2 = 0
    closed form holds: P_ref,0 = K N and P_out,0 = P_ref,0 (1 - V) / 2,
    with N and V from `_heralded_overlaps` and K the product over the
    photons of |U[reached, mode]|^2 in `ref`: one heralded route per
    photon, and every route gives the same K. The rest is Ryser's formula
    with multiplicities on the base photons of both circuits
    (`permanents._clicked_subset_sums` with the emission weights). K and
    the H_T stack are formed once for all of `grams`.
    """
    grams = np.asarray(grams)
    if grams.shape[-1] == 2:
        modes, pattern, reached = RAW_INPUT_MODES, COINCIDENCE_PATTERN, (2, 3)
    else:
        modes, pattern, reached = PURIFIER_INPUT_MODES, HERALDED_PATTERN, (1, 2, 3, 4)
    k = float(np.prod(np.abs(circuits[1].matrix[reached, modes]) ** 2))
    w, norm = _heralded_overlaps(grams)
    singles = np.stack([norm * k * (1.0 - _hom(r_final, w)) / 2.0, norm * k], axis=1)
    u_in = np.stack([circuit.matrix[:, modes] for circuit in circuits])
    doubled = _clicked_subset_sums(
        u_in, grams, pattern.clicked_modes, pattern.silent_modes,
        weights=(1.0 - p2, p2 / 2.0),
    )
    return (1.0 - p2) ** len(modes) * singles + doubled


def _raw_gram(s4: np.ndarray) -> np.ndarray:
    """Gram matrix of the raw test's photons: entries 0 and 3 of the
    four-photon one, with a unit diagonal; a stack (g, 4, 4) gives a
    stack (g, 2, 2)."""
    raw = np.ones(s4.shape[:-2] + (2, 2), dtype=complex)
    raw[..., 0, 1], raw[..., 1, 0] = s4[..., 0, 3], s4[..., 3, 0]
    return raw


def _from_probabilities(p) -> np.ndarray:
    """1 - 2 P_out / P_ref of each row (P_out, P_ref) of `p`, shape (g, 2);
    a ValueError names degenerate heralding when some P_ref <= 0."""
    p_out, p_ref = np.asarray(p).T
    if (p_ref <= 0.0).any():
        raise ValueError(_DEGENERATE)
    return 1.0 - 2.0 * p_out / p_ref


def _visibilities(s4: np.ndarray, configs) -> np.ndarray:
    """[v_raw, v_pure], shape (g, 2), of each matrix of a checked stack
    (g, 4, 4) of Gram matrices under the NoiseConfig at the same place in
    `configs`; the raw test runs photons 0 and 3 (`_raw_gram`). Each
    distinct config is looked at once. The g2 = 0 rows are one closed form
    `_hom(r_final, W)` for both tests, after `_heralds` passes their
    configs; no circuit is built. The g2 > 0 rows are grouped by their
    optics (the config at g2 = 0), whose circuits are built once, and make
    one `_mixture_probabilities` call per g2 and Gram size."""
    stacks = (_raw_gram(s4), s4)
    rows = {}
    for j, config in enumerate(configs):
        rows.setdefault(config, []).append(j)
    visibilities = np.empty((len(s4), 2))
    zero, r_final, optics = [], [], {}
    for config, group in rows.items():
        if p2_from_g2(config.g2) == 0.0:
            if not _heralds(config):
                raise ValueError(_DEGENERATE)
            zero += group
            r_final += [config.r_final] * len(group)
        else:
            optics.setdefault(replace(config, g2=0.0), []).append(config)
    if zero:
        for column, stack in enumerate(stacks):
            visibilities[zero, column] = _hom(np.array(r_final), _heralded_overlaps(stack[zero])[0])
    for base, group in optics.items():
        circuits = purifier_circuits(
            base.r1, base.r2, base.r_final, base.transmissions, base.loss_stage
        )
        for config in group:
            at = rows[config]
            for column, stack in enumerate(stacks):
                visibilities[at, column] = _from_probabilities(_mixture_probabilities(
                    circuits, stack[at], config.r_final, p2_from_g2(config.g2)
                ))
    return visibilities


def purified_visibility(c_or_s, config: NoiseConfig = NoiseConfig()) -> tuple[float, float]:
    """Raw and purified visibilities of one scenario, as Python floats.

    The raw value interferes only the two outer inputs (modes 0 and 5,
    Gram entries 0 and 3); the purified value runs all four photons with
    heralds on the inner detectors. At g2 = 0 both are closed forms in the
    Gram matrix and `config.r_final` (module docstring): r1, r2 and loss
    only decide whether the copies can herald at all, and a ValueError
    names degenerate heralding when they cannot. At g2 > 0 they read every
    field of `config` (`_mixture_probabilities`).
    """
    return tuple(_visibilities(_constant_or_matrix(c_or_s)[None], [config])[0].tolist())


def multiphoton_visibility(
    c: float, g2: float, config: NoiseConfig | None = None
) -> tuple[float, float]:
    """`purified_visibility` with `config.g2` set to `g2`, its one home;
    at g2 = 0 the same bits as without emissions."""
    return purified_visibility(c, replace(config or NoiseConfig(), g2=g2))


def bs_sweep(which: str, reflectivities, c: float, g2: float = 0.0) -> list[dict]:
    """Raw/purified visibilities versus one beamsplitter reflectivity, the
    other two held at 0.5. `which` is first, second or final."""
    if which not in ("first", "second", "final"):
        raise ValueError("which must be 'first', 'second' or 'final'")
    key = {"first": "r1", "second": "r2", "final": "r_final"}[which]
    rs = [float(r) for r in reflectivities]
    s4 = np.repeat(_constant_or_matrix(c)[None], len(rs), axis=0)
    visibilities = _visibilities(s4, [NoiseConfig(g2=g2, **{key: r}) for r in rs])
    return [{"reflectivity": r, "v_raw": v_raw, "v_pure": v_pure}
            for r, (v_raw, v_pure) in zip(rs, visibilities.tolist())]


def g2_sweep(g2s, c: float) -> list[dict]:
    """Raw/purified visibilities and their difference versus g2 at constant
    overlap `c`, balanced lossless couplers: one `_visibilities` call, so
    the circuits are built once, and each row has the bits of
    `multiphoton_visibility(c, g2)`."""
    g2s = [float(g2) for g2 in g2s]
    s4 = np.repeat(constant_overlap_S(4, c).entries[None], len(g2s), axis=0)
    visibilities = _visibilities(s4, [NoiseConfig(g2=g2) for g2 in g2s])
    return [{"g2": g2, "v_raw": v_raw, "v_pure": v_pure, "improvement": v_pure - v_raw}
            for g2, (v_raw, v_pure) in zip(g2s, visibilities.tolist())]


SWEEP_MODELS = ("multipermanent", "pure_dephasing", "multipermanent_g2")

# D_1..D_4 of the balanced lossless purifier, `out` and `ref` circuits: row
# k - 1 holds the coefficients of c^0..c^8 of the signature sum of every
# placement of k doubled photons, in units of 2^-16 (`_g2_column`).
_D_OUT = np.array([
    [4608, 0, 10752, -7168, 3072, -2048, 0, 0, 0],
    [10720, 0, 39936, -17280, 24416, -14464, -896, 0, 0],
    [9408, 0, 51456, -16640, 56448, -28800, 1856, -4608, 0],
    [2816, 0, 21176, -5408, 39072, -16080, 7992, -8112, 592],
]) / 2.0**16
_D_REF = np.array([
    [6144, 0, 18432, 0, 12288, 0, 0, 0, 0],
    [12800, 0, 54784, 0, 54784, 0, 3584, 0, 0],
    [10752, 0, 64512, 0, 96768, 0, 21504, 0, 0],
    [3136, 0, 25088, 0, 56448, 0, 25088, 0, 3136],
]) / 2.0**16


def _g2_column(cs: list[float], p2: float) -> list[float]:
    """Purified visibility at constant overlap c, for each c of `cs` in
    [0, 1], on the balanced lossless purifier at two-photon emission
    probability `p2` > 0, in closed form.

    `_mixture_probabilities` divided by (1 - p2)^4, a factor that cancels
    in 1 - 2 P_out / P_ref, is P_0(c) + sum_{k=1..4} t^k D_k(c) with
    t = p2 / (2 (1 - p2)). P_0 is the g2 = 0 closed form K N and
    K N (1 - W) / 2, with K = 1/256, N = 4 (1 + c^2)^2 and
    W = c^2 (1 + c)^2 / (1 + c^2)^2, so P_0 of the output test is
    ((1 + c^2)^2 - c^2 (1 + c)^2) / 128; D_k, the signature sum of the
    placements of k doubled photons, is a polynomial of degree <= 8 in c
    with dyadic coefficients (`_D_OUT`, `_D_REF`; their derivation is in
    notes/decisions.md, "The sweep's g2 column in closed form"). No
    circuit, Gram matrix or kernel call is made."""
    c = np.asarray(cs, dtype=float)
    t = p2 / (2.0 * (1.0 - p2))
    ts = t ** np.arange(1, 5)
    powers = c[:, None] ** np.arange(9)
    n = (1.0 + c * c) ** 2
    p = np.stack([(n - (c * (1.0 + c)) ** 2) / 128.0 + powers @ (ts @ _D_OUT),
                  n / 64.0 + powers @ (ts @ _D_REF)], axis=1)
    return _from_probabilities(p).tolist()


def raw_visibility_sweep(v_raws, models, g2: float) -> list[dict]:
    """Purified visibility versus the raw one, one column per model of
    `SWEEP_MODELS`: the constant-overlap circuit at c = sqrt(v_raw)
    without (`multipermanent`) and with (`multipermanent_g2`) doubled
    emissions at `g2`, and the pure-dephasing closed form at
    x = 1 / v_raw - 1. Every `v_raw` must lie in [0, 1]; when
    `pure_dephasing` is listed, in (0, 1] with a finite 1 / v_raw.

    The `multipermanent` column, and the g2 column at g2 = 0, is one
    closed-form `_visibilities` call on the checked stack of every grid
    point's Gram matrix, with the bits of `purified_visibility(c)[1]`. At
    g2 > 0 the g2 column is the closed form in (c, p2) of `_g2_column`,
    within 1e-14 of `multiphoton_visibility(c, g2)[1]` row by row."""
    for model in models:
        if model not in SWEEP_MODELS:
            raise ValueError(f"unknown sweep model {model!r}")
    v_raws = [float(v) for v in v_raws]
    dephasing = "pure_dephasing" in models
    for v in v_raws:
        if not (0.0 < v <= 1.0 and isfinite(1.0 / v) if dephasing else 0.0 <= v <= 1.0):
            span = ("(0, 1] with a finite 1 / v_raw for the pure_dephasing model"
                    if dephasing else "[0, 1]")
            raise ValueError(f"v_raw must be in {span}, got {v!r}")
    cs = [sqrt(v) for v in v_raws]
    columns = {}
    for model in dict.fromkeys(models):
        if model == "pure_dephasing":
            columns[model] = [pd_purified(1.0 / v - 1.0) for v in v_raws]
        elif model == "multipermanent_g2" and g2 != 0.0:
            columns[model] = _g2_column(cs, p2_from_g2(g2))
        else:
            grams = _checked_grams(_constant_overlap_grams(4, cs))
            columns[model] = _visibilities(grams, [NoiseConfig()] * len(cs))[:, 1].tolist()
    return [
        {"v_raw": v, **{f"v_pure_{model}": column[i] for model, column in columns.items()}}
        for i, v in enumerate(v_raws)
    ]


def polarization_scenario_S(theta_rad: float, direction: str) -> DistinguishabilityMatrix:
    """Gram matrix of four photons with one input per copy rotated by
    theta, either both the same way or mirrored."""
    return DistinguishabilityMatrix(_polarization_scenario_grams([theta_rad], [direction])[0])


def _polarization_scenario_grams(thetas_rad, directions) -> np.ndarray:
    """Unchecked stack of `polarization_scenario_S` for each angle of
    `thetas_rad` with the direction of `directions` at the same place:
    linear polarizations at theta, 0, +-theta and 0."""
    theta = np.asarray(thetas_rad, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError(f"polarization angle must be finite, got {theta[~np.isfinite(theta)][0]}")
    sign = np.array([{"same": 1.0, "opposite": -1.0}[d] for d in directions])
    zero = np.zeros_like(theta)
    angles = np.stack([theta, zero, sign * theta, zero], axis=1)
    return _polarization_grams(np.cos(angles), np.sin(angles))


def polarization_bounds(thetas_deg, config: NoiseConfig | None = None) -> list[dict]:
    """Purified-visibility bounds versus polarization rotation angle: the
    same-direction case is the upper bound, opposite the lower. Each is a
    `purified_visibility` of `polarization_scenario_S` under `config`, g2 too.

    The opposite-direction lower bound can fall below the raw visibility:
    at g2 = 0 and balanced lossless couplers, for 0 < theta < 45 degrees it
    sits up to 0.0068 below `v_raw` (exactly -(1-u)^2 (2u-1) / (2 (1+u)^2)
    with u = cos^2 theta, deepest near 36.5 degrees; derivation in
    notes/decisions.md)."""
    thetas = [float(t) for t in thetas_deg]
    n = len(thetas)
    s4 = _checked_grams(_polarization_scenario_grams(
        np.deg2rad(thetas + thetas), ["same"] * n + ["opposite"] * n
    ))
    visibilities = _visibilities(s4, [config or NoiseConfig()] * (2 * n)).tolist()
    # the direction rotates photon 2 only, so the raw pair (photons 0 and 3)
    # and its visibility are the same for both; v_raw is read from `same`
    return [
        {"theta_deg": theta_deg, "v_raw": v_raw, "v_pure_same": v_same,
         "v_pure_opposite": v_opposite}
        for theta_deg, (v_raw, v_same), (_, v_opposite)
        in zip(thetas, visibilities[:n], visibilities[n:])
    ]


def evaluate_scenarios(scenarios) -> list[dict]:
    """One result row (raw, purified, improvement, success probability) per
    Scenario, in order; drives the CLI simulate command. The table is
    evaluated as arrays (`_table_visibilities`). A numerical failure names
    the first row that fails alone, as scenario[i] with its id."""
    scenarios = list(scenarios)
    try:
        visibilities = _table_visibilities(scenarios)
    except ValueError:
        for i, scenario in enumerate(scenarios):
            try:
                _table_visibilities([scenario])
            except ValueError as exc:
                raise ValueError(f"scenario[{i}] (id {scenario.scenario_id!r}): {exc}") from exc
        raise
    p_success = success_probability(2)
    return [
        {"scenario_id": scenario.scenario_id, "model": scenario.model, "v_raw": v_raw,
         "v_pure": v_pure, "improvement": v_pure - v_raw, "success_probability": p_success}
        for scenario, (v_raw, v_pure) in zip(scenarios, visibilities)
    ]


def _table_visibilities(scenarios: list[Scenario]) -> list[list[float]]:
    """[v_raw, v_pure] of each Scenario, with the bits of its own
    `purified_visibility`: the constant and polarization rows are one
    checked stack of Gram matrices and one `_visibilities` call under
    their own NoiseConfigs; pure dephasing rows are their closed forms."""
    visibilities = np.empty((len(scenarios), 2))
    model = {m: [i for i, s in enumerate(scenarios) if s.model == m]
             for m in ("constant", "polarization", "pure_dephasing")}
    for i in model["pure_dephasing"]:
        x = scenarios[i].x
        visibilities[i] = 1.0 / (1.0 + x), pd_purified(x)
    rows = model["constant"] + model["polarization"]  # the scenario of each Gram matrix
    polarized = [scenarios[i] for i in model["polarization"]]
    s4 = _checked_grams(np.concatenate([
        _constant_overlap_grams(4, [scenarios[i].c for i in model["constant"]]),
        _polarization_scenario_grams(np.deg2rad([s.theta_deg for s in polarized]),
                                     [s.direction for s in polarized]),
    ]))
    visibilities[rows] = _visibilities(s4, [scenarios[i].noise for i in rows])
    return visibilities.tolist()


def evaluate_scenario(scenario: Scenario) -> dict:
    """`evaluate_scenarios` of one Scenario."""
    return evaluate_scenarios([scenario])[0]
