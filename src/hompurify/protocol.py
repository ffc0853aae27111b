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

Each signature probability is the inclusion-exclusion of
`permanents._clicked_subset_sums` over the rows that the signature
watches, divided by the input norm perm(delta_in o S); this module maps
patterns to rows and returns exactly 0 when clicked detectors outnumber
the photons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import factorial, sqrt

import numpy as np

from .circuits import LOSS_STAGES, TransferMatrix, purifier_circuits
from .dephasing import pd_purified
from .distinguishability import constant_overlap_S, polarization_S, PolarizationState
from .fock import AssignmentList, ClickPattern, FockState
from .permanents import (
    DistinguishabilityMatrix,
    _as_gram,
    _clicked_subset_sums,
    _effective_gram,
    _input_norm,
)

# Purifier mode roles (see circuits module): inputs and detector signature.
PURIFIER_INPUT_MODES = (0, 1, 4, 5)
RAW_INPUT_MODES = (0, 5)
HERALD_PATTERN = ClickPattern.from_modes(clicked=(1, 4), silent=(0, 5))
COINCIDENCE_PATTERN = ClickPattern.from_modes(clicked=(2, 3))
HERALDED_PATTERN = COINCIDENCE_PATTERN.merge(HERALD_PATTERN)


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
        if self.model == "pure_dephasing" and (self.x is None or self.x < 0):
            raise ValueError("pure_dephasing model needs x = 2*gamma_d/gamma >= 0")
        if self.model == "polarization":
            if self.theta_deg is None:
                raise ValueError("polarization model needs theta_deg")
            if self.direction not in ("same", "opposite"):
                raise ValueError("direction must be 'same' or 'opposite'")


def success_probability(n: int) -> float:
    """Heralding success probability of the n-copy cascade at balanced
    reflectivities: (n-1)! / 2^(sum_{i=2..n} i) * n^2 / 2^n."""
    if n < 2:
        raise ValueError("the cascade needs n >= 2 input photons")
    exponent = n * (n + 1) // 2 - 1
    return factorial(n - 1) / 2.0**exponent * n**2 / 2.0**n


def _signature_probabilities(
    matrix: np.ndarray, in_modes: np.ndarray, s_eff: np.ndarray, pattern: ClickPattern
) -> np.ndarray:
    """Signature probability of each of p photon placements: the
    inclusion-exclusion over the pattern's rows of `matrix` divided by the
    input norm.

    `in_modes` (p, n) holds each photon's input mode and `s_eff` (p, n, n)
    the matching effective Gram matrices; `matrix` is the full transfer
    matrix, loss ancillas included. See `signature_probability`.
    """
    if any(m >= matrix.shape[0] for m in pattern.modes):
        raise ValueError("detector watches a mode outside the circuit")
    clicked = pattern.clicked_modes
    if in_modes.shape[1] < len(clicked):
        return np.zeros(len(in_modes))
    u_in = matrix[:, in_modes].transpose(1, 0, 2)  # (p, n_modes, n)
    num = _clicked_subset_sums(u_in, s_eff, clicked, pattern.silent_modes)
    return num / _input_norm(in_modes, s_eff)


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
    in_modes = np.array([input_state.mode_list()])
    return float(_signature_probabilities(circuit.matrix, in_modes, s_eff[None], pattern)[0])


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
        raise ValueError("reference probability is zero: degenerate heralding")
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
    no higher-order emissions: (1 - g2 - sqrt(1 - 2 g2)) / g2, evaluated by
    series below g2 = 1e-6 to avoid the removable 0/0."""
    if not 0.0 <= g2 < 0.5:
        raise ValueError("g2 must satisfy 0 <= g2 < 0.5")
    if g2 < 1e-6:
        return g2 / 2.0 + g2**2 / 2.0
    return (1.0 - g2 - sqrt(1.0 - 2.0 * g2)) / g2


@lru_cache(maxsize=None)
def _placements(n_base: int, eta: int) -> np.ndarray:
    """Photon labels of every placement of eta doubled emissions among
    n_base inputs, read-only, shape (C(n_base, eta), n_base + eta)."""
    labels = np.array([
        sorted([*range(n_base), *doubled])
        for doubled in itertools.combinations(range(n_base), eta)
    ])
    labels.flags.writeable = False
    return labels


def _mixture_signature_probability(
    circuit: TransferMatrix,
    base_modes: tuple[int, ...],
    s_base: np.ndarray,
    pattern: ClickPattern,
    p2: float,
) -> float:
    """Detector-signature probability under the two-photon emission mixture.

    Each occupied input independently carries a doubled emission with
    probability p2; a doubled photon shares its sibling's internal state.
    Sums (1 - p2)^(N - eta) * p2^eta * P_eta over all placements; the
    placements of one eta share one stacked signature evaluation. At p2 = 0
    only eta = 0 contributes, with weight exactly 1.0.
    """
    n_base = len(base_modes)
    total = 0.0
    for eta in range(n_base + 1):
        weight = (1.0 - p2) ** (n_base - eta) * p2**eta
        if weight == 0.0:
            continue
        labels = _placements(n_base, eta)
        in_modes = np.asarray(base_modes)[labels]
        s_eff = s_base[labels[:, :, None], labels[:, None, :]]
        total += weight * float(
            np.sum(_signature_probabilities(circuit.matrix, in_modes, s_eff, pattern))
        )
    return total


def purified_visibility(c_or_s, config: NoiseConfig = NoiseConfig()) -> tuple[float, float]:
    """Raw and purified visibilities of one scenario, as Python floats.

    The raw value interferes only the two outer inputs (modes 0 and 5,
    Gram entries 0 and 3) through the full circuit; the purified value runs
    all four photons with heralds on the inner detectors. Both read every
    field of `config`, g2 included (see `_mixture_signature_probability`);
    at g2 = 0 they equal the `hom_visibility` values bit for bit.
    """
    s4 = _constant_or_matrix(c_or_s)
    s2 = s4[np.ix_((0, 3), (0, 3))].copy()
    np.fill_diagonal(s2, 1.0)
    circuits = purifier_circuits(
        config.r1, config.r2, config.r_final, config.transmissions, config.loss_stage
    )
    p2 = p2_from_g2(config.g2)
    visibilities = []
    for modes, s, pattern in ((RAW_INPUT_MODES, s2, COINCIDENCE_PATTERN),
                              (PURIFIER_INPUT_MODES, s4, HERALDED_PATTERN)):
        p_out, p_ref = (_mixture_signature_probability(c, modes, s, pattern, p2) for c in circuits)
        if p_ref <= 0.0:
            raise ValueError("reference probability is zero: degenerate heralding")
        visibilities.append(1.0 - 2.0 * p_out / p_ref)
    return tuple(visibilities)


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
    rows = []
    for r in reflectivities:
        v_raw, v_pure = purified_visibility(c, NoiseConfig(g2=g2, **{key: float(r)}))
        rows.append({"reflectivity": float(r), "v_raw": v_raw, "v_pure": v_pure})
    return rows


def polarization_scenario_S(theta_rad: float, direction: str) -> DistinguishabilityMatrix:
    """Gram matrix of four photons with one input per copy rotated by
    theta, either both the same way or mirrored."""
    sign = {"same": 1.0, "opposite": -1.0}[direction]
    states = [
        PolarizationState.linear(theta_rad),
        PolarizationState.linear(0.0),
        PolarizationState.linear(sign * theta_rad),
        PolarizationState.linear(0.0),
    ]
    return polarization_S(states)


def polarization_bounds(thetas_deg, config: NoiseConfig | None = None) -> list[dict]:
    """Purified-visibility bounds versus polarization rotation angle: the
    same-direction case is the upper bound, opposite the lower. Each is a
    `purified_visibility` of `polarization_scenario_S` under `config`, g2 too.

    The opposite-direction lower bound can fall below the raw visibility:
    at g2 = 0 and balanced lossless couplers, for 0 < theta < 45 degrees it
    sits up to 0.0068 below `v_raw` (exactly -(1-u)^2 (2u-1) / (2 (1+u)^2)
    with u = cos^2 theta, deepest near 36.5 degrees; derivation in
    notes/decisions.md)."""
    config = config or NoiseConfig()
    rows = []
    for theta_deg in thetas_deg:
        theta = np.deg2rad(float(theta_deg))
        v_raw, same = purified_visibility(polarization_scenario_S(theta, "same"), config)
        _, opposite = purified_visibility(polarization_scenario_S(theta, "opposite"), config)
        rows.append({"theta_deg": float(theta_deg), "v_raw": v_raw,
                     "v_pure_same": same, "v_pure_opposite": opposite})
    return rows


def evaluate_scenario(scenario: Scenario) -> dict:
    """One result row (raw, purified, improvement, success probability) for
    a Scenario; drives the CLI simulate command."""
    if scenario.model == "constant":
        v_raw, v_pure = purified_visibility(scenario.c, scenario.noise)
    elif scenario.model == "pure_dephasing":
        v_raw = 1.0 / (1.0 + scenario.x)
        v_pure = pd_purified(scenario.x)
    else:
        s4 = polarization_scenario_S(np.deg2rad(float(scenario.theta_deg)), scenario.direction)
        v_raw, v_pure = purified_visibility(s4, scenario.noise)
    return {
        "scenario_id": scenario.scenario_id,
        "model": scenario.model,
        "v_raw": v_raw,
        "v_pure": v_pure,
        "improvement": v_pure - v_raw,
        "success_probability": success_probability(2),
    }
