import decimal
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hompurify import (
    AssignmentList,
    ClickPattern,
    FockState,
    NoiseConfig,
    Scenario,
    beamsplitter,
    bs_sweep,
    constant_overlap_S,
    evaluate_scenario,
    evaluate_scenarios,
    g2_sweep,
    hom_visibility,
    multiphoton_visibility,
    multipermanent,
    output_probability,
    p2_from_g2,
    pd_purified,
    polarization_bounds,
    purified_visibility,
    purifier_circuits,
    purifier_pair_circuit,
    raw_visibility_sweep,
    signature_probability,
    success_probability,
)
from hompurify import protocol
from hompurify.circuits import TransferMatrix
from hompurify.protocol import (
    COINCIDENCE_PATTERN,
    HERALDED_PATTERN,
    _D_OUT,
    _D_REF,
    _heralded_overlaps,
    _mixture_probabilities,
    _raw_gram,
    polarization_scenario_S,
)

from oracles import (
    double_permutation_multipermanent,
    expanded_mixture_probability,
    fock_polynomial_probabilities,
    lossy_circuit,
    patterns_for_clicks,
)


IDENTITY_2 = TransferMatrix(np.eye(2))
COINC_2 = ClickPattern.from_modes(clicked=(0, 1))


# Derandomized so that the suite runs the same examples every time.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def haar_unitary(m, rng):
    z = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_gram(n, rng):
    v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v.conj() @ v.T


@st.composite
def random_setups(draw, max_photons):
    """A Haar-random circuit of 3-7 physical modes, loss-dilated on some
    inputs with transmissions in [0.3, 1], photons on random (possibly
    repeated) input modes, and a random complex Gram matrix."""
    n_modes = draw(st.integers(3, 7))
    n_photons = draw(st.integers(2, max_photons))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    transmissions = [1.0] * n_modes
    for mode in draw(st.sets(st.integers(0, n_modes - 1), max_size=3)):
        transmissions[mode] = draw(st.floats(0.3, 1.0))
    circuit = lossy_circuit(haar_unitary(n_modes, rng), transmissions)
    modes = sorted(draw(st.lists(st.integers(0, n_modes - 1),
                                 min_size=n_photons, max_size=n_photons)))
    occupations = [modes.count(m) for m in range(n_modes)]
    return circuit, FockState(occupations), rng


def analytic_purified(c: float) -> float:
    """Independently derived constant-overlap purified indistinguishability:
    conditional on heralding, each copy emits (|ab> + |ba>)-type pairs whose
    cross-copy swap expectation closes to c^2 (1 + c)^2 / (1 + c^2)^2."""
    return c**2 * (1 + c) ** 2 / (1 + c**2) ** 2


def test_success_probability_values():
    assert success_probability(2) == 0.25
    assert success_probability(3) == 9 / 128
    with pytest.raises(ValueError):
        success_probability(1)


def test_success_probability_monotone_decrease():
    values = [success_probability(n) for n in range(2, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_raw_hom_visibility_perfect_photons():
    bs = beamsplitter(0.5, (0, 1), 2)
    v = hom_visibility(bs, IDENTITY_2, FockState((1, 1)), COINC_2, None, np.ones((2, 2)))
    assert v == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("c", np.linspace(0, 1, 11))
def test_raw_hom_visibility_equals_c_squared(c):
    bs = beamsplitter(0.5, (0, 1), 2)
    s = constant_overlap_S(2, float(c))
    v = hom_visibility(bs, IDENTITY_2, FockState((1, 1)), COINC_2, None, s.entries)
    assert v == pytest.approx(c**2, abs=1e-12)


def test_degenerate_reference_raises():
    bs = beamsplitter(0.5, (0, 1), 2)
    pattern = ClickPattern.from_modes(clicked=(0,), silent=(1,))
    # reference keeps the photons split: two clicks on mode 0 impossible
    with pytest.raises(ValueError, match="degenerate"):
        hom_visibility(bs, IDENTITY_2, FockState((1, 1)), pattern, None, np.ones((2, 2)))


def test_purifier_distinguishable_photons():
    """Fully distinguishable photons: brute-force double-permutation sum
    confirms P_out / P_ref = 1/2, i.e. the purified photons share nothing
    (visibility 0 in the side-peak normalization)."""
    out, ref = purifier_circuits(0.5, 0.5, 0.5)
    inp = FockState((1, 1, 0, 0, 1, 1))
    target = FockState((0, 1, 1, 1, 1, 0))
    s = np.eye(4, dtype=complex)
    p_out = output_probability(out, inp, target, s)
    p_ref = output_probability(ref, inp, target, s)
    # independent 4! x 4! brute force on both circuits
    rows = target.mode_list()
    cols = inp.mode_list()
    b_out = out.matrix[np.ix_(rows, cols)].T
    b_ref = ref.matrix[np.ix_(rows, cols)].T
    assert p_out == pytest.approx(double_permutation_multipermanent(b_out, s).real, abs=1e-14)
    assert p_ref == pytest.approx(double_permutation_multipermanent(b_ref, s).real, abs=1e-14)
    assert p_out / p_ref == pytest.approx(0.5, abs=1e-12)
    v_raw, v_pure = purified_visibility(0.0)
    assert v_pure == pytest.approx(0.0, abs=1e-12)


def test_purified_visibility_perfect_photons():
    v_raw, v_pure = purified_visibility(1.0)
    assert v_raw == pytest.approx(1.0, abs=1e-12)
    assert v_pure == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("c2", [0.3, 0.5, 0.5829, 0.8, 0.9050])
def test_purified_visibility_matches_analytic_form(c2):
    c = float(np.sqrt(c2))
    v_raw, v_pure = purified_visibility(c)
    assert v_raw == pytest.approx(c2, abs=1e-12)
    assert v_pure == pytest.approx(analytic_purified(c), abs=1e-11)


def test_purification_monotonicity_grid():
    # V_pure >= V_raw for every constant overlap; equality only at c = 1
    for c in np.linspace(0.01, 1.0, 101):
        v_raw, v_pure = purified_visibility(float(c))
        assert v_pure >= v_raw - 1e-12
        if c < 1.0 - 1e-9:
            assert v_pure > v_raw


def test_herald_pattern_consistency():
    # signature sum over the click pattern equals the explicit Fock output
    out = purifier_pair_circuit(0.5, 0.5, 0.5)
    s = constant_overlap_S(4, 0.77).entries
    inp = FockState((1, 1, 0, 0, 1, 1))
    pattern = ClickPattern.from_modes(clicked=(1, 2, 3, 4), silent=(0, 5))
    via_pattern = signature_probability(out, inp, pattern, s)
    via_state = output_probability(out, inp, FockState((0, 1, 1, 1, 1, 0)), s)
    assert via_pattern == pytest.approx(via_state, abs=1e-14)


def _p2_decimal(g2: float) -> float:
    """(1 - g2 - sqrt(1 - 2 g2)) / g2 in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        g = decimal.Decimal(g2)
        return float((1 - g - (1 - 2 * g).sqrt()) / g)


def test_p2_from_g2():
    assert p2_from_g2(0.0) == 0.0
    assert p2_from_g2(0.02) == pytest.approx(0.010205144336439265, rel=1e-12)
    for g2 in np.geomspace(1e-12, 0.4999, 200):
        assert p2_from_g2(float(g2)) == pytest.approx(_p2_decimal(float(g2)), rel=1e-15, abs=0)
    for bad in (0.5, -1e-9):
        with pytest.raises(ValueError):
            p2_from_g2(bad)


def test_multiphoton_continuity_at_zero_g2():
    c = float(np.sqrt(0.8))
    assert multiphoton_visibility(c, 0.0) == purified_visibility(c)


@pytest.mark.parametrize("g2", [0.0, 1e-7, 0.02, 0.07])
def test_multiphoton_visibility_is_purified_visibility_with_g2(g2):
    c = float(np.sqrt(0.8))
    lossy = {"r_final": 0.4, "transmissions": (0.9,) * 6}
    assert purified_visibility(c, NoiseConfig(g2=g2)) == multiphoton_visibility(c, g2)
    assert (purified_visibility(c, NoiseConfig(g2=g2, **lossy))
            == multiphoton_visibility(c, g2, NoiseConfig(**lossy)))


@pytest.mark.parametrize("g2", [0.0, 0.07])
def test_visibilities_are_plain_floats(g2):
    rows = [
        purified_visibility(0.9, NoiseConfig(g2=g2)),
        multiphoton_visibility(0.9, g2),
        tuple(polarization_bounds([20.0], NoiseConfig(g2=g2))[0].values()),
        tuple(bs_sweep("final", [0.4], 0.9, g2=g2)[0].values()),
    ]
    for row in rows:
        assert all(type(v) is float for v in row), row


def test_multiphoton_reduces_improvement():
    c = float(np.sqrt(0.8))
    v_raw0, v_pure0 = multiphoton_visibility(c, 0.0)
    v_raw7, v_pure7 = multiphoton_visibility(c, 0.07)
    assert v_pure7 - v_raw7 < v_pure0 - v_raw0
    assert 0.0 <= v_raw7 <= 1.0 and 0.0 <= v_pure7 <= 1.0


def test_bs_sweep_first_and_second_invariant():
    c = float(np.sqrt(0.8))
    base = purified_visibility(c)[1]
    for which in ("first", "second"):
        rows = bs_sweep(which, [0.3, 0.45, 0.55, 0.7], c)
        for row in rows:
            assert row["v_pure"] == pytest.approx(base, abs=1e-9)


def test_bs_sweep_final_degrades():
    c = float(np.sqrt(0.8))
    rows = {r["reflectivity"]: r for r in bs_sweep("final", [0.3, 0.5], c)}
    assert rows[0.3]["v_pure"] < rows[0.5]["v_pure"]
    with pytest.raises(ValueError):
        bs_sweep("middle", [0.5], c)


@pytest.mark.parametrize("g2", [0.0, 0.05])
@pytest.mark.parametrize("which, key", [("first", "r1"), ("second", "r2"), ("final", "r_final")])
def test_bs_sweep_matches_per_row_calls(which, key, g2):
    """Each row, a repeated reflectivity too, has the bits of its own
    `purified_visibility` with that reflectivity."""
    c = 0.93
    rs = [0.2, 0.35, 0.5, 0.35, 0.8]
    rows = bs_sweep(which, rs, c, g2)
    assert [row["reflectivity"] for row in rows] == rs
    for r, row in zip(rs, rows):
        want = purified_visibility(c, NoiseConfig(g2=g2, **{key: r}))
        assert (row["v_raw"], row["v_pure"]) == want, r


def test_raw_visibility_sweep_matches_per_row_calls():
    """On the README grid the sweep keeps the bits of the per-row calls,
    except the g2 column, which is a closed form in (c, p2)."""
    grid = np.linspace(0.5, 1.0, 51)
    rows = raw_visibility_sweep(grid, ["multipermanent", "pure_dephasing", "multipermanent_g2"],
                                0.07)
    assert len(rows) == len(grid)
    for v, row in zip(grid, rows):
        c = float(np.sqrt(v))
        assert row["v_raw"] == float(v)
        assert row["v_pure_multipermanent"] == purified_visibility(c)[1]
        assert row["v_pure_multipermanent_g2"] == pytest.approx(
            multiphoton_visibility(c, 0.07)[1], rel=0, abs=1e-13)
    # columns follow the first listing of each model
    rows = raw_visibility_sweep([0.8], ["multipermanent_g2", "multipermanent_g2"], 0.07)
    assert list(rows[0]) == ["v_raw", "v_pure_multipermanent_g2"]
    with pytest.raises(ValueError, match="unknown sweep model"):
        raw_visibility_sweep([0.8], ["nope"], 0.0)


def _in_p2(coefs, p2: float) -> np.ndarray:
    """The mixture probabilities (P_out, P_ref) of `_mixture_probabilities`'
    coefficients (..., 2, N + 1) in t = p2 / (2 (1 - p2)), the common factor
    (1 - p2)^N included, by numpy's power series."""
    t = p2 / (2.0 * (1.0 - p2))
    n = coefs.shape[-1] - 1
    return (1.0 - p2) ** n * np.polynomial.polynomial.polyval(t, np.moveaxis(coefs, -1, 0))


def _chebyshev_g2_column(cs, g2: float, n_nodes: int) -> np.ndarray:
    """The sweep's g2 column rebuilt apart from `src/`: P_out and P_ref at
    `n_nodes` first-kind Chebyshev nodes on [0, 1], each fitted by numpy's
    Chebyshev series of degree n_nodes - 1 and evaluated at `cs`."""
    nodes = 0.5 + 0.5 * np.cos((2 * np.arange(n_nodes) + 1) * np.pi / (2 * n_nodes))
    grams = [constant_overlap_S(4, c).entries for c in nodes]
    at_nodes = _in_p2(_mixture_probabilities(purifier_circuits(0.5, 0.5, 0.5), grams, 0.5),
                      p2_from_g2(g2))
    p_out, p_ref = (np.polynomial.Chebyshev.fit(nodes, at_nodes[:, i], n_nodes - 1,
                                                domain=[0, 1])(cs) for i in (0, 1))
    return 1.0 - 2.0 * p_out / p_ref


_FULL_GRID = np.linspace(0.0, 1.0, 101)


@pytest.mark.parametrize("g2", [0.01, 0.07, 0.2, 0.49])
def test_raw_visibility_sweep_g2_column_matches_per_row_calls(g2):
    """The closed-form g2 column over the whole range of v_raw, the grid
    ends and v_raw = 0.25 (c = 0.5) included, and the test-local
    interpolant from 9 nodes in c, both against the per-row kernel calls."""
    assert {0.0, 0.25, 1.0} <= set(_FULL_GRID.tolist())
    rows = raw_visibility_sweep(_FULL_GRID, ["multipermanent_g2"], g2)
    per_row = [multiphoton_visibility(float(np.sqrt(v)), g2)[1] for v in _FULL_GRID]
    assert [row["v_pure_multipermanent_g2"] for row in rows] == pytest.approx(
        per_row, rel=0, abs=1e-13)
    assert _chebyshev_g2_column(np.sqrt(_FULL_GRID), g2, 9) == pytest.approx(
        per_row, rel=0, abs=1e-13)


def test_g2_column_tables_match_the_mixture_kernel():
    """Each row k = 0..4 of the tables, P_0(c) and D_1(c)..D_4(c) evaluated
    by numpy's power series here, against the coefficient of t^k of
    `_mixture_probabilities` at 50 seeded c in [0, 1]."""
    cs = np.random.default_rng(32).uniform(0.0, 1.0, 50)
    kernel = _mixture_probabilities(purifier_circuits(0.5, 0.5, 0.5),
                                    [constant_overlap_S(4, c).entries for c in cs], 0.5)
    for i, table in enumerate((_D_OUT, _D_REF)):
        for k in range(5):
            assert np.polynomial.polynomial.polyval(cs, table[k]) == pytest.approx(
                kernel[:, i, k], rel=1e-13, abs=0), (i, k)


def test_g2_sweep_makes_one_mixture_call_per_gram_size(monkeypatch):
    """A 21-point g2 sweep shares its optics on every row: one
    `_mixture_probabilities` call for the raw and one for the purified
    Gram size, each evaluated at the 20 values of p2 > 0."""
    calls = []

    def counted(circuits, grams, r_final):
        calls.append(np.shape(grams))
        return _mixture_probabilities(circuits, grams, r_final)

    monkeypatch.setattr(protocol, "_mixture_probabilities", counted)
    g2_sweep(np.linspace(0.0, 0.2, 21), 0.9)
    assert sorted(calls) == [(20, 2, 2), (20, 4, 4)]


@pytest.mark.parametrize("g2", [0.07, 0.2, 0.49])
def test_g2_column_needs_degree_8_in_c(g2):
    """Eight nodes miss the column (by 8.3e-12 at g2 = 0.07), so its
    degree in c is 8. At g2 = 0.01 the degree-8 part is below rounding."""
    per_row = np.array([multiphoton_visibility(float(np.sqrt(v)), g2)[1] for v in _FULL_GRID])
    assert np.abs(_chebyshev_g2_column(np.sqrt(_FULL_GRID), g2, 8) - per_row).max() > 1e-12


@pytest.mark.parametrize("models, v", [
    (["pure_dephasing"], 0.0),
    (["multipermanent", "pure_dephasing"], -0.1),
    (["multipermanent"], -0.1),
    (["multipermanent_g2"], -1e-300),
    (["multipermanent_g2"], 1.2),
    (["multipermanent", "pure_dephasing", "multipermanent_g2"], 1.0000000000000002),
    (["multipermanent"], float("nan")),
    (["pure_dephasing"], float("nan")),
    (["pure_dephasing"], 1e-320),  # 1 / v_raw overflows
])
def test_raw_visibility_sweep_rejects_grid_values_outside_its_range(models, v):
    span = r"\(0, 1\]" if "pure_dephasing" in models else r"\[0, 1\]"
    with pytest.raises(ValueError, match=rf"v_raw must be in {span}.*, got {re.escape(repr(v))}$"):
        raw_visibility_sweep([0.5, v], models, 0.07)


def test_raw_visibility_sweep_takes_the_ends_of_its_range():
    rows = raw_visibility_sweep([0.0, 1.0], ["multipermanent", "multipermanent_g2"], 0.07)
    assert [row["v_pure_multipermanent"] for row in rows] == [0.0, 1.0]
    rows = raw_visibility_sweep([1.0], ["pure_dephasing"], 0.0)
    assert rows == [{"v_raw": 1.0, "v_pure_pure_dephasing": pd_purified(0.0)}]


def test_uniform_input_loss_leaves_visibilities():
    c = float(np.sqrt(0.8))
    clean_raw, clean_pure = purified_visibility(c)
    config = NoiseConfig(transmissions=(0.7,) * 6)
    lossy_raw, lossy_pure = purified_visibility(c, config)
    assert lossy_raw == pytest.approx(clean_raw, abs=1e-9)
    assert lossy_pure == pytest.approx(clean_pure, abs=1e-9)


def test_loss_after_first_bs_leaves_visibilities():
    c = float(np.sqrt(0.8))
    clean_raw, clean_pure = purified_visibility(c)
    config = NoiseConfig(transmissions=(0.6,) * 6, loss_stage="after_first_bs")
    lossy_raw, lossy_pure = purified_visibility(c, config)
    assert lossy_raw == pytest.approx(clean_raw, abs=1e-9)
    assert lossy_pure == pytest.approx(clean_pure, abs=1e-9)


def test_polarization_bounds_endpoints():
    rows = polarization_bounds([0.0])
    assert rows[0]["v_pure_same"] == pytest.approx(1.0, abs=1e-12)
    assert rows[0]["v_pure_opposite"] == pytest.approx(1.0, abs=1e-12)
    rows = polarization_bounds([90.0])
    assert rows[0]["v_raw"] == pytest.approx(0.0, abs=1e-12)


def test_polarization_bound_ordering():
    for row in polarization_bounds(np.linspace(4.5, 45.0, 10)):
        assert row["v_pure_same"] >= row["v_pure_opposite"] - 1e-12
        assert row["v_raw"] == pytest.approx(np.cos(np.deg2rad(row["theta_deg"])) ** 2, abs=1e-12)


def oracle_visibility(vectors, input_occ, clicked, silent, p2=0.0, circuits=None):
    """1 - 2 P_out / P_ref from creation-operator expansions on `circuits`
    (`out`, `ref`; the ideal purifier and its reference by default),
    summing every Fock output that matches the detector signature. Each
    occupied input (one photon each, `vectors` in ascending mode order)
    carries a second photon in the same internal state with probability
    p2, independently: every doubled placement is expanded on its own and
    mixed with its weight. The silent detectors' rows are zeroed before
    expanding: an output with a photon there is dropped anyway, and
    dropping its terms early keeps the expansion small."""
    occupied = [m for m, k in enumerate(input_occ) if k]
    if circuits is None:
        circuits = purifier_circuits(0.5, 0.5, 0.5)

    def signature(circuit):
        matrix = circuit.matrix.copy()
        matrix[list(silent)] = 0.0
        total = 0.0
        for doubled in itertools.product((0, 1), repeat=len(occupied)):
            eta = sum(doubled)
            weight = (1 - p2) ** (len(occupied) - eta) * p2**eta
            if weight == 0:
                continue
            occupations = list(input_occ) + [0] * (circuit.n_modes - len(input_occ))
            for m, d in zip(occupied, doubled):
                occupations[m] += d
            photons = [v for v, d in zip(vectors, doubled) for _ in range(1 + d)]
            probs = fock_polynomial_probabilities(matrix, occupations, photons)
            total += weight * sum(
                p
                for occ, p in probs.items()
                if all(occ[m] > 0 for m in clicked) and all(occ[m] == 0 for m in silent)
            )
        return total

    p_out, p_ref = (signature(circuit) for circuit in circuits)
    return 1.0 - 2.0 * p_out / p_ref


@pytest.mark.parametrize("theta_deg", [10.0, 30.0, 40.0])
def test_polarization_bounds_match_fock_oracle(theta_deg):
    """Explicit H/V polarization vectors through the independent expansion
    reproduce every column of polarization_bounds."""
    theta = np.deg2rad(theta_deg)

    def linear(angle):
        return [np.cos(angle), np.sin(angle)]

    row = polarization_bounds([theta_deg])[0]
    h = linear(0.0)
    expected = {
        "v_raw": oracle_visibility([linear(theta), h], (1, 0, 0, 0, 0, 1), (2, 3), ()),
        "v_pure_same": oracle_visibility(
            [linear(theta), h, linear(theta), h], (1, 1, 0, 0, 1, 1), (1, 2, 3, 4), (0, 5)
        ),
        "v_pure_opposite": oracle_visibility(
            [linear(theta), h, linear(-theta), h], (1, 1, 0, 0, 1, 1), (1, 2, 3, 4), (0, 5)
        ),
    }
    for key, value in expected.items():
        assert row[key] == pytest.approx(value, abs=1e-12), key


def test_polarization_g2_matches_fock_oracle():
    """g2 reaches polarization scenarios: every column of the bounds and a
    simulate row at g2 = 0.05 match the emission mixture expanded over
    explicit H/V vectors, doubled placements included."""
    theta_deg, g2 = 30.0, 0.05
    theta = np.deg2rad(theta_deg)

    def linear(angle):
        return [np.cos(angle), np.sin(angle)]

    p2 = (1 - g2 - np.sqrt(1 - 2 * g2)) / g2
    h = linear(0.0)
    expected = {
        "v_raw": oracle_visibility([linear(theta), h], (1, 0, 0, 0, 0, 1), (2, 3), (), p2),
        "v_pure_same": oracle_visibility(
            [linear(theta), h, linear(theta), h], (1, 1, 0, 0, 1, 1), (1, 2, 3, 4), (0, 5), p2
        ),
        "v_pure_opposite": oracle_visibility(
            [linear(theta), h, linear(-theta), h], (1, 1, 0, 0, 1, 1), (1, 2, 3, 4), (0, 5), p2
        ),
    }
    row = polarization_bounds([theta_deg], NoiseConfig(g2=g2))[0]
    for key, value in expected.items():
        assert row[key] == pytest.approx(value, abs=1e-12), key
    assert row["v_pure_same"] < polarization_bounds([theta_deg])[0]["v_pure_same"] - 1e-3
    scenario = Scenario("pol", "polarization", noise=NoiseConfig(g2=g2),
                        theta_deg=theta_deg, direction="opposite")
    simulated = evaluate_scenario(scenario)
    assert (simulated["v_raw"], simulated["v_pure"]) == (row["v_raw"], row["v_pure_opposite"])


@pytest.mark.parametrize("config", [
    NoiseConfig(g2=0.05, r_final=0.4, transmissions=(1, 1, 1, 1, 1, 0.7)),
    NoiseConfig(g2=0.05, r1=0.3, transmissions=(1, 0.6, 1, 1, 1, 1),
                loss_stage="after_first_bs"),
])
def test_constant_overlap_g2_matches_fock_oracle(config):
    """A constant-overlap row at g2 > 0 with loss, at the inputs or after
    the first couplers, matches the emission mixture expanded over
    explicit state vectors: a shared component of weight c and a private
    one of weight 1 - c per photon, so every pair overlaps by c."""
    c = 0.8
    vectors = np.zeros((4, 5))
    vectors[:, 0] = np.sqrt(c)
    vectors[np.arange(4), np.arange(1, 5)] = np.sqrt(1 - c)
    circuits = purifier_circuits(config.r1, config.r2, config.r_final,
                                 config.transmissions, config.loss_stage)
    p2 = p2_from_g2(config.g2)
    expected = (
        oracle_visibility(vectors[[0, 3]], (1, 0, 0, 0, 0, 1), (2, 3), (), p2, circuits),
        oracle_visibility(vectors, (1, 1, 0, 0, 1, 1), (1, 2, 3, 4), (0, 5), p2, circuits),
    )
    assert purified_visibility(c, config) == pytest.approx(expected, abs=1e-12)


def test_polarization_bounds_are_per_direction_visibilities():
    """One raw value per angle serves both directions: the rotated photons
    0 and 3 do not depend on the direction."""
    thetas = [0.0, 12.5, 36.0, 90.0]
    for config in (NoiseConfig(), NoiseConfig(g2=0.05, r_final=0.4, transmissions=(0.9,) * 6)):
        for theta_deg, row in zip(thetas, polarization_bounds(thetas, config)):
            theta = np.deg2rad(theta_deg)
            v_raw, same = purified_visibility(polarization_scenario_S(theta, "same"), config)
            v_raw_opposite, opposite = purified_visibility(
                polarization_scenario_S(theta, "opposite"), config)
            assert v_raw == v_raw_opposite
            assert row == {"theta_deg": theta_deg, "v_raw": v_raw,
                           "v_pure_same": same, "v_pure_opposite": opposite}


def test_visibilities_bounded_for_scenario_battery():
    for c2 in (0.1, 0.5, 0.9):
        for g2 in (0.0, 0.05):
            v_raw, v_pure = multiphoton_visibility(float(np.sqrt(c2)), g2)
            assert -1e-9 <= v_raw <= 1 + 1e-9
            assert -1e-9 <= v_pure <= 1 + 1e-9


def circuit_visibilities(s4, config):
    """(V_raw, V_pure) at g2 = 0 from the two public `hom_visibility` calls
    on the purifier circuits of `config`, plain Fock inputs: the circuit
    path, independent of the closed form that `purified_visibility` takes."""
    out, ref = purifier_circuits(config.r1, config.r2, config.r_final,
                                 config.transmissions, config.loss_stage)
    coincidence = ClickPattern.from_modes(clicked=(2, 3))
    heralds = ClickPattern.from_modes(clicked=(1, 4), silent=(0, 5))
    return (
        hom_visibility(out, ref, FockState((1, 0, 0, 0, 0, 1)), coincidence, None, _raw_gram(s4)),
        hom_visibility(out, ref, FockState((1, 1, 0, 0, 1, 1)), coincidence, heralds, s4),
    )


@pytest.mark.parametrize("dim", [
    {"r1": 1.9e-21}, {"r1": 1 - 1e-10}, {"r2": 1e-12}, {"r2": 1 - 1e-9},
    {"r1": 1e-8, "r2": 1 - 1e-7}, {"transmissions": (1e-8, 1, 1, 1, 1, 0.5)},
    {"transmissions": (1, 1e-9, 1, 1, 1e-6, 1), "loss_stage": "after_first_bs"},
    {"r2": 0.004}, {"r2": 0.996}, {"r1": 0.004, "r2": 0.004}, {"r1": 0.004, "r2": 0.996},
])
def test_nearly_dark_paths_keep_closed_form(dim):
    """A clicked detector or a photon that the circuit almost never
    connects leaves the heralded signature orders of magnitude below the
    inclusion-exclusion terms; the visibilities keep their closed forms
    V = 4R(1-R)(1+W) - 1 at the balanced final coupler, on the closed-form
    path and on the public circuit path. The circuit path rescales the
    rows and photons of every filled signature exactly, however dim; the
    0.004 cases are only moderately dim, where a rescaling held back for
    darker rows missed V_pure by up to 8e-10 (notes/decisions.md)."""
    c = 0.8
    config = NoiseConfig(**dim)
    for v_raw, v_pure in (purified_visibility(c, config),
                          circuit_visibilities(constant_overlap_S(4, c).entries, config)):
        assert v_raw == pytest.approx(c**2, abs=1e-12)
        assert v_pure == pytest.approx(analytic_purified(c), abs=1e-12)


UNIT = st.floats(0.0, 1.0)
REFLECTIVITY = st.floats(0.05, 0.95)
# Log-uniform down to 1e-14 from either end of (0, 1), or uniform between.
DIM = st.floats(-14.0, -1.0).map(lambda e: 10.0**e)
OPEN_UNIT = st.floats(0.05, 0.95) | DIM | DIM.map(lambda x: 1.0 - x)
TRANSMISSION = st.floats(1e-6, 1.0) | st.floats(-6.0, 0.0).map(lambda e: 10.0**e)


# About half the draws hit a reflectivity or transmission of exactly 0 or 1
# and are degenerate, hence more examples than PROPERTY's 60.
@settings(PROPERTY, max_examples=200)
@given(
    r1=UNIT, r2=UNIT, r_final=UNIT,
    transmissions=st.none() | st.lists(UNIT, min_size=6, max_size=6).map(tuple),
    loss_stage=st.sampled_from(("input", "after_first_bs")),
    seed=st.integers(0, 2**32 - 1),
)
def test_visibilities_within_unit_range(r1, r2, r_final, transmissions, loss_stage, seed):
    """At g2 = 0 exactly one photon reaches each of modes 2 and 3 before
    the final coupler, so 0 <= P_out <= P_ref and -1 <= V <= 1 for any
    reflectivities, loss and Gram matrix (argument in notes/decisions.md)."""
    config = NoiseConfig(r1=r1, r2=r2, r_final=r_final,
                         transmissions=transmissions, loss_stage=loss_stage)
    s4 = random_gram(4, np.random.default_rng(seed))
    try:
        v_raw, v_pure = purified_visibility(s4, config)
    except ValueError as exc:
        assert "degenerate heralding" in str(exc)
        return
    assert -1 - 1e-12 <= v_raw <= 1 + 1e-12
    assert -1 - 1e-12 <= v_pure <= 1 + 1e-12


@settings(PROPERTY, max_examples=200)
@given(
    r1=OPEN_UNIT, r2=OPEN_UNIT, r_final=OPEN_UNIT,
    transmissions=st.none() | st.lists(TRANSMISSION, min_size=6, max_size=6).map(tuple),
    loss_stage=st.sampled_from(("input", "after_first_bs")),
    seed=st.integers(0, 2**32 - 1),
)
def test_purified_visibility_is_hom_visibility_at_zero_g2(
    r1, r2, r_final, transmissions, loss_stage, seed
):
    """At g2 = 0 the closed form of `purified_visibility` agrees with the
    two public `hom_visibility` calls on the purifier circuits, for random
    complex Gram matrices. Reflectivities reach within 1e-14 of 0 and 1
    and transmissions down to 1e-6: the circuit path rescales every filled
    signature exactly, so its rounding no longer grows near 0 or 1
    (notes/decisions.md, "g2 = 0 in closed form"). The heralding
    probability stays far above underflow, which the circuit path cannot
    undo its scaling past."""
    config = NoiseConfig(r1=r1, r2=r2, r_final=r_final,
                         transmissions=transmissions, loss_stage=loss_stage)
    s4 = random_gram(4, np.random.default_rng(seed))
    assert purified_visibility(s4, config) == pytest.approx(
        circuit_visibilities(s4, config), rel=0, abs=1e-13)


def heralding_fails(config):
    """Whether some factor of P_ref is exactly 0: r1 or r2 at 0 or 1, or no
    transmission on a mode that a heralded photon crosses before the
    second couplers (inputs 0, 1, 4, 5 for input loss; modes 1 and 4 for
    loss after the first couplers)."""
    t = config.transmissions or (1.0,) * 6
    crossed = (0, 1, 4, 5) if config.loss_stage == "input" else (1, 4)
    return config.r1 in (0.0, 1.0) or config.r2 in (0.0, 1.0) or any(t[m] == 0.0 for m in crossed)


def polarization_w(theta_deg, direction):
    """Independent overlaps of the purified photons for one input per copy
    rotated by theta, u = cos^2 theta (notes/decisions.md, criterion 10)."""
    u = np.cos(np.deg2rad(theta_deg)) ** 2
    if direction == "same":
        return (1 + 6 * u + u * u) / (2 * (1 + u) ** 2)
    return (1 - 2 * u + 9 * u * u) / (2 * (1 + u) ** 2)


@settings(PROPERTY, max_examples=200)
@given(
    r1=UNIT, r2=UNIT, r_final=UNIT,
    transmissions=st.none() | st.lists(UNIT, min_size=6, max_size=6).map(tuple),
    loss_stage=st.sampled_from(("input", "after_first_bs")),
    c=UNIT, theta_deg=st.floats(0.0, 90.0), direction=st.sampled_from(("same", "opposite")),
)
def test_zero_g2_closed_forms_over_the_full_range(
    r1, r2, r_final, transmissions, loss_stage, c, theta_deg, direction
):
    """Over every reflectivity and transmission in [0, 1], subnormal and
    exact endpoints included, a constant-overlap and a polarization row at
    g2 = 0 match V = 4R(1-R)(1+W) - 1 with W from independent formulas to
    1e-14, and degenerate heralding is raised exactly when a factor of
    P_ref is 0."""
    config = NoiseConfig(r1=r1, r2=r2, r_final=r_final,
                         transmissions=transmissions, loss_stage=loss_stage)
    s_pol = polarization_scenario_S(np.deg2rad(theta_deg), direction)
    if heralding_fails(config):
        for s in (c, s_pol):
            with pytest.raises(ValueError, match="degenerate heralding"):
                purified_visibility(s, config)
        return
    u = np.cos(np.deg2rad(theta_deg)) ** 2
    expected = ((c, (c**2, analytic_purified(c))),
                (s_pol, (u, polarization_w(theta_deg, direction))))
    for s, ws in expected:
        want = [4 * r_final * (1 - r_final) * (1 + w) - 1 for w in ws]
        assert purified_visibility(s, config) == pytest.approx(want, rel=0, abs=1e-14)


@pytest.mark.parametrize("field", ["r1", "r2"])
def test_degenerate_heralding_raises_at_nonzero_g2(field):
    """A first-stage coupler that sends everything one way leaves P_ref = 0
    on the mixture path as well as in the closed form."""
    with pytest.raises(ValueError, match="degenerate heralding"):
        purified_visibility(0.9, NoiseConfig(g2=0.05, **{field: 0.0}))


def test_non_hermitian_gram_raises_non_real():
    """A raw 4 x 4 array is checked as a Gram matrix at the public boundary,
    so a non-Hermitian one is rejected there. Past that check, overlaps
    that give a non-real W still raise instead of dropping the imaginary
    part."""
    s = np.ones((4, 4), dtype=complex)
    s[0, 3] = 1j
    with pytest.raises(ValueError, match="Hermitian"):
        purified_visibility(s)
    with pytest.raises(ValueError, match="non-real"):
        _heralded_overlaps([s])


@pytest.mark.parametrize("call", [
    lambda: purified_visibility(np.full((4, 4), 2.0)),  # once (4.0, 1.0)
    lambda: hom_visibility(beamsplitter(0.5, (0, 1), 2), IDENTITY_2, FockState((1, 1)),
                           COINC_2, None, 5.0 * np.ones((2, 2))),  # once 1.0
    lambda: multipermanent(np.eye(2), 7.0 * np.ones((2, 2))),  # once 49
], ids=["purified_visibility", "hom_visibility", "multipermanent"])
def test_raw_array_gram_is_validated(call):
    with pytest.raises(ValueError, match="unit diagonal"):
        call()


@settings(PROPERTY, max_examples=200)
@given(
    g2=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    r1=REFLECTIVITY, r2=REFLECTIVITY, r_final=REFLECTIVITY,
    transmissions=st.none() | st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6).map(tuple),
    loss_stage=st.sampled_from(("input", "after_first_bs")),
    seed=st.integers(0, 2**32 - 1),
)
def test_doubled_emissions_match_expanded_placements(
    g2, r1, r2, r_final, transmissions, loss_stage, seed
):
    """Ryser's formula with multiplicities on the base photons, with the
    closed form for the placement without a doubling, gives the mixture
    probability of every signature that the placements expanded into
    repeated photons give. Absolute tolerance: under heavy loss the
    inclusion-exclusion leaves small probabilities with relative errors
    up to about 1e-10 on the doubled placements."""
    s4 = random_gram(4, np.random.default_rng(seed))
    p2 = p2_from_g2(g2)
    circuits = purifier_circuits(r1, r2, r_final, transmissions, loss_stage)
    for modes, s, pattern in (((0, 5), _raw_gram(s4), COINCIDENCE_PATTERN),
                              ((0, 1, 4, 5), s4, HERALDED_PATTERN)):
        got = _in_p2(_mixture_probabilities(circuits, [s], r_final)[0], p2)
        want = [expanded_mixture_probability(c, modes, s, pattern, p2) for c in circuits]
        assert got == pytest.approx(want, rel=0, abs=1e-13)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(g2=0.6)
    with pytest.raises(ValueError):
        NoiseConfig(r1=1.5)
    with pytest.raises(ValueError):
        NoiseConfig(transmissions=(0.5,) * 4)
    # checked here, not only when a circuit is built: g2 = 0 builds none
    for bad in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="transmissions must be in"):
            NoiseConfig(transmissions=(bad,) + (1.0,) * 5)
    with pytest.raises(ValueError):
        NoiseConfig(loss_stage="end")


def test_scenario_validation_and_rows():
    with pytest.raises(ValueError):
        Scenario("s", "constant")
    with pytest.raises(ValueError):
        Scenario("s", "unknown", c=0.5)
    for bad in (-1.0, float("nan"), float("inf"), None):
        with pytest.raises(ValueError, match="finite x = 2"):
            Scenario("s", "pure_dephasing", x=bad)
    for bad in (float("nan"), float("inf"), -float("inf"), None):
        with pytest.raises(ValueError, match="finite theta_deg"):
            Scenario("s", "polarization", theta_deg=bad)
    row = evaluate_scenario(Scenario("ideal", "constant", c=1.0))
    assert row["v_raw"] == pytest.approx(1.0)
    assert row["v_pure"] == pytest.approx(1.0)
    assert row["improvement"] == pytest.approx(0.0)
    assert row["success_probability"] == 0.25
    row = evaluate_scenario(Scenario("pd", "pure_dephasing", x=0.2))
    assert row["v_raw"] == pytest.approx(1 / 1.2)
    row = evaluate_scenario(Scenario("pol", "polarization", theta_deg=20.0, direction="opposite"))
    assert 0.0 < row["v_pure"] < 1.0


def test_scenario_table_matches_per_row_calls():
    """A seeded mixed table gives, row by row and in input order, the bits
    of each row's own `purified_visibility` (the pure-dephasing closed
    forms for those rows): constant rows with input loss and with loss
    after the first couplers, polarization rows in both directions,
    several r_final, and g2 > 0 rows that share a NoiseConfig or not. The
    last rows share the optics of the shared config at g2 = 0.02 and at
    g2 = 0, so one set of circuits serves two g2 values."""
    rng = np.random.default_rng(28)
    shared = NoiseConfig(g2=0.04, r1=0.45, r_final=0.55, transmissions=(0.9,) * 6)
    scenarios = []
    for i in range(48):
        noise = NoiseConfig(r1=rng.uniform(0.2, 0.8), r2=rng.uniform(0.2, 0.8),
                            r_final=float(rng.choice([0.3, 0.5, 0.62])))
        kind = i % 8
        if kind == 1:
            noise = replace(noise, transmissions=tuple(rng.uniform(0.3, 1.0, 6)))
        elif kind == 2:
            noise = replace(noise, transmissions=tuple(rng.uniform(0.3, 1.0, 6)),
                            loss_stage="after_first_bs")
        elif kind == 5:
            noise = shared
        elif kind == 6:
            noise = replace(noise, g2=rng.uniform(0.01, 0.1))
        if kind == 3:
            scenarios.append(Scenario(f"p{i}", "polarization", noise=noise,
                                      theta_deg=rng.uniform(-90, 90),
                                      direction=("same", "opposite")[i % 16 // 8]))
        elif kind == 4:
            scenarios.append(Scenario(f"d{i}", "pure_dephasing", x=rng.uniform(0, 3)))
        elif kind == 5 and i % 16 == 5:
            scenarios.append(Scenario(f"s{i}", "polarization", noise=noise,
                                      theta_deg=rng.uniform(0, 45), direction="opposite"))
        else:
            scenarios.append(Scenario(f"c{i}", "constant", noise=noise, c=rng.uniform(0, 1)))
    for i in range(48, 56):
        noise = replace(shared, g2=(0.02, 0.0)[i % 4 // 3])
        if i % 2:
            scenarios.append(Scenario(f"o{i}", "polarization", noise=noise,
                                      theta_deg=rng.uniform(-90, 90), direction="opposite"))
        else:
            scenarios.append(Scenario(f"g{i}", "constant", noise=noise, c=rng.uniform(0, 1)))
    rows = evaluate_scenarios(scenarios)
    assert [row["scenario_id"] for row in rows] == [s.scenario_id for s in scenarios]
    for scenario, row in zip(scenarios, rows):
        if scenario.model == "constant":
            want = purified_visibility(scenario.c, scenario.noise)
        elif scenario.model == "polarization":
            s4 = polarization_scenario_S(np.deg2rad(scenario.theta_deg), scenario.direction)
            want = purified_visibility(s4, scenario.noise)
        else:
            want = (1.0 / (1.0 + scenario.x), pd_purified(scenario.x))
        assert (row["v_raw"], row["v_pure"]) == want, scenario.scenario_id
        assert row["improvement"] == want[1] - want[0]
        assert row == evaluate_scenario(scenario)


def enumerated_signature_probability(circuit, inp, pattern, s, assignment):
    """Sum of output_probability over every Fock output compatible with the
    signature, ancilla modes free."""
    full = FockState(inp.occupations + (0,) * (circuit.n_modes - circuit.n_physical))
    outputs = patterns_for_clicks(pattern, inp.n_photons, circuit.n_modes)
    return sum(output_probability(circuit, full, out, s, assignment) for out in outputs)


@PROPERTY
@given(random_setups(max_photons=4), st.data())
def test_signature_probability_matches_enumeration(setup, data):
    """Inclusion-exclusion over the clicked detectors equals the sum over
    compatible outputs. Photons sharing an input mode share an internal
    state (the enumeration normalizes by prod n_i!); other photons may
    share a state too."""
    circuit, inp, rng = setup
    n_modes = circuit.n_physical
    occupied = [m for m, k in enumerate(inp.occupations) if k]
    mode_label = {m: data.draw(st.integers(0, len(occupied) - 1)) for m in occupied}
    assignment = AssignmentList([mode_label[m] for m in inp.mode_list()])
    s = random_gram(len(occupied), rng)
    roles = data.draw(st.lists(st.sampled_from(("click", "silent", "free")),
                               min_size=n_modes, max_size=n_modes))
    pattern = ClickPattern.from_modes(
        clicked=[m for m, r in enumerate(roles) if r == "click"],
        silent=[m for m, r in enumerate(roles) if r == "silent"],
    )
    fast = signature_probability(circuit, inp, pattern, s, assignment)
    slow = enumerated_signature_probability(circuit, inp, pattern, s, assignment)
    assert fast == pytest.approx(slow, abs=1e-12)


@pytest.mark.parametrize("seed", range(24))
def test_signature_probability_matches_fock_expansion(seed):
    """Pinned against the creation-operator expansion, not the package's
    own kernel: Haar 3-5-mode circuits with up to one lossy input, photons
    with distinct two-dimensional internal states, input modes repeated in
    every other case, and random click/silent/free roles."""
    rng = np.random.default_rng(seed)
    n_modes = int(rng.integers(3, 6))
    n_photons = int(rng.integers(2, 6))
    transmissions = [1.0] * n_modes
    if seed % 3:
        transmissions[int(rng.integers(n_modes))] = rng.uniform(0.3, 1.0)
    circuit = lossy_circuit(haar_unitary(n_modes, rng), transmissions)
    modes = rng.integers(0, n_modes, n_photons)
    if seed % 2 == 0:
        modes[1] = modes[0]
    occupations = [int(np.sum(modes == m)) for m in range(n_modes)]
    inp = FockState(occupations)
    vectors = rng.normal(size=(n_photons, 2)) + 1j * rng.normal(size=(n_photons, 2))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    s = vectors.conj() @ vectors.T
    roles = rng.choice(["click", "silent", "free"], n_modes)
    clicked = [m for m in range(n_modes) if roles[m] == "click"]
    silent = [m for m in range(n_modes) if roles[m] == "silent"]
    pattern = ClickPattern.from_modes(clicked=clicked, silent=silent)
    full = occupations + [0] * (circuit.n_modes - circuit.n_physical)
    oracle = fock_polynomial_probabilities(circuit.matrix, full, vectors)
    expected = sum(p for occ, p in oracle.items()
                   if all(occ[m] for m in clicked) and not any(occ[m] for m in silent))
    assert signature_probability(circuit, inp, pattern, s) == pytest.approx(expected, abs=1e-12)


@PROPERTY
@given(random_setups(max_photons=5), st.data())
def test_signature_probabilities_sum_to_one(setup, data):
    """Over every click/silent pattern of the monitored modes, ancillas and
    unmonitored modes free, the probabilities sum to 1, also when photons
    sharing an input mode carry different internal states."""
    circuit, inp, rng = setup
    monitored = sorted(data.draw(st.sets(st.integers(0, circuit.n_physical - 1), min_size=1)))
    s = random_gram(inp.n_photons, rng)
    total = 0.0
    for clicks in itertools.product((True, False), repeat=len(monitored)):
        total += signature_probability(circuit, inp, ClickPattern(clicks, monitored), s)
    assert total == pytest.approx(1.0, abs=1e-12)


@PROPERTY
@given(random_setups(max_photons=3))
def test_infeasible_signature_is_exactly_zero(setup):
    circuit, inp, rng = setup
    clicked = range(min(inp.n_photons + 1, circuit.n_physical))
    if len(clicked) <= inp.n_photons:
        return
    pattern = ClickPattern.from_modes(clicked=clicked)
    s = random_gram(inp.n_photons, rng)
    assert signature_probability(circuit, inp, pattern, s) == 0.0


@pytest.mark.parametrize("transmission", [0.4, 0.1])
@pytest.mark.parametrize("loss_stage", ["input", "after_first_bs"])
def test_heavy_loss_visibilities_match_closed_form(loss_stage, transmission):
    """Under uniform loss the visibilities keep their lossless closed forms,
    V = 4R(1-R)(1+W) - 1 for a final coupler of reflectivity R and
    two-photon overlap W, to 1e-12 even when the heralded signature is far
    rarer than losing photons."""
    c, r_final = 0.4914876322820183, 0.40600398518944825
    config = NoiseConfig(r1=0.2720617213795132, r2=0.29535921716907787, r_final=r_final,
                         transmissions=(transmission,) * 6, loss_stage=loss_stage)
    v_raw, v_pure = purified_visibility(c, config)
    w_pure = analytic_purified(c)
    assert v_raw == pytest.approx(4 * r_final * (1 - r_final) * (1 + c**2) - 1, abs=1e-12)
    assert v_pure == pytest.approx(4 * r_final * (1 - r_final) * (1 + w_pure) - 1, abs=1e-12)
