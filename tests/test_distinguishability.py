import threading
import tracemalloc

import numpy as np
import pytest

from hompurify import (
    DephasingParams,
    DistinguishabilityMatrix,
    PolarizationState,
    constant_overlap_S,
    dephasing_overlap,
    polarization_S,
    sample_dephased_overlaps,
)
from oracles import complex_dephased_overlaps


def test_constant_overlap_limits():
    assert np.array_equal(constant_overlap_S(4, 1.0).entries, np.ones((4, 4)))
    assert np.array_equal(constant_overlap_S(3, 0.0).entries, np.eye(3))
    with pytest.raises(ValueError):
        constant_overlap_S(4, 1.2)


@pytest.mark.parametrize("c", np.linspace(0, 1, 11))
def test_constant_overlap_psd(c):
    s = constant_overlap_S(5, float(c))
    assert np.linalg.eigvalsh(s.entries)[0] >= -1e-12


def test_constant_overlap_for_measured_raw_visibility():
    # a raw visibility of 0.5829 corresponds to overlap c = sqrt(0.5829)
    s = constant_overlap_S(4, float(np.sqrt(0.5829)))
    assert abs(s.entries[0, 1]) ** 2 == pytest.approx(0.5829, abs=1e-12)


def test_dephasing_params_validation():
    with pytest.raises(ValueError):
        DephasingParams(gamma=0.0)
    with pytest.raises(ValueError):
        DephasingParams(gamma=1.0, gamma_d=-0.1)
    for bad in (float("nan"), float("inf")):
        for field, kwargs in (("gamma", {"gamma": bad}),
                              ("gamma_d", {"gamma": 1.0, "gamma_d": bad}),
                              ("deltas", {"gamma": 1.0, "deltas": (0.0, bad)})):
            with pytest.raises(ValueError, match=field):
                DephasingParams(**kwargs)
        with pytest.raises(ValueError, match="x must be"):
            DephasingParams.from_x(bad)
    p = DephasingParams.from_x(0.4)
    assert p.x == pytest.approx(0.4)


def test_dephasing_overlap_values():
    assert dephasing_overlap(DephasingParams(gamma=1.0, gamma_d=0.0)) == 1.0
    assert dephasing_overlap(DephasingParams.from_x(1.0)) == pytest.approx(0.5)
    assert dephasing_overlap(DephasingParams(gamma=1.0, gamma_d=0.05)) == pytest.approx(1 / 1.1)


def test_polarization_state():
    with pytest.raises(ValueError):
        PolarizationState(1.0, 0.5)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="angle must be finite"):
            PolarizationState.linear(bad)
        for amplitudes in ((bad, 0.0), (1.0, complex(0.0, bad))):
            with pytest.raises(ValueError, match="finite amplitudes"):
                PolarizationState(*amplitudes)
    h = PolarizationState.linear(0.0)
    v = PolarizationState.linear(np.pi / 2)
    assert h.overlap(v) == pytest.approx(0.0, abs=1e-15)
    assert h.overlap(PolarizationState.linear(0.3)) == pytest.approx(np.cos(0.3))


def test_polarization_gram_same_vs_opposite():
    theta = np.deg2rad(20.0)
    def states(sign):
        return [
            PolarizationState.linear(theta),
            PolarizationState.linear(0.0),
            PolarizationState.linear(sign * theta),
            PolarizationState.linear(0.0),
        ]
    same = polarization_S(states(+1)).entries
    opp = polarization_S(states(-1)).entries
    # pairwise rotated-vs-unrotated overlaps agree in magnitude...
    for j, k in [(0, 1), (0, 3), (2, 1), (2, 3)]:
        assert abs(same[j, k]) == pytest.approx(abs(opp[j, k]))
    # ...but the rotated-rotated entry differs
    assert same[0, 2] == pytest.approx(1.0)
    assert opp[0, 2] == pytest.approx(np.cos(2 * theta))


def test_polarization_identical_and_orthogonal():
    ident = polarization_S([PolarizationState.linear(0.4)] * 3)
    assert np.allclose(ident.entries, 1.0)
    pair = polarization_S([PolarizationState.linear(0.0), PolarizationState.linear(np.pi / 2)])
    assert pair.entries[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_sampler_requires_seed():
    with pytest.raises(ValueError):
        sample_dephased_overlaps(DephasingParams.from_x(0.2), 2, 10)


def test_sampler_deterministic():
    p = DephasingParams.from_x(0.3)
    a = sample_dephased_overlaps(p, 2, 50, seed=123)
    b = sample_dephased_overlaps(p, 2, 50, seed=123)
    assert np.array_equal(a, b)
    assert np.array_equal(a, sample_dephased_overlaps(p, 2, 50, seed=123, chunk=7))
    c = sample_dephased_overlaps(p, 2, 50, seed=124)
    assert not np.array_equal(a, c)


def test_sampler_no_dephasing_gives_all_ones():
    p = DephasingParams(gamma=1.0, gamma_d=0.0)
    grams = sample_dephased_overlaps(p, 3, 5, seed=1)
    assert np.max(np.abs(grams - 1.0)) < 1e-12


@pytest.mark.parametrize(
    "params, n_photons, n_samples, kwargs",
    [
        (DephasingParams.from_x(0.2), 4, 120, {}),
        (DephasingParams(gamma=2.0, gamma_d=0.7), 4, 60, {}),
        (DephasingParams(gamma=1.0, gamma_d=0.3, deltas=(1.0, 0.0, -0.5, 2.0)), 4, 60, {}),
        (DephasingParams(gamma=1.0, gamma_d=0.0, deltas=(1.0, 0.0, -0.5)), 3, 5, {}),
        (DephasingParams.from_x(0.5), 2, 60, {}),
        (DephasingParams.from_x(0.5), 3, 60, {}),
        (DephasingParams.from_x(0.5), 5, 60, {}),
        (DephasingParams.from_x(0.2), 4, 100, {"chunk": 37}),
        (DephasingParams.from_x(0.2), 3, 60, {"dt": 0.05, "horizon": 10.0}),  # 201 steps
        (DephasingParams.from_x(0.2), 3, 60, {"dt": 0.01, "horizon": 7.3}),  # 731 steps
    ],
    ids=["x0.2", "gamma2-gd0.7", "deltas-gd0.3", "deltas-gd0", "p2", "p3", "p5",
         "chunk37", "nt201", "nt731"],
)
def test_sampler_matches_complex_oracle(params, n_photons, n_samples, kwargs):
    got = sample_dephased_overlaps(params, n_photons, n_samples, seed=9, **kwargs)
    want = complex_dephased_overlaps(params, n_photons, n_samples, seed=9, **kwargs)
    assert got.shape == want.shape == (n_samples, n_photons, n_photons)
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize(
    "params",
    [DephasingParams(gamma=1.0, gamma_d=0.3, deltas=(1.0, 0.0, -0.5, 2.0)),
     DephasingParams(gamma=1.0, gamma_d=0.0, deltas=(1.0, 0.0, -0.5, 2.0))],
    ids=["dephased", "gd0"],
)
def test_sampler_bit_identical_across_chunks(params):
    # 263 is prime: every chunk size but 1 and 263 leaves a short last chunk
    n = 263
    want = sample_dephased_overlaps(params, 4, n, seed=4, chunk=n)  # one chunk, no overlap
    for chunk in (1, 7, None, 1000):
        kwargs = {} if chunk is None else {"chunk": chunk}
        assert np.array_equal(sample_dephased_overlaps(params, 4, n, seed=4, **kwargs), want)


@pytest.mark.parametrize("fail_at", [2, 5], ids=["mid", "last"])
def test_sampler_worker_error_reaches_caller(monkeypatch, fail_at):
    from hompurify import distinguishability

    threads = []
    real = distinguishability._gram_chunk

    def failing(*args):
        threads.append(threading.current_thread())
        if len(threads) == fail_at:
            raise RuntimeError("worker failed")
        return real(*args)

    start = threading.active_count()
    monkeypatch.setattr(distinguishability, "_gram_chunk", failing)
    with pytest.raises(RuntimeError, match="worker failed"):
        sample_dephased_overlaps(DephasingParams.from_x(0.2), 2, 50, seed=1, chunk=10)
    assert threading.main_thread() not in threads
    assert threading.active_count() == start


def test_sampler_memory_bounded_by_one_chunk():
    # 16 chunks of 128 draws; at most two chunks of phases (6.1 MB each)
    # are live, plus one time block of scratch: about 18 MB, whatever the
    # number of samples. The bound leaves room for a third chunk in the
    # moment the worker hands one back; 1000-draw chunks take 131 MB.
    tracemalloc.start()
    try:
        sample_dephased_overlaps(DephasingParams.from_x(0.2), 4, 2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6


def test_sampler_mean_matches_analytic_overlap():
    p = DephasingParams.from_x(0.2)
    grams = sample_dephased_overlaps(p, 2, 3000, seed=7)
    vals = np.abs(grams[:, 0, 1]) ** 2
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - dephasing_overlap(p)) <= 3 * se


def test_sampler_detuning_lorentzian():
    # gamma_d = 0, detunings (gamma, 0): |overlap|^2 = gamma^2/(gamma^2+delta^2) = 1/2
    p = DephasingParams(gamma=1.0, gamma_d=0.0, deltas=(1.0, 0.0))
    grams = sample_dephased_overlaps(p, 2, 10, seed=3)
    vals = np.abs(grams[:, 0, 1]) ** 2
    assert vals.mean() == pytest.approx(0.5, abs=1e-4)  # deterministic up to grid error


def test_sampled_matrices_are_valid_grams():
    p = DephasingParams.from_x(0.5)
    grams = sample_dephased_overlaps(p, 4, 10, seed=11)
    for g in grams:
        DistinguishabilityMatrix(g)  # raises if any invariant is violated


def test_sampler_cycle_moments_real_within_mc_error():
    p = DephasingParams.from_x(0.4)
    grams = sample_dephased_overlaps(p, 4, 2000, seed=5)
    triples = grams[:, 0, 1] * grams[:, 1, 2] * grams[:, 2, 0]
    quads = grams[:, 0, 1] * grams[:, 1, 2] * grams[:, 2, 3] * grams[:, 3, 0]
    for cycle in (triples, quads):
        se = cycle.imag.std(ddof=1) / np.sqrt(len(cycle))
        assert abs(cycle.imag.mean()) <= 3 * se + 1e-12
