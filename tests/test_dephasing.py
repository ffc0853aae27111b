import sys
from fractions import Fraction

import numpy as np
import pytest

from hompurify import (
    DephasingParams,
    OverlapMoments,
    pd_coincidence,
    pd_moments,
    pd_purified,
    sample_dephased_overlaps,
)
from hompurify.dephasing import moment_samples

from oracles import pd_purified_rational


def test_moments_validation():
    with pytest.raises(ValueError):
        OverlapMoments(pair=1.2, triple=0.5, quad=0.5)
    with pytest.raises(ValueError):
        OverlapMoments(pair=0.5, triple=1.5, quad=0.5)


def test_coincidence_perfect_photons():
    assert pd_coincidence(OverlapMoments(1.0, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)


def test_coincidence_fully_dephased():
    # zero overlap moments: distinguishable photons coincide half the time
    assert pd_coincidence(OverlapMoments(0.0, 0.0, 0.0)) == pytest.approx(0.5)


def test_coincidence_rejects_inconsistent_moments():
    with pytest.raises(ValueError):
        pd_coincidence(OverlapMoments(0.0, -1.0, -1.0))


def test_purified_closed_form_limits():
    assert pd_purified(0.0) == 1.0
    for bad in (-0.1, float("nan"), float("inf")):
        for model in (pd_moments, pd_purified):
            with pytest.raises(ValueError, match="x must be a finite number >= 0"):
                model(bad)


def test_purified_closed_form_value_small_x():
    # the moment formula against the independent rational form, from small
    # x up to the 1/x tail
    for x in [*np.linspace(0.0, 10.0, 201), 1e3, 1e4, 1e5, 1e6]:
        assert pd_purified(float(x)) == pytest.approx(pd_purified_rational(x), rel=1e-15, abs=0)
    # x = 1/9: raw indistinguishability 0.9
    assert pd_purified(1.0 / 9.0) == pytest.approx(0.9456, abs=5e-4)


@pytest.mark.parametrize("x", [1e100, 1e160, 1e300])
def test_moments_stay_finite_at_huge_x(x):
    """Where the products of the denominators overflow, the moments match
    their exact rational values: to 1e-14 where that value is a normal
    float, and by less than the smallest normal float where it is not."""
    big = Fraction(x)
    exact = {
        "pair": 1 / (1 + big),
        "triple": 2 / ((1 + big) * (2 + big)),
        "quad": 4 / ((3 + big) * (2 + big) * (1 + big)) + 1 / ((3 + big) * (1 + big) ** 2),
    }
    moments = pd_moments(x)
    for name, value in exact.items():
        got = getattr(moments, name)
        if value >= sys.float_info.min:
            assert got == pytest.approx(float(value), rel=1e-14, abs=0), name
        else:
            assert 0.0 <= got < sys.float_info.min, name
    assert pd_purified(x) == pytest.approx(1.0 / x, rel=1e-14, abs=0)


def test_purified_strictly_decreasing_and_above_pairwise():
    xs = np.linspace(0.0, 10.0, 201)
    vals = np.array([pd_purified(float(x)) for x in xs])
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals[1:] > 1.0 / (1.0 + xs[1:]))


def test_purified_asymptotic_decay():
    # decays like 1/x: x * pd_purified(x) -> 1 from above at large x, since
    # x V - 1 = (x^3 + 2 x^2 - 20 x - 24) / ((3 + x) (2 + x)^3) > 0 for x >= 5
    for x in (1e3, 1e4, 1e5):
        assert x * pd_purified(x) == pytest.approx(1.0, rel=0.02)
        assert x * pd_purified(x) > 1.0
    assert pd_purified(1e6) < 1e-5


def test_closed_form_consistent_with_moment_formula():
    # pd_purified must equal 1 - 2 * pd_coincidence at the exact moments
    for x in (0.0, 0.05, 0.2, 1.0, 3.0, 10.0):
        m = pd_moments(x)
        assert 1.0 - 2.0 * pd_coincidence(m) == pytest.approx(pd_purified(x), abs=1e-12)


def test_exact_moments_against_monte_carlo():
    x = 0.2
    grams = sample_dephased_overlaps(DephasingParams.from_x(x), 4, 4000, seed=21)
    samp = moment_samples(grams)
    exact = pd_moments(x)
    for name, value in (("pair", exact.pair), ("triple", exact.triple), ("quad", exact.quad)):
        arr = samp[name]
        se = arr.std(ddof=1) / np.sqrt(arr.size)
        assert abs(arr.mean() - value) <= 3.5 * se, name


def test_pd_curve_tracks_constant_overlap_curve():
    # the two purified-visibility models stay within 0.03 of each other
    # over the experimentally relevant raw-visibility range
    from hompurify import purified_visibility

    for v_raw in np.linspace(0.5, 1.0, 26):
        x = 1.0 / v_raw - 1.0
        _, v_mp = purified_visibility(float(np.sqrt(v_raw)))
        assert abs(v_mp - pd_purified(x)) <= 0.03, v_raw


def test_mc_coincidence_matches_closed_form():
    x = 0.2
    grams = sample_dephased_overlaps(DephasingParams.from_x(x), 4, 6000, seed=31)
    samp = moment_samples(grams)
    n_batches = 20
    size = grams.shape[0] // n_batches
    vals = []
    for b in range(n_batches):
        sl = slice(b * size, (b + 1) * size)
        m = OverlapMoments(
            pair=float(samp["pair"][sl].mean()),
            triple=float(samp["triple"][sl].mean()),
            quad=float(samp["quad"][sl].mean()),
        )
        vals.append(pd_coincidence(m))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(n_batches)
    expected = (1.0 - pd_purified(x)) / 2.0
    assert abs(vals.mean() - expected) <= 3 * se + 1e-6
