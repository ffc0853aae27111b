import numpy as np
import pytest

from hompurify import ClickPattern, FockState, enumerate_outputs, submatrix

from oracles import n_output_states, patterns_for_clicks


def test_fock_state_invariants():
    s = FockState((0, 2, 1))
    assert s.n_photons == 3
    assert s.n_modes == 3
    assert s.mode_list() == [1, 1, 2]
    with pytest.raises(ValueError):
        FockState((1, -1))


def test_submatrix_matches_displayed_example():
    # input (0,2,1), output (1,1,1): rows 1,2,3 of columns 2,2,3 (1-based)
    m = np.arange(9, dtype=complex).reshape(3, 3) + 1
    b = submatrix(m, FockState((0, 2, 1)), FockState((1, 1, 1)))
    expected = np.array(
        [[m[0, 1], m[0, 1], m[0, 2]],
         [m[1, 1], m[1, 1], m[1, 2]],
         [m[2, 1], m[2, 1], m[2, 2]]]
    )
    assert np.array_equal(b, expected)


def test_submatrix_identity_single_photon():
    b = submatrix(np.eye(2), FockState((1, 0)), FockState((1, 0)))
    assert b.shape == (1, 1)
    assert b[0, 0] == 1.0


def test_submatrix_against_direct_index_construction():
    rng = np.random.default_rng(42)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    inp, out = FockState((1, 1, 1, 1)), FockState((2, 0, 1, 1))
    b = submatrix(m, inp, out)
    rows = [0, 0, 2, 3]   # output (2,0,1,1) expanded
    cols = [0, 1, 2, 3]   # input (1,1,1,1) expanded
    for i in range(4):
        for j in range(4):
            assert b[i, j] == m[rows[i], cols[j]]


def test_submatrix_errors():
    with pytest.raises(ValueError):
        submatrix(np.eye(3), FockState((1, 0, 0)), FockState((1, 1, 0)))
    with pytest.raises(ValueError):
        submatrix(np.eye(3), FockState((1, 0)), FockState((0, 1)))


def test_enumerate_outputs_small_cases():
    assert [s.occupations for s in enumerate_outputs(2, 2)] == [(2, 0), (1, 1), (0, 2)]
    assert [s.occupations for s in enumerate_outputs(0, 3)] == [(0, 0, 0)]
    assert len(enumerate_outputs(4, 6)) == 126


@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (3, 4), (4, 6)])
def test_enumerate_outputs_counts_and_distinctness(n, m):
    states = enumerate_outputs(n, m)
    assert len(states) == n_output_states(n, m)
    assert len({s.occupations for s in states}) == len(states)
    assert all(s.n_photons == n for s in states)
    # descending lexicographic order
    occs = [s.occupations for s in states]
    assert occs == sorted(occs, reverse=True)


def test_click_pattern_construction():
    p = ClickPattern.from_modes(clicked=(1, 2), silent=(0,))
    assert p.clicked_modes == (1, 2)
    assert p.silent_modes == (0,)
    with pytest.raises(ValueError):
        ClickPattern.from_modes(clicked=(1,), silent=(1,))
    with pytest.raises(ValueError):
        ClickPattern((True, True), (0, 0))


def test_patterns_for_clicks_two_modes():
    both = ClickPattern.from_modes(clicked=(0, 1))
    assert [s.occupations for s in patterns_for_clicks(both, 2, 2)] == [(1, 1)]
    only_first = ClickPattern.from_modes(clicked=(0,), silent=(1,))
    assert [s.occupations for s in patterns_for_clicks(only_first, 2, 2)] == [(2, 0)]


def test_patterns_for_clicks_purifier_signature():
    pattern = ClickPattern.from_modes(clicked=(1, 2, 3, 4), silent=(0, 5))
    states = patterns_for_clicks(pattern, 4, 6)
    assert [s.occupations for s in states] == [(0, 1, 1, 1, 1, 0)]


def test_patterns_for_clicks_infeasible_returns_empty():
    pattern = ClickPattern.from_modes(clicked=(0, 1, 2))
    assert patterns_for_clicks(pattern, 2, 3) == []


def test_patterns_for_clicks_unmonitored_modes_free():
    # 3 photons, clicks on modes 2,3 of 6; every remaining mode unmonitored
    pattern = ClickPattern.from_modes(clicked=(2, 3))
    states = patterns_for_clicks(pattern, 3, 6)
    occs = {s.occupations for s in states}
    assert (2, 0, 1, 1, 0, 2 - 2) not in occs  # photon count conserved
    assert all(s.n_photons == 3 for s in states)
    assert all(s.occupations[2] >= 1 and s.occupations[3] >= 1 for s in states)
    # (1,1) on the clicked modes with the third photon anywhere else: 4 ways,
    # plus (2,1)/(1,2): 6 total
    assert len(states) == 6


def test_patterns_subset_of_enumeration():
    pattern = ClickPattern.from_modes(clicked=(1, 2), silent=(0,))
    full = {s.occupations for s in enumerate_outputs(4, 5)}
    sub = patterns_for_clicks(pattern, 4, 5)
    assert {s.occupations for s in sub} <= full
