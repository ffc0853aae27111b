import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hompurify import (
    FockState,
    TransferMatrix,
    beamsplitter,
    output_probability,
    purifier_circuits,
    purifier_pair_circuit,
)
from hompurify.circuits import beamsplitter_matrix

from oracles import literal_purifier_matrix


def test_beamsplitter_blocks():
    balanced = beamsplitter(0.5, (0, 1), 2).matrix
    assert np.allclose(balanced, np.array([[1, 1j], [1j, 1]]) / np.sqrt(2))
    assert np.allclose(beamsplitter(0.0, (0, 1), 2).matrix, np.eye(2))
    b55 = beamsplitter(0.55, (0, 1), 2).matrix
    assert b55[0, 0] == pytest.approx(np.sqrt(0.45))
    assert b55[0, 1] == pytest.approx(1j * np.sqrt(0.55))


def test_beamsplitter_validation():
    with pytest.raises(ValueError):
        beamsplitter(1.2, (0, 1), 2)
    with pytest.raises(ValueError):
        beamsplitter(0.5, (0, 0), 2)
    with pytest.raises(ValueError):
        beamsplitter(0.5, (0, 3), 2)


def test_transfer_matrix_requires_unitarity():
    with pytest.raises(ValueError):
        TransferMatrix(np.array([[0.9, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("r1,r2,rf", [(0.5, 0.5, 0.5), (0.3, 0.6, 0.45), (0.7, 0.2, 0.9)])
def test_constructions_are_unitary(r1, r2, rf):
    for tm in purifier_circuits(r1, r2, rf):
        assert np.allclose(tm.matrix @ tm.matrix.conj().T, np.eye(6), atol=1e-10)
    for tm in purifier_circuits(r1, r2, rf, [0.8, 1, 0.6, 1, 1, 0.9]):
        m = tm.matrix
        assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-10)


def test_purifier_reproduces_literal_matrix():
    # The canonical matrix indexes rows by input mode; the builder applies
    # columns to inputs, so the two agree entrywise after transposition.
    built = purifier_pair_circuit(0.5, 0.5, 0.5).matrix
    literal = literal_purifier_matrix()
    assert np.allclose(built, literal.T, atol=1e-14)
    assert np.allclose(np.abs(built), np.abs(literal).T, atol=1e-14)


def test_purifier_probability_matches_literal_matrix():
    built = purifier_pair_circuit(0.5, 0.5, 0.5)
    inp, out = FockState((1, 1, 0, 0, 1, 1)), FockState((0, 1, 1, 1, 1, 0))
    p_mine = output_probability(built, inp, out, np.ones((4, 4)))
    from oracles import literal_probability

    p_lit = literal_probability(
        literal_purifier_matrix(), inp.occupations, out.occupations, np.ones((4, 4))
    )
    assert p_mine == pytest.approx(p_lit, abs=1e-12)


def test_purifier_with_open_final_equals_reference():
    assert np.array_equal(
        purifier_pair_circuit(0.5, 0.5, 0.0).matrix, purifier_circuits(0.5, 0.5, 0.5)[1].matrix
    )


def test_reference_is_block_diagonal():
    m = purifier_circuits(0.5, 0.5, 0.5)[1].matrix
    assert np.allclose(m[:3, 3:], 0.0)
    assert np.allclose(m[3:, :3], 0.0)


def test_single_photon_path_tracing():
    # input mode 0 reaches mode 2 through both couplers: amplitude
    # (i sqrt(r1))(i sqrt(r2)) = -sqrt(r1 r2)
    for r1, r2 in [(0.5, 0.5), (0.3, 0.7)]:
        m = purifier_circuits(r1, r2, 0.5)[1].matrix
        assert m[2, 0] == pytest.approx(-np.sqrt(r1 * r2))
        assert m[3, 5] == pytest.approx(-np.sqrt(r1 * r2))
        assert abs(m[2, 0]) ** 2 == pytest.approx(r1 * r2)


def test_with_loss_trivial_and_single_mode():
    # unit transmissions add no ancilla
    out, _ = purifier_circuits(0.5, 0.5, 0.5, [1.0] * 6)
    assert np.array_equal(out.matrix, purifier_pair_circuit(0.5, 0.5, 0.5).matrix)
    # open couplers: a photon entering mode 0 survives with its transmission
    lossy, _ = purifier_circuits(0.0, 0.0, 0.0, [0.7] + [1.0] * 5)
    assert (lossy.n_physical, lossy.n_modes) == (6, 7)
    assert abs(lossy.matrix[0, 0]) ** 2 == pytest.approx(0.7)


def test_with_loss_validation():
    with pytest.raises(ValueError, match="one transmission per physical mode"):
        purifier_circuits(0.5, 0.5, 0.5, [0.5] * 5)
    with pytest.raises(ValueError, match="transmissions must be in"):
        purifier_circuits(0.5, 0.5, 0.5, [1.2] + [1.0] * 5)


def test_transfer_matrix_validates_n_physical():
    assert TransferMatrix(np.eye(3), n_physical=1).n_physical == 1
    assert TransferMatrix(np.eye(3)).n_physical == 3
    for bad in (-1, 4):
        with pytest.raises(ValueError, match="n_physical"):
            TransferMatrix(np.eye(3), n_physical=bad)


def test_purifier_circuits_validation():
    with pytest.raises(ValueError):
        purifier_circuits(0.5, 0.5, 0.5, [0.5] * 6, loss_stage="middle")
    with pytest.raises(ValueError):
        purifier_circuits(0.5, 0.5, 0.5, [0.5] * 5)
    with pytest.raises(ValueError):
        purifier_circuits(0.5, 0.5, 0.5, [1.2] + [1.0] * 5)


def explicit_purifier(r1, r2, r_final, transmissions, loss_stage):
    """The purifier and its reference as written-out products of single
    beamsplitters, last optical element leftmost."""
    lossy = [i for i, t in enumerate(transmissions or ()) if t < 1.0 - 1e-15]
    n = 6 + len(lossy)
    loss = np.eye(n)
    for a, i in enumerate(lossy):
        loss = beamsplitter_matrix(1.0 - transmissions[i], (i, 6 + a), n) @ loss
    first = beamsplitter_matrix(r1, (4, 5), n) @ beamsplitter_matrix(r1, (0, 1), n)
    second = beamsplitter_matrix(r2, (3, 4), n) @ beamsplitter_matrix(r2, (1, 2), n)
    if loss_stage == "input":
        ref = second @ first @ loss
    else:
        ref = second @ loss @ first
    return beamsplitter_matrix(r_final, (2, 3), n) @ ref, ref


UNIT = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    r1=UNIT, r2=UNIT, r_final=UNIT,
    transmissions=st.none() | st.lists(UNIT | st.just(1.0), min_size=6, max_size=6),
    loss_stage=st.sampled_from(("input", "after_first_bs")),
)
def test_purifier_circuits_match_explicit_product(r1, r2, r_final, transmissions, loss_stage):
    out, ref = purifier_circuits(r1, r2, r_final, transmissions, loss_stage)
    want_out, want_ref = explicit_purifier(r1, r2, r_final, transmissions, loss_stage)
    for got, want in ((out, want_out), (ref, want_ref)):
        m = got.matrix
        assert (got.n_physical, got.n_modes) == (6, len(want))
        assert np.abs(m @ m.conj().T - np.eye(len(m))).max() <= 1e-12
        assert np.abs(m - want).max() <= 1e-15
    assert np.array_equal(
        purifier_pair_circuit(r1, r2, 0.0).matrix, purifier_circuits(r1, r2, r_final)[1].matrix
    )
