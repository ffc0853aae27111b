import importlib
import itertools
import math

import numpy as np
import pytest

from hompurify import permanents
from hompurify.permanents import permanent_mixture_batch
from hompurify import (
    AssignmentList,
    DistinguishabilityMatrix,
    FockState,
    beamsplitter,
    constant_overlap_S,
    enumerate_outputs,
    multipermanent,
    output_probability,
    permanent,
    permanent_batch,
    permanent_naive,
    purified_visibility,
    purifier_circuits,
    submatrix,
)

from oracles import (
    batch_permanent_ryser,
    double_permutation_multipermanent,
    fock_polynomial_probabilities,
    gram_to_state_vectors,
    mixture_kernel_full_temporaries,
    permanent_perm_sum,
)


def haar_unitary(m, rng):
    z = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_gram(n, rng):
    v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v.conj() @ v.T


def test_permanent_trivial_cases():
    assert permanent(np.array([[3.5 + 1j]])) == 3.5 + 1j
    assert permanent(np.ones((2, 2))) == pytest.approx(2.0)
    for n in (1, 2, 3, 5):
        assert permanent(np.eye(n)) == pytest.approx(1.0)


def test_permanent_naive_equals_ryser_random():
    rng = np.random.default_rng(1)
    for n in range(2, 7):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        p_naive = permanent_naive(a)
        p_ryser = permanent(a)
        assert abs(p_naive - p_ryser) <= 1e-12 * abs(p_naive)


def test_permanent_against_independent_sum():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    ref = permanent_perm_sum(a)
    assert permanent(a) == pytest.approx(ref, rel=1e-12, abs=0)
    # n = 12 walks the subset table in column blocks
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    ref = batch_permanent_ryser(a[None])[0]
    assert permanent(a) == pytest.approx(ref, rel=1e-10, abs=0)


def test_permanent_batch_matches_per_matrix_sum():
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        stack = rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n))
        vals = permanent_batch(stack)
        assert vals.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            ref = permanent_perm_sum(stack[idx])
            assert abs(vals[idx] - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_permanent_blocked_branch_closed_forms():
    """Beyond BLOCK_BITS columns the trailing subsets are walked in blocks;
    perm(ones) = n! and perm(x y^T) = n! prod(x) prod(y) there too."""
    n = permanents.BLOCK_BITS + 1
    rng = np.random.default_rng(13)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert permanent(np.ones((n, n))) == pytest.approx(math.factorial(n), rel=1e-12, abs=0)
    want = math.factorial(n) * np.prod(x) * np.prod(y)
    assert permanent(np.outer(x, y)) == pytest.approx(want, rel=1e-12, abs=0)


def doubled(a, m):
    """`a` with row and column g repeated when bit g of m is set."""
    idx = sorted([*range(a.shape[-1]), *(g for g in range(a.shape[-1]) if m >> g & 1)])
    return a[np.ix_(idx, idx)]


def test_mixture_kernel_matches_expanded_doublings():
    """Each D_k of the degree axis is the sum of the permanents of the
    matrices with exactly k doubled rows and columns written out."""
    rng = np.random.default_rng(14)
    for n in range(1, 5):
        stack = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
        vals = permanent_mixture_batch(stack)
        assert vals.shape == (2, n)
        for i, k in itertools.product(range(2), range(1, n + 1)):
            ref = sum(permanent_naive(doubled(stack[i], m))
                      for m in range(1 << n) if bin(m).count("1") == k)
            assert abs(vals[i, k - 1] - ref) <= 1e-12 * abs(ref), (n, i, k)


def test_mixture_kernel_stack_matches_single_calls():
    """Extra leading axes ride along the photon-major loop: every matrix
    of a (3, 5, n, n) stack gets the bits of its own call."""
    rng = np.random.default_rng(15)
    for n in range(1, 5):
        stack = rng.normal(size=(3, 5, n, n)) + 1j * rng.normal(size=(3, 5, n, n))
        vals = permanent_mixture_batch(stack)
        assert vals.shape == (3, 5, n)
        for i, j in itertools.product(range(3), range(5)):
            assert (vals[i, j] == permanent_mixture_batch(stack[i, j])).all(), (n, i, j)


def test_mixture_kernel_matches_full_temporary_kernel():
    """The degree axis weighted by w1**(n - k) w2**k is the earlier
    weighted full-temporary kernel, on plain and stacked inputs and at
    every weight pair; exactly 0 at w2 = 0."""
    rng = np.random.default_rng(16)
    for n, (w1, w2), shape in itertools.product(
        range(1, 6), ((0.97, 0.015), (0.2, 0.4), (1.0, 0.0)), ((2,), (3, 5))
    ):
        stack = rng.normal(size=(*shape, n, n)) + 1j * rng.normal(size=(*shape, n, n))
        k = np.arange(1, n + 1)
        new = (w1 ** (n - k) * w2**k * permanent_mixture_batch(stack)).sum(axis=-1)
        old = mixture_kernel_full_temporaries(stack, w1, w2)
        assert (np.abs(new - old) <= 1e-11 * np.abs(old)).all(), (n, w1, w2, shape)


def test_clicked_subset_sums_gram_axis_matches_single_calls():
    """One call on a stack of three Gram matrices gives the bits of the
    three calls on one Gram matrix each: the H_T stack of the photon sets
    is shared, and each Gram matrix runs its own kernel call. Filled
    signatures, an unfilled lossy signature and the doubled placements
    are covered."""
    rng = np.random.default_rng(25)
    transmissions = (0.9, 0.8, 0.7, 0.95, 0.6, 0.85)
    circuits = purifier_circuits(0.4, 0.55, 0.45, transmissions, "after_first_bs")
    base = np.stack([c.matrix[:, [0, 1, 4, 5]] for c in circuits])  # (2, 12, 4)
    cases = [
        (base[:, :, [0, 3]], (2, 3), (), False),  # filled: raw pair on the coincidences
        (base, (2, 3), (), False),  # unfilled: two photons left for the free rows
        (base, (1, 2, 3, 4), (0, 5), True),  # doubled emissions, per number of doublings
    ]
    for u, clicked, silent, mixture in cases:
        grams = np.stack([random_gram(u.shape[-1], rng) for _ in range(3)])
        stacked = permanents._clicked_subset_sums(u, grams, clicked, silent, mixture)
        singles = np.concatenate([
            permanents._clicked_subset_sums(u, s[None], clicked, silent, mixture) for s in grams
        ])
        assert stacked.shape == ((3, 2, 4) if mixture else (3, 2))
        assert (stacked == singles).all(), (clicked, mixture)


def test_permanent_rejects_non_square():
    with pytest.raises(ValueError):
        permanent(np.ones((2, 3)))


def test_gram_matrix_validation():
    with pytest.raises(ValueError):
        DistinguishabilityMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DistinguishabilityMatrix(np.array([[0.9, 0.0], [0.0, 1.0]]))  # diagonal
    with pytest.raises(ValueError):
        DistinguishabilityMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]))  # not PSD
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        for where in ((0, 1), (1, 1)):
            s = np.eye(3, dtype=complex)
            s[where] = bad
            with pytest.raises(ValueError, match="finite"):
                DistinguishabilityMatrix(s)
    # an asymmetry the old 1e-5 relative test let through, which every
    # kernel then rejected as non-real
    s = constant_overlap_S(4, 0.5).entries.copy()
    s[0, 3] = 0.5 + 4e-6j
    with pytest.raises(ValueError, match="Hermitian"):
        DistinguishabilityMatrix(s)
    s[0, 3] = 0.5 + 1e-14j  # rounding asymmetry: accepted, and the kernels agree
    v_raw, v_pure = purified_visibility(DistinguishabilityMatrix(s))
    assert (v_raw, v_pure) == pytest.approx((0.25, 0.36), abs=1e-12)
    # a diagonal defect the old 1e-5 tolerance let through, which then
    # shifted V_pure to 0.360001512 without an error
    s = constant_overlap_S(4, 0.5).entries.copy()
    s[0, 0] = 1 - 9e-6
    with pytest.raises(ValueError, match="unit diagonal"):
        DistinguishabilityMatrix(s)
    s[0, 0] = 1 - 1e-14  # rounding: accepted
    v_raw, v_pure = purified_visibility(DistinguishabilityMatrix(s))
    assert (v_raw, v_pure) == pytest.approx((0.25, 0.36), abs=1e-12)
    s = DistinguishabilityMatrix(np.eye(3))
    assert s.n == 3


def test_gram_stack_check_names_each_defect_like_one_matrix():
    """`_checked_grams` on a stack whose k-th matrix fails one of the five
    checks raises the message `DistinguishabilityMatrix` raises on that
    matrix alone, the PSD one with that matrix's eigenvalue; a good stack
    passes unchanged."""
    good = constant_overlap_S(3, 0.5).entries
    not_finite = good.copy()
    not_finite[2, 1] = np.nan
    not_hermitian = good.copy()
    not_hermitian[0, 1] = 0.5 + 1e-6j
    off_diagonal = good.copy()
    off_diagonal[1, 1] = 1.0 - 1e-6
    too_large = good.copy()
    too_large[0, 2] = too_large[2, 0] = 1.2
    not_psd = np.array([[1, 1, 1], [1, 1, -1], [1, -1, 1]], dtype=complex)
    for bad in (not_finite, not_hermitian, off_diagonal, too_large, not_psd):
        with pytest.raises(ValueError) as alone:
            DistinguishabilityMatrix(bad)
        for k in (0, 2, 4):
            stack = np.stack([good] * 5)
            stack[k] = bad
            with pytest.raises(ValueError) as stacked:
                permanents._checked_grams(stack)
            assert str(stacked.value) == str(alone.value)
    assert "min eigenvalue -1.000e+00" in str(alone.value)
    stack = np.stack([good, constant_overlap_S(3, 0.0).entries])
    assert np.array_equal(permanents._checked_grams(stack), stack)


def test_multipermanent_all_ones_reduction():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ones = np.ones((n, n), dtype=complex)
        val = multipermanent(b, ones)
        assert val == pytest.approx(abs(permanent_perm_sum(b)) ** 2, rel=1e-10, abs=0)


def test_multipermanent_identity_reduction():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        val = multipermanent(b, np.eye(n))
        ref = permanent_perm_sum(np.abs(b) ** 2).real
        assert val == pytest.approx(ref, rel=1e-10, abs=0)


def test_multipermanent_hom_coincidence():
    # balanced beamsplitter, output (1,1), real off-diagonal overlap c
    bs = beamsplitter(0.5, (0, 1), 2).matrix
    b = submatrix(bs, FockState((1, 1)), FockState((1, 1)))
    for c in (0.0, 0.3, 0.7, 1.0):
        s = np.array([[1.0, c], [c, 1.0]], dtype=complex)
        assert multipermanent(b, s) == pytest.approx((1 - c**2) / 2, abs=1e-12)


def test_multipermanent_kernels_agree():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5):
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = random_gram(n, rng)
        ref = double_permutation_multipermanent(b.T, s).real
        assert multipermanent(b, s) == pytest.approx(ref, rel=1e-11, abs=0)


@pytest.mark.parametrize("scale", [1e-100, 1e-125, 1e-140, 1e-150, 1e-170])
@pytest.mark.parametrize("axis", ["row", "photon"])
def test_multipermanent_dark_row_scales_exactly(axis, scale):
    """Perm(W) is linear in |B[j, k]|**2 along each output slot j and each
    photon k, so one row or column of `b` scaled by x scales it by x**2.
    The power-of-two rescaling of rows and photons keeps such a row or
    photon out of the terms' rounding, also below the underflow of
    |B[j, k]|**2 (about 1e-154); there a second row or photon, scaled by
    1e-150 / x, keeps Perm(W) a normal float."""
    rng = np.random.default_rng(9)
    for n in (2, 3, 4, 5):
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = random_gram(n, rng)
        factors = np.ones(n)
        k = rng.integers(n)
        factors[k] = scale
        if scale < 1e-154:
            factors[(k + 1) % n] = 1e-150 / scale
        dark = b * (factors[:, None] if axis == "row" else factors)
        want = np.prod(factors) ** 2 * multipermanent(b, s)
        assert multipermanent(dark, s) == pytest.approx(want, rel=1e-12, abs=0)


def test_multipermanent_relabeling_invariance():
    rng = np.random.default_rng(6)
    n = 4
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s = random_gram(n, rng)
    base = multipermanent(b, s)
    perm = rng.permutation(n)
    b_rel = b[:, perm]
    s_rel = s[np.ix_(perm, perm)]
    assert multipermanent(b_rel, s_rel) == pytest.approx(base, rel=1e-10, abs=0)


def test_multipermanent_real_and_nonnegative_for_valid_gram():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(2, 5)
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        val = multipermanent(b, random_gram(n, rng))
        assert val >= -1e-10


def test_output_probability_identity_and_hom():
    assert output_probability(np.eye(2), FockState((1, 0)), FockState((1, 0)), np.eye(1)) == 1.0
    bs = beamsplitter(0.5, (0, 1), 2)
    p = output_probability(bs, FockState((1, 1)), FockState((1, 1)), np.ones((2, 2)))
    assert p == pytest.approx(0.0, abs=1e-12)


def test_output_probability_bunched_input():
    # two photons entering one port of a balanced splitter coincide half the time
    bs = beamsplitter(0.5, (0, 1), 2)
    p = output_probability(bs, FockState((2, 0)), FockState((1, 1)), np.ones((2, 2)))
    assert p == pytest.approx(0.5, abs=1e-12)


def test_output_probability_purifier_vs_polynomial_oracle():
    from hompurify import purifier_pair_circuit

    u = purifier_pair_circuit(0.5, 0.5, 0.5)
    inp, out = FockState((1, 1, 0, 0, 1, 1)), FockState((0, 1, 1, 1, 1, 0))
    for s in (np.ones((4, 4), dtype=complex), constant_overlap_S(4, 0.6).entries):
        p_engine = output_probability(u, inp, out, s)
        vectors = gram_to_state_vectors(s)
        oracle = fock_polynomial_probabilities(u.matrix, inp.occupations, vectors)
        assert p_engine == pytest.approx(oracle[out.occupations], abs=1e-12)


def test_output_probability_normalization_random_circuit():
    rng = np.random.default_rng(9)
    m, n = 4, 3
    u = haar_unitary(m, rng)
    s = random_gram(n, rng)
    inp = FockState((1, 1, 1, 0))
    total = sum(
        output_probability(u, inp, out, s) for out in enumerate_outputs(n, m)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_output_probability_with_assignment_doubles():
    # doubled photon shares its sibling's state: probabilities still normalize
    rng = np.random.default_rng(10)
    m = 3
    u = haar_unitary(m, rng)
    s = random_gram(2, rng)
    inp = FockState((2, 1, 0))
    assignment = AssignmentList((0, 0, 1))
    total = sum(
        output_probability(u, inp, out, s, assignment) for out in enumerate_outputs(3, m)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_output_probability_distinct_states_sharing_a_mode():
    """Two photons of different internal states in one input mode: the
    input norm is perm(delta_in o S), not prod n_i!, so the outputs sum to
    1 and match the creation-operator expansion."""
    rng = np.random.default_rng(13)
    u = haar_unitary(3, rng)
    s = random_gram(3, rng)
    inp = FockState((2, 1, 0))
    oracle = fock_polynomial_probabilities(u, inp.occupations, gram_to_state_vectors(s))
    probs = {out.occupations: output_probability(u, inp, out, s) for out in enumerate_outputs(3, 3)}
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    for occ, p in probs.items():
        assert p == pytest.approx(oracle.get(occ, 0.0), abs=1e-12)


def test_traced_modules_and_multipermanent_signature():
    """bench/tracing.py imports these modules by name."""
    for name in ("fock", "permanents", "circuits", "distinguishability", "dephasing",
                 "protocol", "histogram_fit", "cli"):
        importlib.import_module(f"hompurify.{name}")


def test_permanent_invariant_under_repetition_reordering():
    # a submatrix with repeated columns keeps its permanent when the
    # repeated block is permuted (and likewise for repeated rows)
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = submatrix(m, FockState((2, 1, 0, 1)), FockState((1, 2, 1, 0)))
    base = permanent(b)
    b_cols = b[:, [1, 0, 2, 3]]   # swap the two copies of input mode 0
    b_rows = b[[0, 2, 1, 3], :]   # swap the two copies of output mode 1
    assert permanent(b_cols) == pytest.approx(base, rel=1e-12, abs=0)
    assert permanent(b_rows) == pytest.approx(base, rel=1e-12, abs=0)


def test_output_probability_errors():
    with pytest.raises(ValueError):
        output_probability(np.eye(2), FockState((1, 0)), FockState((1, 1)), np.eye(1))
    with pytest.raises(ValueError):
        output_probability(np.eye(2), FockState((1, 1)), FockState((1, 1)), np.eye(3))
