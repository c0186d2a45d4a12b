import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ap3.field import (
    EnumerationCapError,
    FieldParams,
    ParameterError,
    Subspace,
    basis_labels,
    echelon_patterns,
    enumerate_bases,
    gaussian_binomial,
    is_prime,
    rref,
    sample_uniform_bases,
    sample_uniform_subspace,
)
from ap3.midpoint import SubspaceFrame
from ap3.spectral import DenseFunction, dft

from conftest import all_subspaces

SMALL_PARAMS = st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)])


def test_params_validation():
    with pytest.raises(ValueError):
        FieldParams(2, 3)
    with pytest.raises(ValueError):
        FieldParams(9, 2)
    with pytest.raises(ValueError):
        FieldParams(3, 0)
    assert FieldParams(3, 4).F == 81


def test_is_prime_small():
    primes = [m for m in range(50) if is_prime(m)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_matches_trial_division():
    for m in range(10**5):
        assert is_prime(m) == (m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1)))


def test_is_prime_large():
    assert not is_prime(3215031751)  # a strong pseudoprime to bases 2, 3, 5 and 7
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**61 - 1))


class _Exponent(int):
    """An n that fails the test if p**n is ever computed from it."""

    def __rpow__(self, base):
        raise AssertionError(f"computed {base}**{int(self)}")


def test_params_refuse_large_n_before_computing_p_to_the_n():
    for n in (63, 10**8):
        with pytest.raises(ValueError, match="desk scale"):
            FieldParams(3, _Exponent(n))
    assert FieldParams(2**61 - 1, 1).F == 2**61 - 1


@given(SMALL_PARAMS, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_digit_round_trip(pn, raw):
    params = FieldParams(*pn)
    x = raw % params.F
    assert params.indices_of(params.digits_of(x)) == x


def test_element_bounds(p33):
    with pytest.raises(ValueError):
        p33.digits_of(27)
    with pytest.raises(ValueError, match="index -1 outside"):
        p33.digits_of(np.array([[3, 27], [-1, 0]]))
    with pytest.raises(ParameterError):
        p33.same_as(FieldParams(3, 2))


def test_rref_idempotent_and_rank():
    M = [[1, 2, 0], [2, 4, 1], [0, 0, 2]]
    reduced = rref(M, 3)
    assert rref(reduced, 3) == reduced
    assert len(reduced) == 2
    assert rref(np.zeros((2, 3)), 3) == ()


def test_gaussian_binomial_known():
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(3, 2, 3) == 13
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(2, 1, 5) == 6
    assert gaussian_binomial(3, 3, 7) == 1
    assert gaussian_binomial(3, 4, 3) == 0


def test_subspace_canonical_form(p33):
    W1 = Subspace.from_rows(p33, [[1, 1, 0], [0, 0, 1]])
    W2 = Subspace.from_rows(p33, [[2, 2, 0], [1, 1, 2], [0, 0, 2]])
    assert W1 == W2
    assert W1.dim == 2
    assert W1.size == 9


def test_subspace_members_and_cosets(p33):
    W = Subspace.from_rows(p33, [[1, 0, 0]])
    assert W.members().tolist() == [0, 1, 2]
    assert W.coset(3).tolist() == [3, 4, 5]
    assert W.contains(2) and not W.contains(3)
    reps = W.coset_representatives()
    assert len(set(reps.tolist())) == p33.F // W.size
    for x in range(p33.F):
        assert reps[x] == reps[W.coset(x)[0]]


def test_zero_and_full(p33):
    Z = Subspace.from_rows(p33, [])
    assert Z.members().tolist() == [0]
    assert Z.coset(5).tolist() == [5]
    full = Subspace.from_rows(p33, np.eye(3))
    assert full.dim == 3
    assert Z.complement() == full
    assert full.complement() == Z


def test_complement_orthogonality(p52, rng):
    for dim, _ in product(range(p52.n + 1), range(10)):
        W = sample_uniform_subspace(p52, dim, rng)
        V = W.complement()
        assert V.dim == p52.n - W.dim
        assert V.complement() == W
        dots = p52.digits_of(W.members()) @ p52.digits_of(V.members()).T
        assert not (dots % p52.p).any()


@given(SMALL_PARAMS, st.data())
@settings(max_examples=60, deadline=None)
def test_pivots_match_rref(pn, data):
    params = FieldParams(*pn)
    dim = data.draw(st.integers(0, params.n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    W = sample_uniform_subspace(params, dim, np.random.default_rng(seed))
    rows, pivots = rref_numpy(W.matrix, params.p)
    assert W.basis == tuple(map(tuple, rows.tolist())) and W.pivots == pivots
    # coset representatives by elimination on the oracle's pivots
    R = params.digit_table().copy()
    for row, c in zip(rows, pivots):
        R = (R - R[:, c : c + 1] * np.array(row)) % params.p
    assert np.array_equal(W.coset_representatives(), params.indices_of(R))


def test_enumerate_matches_gaussian_binomial():
    cases = [(3, 2, 1), (3, 3, 1), (3, 3, 2), (5, 2, 1), (3, 4, 2), (3, 3, 0), (3, 3, 3), (5, 2, 2)]
    for p, n, d in cases:
        params = FieldParams(p, n)
        spaces = all_subspaces(params, d)
        assert len(spaces) == gaussian_binomial(n, d, p)
        assert len(set(spaces)) == len(spaces)
        for W in spaces:
            assert W.dim == d
            assert Subspace.from_rows(params, W.basis) == W  # each basis is its own RREF


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_bases(FieldParams(3, 4), 2, cap=100)


def test_sampling_covers_all_lines(rng):
    params = FieldParams(3, 2)
    assert sample_uniform_subspace(params, 0, rng) == Subspace.from_rows(params, [])
    seen = {sample_uniform_subspace(params, 1, rng) for _ in range(200)}
    assert len(seen) == 4
    counts = {}
    for _ in range(2000):
        W = sample_uniform_subspace(params, 1, rng)
        counts[W] = counts.get(W, 0) + 1
    assert min(counts.values()) > 2000 / 4 * 0.7


def sample_by_rejection(params, dim, rng):
    """Row-reduce uniform dim x n matrices until one has full rank: the
    sampler the echelon-pattern draw replaced, kept as its oracle.  Every
    subspace has the same number of ordered bases, so it is uniform."""
    while True:
        basis = rref(rng.integers(0, params.p, size=(dim, params.n)), params.p)
        if len(basis) == dim:
            return Subspace(params, basis)


def enumerate_by_lists(params, dim):
    """Every echelon basis built as Python int lists, pivot set by pivot set
    with the last free entry varying fastest: the enumeration the echelon
    patterns replaced, kept as their oracle."""
    p, n = params.p, params.n
    out = []
    for piv in combinations(range(n), dim):
        free_pos = [(i, c) for i in range(dim) for c in range(piv[i] + 1, n) if c not in piv]
        for assignment in product(range(p), repeat=len(free_pos)):
            M = [[int(c == pc) for c in range(n)] for pc in piv]
            for (i, c), v in zip(free_pos, assignment):
                M[i][c] = v
            out.append(tuple(map(tuple, M)))
    return out


ECHELON_CASES = [
    (p, n, d) for p, n in [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)] for d in range(n + 1)
]


@pytest.mark.parametrize("p,n,dim", ECHELON_CASES)
def test_echelon_patterns_match_the_python_int_walk(p, n, dim):
    params = FieldParams(p, n)
    templates, masks, cdf = echelon_patterns(p, n, dim)
    weights = [p ** int(mask.sum()) for mask in masks]
    assert sum(weights) == gaussian_binomial(n, dim, p)
    assert np.allclose(cdf, np.cumsum(weights) / sum(weights), rtol=1e-15) and cdf[-1] == 1.0
    assert enumerate_bases(params, dim).shape == (sum(weights), dim, n)
    assert [W.basis for W in all_subspaces(params, dim)] == enumerate_by_lists(params, dim)


@pytest.mark.parametrize("p,n,dim", [(3, 3, 1), (3, 4, 2), (5, 3, 2), (7, 2, 1)])
def test_sampling_is_uniform(p, n, dim):
    # chi-squared over all subspaces: of 100,000 echelon draws against the
    # uniform law, and of those draws against 4,000 draws of the oracle
    params = FieldParams(p, n)
    index = {W.basis: i for i, W in enumerate(all_subspaces(params, dim))}
    cells, df = len(index), len(index) - 1
    rng = np.random.default_rng(p * 100 + n * 10 + dim)
    bases = sample_uniform_bases(params, dim, 100_000, rng).tolist()
    drawn = np.bincount([index[tuple(map(tuple, b))] for b in bases], minlength=cells)
    oracle = np.bincount(
        [index[sample_by_rejection(params, dim, rng).basis] for _ in range(4_000)], minlength=cells
    )
    expected = drawn.sum() / cells
    uniform_chi2 = ((drawn - expected) ** 2 / expected).sum()
    k1, k2 = np.sqrt(oracle.sum() / drawn.sum()), np.sqrt(drawn.sum() / oracle.sum())
    two_sample_chi2 = ((k1 * drawn - k2 * oracle) ** 2 / (drawn + oracle)).sum()
    for chi2 in (uniform_chi2, two_sample_chi2):
        assert chi2 < df + 6 * np.sqrt(2 * df)  # six standard deviations


@given(SMALL_PARAMS, st.integers(0, 2**32 - 1), st.integers(0, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_drawn_bases_are_already_rref(pn, seed, count, data):
    # Subspace equality compares bases, so each draw must be its own RREF
    params = FieldParams(*pn)
    dim = data.draw(st.integers(0, params.n))
    bases = sample_uniform_bases(params, dim, count, np.random.default_rng(seed))
    assert bases.shape == (count, dim, params.n)
    for basis in bases.tolist():
        assert Subspace.from_rows(params, basis).basis == tuple(map(tuple, basis))
    # sample_uniform_subspace is the one-draw case
    (first,) = sample_uniform_bases(params, dim, 1, np.random.default_rng(seed)).tolist()
    assert sample_uniform_subspace(params, dim, np.random.default_rng(seed)).basis == tuple(
        map(tuple, first)
    )


def test_frame_cells_split_every_element(p33, rng):
    spectrum = dft(DenseFunction.constant(p33, 1.0))
    for _ in range(10):
        W = sample_uniform_subspace(p33, 2, rng)
        V = W.complement()
        if len(rref(np.vstack([W.matrix, V.matrix]), 3)) < 3:
            continue  # W meets V
        frame = SubspaceFrame.build(spectrum, W)
        for x in range(p33.F):
            (pos_w,), (pos_v,) = frame.place_positions(np.array([x]))
            w, v = int(frame.w_members[pos_w]), int(frame.v_members[pos_v])
            assert W.contains(w) and V.contains(v)
            assert p33.indices_of(p33.digits_of(w) + p33.digits_of(v)) == x


def test_direct_sum_rejects_overlap(p33):
    spectrum = dft(DenseFunction.constant(p33, 1.0))
    # W meets its complement: W.labels is not injective on W
    W = Subspace.from_rows(p33, [[1, 1, 1]])
    with pytest.raises(ValueError, match="direct sum"):
        SubspaceFrame.build(spectrum, W)


def test_place_positions_refuses_unseparated_places(p33):
    spectrum = dft(DenseFunction.constant(p33, 1.0))
    frame = SubspaceFrame.build(spectrum, Subspace.from_rows(p33, [[1, 0, 0]]))
    w, v = int(frame.w_members[1]), int(frame.v_members[1])
    pos_w, pos_v = frame.place_positions(np.array([0, w]))
    assert pos_w.tolist() == [0, 1] and pos_v.tolist() == [0, 0]
    # 0 and v share the W-component 0
    with pytest.raises(ValueError, match="separation condition"):
        frame.place_positions(np.array([0, v]))


def test_field_params_from_json_dict(p33):
    assert FieldParams.from_json_dict({"p": 3, "n": 3}) == p33
    assert FieldParams.from_json_dict({"p": 3.0, "n": 3}) == p33
    for bad in ([3, 3], {"n": 3}, {"p": True, "n": 3}, {"p": "3", "n": 3}, {"p": 3, "n": 2.5}):
        with pytest.raises(ValueError):
            FieldParams.from_json_dict(bad)


LABEL_PARAMS = st.sampled_from([(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 2)])


def _random_subspace(pn, data):
    params = FieldParams(*pn)
    dim = data.draw(st.integers(0, params.n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    return params, sample_uniform_subspace(params, dim, np.random.default_rng(seed))


@given(LABEL_PARAMS, st.data())
@settings(max_examples=80, deadline=None)
def test_labels_partition_matches_coset_representatives(pn, data):
    params, S = _random_subspace(pn, data)
    labels = S.labels()
    reps = S.complement().coset_representatives()
    assert labels.min() >= 0 and np.unique(labels).size == S.size
    pairs = np.unique(np.stack([labels, reps]), axis=1).shape[1]
    assert pairs == np.unique(labels).size == np.unique(reps).size
    some = np.arange(0, params.F, 3)
    assert np.array_equal(basis_labels(params, S.matrix, some), labels[some])


@given(LABEL_PARAMS, st.data())
@settings(max_examples=80, deadline=None)
def test_labels_vanish_exactly_on_complement(pn, data):
    params, S = _random_subspace(pn, data)
    V = S.complement()
    expected = [V.contains(x) for x in range(params.F)]
    assert (S.labels() == 0).tolist() == expected


@given(LABEL_PARAMS, st.data())
@settings(max_examples=80, deadline=None)
def test_frame_cells_match_grid(pn, data):
    """The frame indexes x = w_i + v_j by adding digits; the fast path names
    the same x by labels, W.labels()[x] = basis_labels(W.matrix, w_i) and
    V.labels()[x] = basis_labels(V.matrix, v_j)."""
    params, W = _random_subspace(pn, data)
    V = W.complement()
    values = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(params.F)
    spectrum = dft(DenseFunction.make(params, values))
    if not W.is_direct():
        with pytest.raises(ValueError, match="direct sum"):
            SubspaceFrame.build(spectrum, W)
        return
    frame = SubspaceFrame.build(spectrum, W)
    i, j = np.divmod(frame.cell, V.size)
    assert np.array_equal(W.labels(), basis_labels(params, W.matrix, frame.w_members)[i])
    assert np.array_equal(V.labels(), basis_labels(params, V.matrix, frame.v_members)[j])
    assert np.array_equal(frame.fhat_wv[i, j], spectrum.coeffs)


def rref_numpy(matrix, p):
    """Row reduction by numpy row operations: the elimination rref ran before
    it moved to Python int lists, kept as its oracle."""
    M = np.array(matrix, dtype=np.int64) % p
    rows, cols = M.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if M[i, c] % p != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            M[[r, pivot_row]] = M[[pivot_row, r]]
        M[r] = (M[r] * pow(int(M[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and M[i, c] % p != 0:
                M[i] = (M[i] - M[i, c] * M[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M[:r], tuple(pivots)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rref_matches_numpy_elimination(p):
    rng = np.random.default_rng(p)
    for _ in range(200):
        rows, cols = (int(v) for v in rng.integers(1, 7, size=2))
        M = rng.integers(-2 * p, 2 * p, size=(rows, cols))
        if rows > 1 and rng.random() < 0.3:
            M[rng.integers(rows)] = 0  # a zero row
        if rows > 1 and rng.random() < 0.3:
            M[1] = M[0]  # a repeated row
        if rows > 2 and rng.random() < 0.3:
            M[2] = (M[0] + 2 * M[1]) % p  # rank deficiency
        got = rref(M, p)
        expected, expected_pivots = rref_numpy(M, p)
        assert got == tuple(map(tuple, expected.tolist()))
        assert Subspace(FieldParams(p, cols), got).pivots == expected_pivots
    assert rref(np.zeros((0, 4), dtype=np.int64), p) == ()


ALL_PARAMS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]


@pytest.mark.parametrize("pn", ALL_PARAMS)
def test_dots_and_labels_match_digit_table(pn):
    params = FieldParams(*pn)
    p, n = pn
    D = params.digit_table()
    rng = np.random.default_rng(p * 10 + n)
    for r in (1, 2, 3):
        rows = rng.integers(0, p, size=(r, n))
        assert np.array_equal(params.dots(rows), (D @ rows.T) % p)
    for dim in range(n + 1):
        S = sample_uniform_subspace(params, dim, rng)
        labels = S.labels()
        expected = ((D @ S.matrix.T) % p) @ (p ** np.arange(dim, dtype=np.int64))
        assert np.array_equal(labels, expected)


@pytest.mark.parametrize("pn", ALL_PARAMS)
def test_digits_and_cosets_match_digit_table(pn):
    params = FieldParams(*pn)
    D = params.digit_table()
    rng = np.random.default_rng(pn[0] + pn[1])
    assert np.array_equal(params.digits_of(np.arange(params.F)), D)
    for x in range(params.F):
        assert np.array_equal(params.digits_of(x), D[x])
    for dim in range(params.n + 1):
        S = sample_uniform_subspace(params, dim, rng)
        members = D[S.members()]
        for t in rng.integers(0, params.F, size=5):
            expected = np.sort(params.indices_of(members + D[t]))
            assert np.array_equal(S.coset(int(t)), expected)


def test_labels_refuse_out_of_range_indices(p33):
    W = Subspace.from_rows(p33, [[1, 0, 0]])
    for bad, named in [([-1], -1), ([27], 27), ([5, 30, 27], 27), ([27, 3, -4, -1], -4)]:
        with pytest.raises(ValueError, match=rf"element index {named} outside \[0, 27\)"):
            basis_labels(p33, W.matrix, bad)
    assert basis_labels(p33, W.matrix, [0, 26]).tolist() == [0, 2]
