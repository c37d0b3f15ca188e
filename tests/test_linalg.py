"""Tests for the dense linear-algebra substrate."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszlab import (
    LinearMap,
    from_diagonal,
    invert,
    operator_sqrt,
    polar_decompose,
)
from rieszlab.errors import DimensionMismatch, NotPositive, NumericallySingular
from rieszlab import linalg
from rieszlab.linalg import SPLIT_FLOOR, Blocks, real_or_complex

from helpers import random_conditioned_map, random_unitary, stream_rng


def test_dtype_follows_the_entries():
    # float64 exactly when every entry is real: a zero imaginary part is not
    # complex; maps and families come in through Blocks.of alike
    for make in (Blocks.of, LinearMap):
        assert make([[1, 2], [3, 4]]).dtype == np.float64
        assert make(np.array([[1, 2], [3, 4]], dtype=np.complex128)).dtype == np.float64
        assert make([[1, 2j], [3, 4]]).dtype == np.complex128
    assert from_diagonal([1.0, 2.0]).dtype == np.float64
    assert from_diagonal([1.0, 1j]).dtype == np.complex128
    # a Blocks with writable blocks is made real or complex as a whole, every block alike
    assert all(b.dtype == np.float64 for b in Blocks.of(Blocks([np.eye(2, dtype=np.complex128), np.eye(2)])).blocks)
    assert all(b.dtype == np.complex128 for b in Blocks.of(Blocks([np.eye(2), 1j * np.eye(2)])).blocks)
    # the map owns its entries, for complex input too
    z = np.array([[1.0, 1j], [0.0, 1.0]])
    assert not np.shares_memory(np.asarray(LinearMap(z)), z) and z.flags.writeable
    # and what is built from a real map stays real
    t = LinearMap([[2.0, 1.0], [0.0, 3.0]])
    assert invert(t).dtype == np.float64
    positive, unitary = polar_decompose(t)
    assert positive.dtype == unitary.dtype == np.float64
    assert operator_sqrt(from_diagonal([1.0, 4.0])).dtype == np.float64


def test_a_map_is_square_and_keeps_parity_block_by_block():
    # a parity-swapping Blocks is assembled into one block; a map must be square
    swap = LinearMap(Blocks([np.eye(2), np.eye(2)], 1))
    assert swap.parts == 1 and swap.shift == 0
    np.testing.assert_array_equal(swap, np.eye(4)[[1, 0, 3, 2]])
    with pytest.raises(ValueError):
        LinearMap(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        LinearMap(np.ones(3))
    with pytest.raises(ValueError):
        LinearMap([[1.0, np.inf], [0.0, 1.0]])


def test_real_or_complex_is_one_rule_without_copies():
    real = np.arange(4.0)
    assert real_or_complex(real) is real
    z = np.array([1.0, 1j])
    assert real_or_complex(z) is z
    zero_imag = np.array([1.0 + 0j, 2.0])
    demoted = real_or_complex(zero_imag)
    assert demoted.dtype == np.float64
    np.testing.assert_array_equal(demoted, [1.0, 2.0])
    assert real_or_complex([1, 2]).dtype == np.float64


def test_operator_sqrt_diagonal():
    np.testing.assert_allclose(
        operator_sqrt(from_diagonal([1, 4, 9])), np.diag([1, 2, 3]).astype(complex), atol=1e-14
    )


def test_operator_sqrt_identity():
    np.testing.assert_allclose(operator_sqrt(LinearMap(np.eye(4))), np.eye(4), atol=1e-15)


def test_operator_sqrt_of_outer_product_frame():
    # K = sum of outer products of the columns of T = diag(1,2,3), summed by hand
    t = np.diag([1.0, 2.0, 3.0]).astype(complex)
    k = np.zeros((3, 3), dtype=complex)
    for col in range(3):
        phi = t[:, col]
        k += np.outer(phi, phi.conj())
    np.testing.assert_allclose(operator_sqrt(LinearMap(k)), t, atol=1e-12)


def test_operator_sqrt_squares_back_and_commutes_with_conjugation():
    rng = stream_rng(13)
    for n in (5, 16, 32):
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = LinearMap(b @ b.conj().T + 0.1 * np.eye(n))
        root = operator_sqrt(a)
        assert LinearMap(root).positive
        err = np.linalg.norm(root @ root - np.asarray(a))
        assert err <= 1e-9 * np.linalg.norm(np.asarray(a))
        u = np.asarray(random_unitary(n, rng))
        conjugated = operator_sqrt(LinearMap(u @ np.asarray(a) @ u.conj().T))
        expected = u @ root @ u.conj().T
        assert np.linalg.norm(conjugated - expected) <= 1e-9 * np.linalg.norm(expected)


def test_operator_sqrt_clamps_rounded_zero_eigenvalues():
    v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    rank_one = LinearMap(np.outer(v, v))  # eigenvalues {1, 0, 0} up to rounding
    root = operator_sqrt(rank_one)
    np.testing.assert_allclose(root @ root, np.asarray(rank_one), atol=1e-12)


def test_operator_sqrt_rejects_indefinite():
    with pytest.raises(NotPositive):
        operator_sqrt(from_diagonal([1, -1]))


def test_invert_diagonal():
    np.testing.assert_allclose(
        invert(from_diagonal([1, 2, 4])), np.diag([1, 0.5, 0.25]).astype(complex), atol=1e-15
    )


def test_invert_unipotent():
    inv = invert(LinearMap([[1, 1], [0, 1]]))
    np.testing.assert_allclose(inv, [[1, -1], [0, 1]], atol=1e-14)


def test_invert_zero_matrix():
    with pytest.raises(NumericallySingular) as excinfo:
        invert(LinearMap(np.zeros((3, 3))))
    assert excinfo.value.sigma_min == 0.0


def test_invert_roundtrip_and_cond():
    rng = stream_rng(14)
    for _ in range(10):
        t = random_conditioned_map(12, 50.0, rng)
        inv = LinearMap(invert(t))
        assert np.isfinite(inv.cond_estimate)
        assert abs(inv.cond_estimate - 50.0) / 50.0 <= 1e-8
        back = invert(inv)
        err = np.linalg.norm(back - np.asarray(t)) / np.linalg.norm(np.asarray(t))
        assert err <= 1e-8 * 50.0**2
        resid = np.linalg.norm(np.asarray(t) @ np.asarray(inv) - np.eye(12))
        assert resid <= 1e-8 * inv.cond_estimate * np.sqrt(12)


def test_invert_caches_read_only_inverse():
    t = random_conditioned_map(6, 10.0, stream_rng(15))
    inv = invert(t)
    assert invert(t) is inv
    (block,) = inv.blocks
    assert type(inv) is Blocks and not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 0.0


@pytest.mark.parametrize("entries", [[[2.0, 1.0], [0.0, 1.0]], [[2.0, 1j], [0.0, 1.0]]])
def test_svd_is_cached_and_adjoint_inverse_is_the_adjoint_of_the_one_inverse(entries):
    t = LinearMap(entries)
    assert t.svd is t.svd and all(not f.flags.writeable for factors in t.svd for f in factors)
    (adj,) = t.adjoint_inverse.blocks
    (inv,) = invert(t).blocks
    assert not adj.flags.writeable
    np.testing.assert_array_equal(adj, inv.conj().T)
    # a real inverse is held once: its adjoint is a view of it
    assert np.shares_memory(adj, inv) == (t.dtype == np.float64)


def test_a_singular_inverse_caches_nothing_and_raises_on_every_read():
    z = from_diagonal([1.0, 0.0])
    for _ in range(2):
        with pytest.raises(NumericallySingular):
            z.adjoint_inverse
    assert not {"inverse", "adjoint_inverse"} & vars(z).keys()


@pytest.mark.parametrize("dim", [3, SPLIT_FLOOR])
def test_positive_certified_on_first_read_only(monkeypatch, dim):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    k = from_diagonal(np.arange(1.0, dim + 1))
    assert calls == []
    # one factorization: one LAPACK call below the split floor, one per parity block from it
    blocks = 1 if dim < SPLIT_FLOOR else 2
    assert k.positive and k.positive
    assert len(calls) == blocks
    # the certificate's eigenvalues are kept for readers of the spectrum
    np.testing.assert_array_equal(k.spectrum, np.arange(1.0, dim + 1))
    assert len(calls) == blocks
    with pytest.raises(NotPositive):
        from_diagonal([1, -1]).spectrum


def test_self_adjoint_certified_on_first_read_only(monkeypatch):
    calls = []
    absolute = np.abs
    monkeypatch.setattr(np, "abs", lambda a: calls.append(1) or absolute(a))
    k = LinearMap([[1, 2j], [-2j, 3]])
    assert calls == []
    assert k.self_adjoint and k.self_adjoint
    assert len(calls) == 2  # max|A| and max|A - A*|, once


def test_repr_shows_only_certified_flags():
    k = from_diagonal([1, 2, 3])
    assert repr(k) == "LinearMap(dim=3, dtype=float64, self_adjoint=unknown, positive=unknown)"
    assert not {"self_adjoint", "positive", "eigh"} & vars(k).keys()
    assert k.positive
    assert repr(k) == "LinearMap(dim=3, dtype=float64, self_adjoint=True, positive=True)"
    k = LinearMap([[1, 2j], [2j, 3]])
    assert not k.self_adjoint
    assert repr(k) == "LinearMap(dim=2, dtype=complex128, self_adjoint=False, positive=unknown)"


def test_polar_positive_diagonal():
    positive, unitary = polar_decompose(from_diagonal([1, 2]))
    np.testing.assert_allclose(unitary, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(positive, np.diag([1, 2]).astype(complex), atol=1e-14)


def test_polar_swap_example():
    # T T* = diag(4, 1), so P = diag(2, 1) and U swaps the basis; P U = T by hand
    t = LinearMap([[0, 2], [1, 0]])
    positive, unitary = polar_decompose(t)
    np.testing.assert_allclose(positive, np.diag([2.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(unitary, [[0, 1], [1, 0]], atol=1e-14)
    np.testing.assert_allclose(positive @ unitary, np.asarray(t), atol=1e-14)


def test_polar_of_negated_identity():
    positive, unitary = polar_decompose(LinearMap(-np.eye(2)))
    np.testing.assert_allclose(unitary, -np.eye(2), atol=1e-14)
    np.testing.assert_allclose(positive, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("dim", [4, 16, 32])
def test_polar_random_reassembly(dim):
    rng = stream_rng(15 + dim)
    for _ in range(34):
        t = random_conditioned_map(dim, 100.0, rng)
        p, u = polar_decompose(t)
        assert LinearMap(p).positive
        u = np.asarray(u)
        assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-10 * np.sqrt(dim)
        err = np.linalg.norm(np.asarray(p) @ u - np.asarray(t))
        assert err <= 1e-9 * np.linalg.norm(np.asarray(t))


def test_invert_and_polar_share_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(kw) or svd(a, **kw))
    t = random_conditioned_map(8, 10.0, stream_rng(16))
    inv = invert(t)
    _, unitary = polar_decompose(t)
    assert calls == [{}]
    u, s, vh = svd(np.asarray(t))
    np.testing.assert_array_equal(inv, (vh.conj().T * (1.0 / s)) @ u.conj().T)
    np.testing.assert_array_equal(unitary, u @ vh)
    # a singular map keeps its SVD too and raises on every read; the zero
    # map keeps parity, so from the split floor its one SVD is one LAPACK call per block
    for dim, blocks in ((3, 1), (SPLIT_FLOOR, 2)):
        calls.clear()
        z = LinearMap(np.zeros((dim, dim)))
        for op in (invert, polar_decompose, invert):
            with pytest.raises(NumericallySingular):
                op(z)
        assert len(calls) == blocks


def test_polar_rejects_singular():
    with pytest.raises(NumericallySingular):
        polar_decompose(from_diagonal([1.0, 1e-13]))


def test_flag_certification():
    assert from_diagonal([1, 2]).self_adjoint
    assert from_diagonal([1, 2]).positive
    assert not from_diagonal([1, -2]).positive
    assert not LinearMap([[0, 1], [0, 0]]).self_adjoint
    # asymmetry below the certification threshold still counts as self-adjoint
    a = np.eye(2) + 1e-14 * np.array([[0, 1], [0, 0]])
    assert LinearMap(a).self_adjoint


def test_cond_estimate():
    assert from_diagonal([1, 2, 4]).cond_estimate == pytest.approx(4.0)
    assert LinearMap(np.zeros((2, 2)) + np.diag([1, 0])).cond_estimate == np.inf


def count_numpy_calls(monkeypatch, name):
    calls = []
    original = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda a, **kw: calls.append(kw) or original(a, **kw))
    return calls


@pytest.mark.parametrize("order", list(itertools.permutations(("cond", "invert", "polar"))))
def test_cond_invert_and_polar_share_one_svd_in_any_order(monkeypatch, order):
    calls = count_numpy_calls(monkeypatch, "svd")
    t = random_conditioned_map(8, 10.0, stream_rng(17))
    reads = {"cond": lambda: t.cond_estimate, "invert": lambda: invert(t), "polar": lambda: polar_decompose(t)}
    for name in order:
        reads[name]()
    assert calls == [{}]
    s = np.linalg.svd(np.asarray(t))[1]
    assert t.cond_estimate == float(s[0] / s[-1])


@pytest.mark.parametrize("dim", [3, SPLIT_FLOOR])
@pytest.mark.parametrize("cond_first", [True, False])
def test_singular_map_reads_infinite_cond_and_still_refuses_to_invert(monkeypatch, cond_first, dim):
    calls = count_numpy_calls(monkeypatch, "svd")
    values = np.arange(1.0, dim + 1)
    values[1::2] = 0.0  # from the split floor the odd block is the zero block
    z = from_diagonal(values)
    if cond_first:
        assert z.cond_estimate == np.inf
    with pytest.raises(NumericallySingular):
        invert(z)
    with pytest.raises(NumericallySingular):
        polar_decompose(z)
    assert z.cond_estimate == np.inf
    # one SVD: one LAPACK call below the split floor, one per parity block of the diagonal map from it
    assert len(calls) == (1 if dim < SPLIT_FLOOR else 2)


@pytest.mark.parametrize("order", list(itertools.permutations(("positive", "spectrum", "sqrt"))))
def test_positive_spectrum_and_sqrt_share_one_eigh_in_any_order(monkeypatch, order):
    eigh_calls = count_numpy_calls(monkeypatch, "eigh")
    eigvalsh_calls = count_numpy_calls(monkeypatch, "eigvalsh")
    v = np.asarray(random_unitary(6, stream_rng(18)))
    k = LinearMap((v * np.linspace(1.0, 4.0, 6)) @ v.conj().T)
    reads = {"positive": lambda: k.positive, "spectrum": lambda: k.spectrum, "sqrt": lambda: operator_sqrt(k)}
    for name in order:
        reads[name]()
    assert len(eigh_calls) == 1 and eigvalsh_calls == []
    w, vecs = np.linalg.eigh((np.asarray(k) + np.asarray(k).conj().T) / 2.0)
    np.testing.assert_array_equal(k.spectrum, w)
    root = (vecs * np.sqrt(w)) @ vecs.conj().T
    np.testing.assert_array_equal(operator_sqrt(k), (root + root.conj().T) / 2.0)


def parity_split_map(dim: int, is_complex: bool, seed: int, spectrum: str) -> np.ndarray:
    """A map that couples only indices of equal parity, one random block per parity.

    spectrum "random" draws each block's singular values apart; "tied" gives
    the odd block the leading singular values of the even one; "diagonal"
    makes both blocks diagonal over one value set, so ties are exact;
    "singular" gives the odd block a zero singular value and "zero" makes
    it the zero block.
    """
    rng = np.random.default_rng(seed)
    dtype = np.complex128 if is_complex else np.float64
    a = np.zeros((dim, dim), dtype=dtype)
    shared = rng.uniform(0.5, 2.0, size=(dim + 1) // 2)
    for p in (0, 1):
        size = len(range(p, dim, 2))
        if spectrum == "diagonal":
            a[p::2, p::2] = np.diag(rng.choice([0.5, 1.0, 2.0], size=size))
            continue
        s = shared[:size].copy() if spectrum == "tied" or p == 0 else rng.uniform(0.1, 3.0, size=size)
        if p == 1 and spectrum == "singular":
            s[-1] = 0.0
        if p == 1 and spectrum == "zero":
            s[:] = 0.0
        u, v = (np.asarray(random_unitary(size, rng)) if is_complex else np.linalg.qr(rng.standard_normal((size, size)))[0]
                for _ in range(2))
        a[p::2, p::2] = (u * s) @ v.conj().T
    return a


SPECTRA = st.sampled_from(["random", "tied", "diagonal", "singular", "zero"])
# dimensions on both sides of the split floor
DIMS = st.one_of(st.integers(2, 12), st.integers(SPLIT_FLOOR - 3, SPLIT_FLOOR + 3))


def factored_blocks(a: np.ndarray) -> list[np.ndarray]:
    """The blocks a map of entries a is factored by: its two parity blocks from the split floor, else a whole."""
    return [a[p::2, p::2] for p in (0, 1)] if a.shape[0] >= SPLIT_FLOOR else [a]


@settings(max_examples=60, deadline=None)
@given(dim=DIMS, is_complex=st.booleans(), seed=st.integers(0, 2**32 - 1), spectrum=SPECTRA)
def test_parity_split_svd_is_factored_per_block(dim, is_complex, seed, spectrum):
    t = LinearMap(parity_split_map(dim, is_complex, seed, spectrum))
    a = np.asarray(t)
    blocks = factored_blocks(a)
    assert t.parts == len(t.svd) == len(blocks)
    # each block's factors are LAPACK's, bit for bit, and never assembled
    for factors, block in zip(t.svd, blocks):
        for got, want in zip(factors, np.linalg.svd(block)):
            assert np.array_equal(got, want) and got.dtype == want.dtype
    s = t.singular_values
    assert np.all(np.diff(s) <= 0.0)
    assert np.array_equal(np.sort(s), np.sort(np.concatenate([f[1] for f in t.svd])))
    u, vh = (Blocks([f[k] for f in t.svd]) for k in (0, 2))
    rebuilt = Blocks([(bu * bs) @ bvh for bu, bs, bvh in t.svd])
    eye = np.eye(dim)
    assert np.abs(np.asarray(u.H @ u) - eye).max() <= 1e-14 * dim
    assert np.abs(np.asarray(vh @ vh.H) - eye).max() <= 1e-14 * dim
    assert np.abs(np.asarray(rebuilt) - a).max() <= 1e-14 * dim * max(1.0, np.abs(a).max())


@settings(max_examples=60, deadline=None)
@given(dim=DIMS, is_complex=st.booleans(), seed=st.integers(0, 2**32 - 1), spectrum=SPECTRA)
def test_parity_split_positivity_eigh_is_factored_per_block(dim, is_complex, seed, spectrum):
    a = parity_split_map(dim, is_complex, seed, spectrum)
    k = LinearMap(a @ a.conj().T)
    assert k.positive
    h = (np.asarray(k) + np.asarray(k).conj().T) / 2.0
    blocks = factored_blocks(h)
    assert len(k.eigh) == len(blocks)
    for factors, block in zip(k.eigh, blocks):
        for got, want in zip(factors, np.linalg.eigh(block)):
            assert np.array_equal(got, want)
    w = k.spectrum
    assert np.all(np.diff(w) >= 0.0)
    scale = max(1.0, float(w[-1]))
    v = Blocks([f[1] for f in k.eigh])
    assert np.abs(np.asarray(v.H @ v) - np.eye(dim)).max() <= 1e-14 * dim
    assert np.abs(np.asarray(Blocks([(bv * bw) @ bv.conj().T for bw, bv in k.eigh])) - h).max() <= 1e-14 * dim * scale
    # the square root is built from the block factors, so from the floor it couples no parities
    root = operator_sqrt(k)
    assert root.parts == len(blocks)
    dense_root = np.asarray(root)
    assert np.abs(dense_root @ dense_root - h).max() <= 1e-12 * dim * scale
    if root.parts == 2:
        assert not dense_root[::2, 1::2].any() and not dense_root[1::2, ::2].any()


@settings(max_examples=30, deadline=None)
@given(dim=DIMS, is_complex=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_inverse_from_parity_blocks_couples_no_parities(dim, is_complex, seed):
    t = LinearMap(parity_split_map(dim, is_complex, seed, "random"))
    inv = invert(t)
    split = dim >= SPLIT_FLOOR
    assert inv.parts == (2 if split else 1)
    dense_inv = np.asarray(inv)
    assert np.abs(dense_inv @ np.asarray(t) - np.eye(dim)).max() <= 1e-12 * t.cond_estimate
    # the dual family and its frame operator inherit the split
    psi = t.adjoint_inverse
    k_psi = LinearMap(psi @ psi.H)
    assert psi.parts == k_psi.parts == inv.parts
    if split:
        assert not dense_inv[::2, 1::2].any() and not dense_inv[1::2, ::2].any()


@pytest.mark.parametrize("entry", [(0, 1), (3, 0)])
def test_one_entry_off_parity_takes_the_dense_path(monkeypatch, entry):
    a = parity_split_map(SPLIT_FLOOR + 1, False, 5, "random")
    a[entry] = 1e-300
    calls = count_numpy_calls(monkeypatch, "svd")
    t = LinearMap(a)
    u, s, vh = t.svd[0]
    assert len(calls) == 1 and t.parts == 1
    for got, want in zip((u, s, vh), np.linalg.svd(a)):
        assert np.array_equal(got, want)
    eigh_calls = count_numpy_calls(monkeypatch, "eigh")
    LinearMap(a + a.T).eigh
    assert len(eigh_calls) == 1


def test_a_one_by_one_map_and_a_dense_map_factor_whole(monkeypatch):
    calls = count_numpy_calls(monkeypatch, "svd")
    for t in (from_diagonal([3.0]), random_conditioned_map(5, 5.0, stream_rng(5))):
        t.svd
    assert len(calls) == 2


@pytest.mark.parametrize("layout", ["columns", "rows", "vector"])
@pytest.mark.parametrize("kinds", [("real", "complex"), ("real", "real"), ("complex", "complex"), ("complex", "real")])
def test_apply_matches_the_matrix_product(layout, kinds):
    rng = stream_rng(19)
    m, x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) if kind == "complex" else rng.standard_normal(shape)
            for kind, shape in zip(kinds, ((7, 7), (5, 7))))
    x = {"columns": x.T, "rows": np.ascontiguousarray(x.T), "vector": x[0]}[layout]
    got = linalg.apply(Blocks([m]), x)
    want = m @ x
    assert got.shape == want.shape and got.dtype == want.dtype
    if kinds == ("real", "complex"):
        # one real product over the interleaved parts: m @ x.real and m @ x.imag
        scale = 1e-14 * np.abs(m).sum(axis=1).max() * np.abs(x).max()
        for part, expected in ((got.real, m @ x.real), (got.imag, m @ x.imag), (got, want)):
            np.testing.assert_allclose(part, expected, rtol=0.0, atol=scale)
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("layout", ["c-ordered", "f-ordered", "parity-strided", "row"])
@pytest.mark.parametrize("dim", [1, 7, 33, 128])
def test_norm_helpers_hold_the_bits_of_np_linalg_norm(kind, layout, dim):
    rng = stream_rng(20)
    a = rng.standard_normal((dim, dim))
    if kind == "complex":
        a = a + 1j * rng.standard_normal((dim, dim))
    a = {"c-ordered": a, "f-ordered": a.T, "parity-strided": a[::2], "row": a[:1]}[layout]
    assert linalg._frobenius(a).hex() == float(np.linalg.norm(a)).hex()
    norms = linalg._column_norms(a)
    want = np.linalg.norm(a, axis=0)
    assert norms.dtype == want.dtype and norms.shape == want.shape
    assert norms.tobytes() == want.tobytes()
