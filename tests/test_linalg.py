"""Tests for the dense linear-algebra substrate."""

import itertools

import numpy as np
import pytest

from rieszlab import (
    LinearMap,
    from_diagonal,
    invert,
    operator_sqrt,
    polar_decompose,
)
from rieszlab.errors import NotPositive, NumericallySingular
from rieszlab.linalg import real_or_complex
from rieszlab.sampling import stream_rng

from helpers import random_conditioned_map, random_unitary


def test_dtype_follows_the_entries():
    # float64 exactly when every entry is real: a zero imaginary part is not complex
    assert LinearMap([[1, 2], [3, 4]]).entries.dtype == np.float64
    assert LinearMap(np.array([[1, 2], [3, 4]], dtype=np.complex128)).entries.dtype == np.float64
    assert LinearMap([[1, 2j], [3, 4]]).entries.dtype == np.complex128
    assert from_diagonal([1.0, 2.0]).entries.dtype == np.float64
    assert from_diagonal([1.0, 1j]).entries.dtype == np.complex128
    # the map owns its entries, for complex input too
    z = np.array([[1.0, 1j], [0.0, 1.0]])
    assert not np.shares_memory(LinearMap(z).entries, z) and z.flags.writeable
    # and what is built from a real map stays real
    t = LinearMap([[2.0, 1.0], [0.0, 3.0]])
    assert invert(t).entries.dtype == np.float64
    factors = polar_decompose(t)
    assert factors.unitary_part.entries.dtype == factors.positive_part.entries.dtype == np.float64
    assert operator_sqrt(from_diagonal([1.0, 4.0])).entries.dtype == np.float64


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
        operator_sqrt(from_diagonal([1, 4, 9])).entries, np.diag([1, 2, 3]).astype(complex), atol=1e-14
    )


def test_operator_sqrt_identity():
    np.testing.assert_allclose(operator_sqrt(LinearMap(np.eye(4))).entries, np.eye(4), atol=1e-15)


def test_operator_sqrt_of_outer_product_frame():
    # K = sum of outer products of the columns of T = diag(1,2,3), summed by hand
    t = np.diag([1.0, 2.0, 3.0]).astype(complex)
    k = np.zeros((3, 3), dtype=complex)
    for col in range(3):
        phi = t[:, col]
        k += np.outer(phi, phi.conj())
    np.testing.assert_allclose(operator_sqrt(LinearMap(k)).entries, t, atol=1e-12)


def test_operator_sqrt_squares_back_and_commutes_with_conjugation():
    rng = stream_rng(13)
    for n in (5, 16, 32):
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = LinearMap(b @ b.conj().T + 0.1 * np.eye(n))
        root = operator_sqrt(a)
        assert root.positive
        err = np.linalg.norm(root.entries @ root.entries - a.entries)
        assert err <= 1e-9 * np.linalg.norm(a.entries)
        u = random_unitary(n, rng).entries
        conjugated = operator_sqrt(LinearMap(u @ a.entries @ u.conj().T)).entries
        expected = u @ root.entries @ u.conj().T
        assert np.linalg.norm(conjugated - expected) <= 1e-9 * np.linalg.norm(expected)


def test_operator_sqrt_clamps_rounded_zero_eigenvalues():
    v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    rank_one = LinearMap(np.outer(v, v))  # eigenvalues {1, 0, 0} up to rounding
    root = operator_sqrt(rank_one)
    np.testing.assert_allclose(root.entries @ root.entries, rank_one.entries, atol=1e-12)


def test_operator_sqrt_rejects_indefinite():
    with pytest.raises(NotPositive):
        operator_sqrt(from_diagonal([1, -1]))


def test_invert_diagonal():
    np.testing.assert_allclose(
        invert(from_diagonal([1, 2, 4])).entries, np.diag([1, 0.5, 0.25]).astype(complex), atol=1e-15
    )


def test_invert_unipotent():
    inv = invert(LinearMap([[1, 1], [0, 1]]))
    np.testing.assert_allclose(inv.entries, [[1, -1], [0, 1]], atol=1e-14)


def test_invert_zero_matrix():
    with pytest.raises(NumericallySingular) as excinfo:
        invert(LinearMap(np.zeros((3, 3))))
    assert excinfo.value.sigma_min == 0.0


def test_invert_roundtrip_and_cond():
    rng = stream_rng(14)
    for _ in range(10):
        t = random_conditioned_map(12, 50.0, rng)
        inv = invert(t)
        assert np.isfinite(inv.cond_estimate)
        assert abs(inv.cond_estimate - 50.0) / 50.0 <= 1e-8
        back = invert(inv)
        err = np.linalg.norm(back.entries - t.entries) / np.linalg.norm(t.entries)
        assert err <= 1e-8 * 50.0**2
        resid = np.linalg.norm(t.entries @ inv.entries - np.eye(12))
        assert resid <= 1e-8 * inv.cond_estimate * np.sqrt(12)


def test_invert_caches_read_only_inverse():
    t = random_conditioned_map(6, 10.0, stream_rng(15))
    inv = invert(t)
    assert invert(t) is inv
    assert not inv.entries.flags.writeable
    with pytest.raises(ValueError):
        inv.entries[0, 0] = 0.0


def test_positive_certified_on_first_read_only(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    k = from_diagonal([1, 2, 3])
    assert calls == []
    assert k.positive and k.positive
    assert len(calls) == 1
    # the certificate's eigenvalues are kept for readers of the spectrum
    np.testing.assert_array_equal(k.spectrum, [1.0, 2.0, 3.0])
    assert len(calls) == 1
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
    assert k._self_adjoint is None and k._positive is None and k._eigh is None
    assert k.positive
    assert repr(k) == "LinearMap(dim=3, dtype=float64, self_adjoint=True, positive=True)"
    k = LinearMap([[1, 2j], [2j, 3]])
    assert not k.self_adjoint
    assert repr(k) == "LinearMap(dim=2, dtype=complex128, self_adjoint=False, positive=unknown)"


def test_polar_positive_diagonal():
    factors = polar_decompose(from_diagonal([1, 2]))
    np.testing.assert_allclose(factors.unitary_part.entries, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(factors.positive_part.entries, np.diag([1, 2]).astype(complex), atol=1e-14)


def test_polar_swap_example():
    # T T* = diag(4, 1), so P = diag(2, 1) and U swaps the basis; P U = T by hand
    t = LinearMap([[0, 2], [1, 0]])
    factors = polar_decompose(t)
    np.testing.assert_allclose(factors.positive_part.entries, np.diag([2.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(factors.unitary_part.entries, [[0, 1], [1, 0]], atol=1e-14)
    np.testing.assert_allclose(
        factors.positive_part.entries @ factors.unitary_part.entries, t.entries, atol=1e-14
    )


def test_polar_of_negated_identity():
    factors = polar_decompose(LinearMap(-np.eye(2)))
    np.testing.assert_allclose(factors.unitary_part.entries, -np.eye(2), atol=1e-14)
    np.testing.assert_allclose(factors.positive_part.entries, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("dim", [4, 16, 32])
def test_polar_random_reassembly(dim):
    rng = stream_rng(15 + dim)
    for _ in range(34):
        t = random_conditioned_map(dim, 100.0, rng)
        factors = polar_decompose(t)
        u, p = factors.unitary_part, factors.positive_part
        assert p.positive
        assert np.linalg.norm(u.entries.conj().T @ u.entries - np.eye(dim)) <= 1e-10 * np.sqrt(dim)
        err = np.linalg.norm(p.entries @ u.entries - t.entries)
        assert err <= 1e-9 * np.linalg.norm(t.entries)


def test_invert_and_polar_share_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(kw) or svd(a, **kw))
    t = random_conditioned_map(8, 10.0, stream_rng(16))
    inv = invert(t)
    factors = polar_decompose(t)
    assert calls == [{}]
    u, s, vh = svd(t.entries)
    np.testing.assert_array_equal(inv.entries, (vh.conj().T * (1.0 / s)) @ u.conj().T)
    np.testing.assert_array_equal(factors.unitary_part.entries, u @ vh)
    # a singular map keeps its SVD too and raises on every read
    z = LinearMap(np.zeros((3, 3)))
    for op in (invert, polar_decompose, invert):
        with pytest.raises(NumericallySingular):
            op(z)
    assert len(calls) == 2


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
    s = np.linalg.svd(t.entries)[1]
    assert t.cond_estimate == float(s[0] / s[-1])
    assert invert(t).cond_estimate == t.cond_estimate


@pytest.mark.parametrize("cond_first", [True, False])
def test_singular_map_reads_infinite_cond_and_still_refuses_to_invert(monkeypatch, cond_first):
    calls = count_numpy_calls(monkeypatch, "svd")
    z = from_diagonal([1.0, 0.0, 2.0])
    if cond_first:
        assert z.cond_estimate == np.inf
    with pytest.raises(NumericallySingular):
        invert(z)
    with pytest.raises(NumericallySingular):
        polar_decompose(z)
    assert z.cond_estimate == np.inf
    assert len(calls) == 1


@pytest.mark.parametrize("order", list(itertools.permutations(("positive", "spectrum", "sqrt"))))
def test_positive_spectrum_and_sqrt_share_one_eigh_in_any_order(monkeypatch, order):
    eigh_calls = count_numpy_calls(monkeypatch, "eigh")
    eigvalsh_calls = count_numpy_calls(monkeypatch, "eigvalsh")
    v = random_unitary(6, stream_rng(18)).entries
    k = LinearMap((v * np.linspace(1.0, 4.0, 6)) @ v.conj().T)
    reads = {"positive": lambda: k.positive, "spectrum": lambda: k.spectrum, "sqrt": lambda: operator_sqrt(k)}
    for name in order:
        reads[name]()
    assert len(eigh_calls) == 1 and eigvalsh_calls == []
    w, vecs = np.linalg.eigh((k.entries + k.entries.conj().T) / 2.0)
    np.testing.assert_array_equal(k.spectrum, w)
    root = (vecs * np.sqrt(w)) @ vecs.conj().T
    np.testing.assert_array_equal(operator_sqrt(k).entries, (root + root.conj().T) / 2.0)
