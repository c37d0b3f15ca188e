"""Parity blocks: each Blocks operation against the dense matrix it holds, and the split run against the whole one."""

import json
import math

import numpy as np
import pytest

from rieszlab import linalg, run_suite
from rieszlab.cli import _hermite_config
from rieszlab.config import parse_config
from rieszlab.linalg import SPLIT_FLOOR, Blocks, _lu_inverse

from helpers import stream_rng


def random_blocks(dim: int, parts: int, shift: int, is_complex: bool, rng) -> Blocks:
    """A random Blocks of dimension dim: blocks of the parts' own sizes, no padding."""
    sizes = [len(range(p, dim, parts)) for p in range(parts)]

    def draw(rows, cols):
        a = rng.standard_normal((rows, cols))
        return a + 1j * rng.standard_normal((rows, cols)) if is_complex else a

    return Blocks([draw(sizes[(p + shift) % parts], sizes[p]) for p in range(parts)], shift)


def dense_of(m: Blocks) -> np.ndarray:
    """The dense matrix of m, assembled here entry by entry from the documented layout."""
    dim = m.shape[0]
    out = np.zeros((dim, dim), dtype=m.dtype)
    for p, b in enumerate(m.blocks):
        rows = range((p + m.shift) % m.parts, dim, m.parts)
        cols = range(p, dim, m.parts)
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                out[r, c] = b[i, j]
    return out


LAYOUTS = [(1, 0), (2, 0), (2, 1)]


@pytest.mark.parametrize("dim", [6, 7])
@pytest.mark.parametrize("parts, shift", LAYOUTS)
@pytest.mark.parametrize("is_complex", [False, True])
def test_every_operation_is_the_dense_one(dim, parts, shift, is_complex):
    rng = stream_rng(dim, 10 * parts + shift)
    a = random_blocks(dim, parts, shift, is_complex, rng)
    b = random_blocks(dim, parts, 1 - shift if parts == 2 else 0, not is_complex, rng)
    c = random_blocks(dim, parts, shift, not is_complex, rng)
    da, db, dc = dense_of(a), dense_of(b), dense_of(c)
    assert np.array_equal(np.asarray(a), da) and a.shape == da.shape and a.dtype == da.dtype
    tol = 1e-13
    np.testing.assert_allclose(np.asarray(a @ b), da @ db, rtol=0, atol=tol)
    assert (a @ b).shift == (a.shift + b.shift) % parts
    np.testing.assert_array_equal(np.asarray(a.H), da.conj().T)
    np.testing.assert_array_equal(np.asarray(a - c), da - dc)
    np.testing.assert_array_equal(np.asarray(a + c), da + dc)
    v = rng.standard_normal(dim)
    np.testing.assert_array_equal(np.asarray(a * v), da * v)
    np.testing.assert_array_equal(np.asarray(a * 0.5), da * 0.5)
    assert a.max_abs() == np.abs(da).max()
    assert a.frobenius() == pytest.approx(np.linalg.norm(da), rel=1e-15)
    np.testing.assert_allclose(a.column_norms(), np.linalg.norm(da, axis=0), rtol=1e-15)
    for other, dense_other in ((b, db), (c, dc)):
        np.testing.assert_array_equal(a.column_inner(other), np.sum(np.conj(da) * dense_other, axis=0))
    for n in range(dim + 1):
        np.testing.assert_array_equal(np.asarray(a.leading(n)), da[:n, :n])
    if shift == 0:
        np.testing.assert_allclose(da @ np.asarray(_lu_inverse(a)), np.eye(dim), rtol=0, atol=1e-10)
        d = rng.standard_normal(dim)
        np.testing.assert_array_equal(np.asarray(a.minus_diagonal(d)), da - np.diag(d))
        np.testing.assert_array_equal(np.asarray(a.minus_diagonal()), da - np.eye(dim))


def test_operands_with_other_parts_meet_as_whole_matrices():
    rng = stream_rng(5)
    split, whole = random_blocks(7, 2, 0, False, rng), random_blocks(7, 1, 0, True, rng)
    for product in (split @ whole, whole @ split, split - whole, split + whole):
        assert product.parts == 1
    np.testing.assert_allclose(np.asarray(split @ whole), dense_of(split) @ dense_of(whole), atol=1e-13)
    # so do two split operands that move parity differently in a sum
    swapped = random_blocks(7, 2, 1, False, rng)
    np.testing.assert_array_equal(np.asarray(split - swapped), dense_of(split) - dense_of(swapped))


@pytest.mark.parametrize("parts, shift", LAYOUTS)
def test_worst_entry_names_the_dense_argmax_ties_and_nans_included(parts, shift):
    # the first largest |entry| in row-major order of the whole matrix, as
    # np.argmax reads it, with a NaN before any number
    dim = 9
    rng = stream_rng(6, parts + shift)
    for case in range(40):
        a = random_blocks(dim, parts, shift, False, rng)
        blocks = [np.round(b * 2.0) / 2.0 for b in a.blocks]  # many exact ties
        if case % 5 == 0:
            blocks[case % parts][rng.integers(blocks[case % parts].shape[0]), 0] = np.nan
        m = Blocks(blocks, shift)
        d = np.abs(dense_of(m))
        k, l = np.unravel_index(int(np.argmax(d)), d.shape)
        value, row, col = m.worst_entry()
        assert (row, col) == (k, l) and type(row) is int and type(col) is int, case
        assert value == d[k, l] or (math.isnan(value) and math.isnan(d[k, l]))


def test_blocks_of_splits_a_parity_keeping_array_from_the_floor_only():
    for dim in (SPLIT_FLOOR - 1, SPLIT_FLOOR, SPLIT_FLOOR + 1):
        a = np.diag(np.arange(1.0, dim + 1)) + np.diag(np.ones(dim - 2), 2)
        m = Blocks.of(a)
        assert m.parts == (2 if dim >= SPLIT_FLOOR else 1) and m.shift == 0
        np.testing.assert_array_equal(np.asarray(m), a)
        a[0, 1] = 1e-300  # one entry off parity: one block
        assert Blocks.of(a).parts == 1
    # and the caller's array stays writable
    assert a.flags.writeable


def diagonal_config(dim: int) -> dict:
    values = np.exp(0.3j * np.arange(dim)) * 1.05 ** np.arange(dim)
    return {"dimension": dim, "operator": {"kind": "diagonal", "values": [[v.real, v.imag] for v in values]}}


RUNS = {
    "hermite-even": _hermite_config(SPLIT_FLOOR + SPLIT_FLOOR % 2 + 4, full_suite=True, seed=0),
    "hermite-odd": _hermite_config(SPLIT_FLOOR + SPLIT_FLOOR % 2 + 5, full_suite=True, seed=0),
    "complex-diagonal": parse_config(json.dumps(diagonal_config(SPLIT_FLOOR + 3))),
}
# The location details name where a rounding-level maximum sits; two
# roundings of the same run may name another index, so they are not compared.
LOCATIONS = {"worst_row", "worst_col", "m", "l"}
# Every residual of these clean runs lies below 1e-12, and each detail that
# is not a residual (cond(T), frame bounds, the ccr tolerance) is O(1) or
# larger: two roundings agree to 1e-11 relative to max(1, |value|).
ROUNDING = 1e-11


@pytest.mark.parametrize("name", list(RUNS))
def test_split_and_whole_paths_agree(monkeypatch, name):
    cfg = RUNS[name]
    split = run_suite(cfg)
    monkeypatch.setattr(linalg, "SPLIT_FLOOR", cfg.dimension + 1)
    whole = run_suite(cfg)
    assert [r.name for r in split] == [r.name for r in whole]
    for s, w in zip(split, whole):
        assert s.passed and w.passed, (s, w)
        assert s.details.keys() == w.details.keys(), s.name
        for key in ("residual", *s.details):
            a = s.residual if key == "residual" else s.details[key]
            b = w.residual if key == "residual" else w.details[key]
            if key in LOCATIONS:
                continue
            if isinstance(a, str):
                assert a == b, (s.name, key)
            else:
                assert abs(a - b) <= ROUNDING * max(1.0, abs(a), abs(b)), (s.name, key, a, b)


def test_a_split_run_never_assembles_a_dense_matrix(monkeypatch):
    # every derived matrix of the Hermite run above the floor stays in its two blocks
    assembled = []
    whole = Blocks.whole
    monkeypatch.setattr(Blocks, "whole", lambda self: assembled.append(self.parts) or whole(self))
    reports = run_suite(RUNS["hermite-odd"])
    assert all(r.passed for r in reports)
    assert 2 not in assembled
