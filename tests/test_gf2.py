import random

import pytest

from qubitcc.gf2 import (
    BinaryMatrix,
    apply_transpose,
    classify_columns,
    rref_with_transform,
)

# four-qubit example used throughout: columns are the X masks
# x0x2, x1x3, x0x1x2, x1x2x3, x0x1x2x3
EXAMPLE_COLUMNS = [0b0101, 0b1010, 0b0111, 0b1110, 0b1111]


def transform_apply(transform, rows):
    """R @ M with R given as row bitsets over the original rows."""
    out = []
    for bits in transform:
        acc = 0
        m = bits
        while m:
            j = (m & -m).bit_length() - 1
            acc ^= rows[j]
            m &= m - 1
        out.append(acc)
    return tuple(out)


def rows_bit_by_bit(n_rows, columns):
    """Row bitsets set one column bit at a time, the check for the packer."""
    bufs = [bytearray((len(columns) + 7) // 8) for _ in range(n_rows)]
    for k, col in enumerate(columns):
        for j in range(n_rows):
            if col >> j & 1:
                bufs[j][k >> 3] |= 1 << (k & 7)
    return tuple(int.from_bytes(buf, "little") for buf in bufs)


class TestBinaryMatrix:
    def test_from_columns_round_trips(self):
        mat = BinaryMatrix.from_columns(4, EXAMPLE_COLUMNS)
        assert mat.n_rows == 4 and mat.n_cols == 5
        for k, col in enumerate(EXAMPLE_COLUMNS):
            assert mat.column(k) == col

    def test_from_columns_example_rows(self):
        mat = BinaryMatrix.from_columns(4, EXAMPLE_COLUMNS)
        assert mat.rows == (0b10101, 0b11110, 0b11101, 0b11010)

    def test_rejects_column_outside_rows(self):
        with pytest.raises(ValueError):
            BinaryMatrix.from_columns(2, [0b100])

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            BinaryMatrix(0, 1, ())
        with pytest.raises(ValueError):
            BinaryMatrix(1, 2, (0b100,))

    def test_packed_rows_match_bit_loop(self, rng):
        # up to 64 rows the columns are packed as uint64 arrays; the rows
        # must equal the ones set bit by bit from the int columns
        sizes = [(n, rng.randint(1, 300)) for n in range(1, 65)]
        sizes += [(16, 10_000), (63, 10_000), (64, 10_000)]
        for n, m in sizes:
            full = (1 << n) - 1
            cols = [rng.getrandbits(n) for _ in range(m)]
            cols[rng.randrange(m)] = full  # all ones, bit 63 too at n = 64
            cols[rng.randrange(m)] = 1 << (n - 1)
            assert BinaryMatrix.from_columns(n, cols).rows == rows_bit_by_bit(n, cols)

    def test_rejects_columns_no_uint64_holds(self):
        for n in (3, 64):
            with pytest.raises(ValueError, match="column 1 has bits outside"):
                BinaryMatrix.from_columns(n, [1, -1, 1 << 64])
            with pytest.raises(ValueError, match="column 1 has bits outside"):
                BinaryMatrix.from_columns(n, [1, 1 << 64, -1])
        with pytest.raises(ValueError, match="column 2 has bits outside 63 rows"):
            BinaryMatrix.from_columns(63, [1, 1 << 62, 1 << 63])

    def test_wide_rows_keep_the_int_path(self, rng):
        cols = [rng.getrandbits(100) for _ in range(50)]
        mat = BinaryMatrix.from_columns(100, cols)
        assert mat.rows == rows_bit_by_bit(100, cols)
        assert [mat.column(k) for k in range(50)] == cols

    def test_column_index_check(self):
        mat = BinaryMatrix(2, 2, (1, 2))
        with pytest.raises(IndexError):
            mat.column(2)


class TestRref:
    def test_example(self):
        res = rref_with_transform(BinaryMatrix.from_columns(4, EXAMPLE_COLUMNS))
        assert res.rref.rows == (0b10001, 0b10010, 0b00100, 0b01000)
        assert res.transform == (0b1011, 0b1101, 0b1010, 0b0101)
        assert res.pivot_cols == (0, 1, 2, 3)
        assert res.rank == 4

    def test_transform_reproduces_rref(self, rng):
        for _ in range(300):
            n_rows = rng.randint(1, 12)
            n_cols = rng.randint(1, 16)
            rows = tuple(rng.getrandbits(n_cols) for _ in range(n_rows))
            mat = BinaryMatrix(n_rows, n_cols, rows)
            res = rref_with_transform(mat)
            assert transform_apply(res.transform, rows) == res.rref.rows

    def test_rref_is_idempotent(self, rng):
        for _ in range(100):
            n_rows = rng.randint(1, 10)
            n_cols = rng.randint(1, 12)
            mat = BinaryMatrix(n_rows, n_cols, tuple(rng.getrandbits(n_cols) for _ in range(n_rows)))
            once = rref_with_transform(mat).rref
            twice = rref_with_transform(once).rref
            assert once.rows == twice.rows

    def test_pivot_columns_are_unit_vectors(self, rng):
        for _ in range(100):
            n_rows = rng.randint(1, 10)
            n_cols = rng.randint(1, 12)
            mat = BinaryMatrix(n_rows, n_cols, tuple(rng.getrandbits(n_cols) for _ in range(n_rows)))
            res = rref_with_transform(mat)
            for r, c in enumerate(res.pivot_cols):
                assert res.rref.column(c) == 1 << r

    def test_transform_is_invertible(self, rng):
        # R must be a product of elementary row operations: full rank
        for _ in range(50):
            n_rows = rng.randint(1, 10)
            mat = BinaryMatrix(n_rows, n_rows, tuple(rng.getrandbits(n_rows) for _ in range(n_rows)))
            res = rref_with_transform(mat)
            r_mat = BinaryMatrix(n_rows, n_rows, res.transform)
            assert rref_with_transform(r_mat).rank == n_rows

    def test_zero_matrix(self):
        res = rref_with_transform(BinaryMatrix(3, 4, (0, 0, 0)))
        assert res.rank == 0
        assert res.rref.rows == (0, 0, 0)


class TestClassify:
    def test_example(self):
        res = rref_with_transform(BinaryMatrix.from_columns(4, EXAMPLE_COLUMNS))
        cls = classify_columns(res)
        assert cls.primary == ((0, 0), (1, 1), (2, 2), (3, 3))
        assert cls.secondary == ((4, 1),)
        assert cls.usable == ((0, 0, False), (1, 1, False), (2, 2, False), (3, 3, False), (4, 1, True))

    def test_double_without_top_bit_is_unusable(self):
        # last column reduces to e1 + e2, missing row 0, so it is skipped
        res = rref_with_transform(BinaryMatrix.from_columns(3, [0b001, 0b010, 0b100, 0b110]))
        cls = classify_columns(res)
        assert res.rref.column(3) == 0b110
        assert len(cls.primary) == 3
        assert cls.secondary == ()

    def test_triple_column_is_unusable(self):
        # last column has three bits in the reduced frame
        res = rref_with_transform(BinaryMatrix.from_columns(3, [0b001, 0b010, 0b100, 0b111]))
        cls = classify_columns(res)
        assert len(cls.primary) == 3
        assert cls.secondary == ()

    def test_classification_against_direct_count(self, rng):
        for _ in range(200):
            n_rows = rng.randint(1, 10)
            n_cols = rng.randint(1, 12)
            mat = BinaryMatrix(n_rows, n_cols, tuple(rng.getrandbits(n_cols) for _ in range(n_rows)))
            res = rref_with_transform(mat)
            cls = classify_columns(res)
            primary = dict(cls.primary)
            secondary = dict(cls.secondary)
            for c in range(n_cols):
                col = res.rref.column(c)
                pop = col.bit_count()
                if pop == 1:
                    assert primary[c] == col.bit_length() - 1
                    assert c not in secondary
                elif pop == 2 and col & 1:
                    assert secondary[c] == (col ^ 1).bit_length() - 1
                    assert c not in primary
                else:
                    assert c not in primary and c not in secondary


class TestApplyTranspose:
    def test_example(self):
        transform = (0b1011, 0b1101, 0b1010, 0b0101)
        # e0 picks row 0 of R
        assert apply_transpose(transform, 0b0001) == 0b1011
        # z_0 z_1 in the new frame
        assert apply_transpose(transform, 0b0011) == 0b1011 ^ 0b1101

    def test_linear(self, rng):
        for _ in range(100):
            n = rng.randint(1, 10)
            transform = tuple(rng.getrandbits(n) for _ in range(n))
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            left = apply_transpose(transform, a ^ b)
            right = apply_transpose(transform, a) ^ apply_transpose(transform, b)
            assert left == right
            assert apply_transpose(transform, 0) == 0
