import random

import pytest

from qubitcc.acset import (
    build_anticommuting_set,
    canonical_generator,
    standard_f,
    standard_majorana_d,
)
from qubitcc.pauli import PauliWord, commutes

EXAMPLE_MASKS = [0b0101, 0b1010, 0b0111, 0b1110, 0b1111]


def all_pairwise_anticommute(gens):
    return all(
        not commutes(gens[i], gens[j])
        for i in range(len(gens))
        for j in range(i)
    )


def first_mask_error(n, masks):
    """The message for the first empty, out-of-range or repeated mask."""
    seen = set()
    for m in masks:
        if m <= 0 or m >> n:
            return f"X mask {m:#x} empty or outside {n} qubits"
        if m in seen:
            return f"duplicate X mask {m:#x}"
        seen.add(m)
    return None


class TestStandardChains:
    def test_d_shapes(self):
        assert standard_majorana_d(0, 4) == PauliWord(4, 0b0001, 0b0001)
        assert standard_majorana_d(2, 4) == PauliWord(4, 0b0100, 0b0111)

    def test_f_shapes(self):
        assert standard_f(1, 4) == PauliWord(4, 0b0011, 0b1110)
        assert standard_f(3, 4) == PauliWord(4, 0b1001, 0b1000)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            standard_majorana_d(4, 4)
        with pytest.raises(ValueError):
            standard_f(0, 4)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_full_family_pairwise_anticommutes(self, n):
        fam = [standard_majorana_d(i, n) for i in range(n)]
        fam += [standard_f(i, n) for i in range(1, n)]
        assert len(fam) == 2 * n - 1
        assert all_pairwise_anticommute(fam)
        assert all(w.y_count() % 2 == 1 for w in fam)


class TestCanonicalGenerator:
    def test_lowest_x_becomes_y(self):
        g = canonical_generator(4, 0b1100)
        assert g == PauliWord(4, 0b1100, 0b0100)
        assert g.letter(2) == "Y" and g.letter(3) == "X"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            canonical_generator(3, 0)


class TestBuildSet:
    def test_worked_example(self):
        acs = build_anticommuting_set(4, EXAMPLE_MASKS)
        texts = [g.to_text() for g in acs.generators]
        assert texts == [
            "Y0 Z1 X2 Z3",
            "Y1 Z2 X3",
            "X0 X1 Y2 Z3",
            "Z0 X1 X2 Y3",
            "X0 Y1 X2 X3",
        ]
        assert acs.source_columns == (0, 1, 2, 3, 4)
        assert acs.kinds == ("primary", "primary", "primary", "primary", "secondary")
        assert acs.rows == (0, 1, 2, 3, 1)
        assert all_pairwise_anticommute(acs.generators)

    def test_generators_keep_source_x_mask(self):
        acs = build_anticommuting_set(4, EXAMPLE_MASKS)
        for g, col in zip(acs.generators, acs.source_columns):
            assert g.x == EXAMPLE_MASKS[col]

    def test_max_generators_cap(self):
        acs = build_anticommuting_set(4, EXAMPLE_MASKS, max_generators=3)
        assert len(acs) == 3
        assert acs.source_columns == (0, 1, 2)
        assert all_pairwise_anticommute(acs.generators)

    def test_cap_zero_and_empty_input(self):
        assert len(build_anticommuting_set(4, EXAMPLE_MASKS, max_generators=0)) == 0
        assert len(build_anticommuting_set(4, [])) == 0

    def test_single_word(self):
        acs = build_anticommuting_set(3, [0b110])
        assert len(acs) == 1
        assert acs.generators[0].x == 0b110
        assert acs.generators[0].y_count() % 2 == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_anticommuting_set(2, [0])
        with pytest.raises(ValueError):
            build_anticommuting_set(2, [0b100])
        with pytest.raises(ValueError):
            build_anticommuting_set(2, [0b01, 0b01])
        with pytest.raises(ValueError):
            build_anticommuting_set(0, [])
        with pytest.raises(ValueError):
            build_anticommuting_set(2, [1], max_generators=-1)

    def test_first_bad_mask_named_in_input_order(self, rng):
        # the checks run on a uint64 array up to 64 qubits; the error
        # must name the mask a one-by-one pass would stop at
        for _ in range(300):
            n = rng.choice([3, 8, 63, 64, 70])
            masks = [rng.getrandbits(n) | 1 for _ in range(rng.randint(1, 12))]
            for _ in range(rng.randint(0, 2)):
                i = rng.randrange(len(masks))
                masks[i] = rng.choice([0, -1, 1 << n, 1 << 64, rng.choice(masks)])
            try:
                build_anticommuting_set(n, masks)
            except ValueError as err:
                assert str(err) == first_mask_error(n, masks)
            else:
                assert first_mask_error(n, masks) is None

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_standard_masks_reach_the_bound(self, n):
        masks = [standard_majorana_d(i, n).x for i in range(n)]
        masks += [standard_f(i, n).x for i in range(1, n)]
        acs = build_anticommuting_set(n, masks)
        assert len(acs) == 2 * n - 1
        assert all_pairwise_anticommute(acs.generators)

    def test_random_inputs_properties(self, rng):
        for _ in range(400):
            n = rng.randint(2, 8)
            pool = list(range(1, 1 << n))
            rng.shuffle(pool)
            masks = pool[: rng.randint(1, min(12, len(pool)))]
            acs = build_anticommuting_set(n, masks)
            assert len(acs) <= 2 * n - 1
            assert all_pairwise_anticommute(acs.generators)
            for g in acs.generators:
                assert g.y_count() % 2 == 1
                assert g.x in masks

    def test_rank_lower_bound(self, rng):
        # every pivot column earns a generator, so the set is at least
        # as large as the GF(2) rank of the mask family
        from qubitcc.gf2 import BinaryMatrix, rref_with_transform

        for _ in range(100):
            n = rng.randint(2, 8)
            pool = list(range(1, 1 << n))
            rng.shuffle(pool)
            masks = pool[: rng.randint(1, min(10, len(pool)))]
            acs = build_anticommuting_set(n, masks)
            rank = rref_with_transform(BinaryMatrix.from_columns(n, masks)).rank
            assert len(acs) >= rank
