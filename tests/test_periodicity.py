"""Tests for the residue-class periodicity of integral bases."""

import json
import time
from collections import Counter

import pytest

from purefields import periodicity, purebasis
from purefields.exactmath import QPolynomial, SquareFree, square_free_check
from purefields.oracle import is_algebraic_integer
from purefields.periodicity import (
    ParametricRow,
    SkippedClass,
    UnknownRow,
    atlas,
    atlas_json_dict,
    atlas_pretty,
    period_modulus,
    verify_periodicity,
)
from purefields.purebasis import (
    BasisElement,
    IntegralBasis,
    PureField,
    prime_power_basis,
    spans_equal,
)


class TestPeriodModulus:
    @pytest.mark.parametrize(
        "n, n0",
        [
            (2, 4),
            (4, 8),
            (6, 36),
            (8, 16),
            (9, 27),
            (12, 72),
            (15, 225),
            (18, 108),
        ],
    )
    def test_values(self, n, n0):
        assert period_modulus(n) == n0

    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            period_modulus(1)


class TestQuadraticAtlas:
    def test_full_table(self):
        atl = atlas(2)
        assert atl.n0 == 4
        assert set(atl.rows) == {0, 1, 2, 3}

        assert isinstance(atl.rows[0], SkippedClass)
        assert "2^2" in atl.rows[0].reason

        one = atl.rows[1]
        assert isinstance(one, ParametricRow)
        assert one.witness == -3
        assert one.second_witness == 5
        assert [str(p) for p in one.polynomials] == ["1", "1/2X+1/2"]

        for r, w in [(2, 2), (3, 3)]:
            row = atl.rows[r]
            assert isinstance(row, ParametricRow)
            assert row.witness == w
            assert [str(p) for p in row.polynomials] == ["1", "X"]

    def test_tiny_scan_bound_leaves_unknown_rows(self):
        atl = atlas(2, scan_bound=2)
        # only -2 and 2 are admissible radicands below 3
        assert isinstance(atl.rows[1], UnknownRow)
        assert atl.rows[1].scan_bound == 2
        assert isinstance(atl.rows[3], UnknownRow)

    def test_negative_scan_bound_raises(self):
        for bound in (-1, -5):
            with pytest.raises(ValueError, match="scan_bound"):
                atlas(4, scan_bound=bound)
        # zero is a bound like any other: no radicand is admissible below 1
        assert all(
            isinstance(row, (UnknownRow, SkippedClass))
            for row in atlas(4, scan_bound=0).rows.values()
        )


class TestWitnessScan:
    @pytest.mark.parametrize("n0", [2, 8, 9, 72])
    def test_witnesses_are_the_class_members_smallest_first(self, n0):
        # every member of the class below the bound, sorted outright
        for r in range(n0):
            for bound in (0, 1, 2, 5, 37, 200):
                expected = sorted(
                    (
                        m
                        for m in range(-bound, bound + 1)
                        if m % n0 == r
                        and m not in (0, 1, -1)
                        and isinstance(square_free_check(m), SquareFree)
                    ),
                    key=lambda m: (abs(m), m < 0),
                )
                found = list(periodicity._square_free_witnesses(r, n0, bound))
                assert found == expected, (n0, r, bound)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_scan_bound_costs_nothing_beyond_the_witnesses(self, n):
        start = time.perf_counter()
        wide = atlas(n, scan_bound=10**12)
        assert time.perf_counter() - start < 1.0
        assert wide == atlas(n)


@pytest.fixture(scope="module")
def atlas9():
    return atlas(9)


@pytest.fixture(scope="module")
def atlas12():
    return atlas(12)


class TestDegreeNineAtlas:
    def test_skips_exactly_the_multiples_of_nine(self, atlas9):
        skipped = {
            r for r, row in atlas9.rows.items() if isinstance(row, SkippedClass)
        }
        assert skipped == {0, 9, 18}

    def test_all_other_classes_resolved(self, atlas9):
        for r, row in atlas9.rows.items():
            if r not in (0, 9, 18):
                assert isinstance(row, ParametricRow)

    def test_class_one_matches_wildly_ramified_construction(self, atlas9):
        row = atlas9.rows[1]
        assert row.witness == -26
        assert row.second_witness == -53
        expected = prime_power_basis(3, 2, 55)
        assert row.elements == expected.elements

    def test_coprime_class_keeps_power_basis(self, atlas9):
        row = atlas9.rows[2]
        assert row.polynomials == tuple(
            QPolynomial.x_power(j) for j in range(9)
        )


class TestDegreeTwelveAtlas:
    def test_skip_count(self, atlas12):
        skipped = [
            r for r, row in atlas12.rows.items() if isinstance(row, SkippedClass)
        ]
        assert len(skipped) == 24
        assert all(r % 4 == 0 or r % 9 == 0 for r in skipped)

    def test_all_seventy_two_classes_classified(self, atlas12):
        assert set(atlas12.rows) == set(range(72))
        resolved = [
            r for r, row in atlas12.rows.items() if isinstance(row, ParametricRow)
        ]
        assert len(resolved) == 48

    def test_power_basis_classes(self, atlas12):
        powers = tuple(QPolynomial.x_power(j) for j in range(12))
        for r in (2, 3, 6, 7):
            assert atlas12.rows[r].polynomials == powers

    def test_class_one_witness_and_shape(self, atlas12):
        row = atlas12.rows[1]
        assert row.witness == -71
        last = str(row.elements[-1])
        assert last == "(X^11+9X^8+4X^7+9X^5+4X^3+9X^2)/12"

    def test_class_seventeen_spans_published_row(self, atlas12):
        # the composed representatives differ from the classical printed row,
        # but they generate the same lattice
        row = atlas12.rows[17]
        field = PureField.create(12, row.witness)
        mine = IntegralBasis(field, row.elements)
        classical = IntegralBasis(
            field,
            tuple(
                BasisElement(QPolynomial(c), d)
                for c, d in [
                    ([1], 1),
                    ([0, 1], 1),
                    ([0, 0, 1], 1),
                    ([0, 0, 0, 1], 1),
                    ([0, 0, 0, 0, 1], 1),
                    ([0, 0, 0, 0, 0, 1], 1),
                    ([1, 0, 0, 0, 0, 0, 1], 2),
                    ([0, 1, 0, 0, 0, 0, 0, 1], 2),
                    ([4, 0, 3, 0, 2, 0, 0, 0, 1], 6),
                    ([3, 4, 0, 9, 0, 8, 3, 0, 0, 1], 12),
                    ([6, 3, 4, 0, 9, 0, 2, 3, 0, 0, 1], 12),
                    ([4, 6, 9, 4, 8, 9, 0, 2, 1, 0, 0, 1], 12),
                ]
            ),
        )
        assert spans_equal(mine, classical)

    def test_row_integral_at_both_witnesses(self, atlas12):
        # the same polynomial row must give algebraic integers over each witness
        for r in (1, 17, 53):
            row = atlas12.rows[r]
            for m in (row.witness, row.second_witness):
                field = PureField.create(12, m)
                for el in row.elements:
                    assert is_algebraic_integer(field, el)


class TestVerify:
    def test_degree_nine_pair(self):
        assert verify_periodicity(9, 1, 55, -26) is True

    def test_quadratic_pair(self):
        assert verify_periodicity(2, 1, 5, 13) is True

    def test_degree_twelve_pair(self):
        assert verify_periodicity(12, 53, 53, -19) is True

    def test_degree_twelve_larger_witness(self):
        assert verify_periodicity(12, 53, 53, 197) is True

    def test_rejects_non_square_free_radicand(self):
        with pytest.raises(ValueError):
            verify_periodicity(12, 53, 53, 125)

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            verify_periodicity(2, 1, 5, 7)

    def test_rejects_residue_out_of_range(self):
        with pytest.raises(ValueError):
            verify_periodicity(2, 5, 5, 13)

    def test_negative_radicands_normalize_into_classes(self):
        # -3 = 1 mod 4
        assert verify_periodicity(2, 1, -3, 5) is True


class TestRendering:
    def test_json_shape_and_determinism(self):
        atl = atlas(2)
        d = atlas_json_dict(atl)
        assert d["n"] == 2
        assert d["n0"] == 4
        assert set(d["rows"]) == {"0", "1", "2", "3"}
        assert d["rows"]["0"] == {
            "skip": "every m = 0 mod 4 is divisible by 2^2"
        }
        assert d["rows"]["1"]["witness"] == -3
        assert d["rows"]["1"]["basis"] == [["1"], ["1/2", "1/2"]]
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        again = json.dumps(
            atlas_json_dict(atlas(2)), sort_keys=True, separators=(",", ":")
        )
        assert blob == again

    def test_unknown_row_serialization(self):
        atl = atlas(2, scan_bound=2)
        d = atlas_json_dict(atl)
        assert d["rows"]["1"] == {"unknown_below": 2}

    def test_pretty_groups_identical_rows(self):
        text = atlas_pretty(atlas(2))
        assert "degree 2, period 4" in text
        assert "m = 1 (mod 4):" in text
        assert "(X+1)/2" in text
        assert "m = 2, 3 (mod 4):" in text
        assert "no square-free radicands: 0" in text


def test_atlas_checks_each_candidate_once(monkeypatch):
    # each witness's field is built from the scan's own square-free verdict,
    # not checked again by PureField.create
    checked = Counter()
    for module in (periodicity, purebasis):
        original = module.square_free_check

        def counting(m, *args, original=original):
            checked[m] += 1
            return original(m, *args)

        monkeypatch.setattr(module, "square_free_check", counting)
    table = atlas(9)
    witnesses = {
        w
        for row in table.rows.values()
        if isinstance(row, ParametricRow)
        for w in (row.witness, row.second_witness)
    }
    assert witnesses and witnesses <= set(checked)
    assert max(checked.values()) == 1
