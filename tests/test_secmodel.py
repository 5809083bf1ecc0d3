"""Attack-model tests: back-solving, reference reproduction, emission."""

import csv
import math

import pytest

from flexichain.errors import DomainError
from flexichain.secmodel import (
    BLOCKCHAIN_REFERENCE,
    CENTRAL_REFERENCE,
    FLEXICHAIN_REFERENCE,
    TABULATED_N,
    CategoryFactors,
    back_solve_factors,
    category_probability,
    compare_to_reference,
    computed_rows,
    emit_tables,
)


# ---------------------------------------------------------------------------
# Reference table sanity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("table", [BLOCKCHAIN_REFERENCE, FLEXICHAIN_REFERENCE])
def test_summation_cells_equal_row_sums(table):
    for n, row in table.items():
        assert sum(row[:4]) == pytest.approx(row[4], abs=1e-6)


# ---------------------------------------------------------------------------
# The model itself
# ---------------------------------------------------------------------------

def test_category_probability_reference_points():
    assert category_probability(CategoryFactors(0.25, 0.9214697), 4) == pytest.approx(
        0.180269132, rel=1e-3
    )
    assert category_probability(CategoryFactors(0.25, 1.0), 17) == 0.25
    assert category_probability(CategoryFactors(0.25, 0.8280982), 24) == pytest.approx(
        0.002703503, rel=1e-3
    )


def test_category_probability_domain():
    with pytest.raises(DomainError):
        category_probability(CategoryFactors(0.25, 0.9), 0)
    with pytest.raises(DomainError):
        CategoryFactors(1.5, 0.9)
    with pytest.raises(DomainError):
        CategoryFactors(0.25, -0.1)


def test_monotonic_decrease_in_n():
    factors = CategoryFactors(0.25, 0.98)
    values = [category_probability(factors, n) for n in range(1, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Back-solving
# ---------------------------------------------------------------------------

def test_back_solve_blockchain_category2():
    factors = back_solve_factors(BLOCKCHAIN_REFERENCE, 2)
    # Closed-form cross-check: with amplitude 1/4, x = (4 * P(4)) ** (1/4).
    assert factors.per_node == pytest.approx((4 * 0.230686174) ** 0.25, abs=1e-4)
    assert factors.per_node == pytest.approx(0.9801, abs=1e-4)
    assert factors.amplitude == pytest.approx(0.25, abs=1e-4)


def test_back_solve_flexichain_category1():
    factors = back_solve_factors(FLEXICHAIN_REFERENCE, 1)
    assert factors.per_node == pytest.approx(0.805040, abs=5e-4)
    assert factors.amplitude == pytest.approx(0.25, abs=1e-3)
    # Validate against the rows not used by the solver.
    for n in (4, 44):
        assert category_probability(factors, n) == pytest.approx(
            FLEXICHAIN_REFERENCE[n][0], rel=1e-3
        )


def test_back_solve_recovers_synthetic_factors_exactly():
    true = CategoryFactors(0.3, 0.9)
    table = {
        n: (category_probability(true, n),) * 4 + (4 * category_probability(true, n),)
        for n in TABULATED_N
    }
    solved = back_solve_factors(table, 1)
    assert solved.per_node == pytest.approx(0.9, abs=1e-9)
    assert solved.amplitude == pytest.approx(0.3, abs=1e-9)


def test_back_solve_rejects_bad_cells():
    table = {n: (0.0, 0.1, 0.1, 0.1, 0.3) for n in TABULATED_N}
    with pytest.raises(DomainError):
        back_solve_factors(table, 1)
    with pytest.raises(DomainError):
        back_solve_factors(BLOCKCHAIN_REFERENCE, 5)


@pytest.mark.parametrize(
    "table", [BLOCKCHAIN_REFERENCE, FLEXICHAIN_REFERENCE], ids=["blockchain", "flexichain"]
)
def test_held_out_rows_reproduce(table):
    # Factors come from rows {24, 64} (x) and row 4 (amplitude); rows 4 and
    # 44 must then reproduce within 1e-3 relative for every category.
    for category in range(1, 5):
        factors = back_solve_factors(table, category)
        for n in (4, 44):
            assert category_probability(factors, n) == pytest.approx(
                table[n][category - 1], rel=1e-3
            )


def test_compare_to_reference_clean_and_corrupted():
    assert compare_to_reference("blockchain", BLOCKCHAIN_REFERENCE) == []
    assert compare_to_reference("flexichain", FLEXICHAIN_REFERENCE) == []
    corrupted = {n: tuple(row) for n, row in BLOCKCHAIN_REFERENCE.items()}
    row = list(corrupted[44])
    row[1] = 0.5
    corrupted[44] = tuple(row)
    failures = compare_to_reference("blockchain", corrupted)
    assert any(f.n == 44 and f.column == "category2" for f in failures)


def test_three_way_ordering_claim():
    blockchain = computed_rows(BLOCKCHAIN_REFERENCE)
    flexichain = computed_rows(FLEXICHAIN_REFERENCE)
    for n in TABULATED_N:
        assert CENTRAL_REFERENCE[n] > BLOCKCHAIN_REFERENCE[n][4] > FLEXICHAIN_REFERENCE[n][4]
        assert CENTRAL_REFERENCE[n] > blockchain[n][4] > flexichain[n][4]


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_emit_tables_files_and_cells(tmp_path):
    paths = emit_tables(str(tmp_path))
    assert set(paths) == {"blockchain", "flexichain", "comparison"}

    rows = {int(r["n"]): r for r in read_csv(paths["blockchain"])}
    expected = (0.180269132, 0.230686174, 0.230686174, 0.117563132, 0.759204611)
    columns = ["category1", "category2", "category3", "category4", "summation"]
    for column, value in zip(columns, expected):
        assert float(rows[4][column]) == pytest.approx(value, rel=1e-3)

    fc_rows = {int(r["n"]): r for r in read_csv(paths["flexichain"])}
    assert float(fc_rows[24]["summation"]) == pytest.approx(0.004395813, rel=1e-2)

    comparison = {int(r["n"]): r for r in read_csv(paths["comparison"])}
    assert float(comparison[64]["central"]) == 0.332009476  # exact
    for n in TABULATED_N:
        row = comparison[n]
        assert float(row["central"]) > float(row["blockchain"]) > float(row["flexichain"])


def test_emitted_summation_consistency(tmp_path):
    paths = emit_tables(str(tmp_path))
    for name in ("blockchain", "flexichain"):
        for row in read_csv(paths[name]):
            cells = [float(row[f"category{i}"]) for i in range(1, 5)]
            assert math.isclose(sum(cells), float(row["summation"]), abs_tol=1e-12)


def test_emitted_values_round_trip_full_precision(tmp_path):
    paths = emit_tables(str(tmp_path))
    rows = computed_rows(BLOCKCHAIN_REFERENCE)
    for row in read_csv(paths["blockchain"]):
        n = int(row["n"])
        for i in range(1, 5):
            assert float(row[f"category{i}"]) == rows[n][i - 1]
