"""Attack-probability model and published reference tables.

The model: an attack of one category against an n-node network succeeds
with probability A * x**n, where A is the category's amplitude and x the
aggregate per-node compromise factor (the product of the per-node success
and credential-theft probabilities; for networks with identity hardware it
additionally folds in the module-key and vault-access factors). The total
exposure is the sum over the four categories: Sybil, phishing, majority
takeover, and key brute force.

The reference tables below are the published evaluation of this model for
three deployment styles -- central authority, plain blockchain, and
FlexiChain with NodeChain -- at n in {4, 24, 44, 64}. The underlying
per-category factors were not published; `back_solve_factors` recovers
them exactly from two rows, because A * x**n is invertible from two
points. The central-authority column has no published generating formula
and is served verbatim.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Mapping

from .errors import DomainError

#: The columns of a table row, as the CSVs name them.
COLUMNS = tuple(f"category{i}" for i in range(1, 5)) + ("summation",)

#: n -> (category 1..4, summation); reference values for a plain blockchain.
BLOCKCHAIN_REFERENCE: dict[int, tuple[float, ...]] = {
    4:  (0.180269132, 0.230686174, 0.230686174, 0.117563132, 0.759204611),
    24: (0.035142136, 0.154322535, 0.154322535, 0.002703503, 0.34649071),
    44: (0.0068507,   0.103237418, 0.103237418, 6.21702e-05, 0.213387706),
    64: (0.001335493, 0.069062917, 0.069062917, 1.42968e-06, 0.139462757),
}

#: n -> (category 1..4, summation); reference values for FlexiChain + NodeChain.
FLEXICHAIN_REFERENCE: dict[int, tuple[float, ...]] = {
    4:  (0.104995786, 0.111672675, 0.111672675, 0.068473361, 0.396814497),
    24: (0.001371928, 0.001459171, 0.001459171, 0.000105543, 0.004395813),
    44: (1.79263e-05, 1.90663e-05, 1.90663e-05, 1.62681e-07, 5.62215e-05),
    64: (2.34234e-07, 2.49129e-07, 2.49129e-07, 2.50753e-10, 7.32743e-07),
}

#: n -> total probability under a central authority; opaque reference data.
CENTRAL_REFERENCE: dict[int, float] = {
    4: 0.9675,
    24: 0.572781765,
    44: 0.428023172,
    64: 0.332009476,
}

#: The two modelled tables by name. `tables` and `montecarlo` report them in
#: this order, and `montecarlo` offsets each one's sampler seed by its position.
REFERENCES: dict[str, dict[int, tuple[float, ...]]] = {
    "blockchain": BLOCKCHAIN_REFERENCE,
    "flexichain": FLEXICHAIN_REFERENCE,
}

TABULATED_N = (4, 24, 44, 64)

#: Rows used to invert the model; the remaining rows then act as held-out checks.
SOLVE_ROWS = (24, 64)
ANCHOR_ROW = 4


@dataclass(frozen=True)
class CategoryFactors:
    """One attack category's model parameters."""

    amplitude: float
    per_node: float

    def __post_init__(self):
        if not 0.0 <= self.amplitude <= 1.0:
            raise DomainError("amplitude must be a probability")
        if not 0.0 <= self.per_node <= 1.0:
            raise DomainError("per-node factor must be a probability")


def category_probability(factors: CategoryFactors, n: int) -> float:
    """P(category succeeds) = A * x**n for an n-node network."""
    if n < 1:
        raise DomainError("node count must be at least 1")
    return factors.amplitude * factors.per_node**n


def back_solve_factors(
    table: Mapping[int, tuple[float, ...]], category: int
) -> CategoryFactors:
    """Recover (A, x) for one category from the reference rows.

    x comes from the ratio of the two solve rows; A from the anchor row.
    Both are clamped into [0, 1] to absorb table rounding.
    """
    if not 1 <= category <= 4:
        raise DomainError("category must be 1..4")
    col = category - 1
    n1, n2 = SOLVE_ROWS
    p1, p2 = table[n1][col], table[n2][col]
    p_anchor = table[ANCHOR_ROW][col]
    if p1 <= 0 or p2 <= 0 or p_anchor <= 0:
        raise DomainError("reference cells must be positive")
    x = (p2 / p1) ** (1.0 / (n2 - n1))
    x = min(max(x, 0.0), 1.0)
    amplitude = min(max(p_anchor / x**ANCHOR_ROW, 0.0), 1.0)
    return CategoryFactors(amplitude=amplitude, per_node=x)


def chain_factors(
    table: Mapping[int, tuple[float, ...]]
) -> tuple[CategoryFactors, ...]:
    """Back-solve all four categories of one reference table."""
    return tuple(back_solve_factors(table, c) for c in range(1, 5))


# ---------------------------------------------------------------------------
# Table reproduction and emission
# ---------------------------------------------------------------------------

CELL_TOLERANCE = 1e-3  # relative, per cell
SMALL_CELL = 1e-5
SMALL_SUM_TOLERANCE = 1e-2  # relative, for summations over rows with tiny cells


def computed_rows(
    table: Mapping[int, tuple[float, ...]]
) -> dict[int, tuple[float, ...]]:
    """Model rows (cat1..4 + summation) from the back-solved factors."""
    factors = chain_factors(table)
    rows = {}
    for n in TABULATED_N:
        cells = tuple(category_probability(f, n) for f in factors)
        rows[n] = cells + (sum(cells),)
    return rows


@dataclass(frozen=True)
class CellFailure:
    table: str
    n: int
    column: str
    computed: float
    reference: float
    tolerance: float

    def __str__(self) -> str:
        return (
            f"{self.table} n={self.n} {self.column}: computed {self.computed!r} "
            f"vs reference {self.reference!r} (tol {self.tolerance})"
        )


def compare_to_reference(
    name: str, table: Mapping[int, tuple[float, ...]]
) -> list[CellFailure]:
    """Check every computed cell against the reference at its tolerance."""
    failures = []
    rows = computed_rows(table)
    for n in TABULATED_N:
        ref_row = table[n]
        has_tiny = any(cell < SMALL_CELL for cell in ref_row[:4])
        for col_idx, column in enumerate(COLUMNS):
            tol = CELL_TOLERANCE
            if column == "summation" and has_tiny:
                tol = SMALL_SUM_TOLERANCE
            computed, reference = rows[n][col_idx], ref_row[col_idx]
            if not math.isclose(computed, reference, rel_tol=tol):
                failures.append(
                    CellFailure(name, n, column, computed, reference, tol)
                )
    return failures


def emit_tables(out_dir: str) -> dict[str, str]:
    """Write the three CSV files and return their paths by name.

    `blockchain_attack_probabilities.csv` and
    `flexichain_attack_probabilities.csv` carry the model rows computed
    from back-solved factors (columns: n, category1..category4,
    summation). `security_comparison.csv` carries the three-way totals
    (columns: n, central, blockchain, flexichain); the central column is
    the verbatim reference.
    """
    # Cells are written with repr: it round-trips exactly, always carries
    # full precision, and drops into scientific notation below 1e-4.
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    totals = {}
    for name, table in REFERENCES.items():
        rows = computed_rows(table)
        totals[name] = {n: rows[n][4] for n in TABULATED_N}
        path = os.path.join(out_dir, f"{name}_attack_probabilities.csv")
        with open(path, "w") as fh:
            fh.write(",".join(("n",) + COLUMNS) + "\n")
            for n in TABULATED_N:
                fh.write(",".join([str(n)] + [repr(v) for v in rows[n]]) + "\n")
        paths[name] = path

    comparison_path = os.path.join(out_dir, "security_comparison.csv")
    with open(comparison_path, "w") as fh:
        fh.write("n,central,blockchain,flexichain\n")
        for n in TABULATED_N:
            fh.write(
                ",".join(
                    [
                        str(n),
                        repr(CENTRAL_REFERENCE[n]),
                        repr(totals["blockchain"][n]),
                        repr(totals["flexichain"][n]),
                    ]
                )
                + "\n"
            )
    paths["comparison"] = comparison_path
    return paths
