"""Report rendering: every table is emitted as CSV plus an aligned text view."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Mapping, Sequence

from .appendlog import replace_file
from .footprint import FootprintRow
from .metrics import CoverageTable, ReferenceComparison, SimilarityMatrix


def ratio(numerator: int, denominator: int) -> str:
    """Counts formatted like the published tables, with thousands separators."""
    return f"{numerator:,}/{denominator:,}"


def fmt4(value: float) -> str:
    return f"{value:.4f}"


def fmt2(value: float) -> str:
    return f"{value:.2f}"


def render_csv(
    header: Sequence[str], rows: Sequence[Sequence[object]], lineterminator: str = "\n"
) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=lineterminator)
    writer.writerow(header)
    for row in rows:
        writer.writerow(list(row))
    return buffer.getvalue()


def render_aligned(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    table = [list(map(str, header))] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[col]) for row in table) for col in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def report_files(directory: str | Path, *names: str) -> tuple[Path, ...]:
    """The CSV and the aligned text file `write_report` writes for each of ``names``."""
    return tuple(Path(directory, name + suffix) for name in names for suffix in (".csv", ".txt"))


def write_report(
    directory: str | Path,
    name: str,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> None:
    Path(directory).mkdir(parents=True, exist_ok=True)
    csv_path, text_path = report_files(directory, name)
    replace_file(csv_path, [render_csv(header, rows)])
    replace_file(text_path, [render_aligned(header, rows)])


def agreement_rows(
    stats: Sequence[tuple[str, int, int, float]]
) -> tuple[list[str], list[list[str]]]:
    """Per-endpoint agreement with a reference: (endpoint, agree, total, kappa)."""
    header = ["endpoint", "agreements", "kappa"]
    rows = [[name, ratio(agree, total), fmt4(kappa)] for name, agree, total, kappa in stats]
    return header, rows


def reference_rows(comparison: ReferenceComparison) -> tuple[list[str], list[list[str]]]:
    header = ["variable", "agreements"]
    rows = [[variable, ratio(agree, total)] for variable, agree, total in comparison.rows]
    total_agree, total_n = comparison.total
    rows.append(["Total", ratio(total_agree, total_n)])
    return header, rows


def coverage_rows(
    coverage: CoverageTable, question_texts: Mapping[int, str] | None = None
) -> tuple[list[str], list[list[str]]]:
    header = ["cq_id", "question", "publications_with_info", "publications_with_info_after_filtering"]
    texts = question_texts or {}
    rows = []
    for row in coverage.rows:
        rows.append(
            [
                str(row.cq_id),
                texts.get(row.cq_id, ""),
                ratio(row.yes_before, row.total_before),
                ratio(row.yes_after, row.total_after),
            ]
        )
    totals = coverage.totals
    rows.append(
        [
            "Total",
            "Total for all queries",
            ratio(totals.yes_before, totals.total_before),
            ratio(totals.yes_after, totals.total_after),
        ]
    )
    return header, rows


def pair_rows(
    before: SimilarityMatrix,
    after: SimilarityMatrix | None,
    value_name: str,
) -> tuple[list[str], list[list[str]]]:
    """Upper-triangle pairs of two matrices (e.g. before/after filtering)."""
    header = ["pair", f"{value_name}_all_publications"]
    if after is not None:
        header.append(f"{value_name}_after_filtering")
    rows = []
    for a, b, value in before.pairs():
        row = [f"{a} - {b}", fmt4(value)]
        if after is not None:
            row.append(fmt4(after.pair(a, b)))
        rows.append(row)
    return header, rows


def footprint_rows(rows: Sequence[FootprintRow]) -> tuple[list[str], list[list[str]]]:
    header = ["stage", "runtime_h", "energy_kwh", "carbon_kg", "tree_months"]
    out = [
        [row.stage, fmt2(row.runtime_h), fmt2(row.energy_kwh), fmt2(row.carbon_kg), fmt2(row.tree_months)]
        for row in rows
    ]
    return header, out
