"""Micro-benchmarks for the fused enumeration kernel.

Times the kernel primitives against their pre-kernel reference shims on
real conditional tables drawn from the LC workload, plus the end-to-end
engine comparison (the production engine vs ``engine="reference"``) on
one Figure-10 sweep point.  The committed regression gate lives in
``benchmarks/perf_gate.py``; these benchmarks are for profiling the
individual primitives when the gate moves.
"""

import pytest

from repro.core.enumeration import extend_items, scan_items
from repro.core.farmer import Farmer
from repro.core.constraints import Constraints
from repro.core.kernel import CondTable
from repro.data.transpose import TransposedTable

BENCH_MINSUP = 10


@pytest.fixture(scope="module")
def lc_tables(workloads):
    """The LC root conditional table, support-sorted and in item order,
    plus one row bit per row."""
    workload = workloads["LC"]
    transposed = TransposedTable.build(workload.data, workload.consequent)
    item_masks = list(transposed.item_masks)
    full = transposed.all_rows_mask
    table = CondTable.build(item_masks, full)
    item_order = CondTable.build(item_masks, full, by_support=False)
    row_bits = [1 << row for row in range(workload.data.n_rows)]
    return table, item_order, row_bits, full


def test_kernel_fused_extend(benchmark, lc_tables):
    """Fused extend+scan: one pass builds child table and scan results."""
    table, _, row_bits, _ = lc_tables

    def run():
        return [table.extend(bit).inter for bit in row_bits]

    inters = benchmark(run)
    assert len(inters) == len(row_bits)


def test_reference_extend_then_scan(benchmark, lc_tables):
    """Pre-kernel cost model: separate extend and scan passes."""
    table, _, row_bits, full = lc_tables
    item_ids, item_masks = table.item_ids, table.masks

    def run():
        results = []
        for bit in row_bits:
            _, masks = extend_items(item_ids, item_masks, bit)
            intersection, _ = scan_items(masks, full)
            results.append(intersection)
        return results

    inters = benchmark(run)
    assert len(inters) == len(row_bits)


def test_kernel_bound_scan_early_exit(benchmark, lc_tables):
    """Pruning-3 bound scan with the support-descending early exit."""
    table, _, row_bits, _ = lc_tables
    cand = row_bits[0] | row_bits[-1]

    def run():
        return [table.max_overlap(cand | bit) for bit in row_bits]

    benchmark(run)


def test_reference_bound_scan_item_order(benchmark, lc_tables):
    """The reference engine's bound scan: item order, so the exit on
    saturation comes as late as that order puts the first saturating
    tuple."""
    _, item_order, row_bits, _ = lc_tables
    cand = row_bits[0] | row_bits[-1]

    def run():
        return [item_order.max_overlap(cand | bit) for bit in row_bits]

    benchmark(run)


def _mine(workload, engine):
    return Farmer(
        constraints=Constraints(minsup=BENCH_MINSUP), engine=engine
    ).mine(workload.data, workload.consequent)


def test_mine_kernel_engine(benchmark, workloads):
    """End-to-end FARMER mine on LC with the production engine."""
    result = benchmark(lambda: _mine(workloads["LC"], None))
    assert result.groups


def test_mine_reference_engine(benchmark, workloads):
    """End-to-end FARMER mine on LC with the pre-kernel cost model."""
    result = benchmark.pedantic(
        lambda: _mine(workloads["LC"], "reference"), rounds=3
    )
    assert result.groups
