"""Section 7.3 in miniature: full TPC-C under rising concurrency.

    python examples/tpcc_contention.py

Every NewOrder increments one of ten district counters; every Payment
updates the single warehouse total that all NewOrders also read-share.
Watch 2PL and OCC collapse as concurrent transactions per warehouse
increase while Chiller — same warehouse partitioning, two-region
execution — keeps climbing with a near-zero abort rate (Figs. 9a/9b),
and watch Payment starve under 2PL (Fig. 9c).
"""

from repro.bench.experiments import fig9_rows

CONCURRENCY = (1, 2, 4, 8)


def main():
    rows = fig9_rows(concurrency=CONCURRENCY, quick=True)

    print(f"{'conc':>4} | {'throughput (K txns/s)':^28} | "
          f"{'abort rate':^22}")
    print(f"{'':>4} | {'2pl':>8} {'occ':>8} {'chiller':>9} | "
          f"{'2pl':>6} {'occ':>6} {'chiller':>8}")
    for row in rows:
        print(f"{row['concurrent']:>4} | "
              f"{row['2pl_throughput'] / 1e3:>8.0f} "
              f"{row['occ_throughput'] / 1e3:>8.0f} "
              f"{row['chiller_throughput'] / 1e3:>9.0f} | "
              f"{row['2pl_abort_rate']:>6.2f} "
              f"{row['occ_abort_rate']:>6.2f} "
              f"{row['chiller_abort_rate']:>8.2f}")

    print("\nPayment starvation under 2PL (Fig. 9c):")
    print(f"{'conc':>4} {'new_order':>10} {'payment':>9} "
          f"{'stock_level':>12}")
    for row in rows:
        print(f"{row['concurrent']:>4} "
              f"{row['2pl_new_order_abort']:>10.2f} "
              f"{row['2pl_payment_abort']:>9.2f} "
              f"{row['2pl_stock_level_abort']:>12.2f}")


if __name__ == "__main__":
    main()
