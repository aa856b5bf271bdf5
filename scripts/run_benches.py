#!/usr/bin/env python3
"""Run every bench binary and collect its metrics into BENCH_*.json.

Each bench prints a human-readable report table, optional
machine-readable ``JFM_PARALLEL_CHECKOUT`` (and similar ``JFM_*``)
lines, and one
``JFM_METRICS <name> <json>`` line carrying the full telemetry
registry snapshot (counters / gauges / histograms). This harness:

1. discovers ``bench_*`` executables under ``<build-dir>/bench``;
2. runs each one (``--quick`` skips the google-benchmark micro-timings
   so the whole sweep finishes in seconds);
3. writes one ``BENCH_<name>.json`` blob per binary into the repo root
   (the blobs are checked in: EXPERIMENTS.md cites them);
4. with ``--check-cow-speedup``, gates on the s3.6 bench's COW section:
   the cold ``copy_file`` batch at the largest payload must beat the
   ``cow_extents=false`` ablation by ``--min-cow-speedup`` (default
   10x);
5. with ``--check-index-speedup``, gates on the OMS query bench: the
   indexed ``find_one`` at 100k objects must beat the ``indexes_off``
   ablation by ``--min-index-speedup`` (default 10x);
6. with ``--check-fault-overhead``, gates on the fault-recovery bench:
   its ``disabled_warm`` time (the fault-tolerant export path with
   injection disarmed) must stay within ``--max-fault-overhead``
   (default 2%) of the checkout bench's ``warm`` time -- the two
   binaries run the byte-identical workload, so a drift here means the
   disarmed hook points grew a real cost. ``--fault-overhead-slack-us``
   absorbs scheduler noise on very fast warm batches;
7. with ``--check-warm-speedup``, gates on the zero-rehash warm path:
   the warm run must beat the cold run by ``--min-warm-speedup``
   (default 2x), both for the raw ``export_batch`` rows (cold / warm)
   and for the end-to-end ``checkout_hierarchy`` rows (hier_cold /
   hier_warm). The warm side answers from hash memos and should touch
   zero payload bytes (the bench aborts on its own if it does not);
8. with ``--check-incremental-speedup``, gates on the change-feed
   delta path (docs/incremental-checkout.md): at 1% churn the
   incremental ``checkout_hierarchy`` must beat the full warm walk by
   ``--min-incremental-speedup`` (default 5x), and the
   ``coupling.checkout.skipped.count`` counter must be non-zero --
   proof the delta path really skipped unchanged cellviews rather than
   walking everything;
9. with ``--check-wal-overhead``, gates on the durable-OMS bench
   (docs/persistence.md): the group-commit WAL mode must keep its
   commit-path wall-time within ``--max-wal-overhead`` (default 15%)
   of the ``durability=off`` ablation. All three modes run the
   byte-identical mutation sequence, so the ratio measures only the
   journalling tax.

Each gate compares two rows that one bench measured on one thread,
so every bar holds on any core count.

Exit status 0 = all benches ran (and the gates passed); 1 otherwise.
stdlib only.
"""

import argparse
import json
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

METRICS_RE = re.compile(r"^JFM_METRICS\s+(\S+)\s+(\{.*\})\s*$")
CHECKOUT_RE = re.compile(
    r"^JFM_PARALLEL_CHECKOUT\s+mode=(\w+)\s+wall_us=(\d+)"
    r"\s+bytes=(\d+)\s+speedup=([\d.]+)\s*$")
META_RE = re.compile(
    r"^JFM_PARALLEL_CHECKOUT_META\s+dovs=(\d+)\s+payload_bytes=(\d+)\s*$")
OMS_QUERY_RE = re.compile(
    r"^JFM_OMS_QUERY\s+size=(\d+)\s+mode=(\w+)\s+op=(\w+)\s+ns_per_op=(\d+)\s*$")
OMS_QUERY_META_RE = re.compile(
    r"^JFM_OMS_QUERY_META\s+sizes=(\d+)\s+find_one_speedup_100k=([\d.]+)\s*$")
FAULT_RE = re.compile(
    r"^JFM_FAULT_RECOVERY\s+mode=(\w+)\s+wall_us=(\d+)"
    r"\s+retries=(\d+)\s+rollbacks=(\d+)\s+injected=(\d+)\s*$")
FAULT_META_RE = re.compile(
    r"^JFM_FAULT_RECOVERY_META\s+dovs=(\d+)"
    r"\s+payload_bytes=(\d+)\s+armed_ratio=([\d.]+)\s*$")
COW_RE = re.compile(
    r"^JFM_S36_COW\s+size=(\d+)\s+mode=(\w+)\s+wall_us=(\d+)"
    r"\s+copies=(\d+)\s+physical_bytes=(\d+)\s*$")
COW_META_RE = re.compile(
    r"^JFM_S36_COW_META\s+largest_size=(\d+)\s+copies=(\d+)"
    r"\s+cold_copy_speedup=([\d.]+)\s*$")
INCR_RE = re.compile(
    r"^JFM_INCR\s+churn_pct=(\d+)\s+mode=(\w+)\s+wall_us=(\d+)"
    r"\s+requests=(\d+)\s+skipped=(\d+)\s+feed=(\d+)\s+speedup=([\d.]+)\s*$")
INCR_META_RE = re.compile(
    r"^JFM_INCR_META\s+cells=(\d+)\s+views=(\d+)\s+incr_speedup_1pct=([\d.]+)\s*$")
WAL_RE = re.compile(
    r"^JFM_WAL\s+mode=(\w+)\s+commits=(\d+)\s+wall_us=(\d+)\s+ns_per_commit=(\d+)"
    r"\s+wal_bytes=(\d+)\s+flushes=(\d+)\s*$")
WAL_META_RE = re.compile(
    r"^JFM_WAL_META\s+commits=(\d+)\s+group=(\d+)\s+overhead_wal=(-?[\d.]+)"
    r"\s+overhead_group=(-?[\d.]+)\s*$")
STA_RE = re.compile(
    r"^JFM_STA\s+cells=(\d+)\s+signals=(\d+)\s+gates=(\d+)\s+runs=(\d+)"
    r"\s+report_timing_us=(\d+)\s+resolve_parse_us=(\d+)\s+elaborate_us=(\d+)"
    r"\s+timing_us=(\d+)\s*$")


def discover(build_dir):
    bench_dir = os.path.join(build_dir, "bench")
    if not os.path.isdir(bench_dir):
        return []
    found = []
    for entry in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, entry)
        if entry.startswith("bench_") and os.path.isfile(path) and os.access(path, os.X_OK):
            found.append(path)
    return found


def run_bench(path, quick):
    argv = [path]
    if quick:
        # a filter nothing matches: the report table and the metrics
        # line still print, the micro-timings are skipped
        argv.append("--benchmark_filter=__quick_skip__")
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=REPO)
    return proc


def parse_output(text):
    """Split a bench's stdout into its machine-readable pieces."""
    metrics = None
    rows = []
    meta = None
    query_rows = []
    query_meta = None
    fault_rows = []
    fault_meta = None
    cow_rows = []
    cow_meta = None
    incr_rows = []
    incr_meta = None
    wal_rows = []
    wal_meta = None
    sta_rows = []
    for line in text.splitlines():
        m = METRICS_RE.match(line)
        if m:
            try:
                metrics = json.loads(m.group(2))
            except json.JSONDecodeError:
                metrics = None
            continue
        m = CHECKOUT_RE.match(line)
        if m:
            rows.append({
                "mode": m.group(1),
                "wall_us": int(m.group(2)),
                "bytes": int(m.group(3)),
                "speedup": float(m.group(4)),
            })
            continue
        m = META_RE.match(line)
        if m:
            meta = {
                "dovs": int(m.group(1)),
                "payload_bytes": int(m.group(2)),
            }
            continue
        m = OMS_QUERY_RE.match(line)
        if m:
            query_rows.append({
                "size": int(m.group(1)),
                "mode": m.group(2),
                "op": m.group(3),
                "ns_per_op": int(m.group(4)),
            })
            continue
        m = OMS_QUERY_META_RE.match(line)
        if m:
            query_meta = {
                "sizes": int(m.group(1)),
                "find_one_speedup_100k": float(m.group(2)),
            }
            continue
        m = FAULT_RE.match(line)
        if m:
            fault_rows.append({
                "mode": m.group(1),
                "wall_us": int(m.group(2)),
                "retries": int(m.group(3)),
                "rollbacks": int(m.group(4)),
                "injected": int(m.group(5)),
            })
            continue
        m = FAULT_META_RE.match(line)
        if m:
            fault_meta = {
                "dovs": int(m.group(1)),
                "payload_bytes": int(m.group(2)),
                "armed_ratio": float(m.group(3)),
            }
            continue
        m = COW_RE.match(line)
        if m:
            cow_rows.append({
                "size": int(m.group(1)),
                "mode": m.group(2),
                "wall_us": int(m.group(3)),
                "copies": int(m.group(4)),
                "physical_bytes": int(m.group(5)),
            })
            continue
        m = COW_META_RE.match(line)
        if m:
            cow_meta = {
                "largest_size": int(m.group(1)),
                "copies": int(m.group(2)),
                "cold_copy_speedup": float(m.group(3)),
            }
            continue
        m = INCR_RE.match(line)
        if m:
            incr_rows.append({
                "churn_pct": int(m.group(1)),
                "mode": m.group(2),
                "wall_us": int(m.group(3)),
                "requests": int(m.group(4)),
                "skipped": int(m.group(5)),
                "feed": int(m.group(6)),
                "speedup": float(m.group(7)),
            })
            continue
        m = INCR_META_RE.match(line)
        if m:
            incr_meta = {
                "cells": int(m.group(1)),
                "views": int(m.group(2)),
                "incr_speedup_1pct": float(m.group(3)),
            }
            continue
        m = WAL_RE.match(line)
        if m:
            wal_rows.append({
                "mode": m.group(1),
                "commits": int(m.group(2)),
                "wall_us": int(m.group(3)),
                "ns_per_commit": int(m.group(4)),
                "wal_bytes": int(m.group(5)),
                "flushes": int(m.group(6)),
            })
            continue
        m = WAL_META_RE.match(line)
        if m:
            wal_meta = {
                "commits": int(m.group(1)),
                "group": int(m.group(2)),
                "overhead_wal": float(m.group(3)),
                "overhead_group": float(m.group(4)),
            }
            continue
        m = STA_RE.match(line)
        if m:
            keys = ("cells", "signals", "gates", "runs", "report_timing_us",
                    "resolve_parse_us", "elaborate_us", "timing_us")
            sta_rows.append({key: int(value) for key, value in zip(keys, m.groups())})
    return (metrics, rows, meta, query_rows, query_meta, fault_rows, fault_meta,
            cow_rows, cow_meta, incr_rows, incr_meta, wal_rows, wal_meta, sta_rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory (default: build)")
    parser.add_argument("--quick", action="store_true",
                        help="skip google-benchmark micro-timings")
    parser.add_argument("--check-index-speedup", action="store_true",
                        help="fail unless indexed find_one at 100k objects beats the "
                             "indexes_off ablation by --min-index-speedup")
    parser.add_argument("--min-index-speedup", type=float, default=10.0,
                        help="required 100k find_one speedup over the ablation (default: 10.0)")
    parser.add_argument("--check-cow-speedup", action="store_true",
                        help="fail unless the COW cold copy_file batch at the largest "
                             "payload beats the cow-off ablation by --min-cow-speedup")
    parser.add_argument("--min-cow-speedup", type=float, default=10.0,
                        help="required largest-size cold-copy speedup over the "
                             "cow_extents=false ablation (default: 10.0)")
    parser.add_argument("--check-fault-overhead", action="store_true",
                        help="fail if the fault-tolerant warm path (injection disarmed) "
                             "exceeds the checkout bench's warm baseline by more than "
                             "--max-fault-overhead")
    parser.add_argument("--max-fault-overhead", type=float, default=0.02,
                        help="allowed warm-path overhead ratio with faults disabled "
                             "(default: 0.02 = 2%%)")
    parser.add_argument("--check-warm-speedup", action="store_true",
                        help="fail unless the warm checkout beats cold by "
                             "--min-warm-speedup, for both the export_batch and the "
                             "checkout_hierarchy row pairs")
    parser.add_argument("--min-warm-speedup", type=float, default=2.0,
                        help="required cold/warm wall-time ratio (default: 2.0)")
    parser.add_argument("--check-incremental-speedup", action="store_true",
                        help="fail unless the change-feed delta checkout beats the full "
                             "warm walk by --min-incremental-speedup at 1%% churn, with "
                             "a non-zero coupling.checkout.skipped.count in the metrics")
    parser.add_argument("--min-incremental-speedup", type=float, default=5.0,
                        help="required 1%%-churn delta-vs-full-walk wall-time ratio "
                             "(default: 5.0)")
    parser.add_argument("--check-wal-overhead", action="store_true",
                        help="fail unless the durable store with group commit stays "
                             "within --max-wal-overhead of the volatile (durability "
                             "off) baseline on the WAL bench's commit workload")
    parser.add_argument("--max-wal-overhead", type=float, default=0.15,
                        help="allowed group-commit wall-time overhead ratio vs the "
                             "durability-off baseline (default: 0.15 = 15%%)")
    parser.add_argument("--fault-overhead-slack-us", type=int, default=500,
                        help="absolute noise allowance on top of the ratio, in "
                             "microseconds (default: 500)")
    parser.add_argument("--out-dir", default=REPO,
                        help="where BENCH_*.json blobs go (default: repo root)")
    args = parser.parse_args()

    build_dir = args.build_dir if os.path.isabs(args.build_dir) \
        else os.path.join(REPO, args.build_dir)
    benches = discover(build_dir)
    if not benches:
        print(f"run_benches: no bench_* executables under {build_dir}/bench "
              f"(build with -DJFM_BUILD_BENCHES=ON)", file=sys.stderr)
        return 1

    failures = []
    checkout_rows = []
    oms_query_rows, oms_query_meta = [], None
    fault_rows = []
    cow_rows, cow_meta = [], None
    incr_rows, incr_meta, incr_metrics = [], None, None
    wal_rows, wal_meta = [], None
    for path in benches:
        name = os.path.basename(path)
        proc = run_bench(path, args.quick)
        if proc.returncode != 0:
            failures.append(f"{name}: exit {proc.returncode}")
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            continue
        (metrics, rows, meta, query_rows, query_meta, f_rows, f_meta,
         c_rows, c_meta, i_rows, i_meta, w_rows, w_meta, s_rows) = parse_output(proc.stdout)
        blob = {
            "bench": name,
            "quick": args.quick,
            "metrics": metrics,
        }
        if rows:
            blob["parallel_checkout"] = {"runs": rows, "meta": meta}
            checkout_rows = rows
        if query_rows:
            blob["oms_query"] = {"runs": query_rows, "meta": query_meta}
            oms_query_rows, oms_query_meta = query_rows, query_meta
        if f_rows:
            blob["fault_recovery"] = {"runs": f_rows, "meta": f_meta}
            fault_rows = f_rows
        if c_rows:
            blob["s36_cow"] = {"runs": c_rows, "meta": c_meta}
            cow_rows, cow_meta = c_rows, c_meta
        if i_rows:
            blob["incremental"] = {"runs": i_rows, "meta": i_meta}
            incr_rows, incr_meta, incr_metrics = i_rows, i_meta, metrics
        if w_rows:
            blob["wal_overhead"] = {"runs": w_rows, "meta": w_meta}
            wal_rows, wal_meta = w_rows, w_meta
        if s_rows:
            blob["s33_sta"] = {"runs": s_rows}
        out = os.path.join(args.out_dir, f"BENCH_{name}.json")
        with open(out, "w") as fh:
            json.dump(blob, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"run_benches: {name} ok -> {os.path.relpath(out, REPO)}")

    if args.check_index_speedup:
        if not oms_query_rows:
            failures.append("index gate: no JFM_OMS_QUERY output found")
        else:
            by_mode = {r["mode"]: r["ns_per_op"] for r in oms_query_rows
                       if r["size"] == 100000 and r["op"] == "find_one"}
            if "indexed" not in by_mode or "indexes_off" not in by_mode:
                failures.append("index gate: missing 100k find_one rows")
            else:
                speedup = by_mode["indexes_off"] / max(1, by_mode["indexed"])
                if speedup < args.min_index_speedup:
                    failures.append(
                        f"index gate: 100k find_one speedup {speedup:.1f}x "
                        f"< required {args.min_index_speedup:.1f}x")
                else:
                    print(f"run_benches: index gate ok "
                          f"({speedup:.1f}x >= {args.min_index_speedup:.1f}x at 100k)")

    if args.check_cow_speedup:
        if cow_meta is None:
            failures.append("cow gate: no JFM_S36_COW_META output found")
        elif cow_meta["cold_copy_speedup"] < args.min_cow_speedup:
            failures.append(
                f"cow gate: largest-size cold copy speedup "
                f"{cow_meta['cold_copy_speedup']:.1f}x < required "
                f"{args.min_cow_speedup:.1f}x "
                f"(size={cow_meta['largest_size']})")
        else:
            print(f"run_benches: cow gate ok "
                  f"({cow_meta['cold_copy_speedup']:.1f}x >= "
                  f"{args.min_cow_speedup:.1f}x at {cow_meta['largest_size']} B)")

    if args.check_warm_speedup:
        if not checkout_rows:
            failures.append("warm gate: no JFM_PARALLEL_CHECKOUT output found")
        else:
            pairs = [("cold", "warm"), ("hier_cold", "hier_warm")]
            wall = {r["mode"]: r["wall_us"] for r in checkout_rows}
            for cold_mode, warm_mode in pairs:
                if cold_mode not in wall or warm_mode not in wall:
                    failures.append(f"warm gate: missing {cold_mode}/{warm_mode} rows")
                    continue
                ratio = wall[cold_mode] / max(1, wall[warm_mode])
                if ratio < args.min_warm_speedup:
                    failures.append(
                        f"warm gate: {warm_mode} {wall[warm_mode]} us is only "
                        f"{ratio:.2f}x faster than {cold_mode} {wall[cold_mode]} us "
                        f"(required {args.min_warm_speedup:.2f}x)")
                else:
                    print(f"run_benches: warm gate ok ({cold_mode} {wall[cold_mode]} us "
                          f"/ {warm_mode} {wall[warm_mode]} us = {ratio:.2f}x >= "
                          f"{args.min_warm_speedup:.2f}x)")

    if args.check_incremental_speedup:
        incr1 = [r for r in incr_rows
                 if r["churn_pct"] == 1 and r["mode"] == "incr"]
        if not incr1:
            failures.append("incremental gate: no churn_pct=1 incr JFM_INCR row")
        else:
            row = incr1[0]
            skipped_counter = ((incr_metrics or {}).get("counters") or {}).get(
                "coupling.checkout.skipped.count", 0)
            if row["speedup"] < args.min_incremental_speedup:
                failures.append(
                    f"incremental gate: 1%-churn delta speedup {row['speedup']:.2f}x "
                    f"< required {args.min_incremental_speedup:.2f}x "
                    f"(delta {row['wall_us']} us)")
            elif row["skipped"] == 0 or skipped_counter == 0:
                failures.append(
                    f"incremental gate: delta ran but skipped nothing "
                    f"(row skipped={row['skipped']}, "
                    f"coupling.checkout.skipped.count={skipped_counter})")
            else:
                print(f"run_benches: incremental gate ok "
                      f"({row['speedup']:.2f}x >= "
                      f"{args.min_incremental_speedup:.2f}x at 1% churn, "
                      f"{skipped_counter} cellviews skipped)")

    if args.check_wal_overhead:
        if wal_meta is None:
            failures.append("wal gate: no JFM_WAL_META output found")
        elif wal_meta["overhead_group"] > args.max_wal_overhead:
            group_row = next((r for r in wal_rows if r["mode"] == "wal_group"), None)
            detail = (f" (wal_group {group_row['ns_per_commit']} ns/commit)"
                      if group_row else "")
            failures.append(
                f"wal gate: group-commit overhead "
                f"{wal_meta['overhead_group']:.1%} vs durability-off baseline "
                f"exceeds {args.max_wal_overhead:.0%}"
                f" (group={wal_meta['group']}){detail}")
        else:
            print(f"run_benches: wal gate ok "
                  f"(group-commit overhead {wal_meta['overhead_group']:.1%} <= "
                  f"{args.max_wal_overhead:.0%}, "
                  f"plain wal {wal_meta['overhead_wal']:.1%}, "
                  f"group={wal_meta['group']})")

    if args.check_fault_overhead:
        disabled = [r for r in fault_rows if r["mode"] == "disabled_warm"]
        baseline = [r for r in checkout_rows if r["mode"] == "warm"]
        if not disabled:
            failures.append("fault gate: no disabled_warm JFM_FAULT_RECOVERY row")
        elif not baseline:
            failures.append("fault gate: no warm JFM_PARALLEL_CHECKOUT baseline")
        else:
            limit = baseline[0]["wall_us"] * (1.0 + args.max_fault_overhead) \
                + args.fault_overhead_slack_us
            got = disabled[0]["wall_us"]
            if got > limit:
                failures.append(
                    f"fault gate: disarmed warm path {got} us exceeds "
                    f"{limit:.0f} us (baseline {baseline[0]['wall_us']} us "
                    f"+ {args.max_fault_overhead:.0%} + "
                    f"{args.fault_overhead_slack_us} us slack)")
            else:
                print(f"run_benches: fault-overhead gate ok ({got} us vs "
                      f"baseline {baseline[0]['wall_us']} us, "
                      f"limit {limit:.0f} us)")

    for failure in failures:
        print(f"run_benches: FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
