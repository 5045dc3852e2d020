#!/usr/bin/env python3
"""Compare bench JSON runs against the committed baseline.

Used by the CI perf-regression job (see .github/workflows/ci.yml) and by
hand when investigating a regression. The baseline holds cells from BOTH
bench_batch_ingest (the write path) and bench_range_queries (the read
path: scan/seek/find/mjoin series); pass each fresh run via a repeated
``--current`` flag and the cells are merged before diffing. Two metric
families, because CI runners are not the machine the baseline was recorded
on:

* DAM metrics (``transfers_per_op``, ``modeled_rate``) are DETERMINISTIC —
  same code, same seed, same N gives bit-identical counts on any machine —
  so ``transfers_per_op`` is compared EXACTLY: any difference from the
  baseline, up or down, fails the cell. A change that moves modeled
  transfers on purpose must refresh the baseline in the same change.

* Wall-clock rates are machine-dependent, so raw rates are never compared
  across machines. Instead each (structure, order) series is normalized to
  its own batch=1 cell — the batch-speedup curve — and THAT shape is
  compared. A slower runner scales every cell equally and cancels out; a
  real regression (a batch path losing its advantage) does not.

Exit status: 0 clean, 1 regression found, 2 usage/parse error.

Regenerating the baseline (after an intentional perf change)::

    cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-rel -j --target bench_batch_ingest
    REPRO_MAXN=$((1<<18)) \
    REPRO_STRUCTS=cola,cola-g2,cola-g4,cola-g8,cola-g16,cola-g8-bg1,cola-g8-bg2,cola-g8-wal,cola-g8-wal-always,cola-g8-wal-never \
        ./build-rel/bench/bench_batch_ingest \
        --json-out bench/baselines/BENCH_baseline.json

The ``cola-g8-wal*`` arms ingest through the durable tier (real WAL +
segment spills under ``$TMPDIR``); their wall rates depend on the
filesystem as well as the machine, so they are tracked for presence and
reported, never shape-compared. The ``shard-cola-g8-find`` arms (from
bench_concurrent_ingest: a find() storm racing the timed ingest) are
handled the same way — their under-ingest find rate depends on how many
cores the runner gives the reader thread, so presence is gated but the
batch curve (batch = shard count there) is excluded from the shape
comparison below. The ``*-bg<N>`` arms (background compaction,
``compaction_threads = N``) are excluded from the shape comparison for
the same reason: their wall curve depends on spare cores, not on the
merge code. Their DAM transfers ARE compared absolutely — the counting
models fold inline, so background arms must stay bit-identical to sync.

The stall gate (``--compaction-gate``) is a separate, current-run-only
check: at (random, batch=1024) the ``cola-g8-bg2`` arm must show a p99
apply_batch stall at least 5x lower than sync ``cola-g8``, wall
throughput at least 1.2x higher, and exactly equal transfers_per_op.
Enforced only on >= 4 cores — with fewer cores the pool worker just
contends with the writer and the ratios measure oversubscription.

or pass ``--update-baseline`` to this script to copy the current run over
the baseline file once you have eyeballed the report.
"""

import argparse
import json
import math
import os
import sys


def load_cells(path):
    """Load a JSON cell array from a bare file or raw bench stdout."""
    with open(path) as f:
        text = f.read()
    if "BEGIN_JSON" in text:
        text = text.split("BEGIN_JSON", 1)[1].split("END_JSON", 1)[0]
    cells = json.loads(text)
    if not isinstance(cells, list) or not cells:
        raise ValueError("no cells: empty or non-array JSON")
    out = {}
    for i, c in enumerate(cells):
        for k in ("structure", "order", "batch"):
            if k not in c:
                raise ValueError(
                    f"cell {i} lacks identity key '{k}' — truncated or "
                    f"hand-edited JSON; regenerate it (see --help)")
        out[(c["structure"], c["order"], c["batch"])] = c
    return out


def metric(cell, key, where):
    """A metric a comparison depends on; a clean exit-2 when absent.

    Cells written by an older bench binary (or trimmed by hand) can lack
    metrics the comparison needs; a bare KeyError traceback here reads as
    a broken CI script rather than what it is — a stale baseline.
    """
    if key not in cell:
        print(f"error: cell {where} lacks metric '{key}' — stale baseline or "
              f"trimmed run; regenerate the baseline (see --help)",
              file=sys.stderr)
        raise SystemExit(2)
    return cell[key]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True, help="committed baseline JSON")
    ap.add_argument("--current", required=True, action="append",
                    help="fresh run: bare JSON or raw bench stdout "
                         "(repeatable; cells from all runs are merged)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed relative degradation of the wall-clock "
                         "batch-speedup curves (default 0.15); modeled "
                         "transfers are always compared exactly")
    ap.add_argument("--update-baseline", action="store_true",
                    help="overwrite the baseline with the current run and exit")
    ap.add_argument("--compaction-gate", action="store_true",
                    help="gate cola-g8-bg2 vs cola-g8 at (random, 1024): "
                         "p99 stall >= 5x lower, wall rate >= 1.2x, "
                         "transfers bit-identical (>= 4 cores only)")
    args = ap.parse_args()

    current = {}
    for path in args.current:
        try:
            cells = load_cells(path)
        except (OSError, ValueError) as e:
            print(f"error: cannot load current run {path}: {e}", file=sys.stderr)
            return 2
        overlap = set(current) & set(cells)
        if overlap:
            print(f"error: {path} repeats cells already loaded: "
                  f"{sorted(overlap)[:4]}", file=sys.stderr)
            return 2
        current.update(cells)

    if args.update_baseline:
        cells = sorted(current.values(),
                       key=lambda c: (c["structure"], c["order"], c["batch"]))
        with open(args.baseline, "w") as f:
            json.dump(cells, f, indent=2)
            f.write("\n")
        print(f"baseline updated: {args.baseline} ({len(cells)} cells)")
        return 0

    try:
        baseline = load_cells(args.baseline)
    except (OSError, ValueError) as e:
        print(f"error: cannot load baseline: {e}", file=sys.stderr)
        return 2

    failures = []

    missing = sorted(set(baseline) - set(current))
    if missing:
        failures.append(f"cells missing from current run: {missing[:8]}"
                        + (" ..." if len(missing) > 8 else ""))

    # Deterministic DAM comparison, cell by cell and exact. Guard against
    # comparing runs of different N first: transfers/op grows with N, so a
    # baseline regenerated at the headline size would silently mask
    # regressions.
    for key in sorted(set(baseline) & set(current)):
        b, c = baseline[key], current[key]
        if b.get("n") != c.get("n"):
            print(f"error: {key}: baseline n={b.get('n')} vs current "
                  f"n={c.get('n')} — runs are not comparable", file=sys.stderr)
            return 2
        bt = metric(b, "transfers_per_op", f"baseline {key}")
        ct = metric(c, "transfers_per_op", f"current {key}")
        if ct != bt:
            failures.append(
                f"{key}: transfers_per_op {bt!r} -> {ct!r} (must be exactly "
                f"equal; refresh the baseline if the change is intended)")
        # Stall percentiles ride along in every batch>1 ingest cell the
        # current bench binaries write; losing them (an older binary, a
        # trimmed run) must fail loudly here rather than let the stall
        # gate below pass vacuously. Read-path cells (order scan/seek/
        # find/mjoin from bench_range_queries) never carry them.
        if (key[2] > 1 and key[1] in ("random", "sorted")
                and ("-bg" in key[0] or key[0] == "cola-g8")):
            for pk in ("p50_us", "p99_us", "p999_us"):
                metric(c, pk, f"current {key}")

    # Wall-clock shape comparison: batch-speedup curves per (structure, order),
    # aggregated as the geometric mean of per-batch ratio changes. Individual
    # cells at reduced N are noisy well past any useful threshold; a real
    # regression (a batch path losing its advantage) shifts the whole curve,
    # which the aggregate catches while single-cell jitter averages out.
    series = {}
    for (s, o, batch), cell in baseline.items():
        series.setdefault((s, o), {})[batch] = cell
    for (s, o), cells in sorted(series.items()):
        # The find-under-ingest arms DO have a batch=1 cell (batch is the
        # shard count), but their wall rate measures a reader thread racing
        # the writers — pure core-count, not code. Presence-gated above,
        # never shape-compared.
        if s.endswith("-find") and "shard" in s:
            continue
        # Background-compaction arms: the batch curve measures spare-core
        # availability (the pool worker racing the writer), not the merge
        # code. DAM transfers are compared absolutely above; the wall
        # behaviour is gated by --compaction-gate on capable runners.
        if "-bg" in s:
            continue
        base1 = cells.get(1)
        cur1 = current.get((s, o, 1))
        if not base1 or not cur1:
            continue
        base1_rate = metric(base1, "wall_rate", f"baseline ({s}, {o}, 1)")
        cur1_rate = metric(cur1, "wall_rate", f"current ({s}, {o}, 1)")
        if base1_rate <= 0 or cur1_rate <= 0:
            continue
        log_sum, count = 0.0, 0
        for batch, bcell in sorted(cells.items()):
            if batch == 1:
                continue
            ccell = current.get((s, o, batch))
            if not ccell:
                continue
            brate = metric(bcell, "wall_rate", f"baseline ({s}, {o}, {batch})")
            crate = metric(ccell, "wall_rate", f"current ({s}, {o}, {batch})")
            if brate <= 0 or crate <= 0:
                continue
            bratio = brate / base1_rate
            cratio = crate / cur1_rate
            log_sum += math.log(cratio / bratio)
            count += 1
        if count == 0:
            continue
        gm = math.exp(log_sum / count)
        if gm < 1 - args.threshold:
            failures.append(
                f"({s}, {o}): batch-speedup curve degraded {(gm - 1) * 100:.1f}% "
                f"(geomean over {count} batch sizes)")

    # Stall gate: background compaction must actually absorb the fold
    # stalls it promises. Current-run-only (both arms ran on the same
    # machine minutes apart, so raw wall numbers ARE comparable here,
    # unlike the cross-machine baseline comparison above).
    if args.compaction_gate:
        sync_key = ("cola-g8", "random", 1024)
        bg_key = ("cola-g8-bg2", "random", 1024)
        sync_c, bg_c = current.get(sync_key), current.get(bg_key)
        if not sync_c or not bg_c:
            print(f"error: --compaction-gate needs current cells {sync_key} "
                  f"and {bg_key}; run bench_batch_ingest with "
                  f"REPRO_STRUCTS=cola-g8,cola-g8-bg2 REPRO_ORDERS=random",
                  file=sys.stderr)
            return 2
        st = metric(sync_c, "transfers_per_op", f"current {sync_key}")
        gt = metric(bg_c, "transfers_per_op", f"current {bg_key}")
        sp99 = metric(sync_c, "p99_us", f"current {sync_key}")
        gp99 = metric(bg_c, "p99_us", f"current {bg_key}")
        sw = metric(sync_c, "wall_rate", f"current {sync_key}")
        gw = metric(bg_c, "wall_rate", f"current {bg_key}")
        # Transfer equality is deterministic (counting models fold inline),
        # so it is enforced on any machine.
        if gt != st:
            failures.append(
                f"compaction gate: transfers_per_op diverged — sync {st:.6f} "
                f"vs bg2 {gt:.6f} (must be bit-identical)")
        cores = os.cpu_count() or 1
        if cores >= 4:
            if gp99 <= 0 or sp99 < 5.0 * gp99:
                failures.append(
                    f"compaction gate: p99 apply_batch stall only "
                    f"{sp99 / gp99 if gp99 > 0 else float('inf'):.2f}x lower "
                    f"(sync {sp99:.1f}us vs bg2 {gp99:.1f}us; need >= 5x)")
            if gw < 1.2 * sw:
                failures.append(
                    f"compaction gate: wall throughput only {gw / sw:.2f}x "
                    f"sync ({sw:.0f} vs {gw:.0f} ops/s; need >= 1.2x)")
            if not failures:
                print(f"compaction gate OK: p99 {sp99 / gp99:.1f}x lower, "
                      f"throughput {gw / sw:.2f}x, transfers bit-identical")
        else:
            print(f"note: compaction stall/throughput gate skipped on "
                  f"{cores}-core host (needs >= 4 cores; the pool worker "
                  f"would just contend with the writer) — transfer "
                  f"equality still enforced")

    if failures:
        print(f"PERF REGRESSION ({len(failures)} finding(s), "
              f"threshold {args.threshold:.0%}):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"perf OK: {len(set(baseline) & set(current))} cells with "
          f"baseline transfers, wall curves within {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
