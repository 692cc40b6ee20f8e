#!/usr/bin/env python3
"""Compare a fresh bench_all JSON report against the committed baseline.

Two layers of checking:

1. Structure / coverage (always hard-fail):
   - schema_version must match,
   - every (bench, device) rollup group present in the baseline must be
     present in the fresh run (a bench disappearing is a harness bug),
   - fresh groups absent from the baseline are reported (fail by default,
     since the baseline should be refreshed in the same PR; --allow-new
     downgrades this to a note).

2. Timing / speedup drift on per-(bench, device) geomeans:
   - strict mode fails when |fresh/baseline - 1| exceeds the tolerance,
   - advisory mode (--timing=advisory) prints drift but never fails —
     use this while runners are unproven, or when the two runs used
     different protocols (different scale/budget options), in which case
     timing comparison is meaningless and is downgraded automatically,
   - wallclock groups (host wall time, e.g. micro_kernels) are always
     advisory: modelled times are deterministic, wall time is not.

--exact replaces both layers with the identity check a refactor must
pass: every (bench, device) group in the fresh report must have the same
record count in the baseline, and each non-wall-clock record must equal
the baseline record at the same position, field for field and bit for
bit. Baseline groups the fresh run lacks are ignored, so a
`bench_all --only=...` run compares directly. Different protocols
(HARD_KEYS) fail instead of downgrading.

Exit status: 0 clean, 1 regression/coverage failure, 2 usage/IO error.
"""

import argparse
import json
import math
import sys

# Per-bench relative tolerance on geomean drift, overriding --tolerance.
# Simulated times are deterministic, so these guard against *code* changes
# that shift modelled performance, not against measurement noise; benches
# whose geomean covers very few records get a little more room.
PER_BENCH_TOLERANCE = {
    "ablation_model": 0.10,  # 4 records/device over one matrix
    "sampled_batches": 0.10,  # 8 sampled batches
}

HARD_KEYS = ("snap_scale", "max_graphs", "sample_blocks", "quick")

# Benches the committed baseline must always cover (hard-fail when absent):
# the baseline is the proof these subsystems were measured. A required
# bench missing from it means the baseline predates the subsystem — it
# must be re-recorded with scripts/bench_baseline.sh in the same PR.
REQUIRED_BENCHES = ("serve_shard", "plan_select", "serve_dynamic",
                    "spmm_hybrid")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        print(f"bench_compare: {path} is not valid JSON: {e}", file=sys.stderr)
        sys.exit(2)


def rollup_map(report):
    out = {}
    for r in report.get("rollups", []):
        out[(r["bench"], r["device"])] = r
    return out


def fmt_key(key):
    return f"{key[0]} [{key[1]}]"


def schema_failures(base, fresh):
    if base.get("schema_version") == fresh.get("schema_version"):
        return []
    return [f"schema_version mismatch: baseline {base.get('schema_version')} "
            f"vs fresh {fresh.get('schema_version')}"]


def protocol_differs(base, fresh):
    base_opts = base.get("options", {})
    fresh_opts = fresh.get("options", {})
    return any(base_opts.get(k) != fresh_opts.get(k) for k in HARD_KEYS)


def record_groups(report):
    groups = {}
    for r in report.get("records", []):
        groups.setdefault((r["bench"], r["device"]), []).append(r)
    return groups


def exact_check(base, fresh):
    """The --exact identity check. Returns (failures, compared, skipped)."""
    failures = schema_failures(base, fresh)
    if protocol_differs(base, fresh):
        failures.append(f"protocols differ: baseline {base.get('options', {})} "
                        f"vs fresh {fresh.get('options', {})}")
    base_groups = record_groups(base)
    compared = skipped = 0
    for key, records in sorted(record_groups(fresh).items()):
        want = base_groups.get(key, [])
        if len(records) != len(want):
            failures.append(f"{fmt_key(key)}: {len(records)} records, "
                            f"baseline has {len(want)}")
            continue
        for i, (b, f) in enumerate(zip(want, records)):
            if b.get("wallclock") and f.get("wallclock"):
                skipped += 1
                continue
            compared += 1
            if b != f:
                failures.append(f"{fmt_key(key)} record {i}: {b} -> {f}")
    return failures, compared, skipped


def report_failures(failures, limit=None):
    print(f"\nFAIL ({len(failures)} problem(s)):", file=sys.stderr)
    shown = failures[:limit]
    for f in shown:
        print(f"  - {f}", file=sys.stderr)
    if len(shown) < len(failures):
        print(f"  ... and {len(failures) - len(shown)} more", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", help="JSON report from the run under test")
    ap.add_argument("--baseline", default="BENCH_baseline.json",
                    help="committed baseline report (default: %(default)s)")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="default relative geomean tolerance (default: %(default)s)")
    ap.add_argument("--timing", choices=("strict", "advisory"), default="strict",
                    help="whether timing drift fails the run (default: %(default)s)")
    ap.add_argument("--allow-new", action="store_true",
                    help="do not fail on (bench, device) groups missing from "
                         "the baseline")
    ap.add_argument("--exact", action="store_true",
                    help="require every non-wall-clock record of the fresh "
                         "run to equal the baseline's (refactor identity)")
    args = ap.parse_args(argv)

    base = load(args.baseline)
    fresh = load(args.fresh)

    if args.exact:
        failures, compared, skipped = exact_check(base, fresh)
        print(f"bench_compare --exact: baseline={args.baseline} "
              f"fresh={args.fresh}")
        print(f"  records: {compared} compared, {skipped} wall-clock skipped")
        if failures:
            report_failures(failures, limit=20)
            return 1
        print("PASS")
        return 0

    failures = schema_failures(base, fresh)
    notes = []

    timing_mode = args.timing
    if protocol_differs(base, fresh):
        if timing_mode == "strict":
            notes.append(
                "protocols differ "
                f"(baseline {base.get('options', {})} vs fresh "
                f"{fresh.get('options', {})}): "
                "timing comparison downgraded to advisory")
        timing_mode = "advisory"

    base_groups = rollup_map(base)
    fresh_groups = rollup_map(fresh)

    for bench in REQUIRED_BENCHES:
        if not any(key[0] == bench for key in base_groups):
            failures.append(
                f"required: baseline has no '{bench}' rollup — re-record it "
                "with scripts/bench_baseline.sh")

    missing = sorted(set(base_groups) - set(fresh_groups))
    for key in missing:
        failures.append(f"coverage: {fmt_key(key)} present in baseline but "
                        "missing from the fresh run")
    new = sorted(set(fresh_groups) - set(base_groups))
    for key in new:
        msg = (f"coverage: {fmt_key(key)} not in the baseline — refresh it "
               "with scripts/bench_baseline.sh")
        (notes if args.allow_new else failures).append(msg)

    drift_rows = []
    for key in sorted(set(base_groups) & set(fresh_groups)):
        b, f = base_groups[key], fresh_groups[key]
        wall = b.get("wallclock") or f.get("wallclock")
        tol = PER_BENCH_TOLERANCE.get(key[0], args.tolerance)
        for field, label in (("geomean_time_ms", "time"),
                             ("geomean_speedup", "speedup")):
            bv, fv = b.get(field, 0.0), f.get(field, 0.0)
            if bv <= 0.0 and fv <= 0.0:
                continue
            if bv <= 0.0 or fv <= 0.0:
                failures.append(f"{fmt_key(key)}: {label} geomean "
                                f"{bv:.6g} -> {fv:.6g} (one side empty)")
                continue
            drift = fv / bv - 1.0
            status = "ok"
            if abs(drift) > tol:
                # A faster time / higher speedup is an improvement: report
                # it (the baseline should be refreshed) but only a
                # *regression* fails strict mode.
                regressed = (drift > 0) if field == "geomean_time_ms" else (drift < 0)
                if wall or timing_mode == "advisory":
                    status = "drift (advisory)"
                elif regressed:
                    status = "REGRESSION"
                    failures.append(
                        f"{fmt_key(key)}: {label} geomean regressed "
                        f"{bv:.6g} -> {fv:.6g} ({drift:+.1%}, tol {tol:.0%})")
                else:
                    status = "improved"
                    notes.append(
                        f"{fmt_key(key)}: {label} geomean improved "
                        f"{bv:.6g} -> {fv:.6g} ({drift:+.1%}) — consider "
                        "refreshing the baseline")
            if not math.isclose(fv, bv, rel_tol=1e-12):
                drift_rows.append((key, label, bv, fv, drift, status))

    print(f"bench_compare: baseline={args.baseline} fresh={args.fresh} "
          f"timing={timing_mode} default tolerance={args.tolerance:.0%}")
    print(f"  groups: {len(base_groups)} baseline, {len(fresh_groups)} fresh, "
          f"{len(missing)} missing, {len(new)} new")
    if drift_rows:
        print("  drift:")
        for key, label, bv, fv, drift, status in drift_rows:
            print(f"    {fmt_key(key):45s} {label:8s} "
                  f"{bv:12.6g} -> {fv:12.6g}  {drift:+8.2%}  {status}")
    else:
        print("  drift: none (all common geomeans identical)")

    for n in notes:
        print(f"  note: {n}")
    if failures:
        report_failures(failures)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
