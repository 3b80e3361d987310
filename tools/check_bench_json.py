#!/usr/bin/env python3
"""Schema checker for the machine-readable bench output (BENCH_*.json).

CI runs bench_hotpath --quick and archives the JSON; this gate catches the
emitter drifting (renamed fields, wrong types, impossible numbers) before a
malformed artifact silently breaks the per-PR perf trajectory. It validates
shape and sanity, NOT performance: thresholds would flake on shared runners.

Usage:
  tools/check_bench_json.py FILE [FILE...]          validate files (exit 1 on findings)
  tools/check_bench_json.py --compare OLD NEW       print new/old ratios per row
  tools/check_bench_json.py --self-test             run the seeded-violation tests

--compare validates both files, then prints, for every row name, the ratio
new/old of throughput, p50 and p99 (throughput above 1 and latency below 1
are better). It is information, not a gate: it exits 0 whatever the ratios
are, and non-zero only when a file is unreadable or fails the schema.
"""

import argparse
import json
import sys

SCHEMA_VERSION = 1

# name -> (type, validator). Validators get the value and the full row.
RESULT_FIELDS = {
    "name": (str, lambda v, row: len(v) > 0),
    "threads": (int, lambda v, row: v >= 1),
    "ops": (int, lambda v, row: v >= 1),
    "elapsed_ns": (int, lambda v, row: v >= 1),
    "throughput_ops": ((int, float), lambda v, row: v > 0),
    "p50_ns": (int, lambda v, row: v >= 0),
    "p99_ns": (int, lambda v, row: v >= row.get("p50_ns", 0)),
    "messages": (int, lambda v, row: v >= 0),
    "bytes": (int, lambda v, row: v >= 0),
}


def check_doc(doc, path, errors):
    def err(msg):
        errors.append(f"{path}: {msg}")

    if not isinstance(doc, dict):
        err("top level is not an object")
        return
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        err("missing/empty `bench` name")
    if doc.get("schema_version") != SCHEMA_VERSION:
        err(f"`schema_version` must be {SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}")
    config = doc.get("config")
    if not isinstance(config, dict):
        err("`config` must be an object")
    elif not isinstance(config.get("quick"), bool):
        err("`config.quick` must be a bool")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        err("`results` must be a non-empty array")
        return
    seen = set()
    for i, row in enumerate(results):
        where = f"results[{i}]"
        if not isinstance(row, dict):
            err(f"{where} is not an object")
            continue
        for field, (types, valid) in RESULT_FIELDS.items():
            if field not in row:
                err(f"{where} missing field `{field}`")
                continue
            v = row[field]
            # bool is an int subclass in Python; exclude it explicitly.
            if isinstance(v, bool) or not isinstance(v, types):
                err(f"{where}.{field} has type {type(v).__name__}")
                continue
            if not valid(v, row):
                err(f"{where}.{field} = {v!r} fails its sanity check")
        for field in row:
            if field not in RESULT_FIELDS:
                err(f"{where} has unknown field `{field}` "
                    "(schema drift - bump schema_version if intended)")
        name = row.get("name")
        if name in seen:
            err(f"{where} duplicates result name {name!r}")
        seen.add(name)
        # Cross-field: throughput must be consistent with ops/elapsed
        # (within 1% - the emitter rounds).
        if all(isinstance(row.get(k), (int, float)) and
               not isinstance(row.get(k), bool)
               for k in ("ops", "elapsed_ns", "throughput_ops")) and \
                row["elapsed_ns"] > 0:
            derived = row["ops"] * 1e9 / row["elapsed_ns"]
            if row["throughput_ops"] > 0 and \
                    abs(derived - row["throughput_ops"]) > 0.01 * derived:
                err(f"{where}.throughput_ops {row['throughput_ops']} "
                    f"inconsistent with ops/elapsed_ns ({derived:.1f})")


def check_file(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: {e}"]
    check_doc(doc, path, errors)
    return errors


def ratio(new, old):
    return new / old if old else None


def compare_docs(old, new):
    """Rows as (name, throughput, p50, p99) new/old ratios, each None when
    the old value is 0; a row present on one side only has all three None
    and the name suffixed with ` (new)` or ` (gone)`."""
    old_rows = {r["name"]: r for r in old["results"]}
    new_rows = {r["name"]: r for r in new["results"]}
    rows = []
    for name, n in new_rows.items():
        o = old_rows.get(name)
        if o is None:
            rows.append((name + " (new)", None, None, None))
            continue
        rows.append((name, ratio(n["throughput_ops"], o["throughput_ops"]),
                     ratio(n["p50_ns"], o["p50_ns"]),
                     ratio(n["p99_ns"], o["p99_ns"])))
    for name in old_rows:
        if name not in new_rows:
            rows.append((name + " (gone)", None, None, None))
    return rows


def format_comparison(rows):
    def cell(x):
        return "     -" if x is None else f"{x:6.2f}"
    lines = [f"{'row':<34} {'thr':>6} {'p50':>6} {'p99':>6}   (new/old)"]
    for name, thr, p50, p99 in rows:
        lines.append(f"{name:<34} {cell(thr)} {cell(p50)} {cell(p99)}")
    return "\n".join(lines)


def compare_files(old_path, new_path):
    docs = []
    for path in (old_path, new_path):
        errors = check_file(path)
        if errors:
            for e in errors:
                print(e)
            return 1
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    print(format_comparison(compare_docs(*docs)))
    return 0


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------


def _valid_doc():
    return {
        "bench": "hotpath",
        "schema_version": 1,
        "config": {"quick": True, "compiler": "12.2.0"},
        "results": [{
            "name": "store_read_hot", "threads": 4, "ops": 1000,
            "elapsed_ns": 50000, "throughput_ops": 2e7,
            "p50_ns": 40, "p99_ns": 120, "messages": 0, "bytes": 0,
        }],
    }


def self_test():
    failures = []

    def expect(name, doc, want_errors):
        errors = []
        check_doc(doc, "t", errors)
        if bool(errors) != want_errors:
            failures.append(f"{name}: expected errors={want_errors}, "
                            f"got {errors or '(none)'}")

    expect("valid doc", _valid_doc(), False)

    doc = _valid_doc()
    doc["schema_version"] = 2
    expect("wrong schema version", doc, True)

    doc = _valid_doc()
    del doc["results"][0]["p99_ns"]
    expect("missing field", doc, True)

    doc = _valid_doc()
    doc["results"][0]["p99_ns"] = 10  # below p50
    expect("p99 below p50", doc, True)

    doc = _valid_doc()
    doc["results"][0]["extra"] = 1
    expect("unknown field", doc, True)

    doc = _valid_doc()
    doc["results"][0]["throughput_ops"] = 1.0  # wildly off ops/elapsed
    expect("inconsistent throughput", doc, True)

    doc = _valid_doc()
    doc["results"].append(dict(doc["results"][0]))
    expect("duplicate row name", doc, True)

    doc = _valid_doc()
    doc["results"][0]["threads"] = True  # bool is not an int here
    expect("bool masquerading as int", doc, True)

    doc = _valid_doc()
    doc["results"] = []
    expect("empty results", doc, True)

    # --compare: seeded rows with known ratios, a row added, a row removed,
    # and an old latency of 0 that has no ratio.
    old = _valid_doc()
    old["results"].append({
        "name": "store_gc", "threads": 1, "ops": 100, "elapsed_ns": 10**9,
        "throughput_ops": 100.0, "p50_ns": 0, "p99_ns": 400,
        "messages": 0, "bytes": 0})
    old["results"].append(dict(old["results"][1], name="dropped_row"))
    new = _valid_doc()
    new["results"][0].update(elapsed_ns=25000, throughput_ops=4e7,
                             p50_ns=20, p99_ns=120)
    new["results"].append(dict(old["results"][1], p50_ns=8, p99_ns=100))
    new["results"].append(dict(old["results"][1], name="added_row"))
    got = compare_docs(old, new)
    want = [("store_read_hot", 2.0, 0.5, 1.0),
            ("store_gc", 1.0, None, 0.25),
            ("added_row (new)", None, None, None),
            ("dropped_row (gone)", None, None, None)]
    if got != want:
        failures.append(f"compare: expected {want}, got {got}")
    table = format_comparison(got).splitlines()
    if len(table) != 5 or "  2.00   0.50   1.00" not in table[1]:
        failures.append(f"compare table malformed: {table}")

    if failures:
        print("check_bench_json self-test FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print("check_bench_json self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", help="JSON files to validate")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.compare:
        return compare_files(*args.compare)
    if not args.files:
        parser.error("no files given")
    all_errors = []
    for path in args.files:
        all_errors.extend(check_file(path))
    for e in all_errors:
        print(e)
    if all_errors:
        print(f"check_bench_json: {len(all_errors)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"check_bench_json: OK ({len(args.files)} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
