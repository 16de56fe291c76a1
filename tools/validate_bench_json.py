#!/usr/bin/env python3
"""Validate BENCH_*.json files against the schema in bench/README.md.

Schema (version 1):
  {
    "bench": "<name>",          # non-empty string
    "schema": 1,
    "meta": {"<key>": "<str>"}, # optional run-environment annotations
                                # (e.g. hash_kernel, lanes); values are
                                # strings, or finite non-negative numbers
                                # for resource annotations such as
                                # peak_rss_bytes
    "metrics": [                # non-empty list
      {"name": "<row>", <numeric or null fields>...},
      ...
    ]
  }

Row names must be unique within a report: a duplicate means two
writers raced or a reporter double-added, and downstream tooling
(check_perf_regression.py keys rows by name) would silently read
whichever came last.

Reports with bench == "telemetry.metrics" (the campaign
--metrics-out / bench_telemetry artifact) are additionally checked
for their fixed shape: the deterministic trace accounting row
("telemetry.trace.events") must be present and every histogram row
must carry the full quantile field set.

Usage:
  validate_bench_json.py FILE [FILE...] [--min-scenario-cells N]

--min-scenario-cells additionally requires a "campaign.summary" row
whose "cells" field is >= N.  CI's bench-gates job passes 28, the
registry's full size (24 static/dynamic/pow adversary x topology cells
plus 4 faults cells), so the full grid must have run: losing any cell,
let alone a whole adversary family, fails the gate.
"""

import argparse
import json
import math
import sys


def fail(path, message):
    print(f"FAIL {path}: {message}", file=sys.stderr)
    return 1


# The quantile field set every telemetry histogram row carries
# (src/telemetry/telemetry.cpp metrics_json).
TELEMETRY_HISTOGRAM_FIELDS = ("count", "min", "p50", "p90", "p99",
                              "p999", "max")


def validate_telemetry(path, metrics):
    """Extra shape checks for bench == "telemetry.metrics" reports."""
    rows = {row["name"]: row for row in metrics}
    if "telemetry.trace.events" not in rows:
        return fail(path, "telemetry report lacks the "
                    "'telemetry.trace.events' accounting row")
    for name, row in rows.items():
        # Histogram rows are recognizable by carrying any quantile
        # field; if one is present, all of them must be.
        if any(field in row for field in TELEMETRY_HISTOGRAM_FIELDS[2:]):
            missing = [field for field in TELEMETRY_HISTOGRAM_FIELDS
                       if field not in row]
            if missing:
                return fail(path, f"telemetry histogram row {name!r} is "
                            f"missing fields {missing}")
    return 0


def validate(path, min_scenario_cells):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return fail(path, f"unreadable or invalid JSON: {error}")

    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        return fail(path, "'bench' missing or not a non-empty string")
    if doc.get("schema") != 1:
        return fail(path, f"'schema' is {doc.get('schema')!r}, expected 1")
    meta = doc.get("meta")
    if meta is not None:
        if not isinstance(meta, dict):
            return fail(path, "'meta' is not an object")
        for key, value in meta.items():
            if not isinstance(key, str):
                return fail(path, f"meta key {key!r} must be a string")
            if isinstance(value, str):
                continue
            # Numeric meta values carry resource annotations (e.g.
            # peak_rss_bytes): finite and non-negative, like metric
            # fields.
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if isinstance(value, float) and (math.isnan(value)
                                                 or math.isinf(value)):
                    return fail(path, f"meta.{key} is {value!r}, expected "
                                "a finite number")
                if value < 0:
                    return fail(path, f"meta.{key} is {value!r}, expected "
                                "a non-negative number")
                continue
            return fail(path, f"meta.{key!r} must map string -> string "
                        "or number")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        return fail(path, "'metrics' missing, not a list, or empty")

    cells = None
    seen_names = set()
    for index, row in enumerate(metrics):
        if not isinstance(row, dict):
            return fail(path, f"metrics[{index}] is not an object")
        name = row.get("name")
        if not isinstance(name, str) or not name:
            return fail(path, f"metrics[{index}] has no 'name'")
        if name in seen_names:
            return fail(path, f"duplicate metric name {name!r} "
                        f"(metrics[{index}])")
        seen_names.add(name)
        for key, value in row.items():
            if key == "name":
                continue
            if value is not None and not isinstance(value, (int, float)):
                return fail(
                    path, f"metrics[{index}].{key} is {type(value).__name__},"
                    " expected number or null")
            if isinstance(value, float) and (math.isnan(value)
                                             or math.isinf(value)):
                # json.load accepts bare NaN/Infinity tokens; a reporter
                # that emitted one produced garbage, not a metric.
                return fail(path, f"metrics[{index}].{key} is {value!r}, "
                            "expected a finite number")
            if isinstance(value, (int, float)) and value < 0:
                # Every schema-1 field is a count, ratio, duration or
                # split seed half: all non-negative by construction.
                return fail(path, f"metrics[{index}].{key} is {value!r}, "
                            "expected a non-negative number")
        if name == "campaign.summary":
            cells = row.get("cells")

    if doc["bench"] == "telemetry.metrics":
        if validate_telemetry(path, metrics):
            return 1

    if min_scenario_cells is not None:
        if cells is None:
            return fail(path, "no 'campaign.summary' row with 'cells'")
        if cells < min_scenario_cells:
            return fail(
                path,
                f"campaign ran {cells} cells, need >= {min_scenario_cells}")

    print(f"OK   {path}: bench={doc['bench']} rows={len(metrics)}"
          + (f" cells={cells}" if cells is not None else ""))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+")
    parser.add_argument("--min-scenario-cells", type=int, default=None)
    args = parser.parse_args()

    status = 0
    for path in args.files:
        status |= validate(path, args.min_scenario_cells)
    return status


if __name__ == "__main__":
    sys.exit(main())
