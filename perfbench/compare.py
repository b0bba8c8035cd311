"""Compare the end-to-end numbers of two versions of the program.

Usage::

    python3 perfbench/compare.py --base <sha-or-digest> --head <sha-or-digest>

Reads ``perfbench/history.jsonl`` (``--trace 0`` entries only), selects
the runs whose git sha or source digest starts with each prefix, and
prints, per workload and metric, each side's median and quartiles and
the change against the bound ``BENCHMARK.json`` fixes. A change worse
than the bound is a regression; where either side's spread exceeds the
bound the metric is reported as unresolved. It also reports whether the
two versions' fingerprints agree seed by seed.

Numbers from different hosts are never compared: if the selected runs
carry more than one host tag (CPU model, ``nproc``, Python version) the
tool refuses and exits with status 2. Exit status 1 means a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent


def _select(entries: List[Dict[str, Any]], prefix: str) -> List[Dict[str, Any]]:
    return [entry for entry in entries if entry.get("trace") == 0 and any(
        str(entry.get(key) or "").startswith(prefix)
        for key in ("git_sha", "source_digest"))]


def _summary(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "spread": 0.0}
    low, _, high = statistics.quantiles(values, n=4)
    return {"median": median,
            "spread": (high - low) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", default=str(HERE / "history.jsonl"))
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    args = parser.parse_args(argv)

    entries = [json.loads(line) for line in
               Path(args.history).read_text().splitlines() if line.strip()]
    base, head = _select(entries, args.base), _select(entries, args.head)
    if not base or not head:
        print("no runs match --base or --head", file=sys.stderr)
        return 2
    hosts = {json.dumps(entry["host"], sort_keys=True) for entry in base + head}
    if len(hosts) != 1:
        print("refusing to compare runs from different hosts:\n  "
              + "\n  ".join(sorted(hosts)), file=sys.stderr)
        return 2

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    regressions = 0
    print(f"host: {hosts.pop()}")
    for workload in sorted({entry["workload"] for entry in base + head}):
        ours = [e for e in base if e["workload"] == workload]
        theirs = [e for e in head if e["workload"] == workload]
        if not ours or not theirs:
            continue
        print(f"\n{workload}: {len(ours)} base runs, {len(theirs)} head runs")
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old = _summary([e["metrics"][name] for e in ours])
            new = _summary([e["metrics"][name] for e in theirs])
            change = ((new["median"] - old["median"]) / old["median"]
                      if old["median"] else 0.0)
            worse = change if metric["better"] == "lower" else -change
            if max(old["spread"], new["spread"]) > bound:
                verdict = "unresolved (spread above bound)"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "within bound"
            print(f"  {name:14s} {old['median']:12.5g} -> {new['median']:12.5g}"
                  f"  {change:+7.1%}  spread {old['spread']:.3f}/"
                  f"{new['spread']:.3f}  bound {bound}  {verdict}")
        seeds = {e["seed"]: e["fingerprint"] for e in ours}
        differ = sorted(e["seed"] for e in theirs
                        if e["seed"] in seeds and e["fingerprint"] != seeds[e["seed"]])
        print(f"  fingerprints differ on seeds {differ}" if differ
              else "  fingerprints identical on shared seeds")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
