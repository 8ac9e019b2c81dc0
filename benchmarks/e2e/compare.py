"""Compare two result files of ``run.py``.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base (the parent commit), B the change. Per workload and
end-to-end metric it prints both medians with their quartiles, the ratio
B/A, the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``worse`` / ``better`` — B's median is off A's by more than the bound,
  in the metric's bad / good direction;
* ``same`` — within the bound;
* ``unresolved`` — either side's spread (quartile distance / median) is
  wider than the bound, so a difference that size could be noise; unless
  every sample of B lies on one side of every sample of A, which is a
  verdict whatever the spread.

The share of failed operations is compared first: more failures than the
base is ``worse`` whatever the speeds say. Exits 1 when any pair is
``worse``. Files written with ``--runs K`` compare
medians across runs; single-run files compare across the run's rounds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def verdict(base: dict, change: dict, a: list, b: list, info: dict) -> str:
    bound = info["bound"]
    sign = 1.0 if info["better"] == "higher" else -1.0
    gain = sign * (change["median"] - base["median"]) / abs(base["median"])
    if max(base["noise"], change["noise"]) > bound:
        if all(sign * y > sign * x for x in a for y in b):
            return "better"
        if all(sign * y < sign * x for x in a for y in b):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = (json.loads(Path(p).read_text()) for p in argv)
    worse = 0
    for name in (w["name"] for w in spec["workloads"]):
        if name not in base["workloads"] or name not in change["workloads"]:
            continue
        a_entry, b_entry = base["workloads"][name], change["workloads"][name]
        print(f"== {name}")
        a_share, b_share = a_entry["failed_op_share"], b_entry["failed_op_share"]
        failing = "worse" if b_share > a_share else "same"
        worse += failing == "worse"
        print(
            f"   {'failed_op_share':<28} {'ratio':<10} A {a_share:.6g}"
            f"  B {b_share:.6g}  expected 0  {failing}"
        )
        for info in spec["end_to_end"]:
            metric = info["name"]
            a, b = a_entry["summary"][metric], b_entry["summary"][metric]
            result = verdict(
                a, b, a_entry["samples"][metric], b_entry["samples"][metric],
                info,
            )
            worse += result == "worse"
            print(
                f"   {metric:<28} {info['unit']:<10}"
                f" A {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}]"
                f"  B {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
                f"  B/A {b['median'] / a['median']:.4f} (base {a['median']:.6g})"
                f"  bound {info['bound']:.0%} {info['better']}-is-better"
                f"  {result}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
