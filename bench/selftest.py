"""Show that the benchmark's output checks catch wrong outputs.

    python3 bench/selftest.py

Feeds the same pass runner the benchmark uses a right answer, a wrong value,
an invalid witness of the right size, an optimum set missing one member and
an item that raises.  Exits 0 only when exactly the bad ones count as failed.
"""

from __future__ import annotations

import sys

import run as R
import workloads as W


def main() -> int:
    od = W.import_odcodes(fresh=False)
    OD = od.CodeKind.OD
    g = od.families.cycle_graph(10)
    value, witness = od.gamma(g, OD)
    invalid = next(
        s
        for v in sorted(witness)
        for u in range(g.n)
        if u not in witness and not od.verify(g, s := witness - {v} | {u}, OD).valid
    )
    all_value, optima, _ = od.gamma_all_optima(g, OD)
    ref = {"value": all_value, "optima": len(optima), "digest": W.canonical_digest(optima)}
    identity = list(range(g.n))

    def solve(label, out):
        return W.Item(label, lambda: out, lambda o: W.check_code(od, g, OD, o[0], o[1], value))

    def listing(label, sets):
        return W.Item(label, lambda: (all_value, sets, False), lambda o: W.check_optima(od, g, OD, o, identity, ref))

    def boom():
        raise RuntimeError("solver crashed")

    cases = [
        (solve("right value and witness", (value, witness)), False),
        (solve("wrong value", (value + 1, witness)), True),
        (solve("invalid witness", (value, invalid)), True),
        (listing("complete optimum set", optima), False),
        (listing("optimum set missing one member", optima[1:]), True),
        (W.Item("raising item", boom, lambda o: []), True),
    ]
    wrong = 0
    for item, should_fail in cases:
        tally = R.Tally()
        R.run_pass(W.Workload("selftest", 0, lambda rng, it=item: [it]), 0, tally)
        failed = tally.failed == 1
        ok = tally.attempted == 1 and failed == should_fail
        wrong += not ok
        verdict = "failed" if failed else "passed"
        print(f"{'ok ' if ok else 'BAD'} {item.label}: {verdict} {tally.problems}")
    print("self-test passed" if not wrong else f"self-test FAILED on {wrong} cases")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
