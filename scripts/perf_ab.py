#!/usr/bin/env python3
"""Parent-vs-change pairs of `rrr-perf`, and the verdict of
crates/rrr-perf/README.md "Claiming a gain".

    python3 scripts/perf_ab.py PARENT_BIN CHANGE_BIN --workload replay_mixed_2feed \\
        --seed-base 500 --pairs 10 --seconds 26 --claim ingest_items_per_s

Runs the two binaries alternately on the same workload, one seed per pair
(`seed-base + k`), swapping which side goes first every pair. Each run's last
stdout line is the result JSON; a run whose gate says `correct: false`, that
counted a failed query, or that left a metric out stops everything. Per metric
it prints both medians and quartiles, how many pairs the change won, and one of

    gain                claimed, won >= 9/10 of the pairs, medians further
                        apart than the parent's interquartile distance
    claim not met       claimed, and it did not
    no worse            change's median within the metric's bound of the parent's
    unresolved          either side spread wider than the bound (unless every
                        run of the change beat every run of the parent)
    worse beyond bound  change's median worse than the parent's by more than it

Exit status 1 if a claimed metric is not a gain or any metric is worse beyond
its bound. Directions and bounds are read from BENCHMARK.json. Each side runs
in its own scratch directory, removed afterwards, so the binaries' receipts and
temp files do not meet. Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_defs(path):
    """name -> (unit, higher_is_better, bound) for the end-to-end metrics."""
    with open(path) as f:
        bench = json.load(f)
    return {
        m["name"]: (m["unit"], m["better"] == "higher", float(m["bound"]))
        for m in bench["end_to_end"]
    }


def parse_result(stdout, defs):
    """The metric values of one run, or ValueError saying why it is refused."""
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise ValueError(f"last line is not JSON ({e})")
    if result.get("correct") is not True:
        raise ValueError("correctness gate did not pass (correct != true)")
    if result.get("failed", 0) > 0:
        raise ValueError(f"{result['failed']} of {result.get('attempted')} queries failed")
    values = {}
    for name in defs:
        try:
            values[name] = float(result["metrics"][name]["value"])
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"metric {name} missing from the result line")
    return values


def quartiles(xs):
    """(q1, median, q3) as `statistics.quantiles(xs, n=4)` has them."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def judge(parent, change, higher, bound, claimed):
    """Verdict for one metric from the two sides' per-pair values."""
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    won = sum(1 for p, c in zip(parent, change) if better(c, p))
    lost = sum(1 for p, c in zip(parent, change) if better(p, c))
    gap = (cmed - pmed) if higher else (pmed - cmed)  # > 0: change better
    piqr = pq3 - pq1
    # Nine tenths of all pairs run, ties counting for neither side.
    is_gain = 10 * won >= 9 * len(parent) and gap > piqr
    if claimed:
        verdict = "gain" if is_gain else "claim not met"
    else:
        spread = max(piqr / abs(pmed), (cq3 - cq1) / abs(cmed)) if pmed and cmed else 0.0
        dominates = all(better(c, p) for c in change for p in parent)
        if -gap > bound * abs(pmed):
            verdict = "worse beyond bound"
        elif spread > bound and not dominates:
            verdict = "unresolved"
        else:
            verdict = "no worse"
    return {
        "parent": (pq1, pmed, pq3),
        "change": (cq1, cmed, cq3),
        "won": won,
        "lost": lost,
        "pairs": len(parent),
        "gap_rel": gap / abs(pmed) if pmed else 0.0,
        "verdict": verdict,
    }


def report(defs, parent_runs, change_runs, claims, out=sys.stdout):
    """Prints the table; returns True when nothing is worse and every claim holds."""
    ok = True
    head = f"{'metric':<22}{'parent median [q1-q3]':>34}{'change median [q1-q3]':>34}{'change':>9}{'won':>7}  verdict"
    print(head, file=out)
    for name, (unit, higher, bound) in defs.items():
        r = judge(
            [v[name] for v in parent_runs],
            [v[name] for v in change_runs],
            higher,
            bound,
            name in claims,
        )
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]"
        sign = r["gap_rel"] if higher else -r["gap_rel"]
        print(
            f"{name:<22}{fmt(r['parent']):>34}{fmt(r['change']):>34}{sign:>+9.1%}"
            f"{r['won']:>4}/{r['pairs']:<2}  {r['verdict']} ({unit}, {'higher' if higher else 'lower'} is better)",
            file=out,
        )
        if r["verdict"] in ("claim not met", "worse beyond bound"):
            ok = False
    return ok


def run_once(binary, workload, seed, seconds, cwd):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(cwd, "target"))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise ValueError(f"exit status {done.returncode}: {done.stderr.strip()[-400:]}")
    return done.stdout


def self_test():
    """The arithmetic on canned result lines; no binary is run."""
    defs = {
        "ingest_items_per_s": ("items/s", True, 0.25),
        "restore_s": ("s", False, 0.25),
    }

    def line(ingest, restore, correct=True, failed=0):
        return "noise\n" + json.dumps(
            {
                "attempted": 100,
                "correct": correct,
                "failed": failed,
                "metrics": {
                    "ingest_items_per_s": {"unit": "items/s", "value": ingest},
                    "restore_s": {"unit": "s", "value": restore},
                },
            }
        )

    assert parse_result(line(5.0, 1.0), defs) == {"ingest_items_per_s": 5.0, "restore_s": 1.0}
    for bad in (line(5.0, 1.0, correct=False), line(5.0, 1.0, failed=1), "not json", "",
                json.dumps({"correct": True, "failed": 0, "metrics": {}})):
        try:
            parse_result(bad, defs)
        except ValueError:
            continue
        raise AssertionError(f"accepted a bad run: {bad!r}")

    parent = [100.0 + k for k in range(10)]  # median 104.5, IQR 5.5
    # Ten of ten pairs, gap well past the parent's IQR: a gain.
    assert judge(parent, [p + 20 for p in parent], True, 0.25, True)["verdict"] == "gain"
    # Ten of ten pairs but a gap inside the parent's IQR: not a gain.
    assert judge(parent, [p + 3 for p in parent], True, 0.25, True)["verdict"] == "claim not met"
    # A big median gap won on only eight pairs: not a gain.
    mixed = [p + 20 for p in parent[:8]] + [p - 1 for p in parent[8:]]
    r = judge(parent, mixed, True, 0.25, True)
    assert (r["won"], r["lost"], r["verdict"]) == (8, 2, "claim not met"), r
    # Nine of ten is enough; a tie counts for neither side.
    nine = [p + 20 for p in parent[:9]] + [parent[9]]
    r = judge(parent, nine, True, 0.25, True)
    assert (r["won"], r["lost"], r["verdict"]) == (9, 0, "gain"), r
    # Unclaimed: a little worse is no worse, 30 % worse is past the 25 % bound,
    # and "lower is better" turns the comparison round.
    assert judge(parent, [p - 2 for p in parent], True, 0.25, False)["verdict"] == "no worse"
    assert judge(parent, [p * 0.7 for p in parent], True, 0.25, False)["verdict"] == "worse beyond bound"
    assert judge(parent, [p * 1.3 for p in parent], False, 0.25, False)["verdict"] == "worse beyond bound"
    assert judge(parent, [p * 0.7 for p in parent], False, 0.25, False)["verdict"] == "no worse"
    # Spread wider than the bound on either side: unresolved, unless the
    # change beat the parent in every run against every run.
    wide = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0]
    assert judge(wide, wide[::-1], True, 0.25, False)["verdict"] == "unresolved"
    assert judge(wide, [w + 200 for w in wide], True, 0.25, False)["verdict"] == "no worse"

    sink = open(os.devnull, "w")
    runs = [parse_result(line(100.0 + k, 1.0), defs) for k in range(10)]
    better = [parse_result(line(130.0 + k, 1.0), defs) for k in range(10)]
    assert report(defs, runs, better, {"ingest_items_per_s"}, out=sink)
    assert not report(defs, runs, runs, {"ingest_items_per_s"}, out=sink)
    halved = [parse_result(line(50.0 + k, 1.0), defs) for k in range(10)]
    assert not report(defs, runs, halved, set(), out=sink)
    # The real definitions parse and name the metric this script is usually asked about.
    assert "ingest_items_per_s" in load_defs(os.path.join(REPO, "BENCHMARK.json"))
    print("perf_ab self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", nargs="?", help="rrr-perf binary built at the parent commit")
    ap.add_argument("change", nargs="?", help="rrr-perf binary built from the change")
    ap.add_argument("--workload", default="replay_mixed_2feed")
    ap.add_argument("--seed-base", type=int, default=1, help="pair k runs seed seed-base + k on both sides")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=26)
    ap.add_argument("--claim", action="append", default=[], metavar="METRIC",
                    help="a metric the change claims to improve (repeatable)")
    ap.add_argument("--benchmark-json", default=os.path.join(REPO, "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change):
        ap.error("PARENT_BIN and CHANGE_BIN are required")
    defs = load_defs(args.benchmark_json)
    for c in args.claim:
        if c not in defs:
            ap.error(f"--claim {c}: not an end-to-end metric of {args.benchmark_json}")
    if args.pairs < 10:
        print(f"note: {args.pairs} pairs; the rule asks for at least ten", file=sys.stderr)

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = {"parent": [], "change": []}
    scratch = tempfile.mkdtemp(prefix="perf_ab-")
    try:
        for side in sides:
            os.mkdir(os.path.join(scratch, side))
        for k in range(args.pairs):
            seed = args.seed_base + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                try:
                    values = parse_result(
                        run_once(sides[side], args.workload, seed, args.seconds, os.path.join(scratch, side)),
                        defs,
                    )
                except ValueError as e:
                    sys.exit(f"refused: {side} run, seed {seed}: {e}")
                runs[side].append(values)
            row = "  ".join(
                f"{n} {runs['parent'][-1][n]:.4g} -> {runs['change'][-1][n]:.4g}" for n in (args.claim or list(defs)[:3])
            )
            print(f"pair {k + 1}/{args.pairs} seed {seed} ({order[0]} first): {row}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"\n{args.workload}, {args.pairs} pairs, --seconds {args.seconds}, seeds {args.seed_base}..{args.seed_base + args.pairs - 1}")
    ok = report(defs, runs["parent"], runs["change"], set(args.claim))
    print(json.dumps({"workload": args.workload, "runs": runs}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
