#!/usr/bin/env python3
"""Paired A/B runs of the benchmark: a parent revision against the working tree.

    python3 scripts/ab.py [--parent REV] [--workload W]... [--pairs N]
        [--seed S] [--claim WORKLOAD:METRIC]... [--work DIR]
    python3 scripts/ab.py --self-test

Run it from anywhere inside the repository. Each side runs from its own
export under DIR (default `.ab_work` at the repository root):

- `DIR/parent`: `git archive REV` (default `HEAD`), built into
  `DIR/parent-target`;
- `DIR/change`: a copy of the working tree's tracked and untracked,
  non-ignored files, built into `DIR/change-target`.

So neither build writes into the checkout, and the checkout's
`perfbench/Cargo.lock` is never rewritten. Both sides must run the same
benchmark: the script refuses to start (exit 2) when the working tree's
`BENCHMARK.json` or anything under its `paths` differs from REV's. For
every workload (default: all of `BENCHMARK.json`'s) it runs N pairs
(default 10) of `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`, unchanged, in each export, where T is
`BENCHMARK.json`'s `run_seconds`. Odd pairs run the parent first, even
pairs the change. Each run's output is kept in `DIR/runs/`.

It prints, per workload, a Markdown table of every end-to-end metric per
pair as parent / change, then each side's median with its quartiles
(Q1-Q3, inclusive method) and the pairs the change wins. Then it judges:

- every run must report `correct: true` with zero failed operations,
  and every end-to-end metric `BENCHMARK.json` lists;
- no metric's change median may read worse than the parent's by more
  than its `BENCHMARK.json` bound, relative to the parent's median. A
  metric whose parent quartile spread already exceeds its bound is
  `unresolved` and does not fail (`better in every run` when every
  change run beats every parent run);
- each `--claim WORKLOAD:METRIC` needs at least 10 complete pairs, must
  be better in at least 9 of every 10 pairs (ties count for neither
  side), and its median gap must exceed the parent's Q1-Q3 spread.

Exit status: 0 when every rule holds, 1 when one does not (or a run
failed to produce a result), 2 on a usage error. `--self-test` checks
the rules on canned tables and exits 0 when they behave.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

CLAIM_WIN_SHARE = 0.9
CLAIM_MIN_PAIRS = 10


def quartiles(xs):
    """(Q1, median, Q3) of `xs`, inclusive method (linear interpolation)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(v):
    """A value at four significant digits, without exponents."""
    if v == 0 or abs(v) >= 1000:
        return f"{v:.1f}"
    digits = max(0, 3 - math.floor(math.log10(abs(v))))
    return f"{v:.{digits}f}"


def better(spec, c, p):
    """Whether value `c` beats `p` for this metric (ties do not)."""
    return c < p if spec["better"] == "lower" else c > p


def relative_worsening(spec, pm, cm):
    """How much worse the change median reads, as a share of the parent's."""
    worse = cm - pm if spec["better"] == "lower" else pm - cm
    if pm == 0:
        return 0.0 if worse <= 0 else math.inf
    return worse / abs(pm)


def judge(workload, pairs, specs, claims):
    """Tables and verdicts for one workload's pairs.

    `pairs` is a list of `(first, parent, change)`, where `first` names the
    side that ran first and each result is perfbench's result object (or
    `None` when the run produced none). Returns `(lines, failures)`.
    """
    lines, failures = [], []
    for i, (_, parent, change) in enumerate(pairs, 1):
        for side, r in (("parent", parent), ("change", change)):
            if r is None:
                failures.append(f"{workload} pair {i}: the {side} run printed no result")
                continue
            if r.get("correct") is not True or r.get("failed", 0) != 0:
                failures.append(
                    f"{workload} pair {i}: the {side} run reports correct="
                    f"{r.get('correct')} with {r.get('failed')} failed operations"
                )
            for s in specs:
                if s["name"] not in r.get("metrics", {}):
                    failures.append(f"{workload} pair {i}: the {side} run does not report {s['name']}")
    done = [(f, p, c) for f, p, c in pairs if p is not None and c is not None]
    if not done:
        return lines, failures + [f"{workload}: no complete pair"]

    names = [s for s in specs if all(s["name"] in r.get("metrics", {}) for _, p, c in done for r in (p, c))]

    def value(r, name):
        return r["metrics"][name]["value"]

    head = " | ".join(f"{i} {'P' if f == 'parent' else 'C'}" for i, (f, _, _) in enumerate(done, 1))
    lines.append(f"| metric | {head} |")
    lines.append("|---" * (len(done) + 1) + "|")
    for s in names:
        cells = " | ".join(f"{fmt(value(p, s['name']))} / {fmt(value(c, s['name']))}" for _, p, c in done)
        lines.append(f"| {s['name']} | {cells} |")
    lines.append("")
    lines.append("| metric | parent median [Q1-Q3] | change median [Q1-Q3] | change | wins | verdict |")
    lines.append("|---|---|---|---|---|---|")
    summary = {}
    for s in names:
        name = s["name"]
        ps = [value(p, name) for _, p, _ in done]
        cs = [value(c, name) for _, _, c in done]
        pq1, pm, pq3 = quartiles(ps)
        cq1, cm, cq3 = quartiles(cs)
        wins = sum(better(s, c, p) for p, c in zip(ps, cs))
        spread = (pq3 - pq1) / abs(pm) if pm else (0.0 if pq3 == pq1 else math.inf)
        worse = relative_worsening(s, pm, cm)
        delta = (cm - pm) / abs(pm) if pm else 0.0
        if spread > s["bound"]:
            # Too noisy to bound, unless the two sides do not overlap.
            apart = all(better(s, c, p) for c in cs for p in ps)
            verdict = "better in every run" if apart else "unresolved"
        elif worse > s["bound"]:
            verdict = "WORSE"
            failures.append(
                f"{workload} {name}: median {fmt(pm)} -> {fmt(cm)} "
                f"is worse by more than its bound {s['bound']:.0%}"
            )
        else:
            verdict = "ok"
        summary[name] = (s, pm, pq3 - pq1, cm, wins)
        lines.append(
            f"| {name} | {fmt(pm)} [{fmt(pq1)}-{fmt(pq3)}] | {fmt(cm)} [{fmt(cq1)}-{fmt(cq3)}] "
            f"| {delta:+.1%} | {wins}/{len(done)} | {verdict} |"
        )
    for w, name in claims:
        if w != workload:
            continue
        if name not in summary:
            failures.append(f"claim {w}:{name}: no such end-to-end metric in the results")
            continue
        s, pm, spread, cm, wins = summary[name]
        need = math.ceil(CLAIM_WIN_SHARE * len(pairs) - 1e-9)
        gap = pm - cm if s["better"] == "lower" else cm - pm
        enough = len(done) >= CLAIM_MIN_PAIRS
        met = enough and wins >= need and gap > spread
        lines.append("")
        lines.append(
            f"claim {w}:{name}: {'met' if met else 'MISSED'}: {wins}/{len(pairs)} pairs better "
            f"(need {need}), median gap {fmt(gap)} against the parent's Q1-Q3 spread {fmt(spread)}"
            + ("" if enough else f"; {len(done)} complete pairs, fewer than {CLAIM_MIN_PAIRS}")
        )
        if not met:
            failures.append(f"claim {w}:{name} missed")
    return lines, failures


def repo_root():
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True, check=True)
    return out.stdout.strip()


def benchmark_edits(root, rev, paths):
    """Files under `paths` that differ between `rev` and the working tree."""
    diff = subprocess.run(["git", "-C", root, "diff", "--name-only", rev, "--", *paths],
                          capture_output=True, text=True, check=True).stdout.split()
    new = subprocess.run(["git", "-C", root, "ls-files", "--others", "--exclude-standard", "--", *paths],
                         capture_output=True, text=True, check=True).stdout.split()
    return diff + new


def export_parent(root, rev, dest):
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", root, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def export_working_tree(root, dest):
    shutil.rmtree(dest, ignore_errors=True)
    listed = subprocess.run(
        ["git", "-C", root, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, check=True,
    ).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        src = os.path.join(root, rel)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def run_side(export, target, workload, seed, seconds, log):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    with open(log, "w") as out:
        proc = subprocess.run(cmd, cwd=export, env=env, stdout=subprocess.PIPE, stderr=out, text=True)
        out.write(proc.stdout)
    last = proc.stdout.strip().splitlines()[-1:] if proc.stdout.strip() else []
    try:
        return json.loads(last[0]) if last else None
    except json.JSONDecodeError:
        return None


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC the change claims")
    ap.add_argument("--work", help="scratch directory (default .ab_work at the repository root)")
    ap.add_argument("--self-test", action="store_true", help="check the rules on canned tables")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()

    root = repo_root()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    known = {w["name"] for w in bench["workloads"]}
    claims = []
    for c in args.claim:
        w, _, m = c.partition(":")
        if w not in known or not m:
            print(f"error: --claim wants WORKLOAD:METRIC, got {c!r}", file=sys.stderr)
            return 2
        claims.append((w, m))
    if any(w not in known for w in workloads) or args.pairs < 1:
        print("error: unknown workload or no pairs", file=sys.stderr)
        return 2
    edits = benchmark_edits(root, args.parent, bench["paths"] + ["BENCHMARK.json"])
    if edits:
        print(f"error: the working tree's benchmark differs from {args.parent}'s: {' '.join(edits)}",
              file=sys.stderr)
        return 2
    seconds = bench["run_seconds"]

    work = os.path.abspath(args.work or os.path.join(root, ".ab_work"))
    runs = os.path.join(work, "runs")
    os.makedirs(runs, exist_ok=True)
    sides = {
        "parent": (os.path.join(work, "parent"), os.path.join(work, "parent-target")),
        "change": (os.path.join(work, "change"), os.path.join(work, "change-target")),
    }
    export_parent(root, args.parent, sides["parent"][0])
    export_working_tree(root, sides["change"][0])

    failures = []
    for w in workloads:
        pairs = []
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            got = {}
            for side in order:
                export, target = sides[side]
                log = os.path.join(runs, f"{w}-seed{args.seed}-pair{i}-{side}.txt")
                got[side] = run_side(export, target, w, args.seed, seconds, log)
                print(f"# {w} pair {i} {side}: {log}", file=sys.stderr)
            pairs.append((order[0], got["parent"], got["change"]))
        print(f"### {w}, seed {args.seed}: {args.pairs} pairs of {seconds} s runs "
              f"({args.parent} as P, the working tree as C)\n")
        lines, fails = judge(w, pairs, specs, claims)
        print("\n".join(lines) + "\n", flush=True)
        failures += fails
    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


def self_test():
    specs = [
        {"name": "run_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.25},
        {"name": "jobs_per_s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]

    def result(correct=True, failed=0, **metrics):
        return {"correct": correct, "failed": failed,
                "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}

    def table(p_rss, c_rss, p_run=None, c_run=None, p_setup=None, c_setup=None, p_jobs=None, c_jobs=None):
        n = len(p_rss)
        p_run, c_run = p_run or [4.0] * n, c_run or [4.0] * n
        p_setup, c_setup = p_setup or [0.5] * n, c_setup or [0.5] * n
        p_jobs, c_jobs = p_jobs or [0.25] * n, c_jobs or [0.25] * n
        return [("parent" if i % 2 == 0 else "change",
                 result(run_s=p_run[i], peak_rss_mb=p_rss[i], jobs_per_s=p_jobs[i], setup_s=p_setup[i]),
                 result(run_s=c_run[i], peak_rss_mb=c_rss[i], jobs_per_s=c_jobs[i], setup_s=c_setup[i]))
                for i in range(n)]

    claim = [("grid_1m", "peak_rss_mb")]
    checks = []

    def expect(name, pairs, want_fail, needle=None, claims=claim):
        lines, fails = judge("grid_1m", pairs, specs, claims)
        ok = bool(fails) == want_fail and (needle is None or any(needle in ln for ln in lines + fails))
        checks.append((name, ok, lines, fails))

    parent = [299.1, 299.5, 299.2, 299.3, 299.4, 299.1, 299.2, 299.6, 299.3, 299.2]
    change = [251.4, 251.9, 251.5, 251.6, 251.4, 251.5, 251.7, 251.8, 251.5, 251.6]
    expect("claim met: 10/10 wins, gap above the spread", table(parent, change), False, "met")
    eight = change[:8] + [299.9, 300.0]
    expect("claim missed: 8/10 wins", table(parent, eight), True, "MISSED")
    ties = change[:8] + parent[8:]
    expect("ties count for neither side: 8 wins and 2 ties miss", table(parent, ties), True, "8/10")
    nine = change[:9] + parent[9:]
    expect("9 wins and a tie meet the claim", table(parent, nine), False, "9/10")
    wide = [250.0, 260.0, 270.0, 280.0, 290.0, 300.0, 310.0, 320.0, 330.0, 340.0]
    expect("claim missed: every pair wins but the gap is inside the spread",
           table(wide, [x - 1 for x in wide]), True, "MISSED")
    expect("no claim: the same tables pass", table(parent, change), False, claims=[])
    expect("a run worse than its bound fails", table(parent, change, c_run=[5.2] * 10), True, "WORSE")
    expect("a run inside its bound passes", table(parent, change, c_run=[4.9] * 10), False)
    expect("higher-is-better metrics fail when they fall past the bound",
           table(parent, change, c_jobs=[0.18] * 10), True, "jobs_per_s")
    noisy = [0.038, 0.072, 0.041, 0.066, 0.039, 0.070, 0.045, 0.060, 0.040, 0.071]
    expect("a parent spread wider than the bound is unresolved, not a failure",
           table(parent, change, p_setup=noisy, c_setup=[0.077] * 10), False, "unresolved")
    expect("a wide spread that every change run beats is better, not unresolved",
           table(parent, change, p_setup=noisy, c_setup=[0.030] * 10), False, "better in every run")
    bad = table(parent, change)
    bad[3] = (bad[3][0], bad[3][1], result(correct=False, run_s=4.0, peak_rss_mb=251.0,
                                           jobs_per_s=0.25, setup_s=0.5))
    expect("an incorrect run fails", bad, True, "correct=False")
    bad = table(parent, change)
    bad[5] = (bad[5][0], result(failed=2, run_s=4.0, peak_rss_mb=299.0, jobs_per_s=0.25, setup_s=0.5),
              bad[5][2])
    expect("failed operations fail", bad, True, "2 failed")
    bad = table(parent, change)
    bad[1] = (bad[1][0], bad[1][1], None)
    expect("a missing result fails", bad, True, "no result")
    expect("a claim on an unknown metric fails", table(parent, change), True, "no such",
           claims=[("grid_1m", "nope")])
    expect("four wins of four are too few pairs for a claim", table(parent[:4], change[:4]), True,
           "fewer than 10")
    eleven_p, eleven_c = parent + [299.3], change[:9] + [299.9, 299.9]
    expect("eleven pairs need ten wins", table(eleven_p, eleven_c), True, "need 10")
    expect("ten wins of eleven meet the claim", table(eleven_p, change[:10] + [299.9]), False, "met")
    bad = table(parent, change)
    del bad[6][2]["metrics"]["setup_s"]
    expect("a run that drops an end-to-end metric fails", bad, True, "does not report setup_s")
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert fmt(251.4) == "251.4"
    assert fmt(0.0419) == "0.04190" and fmt(108274476) == "108274476.0"

    failed = 0
    for name, ok, lines, fails in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failed += 1
            print("\n".join(lines + fails))
    print(f"self-test: {len(checks) - failed}/{len(checks)} rules behave")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
