#!/usr/bin/env python3
"""Build and run the ftr benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--record FILE]
    python3 perfbench/run.py compare OLD NEW

The first form builds perfbench/bench.exe and bin/ftr.exe with dune,
prints a host line, then runs one workload; the last line of stdout is
the JSON result. --record appends the result, with the host, the run's
arguments and its start time, as one JSON line to FILE. The second form
compares two such record files against the bounds in the BENCHMARK.json
beside this perfbench/ (see perfbench/README.md).
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
FTR = os.path.join("_build", "default", "bin", "ftr.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(f"{need} is missing: run from the root of an ftr checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    r = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/bench.exe", "./bin/ftr.exe"],
        stdout=sys.stderr,
        timeout=850,
    )
    if r.returncode != 0:
        fail("build failed", r.returncode or 2)


def output_of(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def journal_fs(path):
    """Filesystem type of the mount holding path (the journal's)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3:
                    mnt = parts[1]
                    inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
                    if inside and len(mnt) > len(best):
                        best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def host():
    commit = "unknown"
    if os.path.isdir(".git"):
        commit = output_of(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "ocaml": output_of(["ocamlfind", "ocamlopt", "-version"]),
        "commit": commit,
        "journal_fs": journal_fs("."),
    }


def pin(workload):
    """Query workloads run the client and the daemon on one CPU: with a
    closed loop each round trip is then two context switches instead of
    two cross-CPU wake-ups, whose cost swings with the host's idle
    states. Sweeps keep every CPU (sweep_wide runs two domains)."""
    if not workload.startswith("query_") or not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpu})


def run(argv):
    record = None
    if "--record" in argv:
        i = argv.index("--record")
        if i + 1 >= len(argv):
            fail("--record needs a file")
        record = argv[i + 1]
        argv = argv[:i] + argv[i + 2 :]
    opts = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(opts) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1 [--record FILE]")
    build()
    h = host()
    print("host " + json.dumps(h, sort_keys=True), flush=True)
    started = time.time()
    cmd = [BENCH, "--ftr", FTR] + argv
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
        preexec_fn=pin(opts["--workload"]),
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"bench exited with {proc.returncode}", proc.returncode or 3)
    sys.stdout.write(out)
    sys.stdout.flush()
    if record is not None:
        entry = {
            "workload": opts["--workload"],
            "seed": int(opts["--seed"]),
            "seconds": float(opts["--seconds"]),
            "trace": int(opts["--trace"]),
            "started": started,
            "host": h,
            "result": json.loads(lines[-1]),
        }
        with open(record, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")


# ---------------------------------------------------------------------
# Compare mode


def load_records(path):
    records = []
    with open(path) as f:
        for i, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                r = json.loads(line)
                res = r["result"]
                records.append(
                    {
                        "workload": str(r["workload"]),
                        "started": float(r["started"]),
                        "correct": res["correct"] is True,
                        "attempted": int(res["attempted"]),
                        "failed": int(res["failed"]),
                        "metrics": {
                            k: (float(v["value"]), str(v["unit"]))
                            for k, v in res["metrics"].items()
                        },
                    }
                )
            except (ValueError, KeyError, TypeError, AttributeError) as e:
                fail(f"{path}:{i}: not a run record ({e!r})")
    return records


def load_spec(path):
    """Direction and bound of every metric BENCHMARK.json declares."""
    with open(path) as f:
        j = json.load(f)
    return {
        m["name"]: (m["better"], m.get("bound"))
        for m in j.get("end_to_end", []) + j.get("per_layer", [])
    }


def quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def describe(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def spread(values):
    q1, q2, q3 = quartiles(values)
    return 0.0 if q2 == 0 else (q3 - q1) / abs(q2)


def judge(better, bound, old, new):
    """Verdict and relative change of the median (positive = worse).
    A metric whose spread on either side is wider than its bound is
    unresolved, unless every new run beats every old one."""
    mo, mn = statistics.median(old), statistics.median(new)
    change = 0.0 if mo == 0 else (mn - mo) / abs(mo)
    if better == "higher":
        change = -change
    if bound is None:
        return "-", change
    if spread(old) > bound or spread(new) > bound:
        beats = (lambda a, b: a < b) if better == "lower" else (lambda a, b: a > b)
        wins = all(beats(n, o) for n in new for o in old)
        return ("improved" if wins else "unresolved"), change
    if change > bound:
        return "REGRESSION", change
    if -change > bound:
        return "improved", change
    return "unchanged", change


def interleaved(old, new):
    """The host's speed drifts over minutes, so two sides are only
    comparable when their runs alternate in time: sorted by start, no
    side has more than two runs in a row (pairs whose order
    alternates: old new, new old, ...)."""
    seq = [side for _, side in sorted([(r["started"], 0) for r in old] + [(r["started"], 1) for r in new])]
    return all(not (seq[i] == seq[i + 1] == seq[i + 2]) for i in range(len(seq) - 2))


SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def compare(old_path, new_path, spec_path=SPEC):
    """Print per-workload, per-metric medians, quartiles and verdicts.
    Returns 1 on a regression, or when NEW has more failed operations,
    incorrect runs or failed stage reconciliations than OLD; 0
    otherwise. (The query_read reconciliation fails in some runs of
    unchanged code, so a failure that both sides share is printed but
    does not fail the comparison.)"""
    spec = load_spec(spec_path)
    old, new = load_records(old_path), load_records(new_path)
    workloads = list(dict.fromkeys(r["workload"] for r in old))
    verdicts, code = [], 0
    for w in workloads:
        o = [r for r in old if r["workload"] == w]
        n = [r for r in new if r["workload"] == w]
        if not n:
            print(f"{w}: no runs in {new_path}")
            continue
        if not interleaved(o, n):
            fail(f"{w}: the runs of the two files do not alternate in time; record them interleaved")
        tallies = {}
        for side, rs in (("old", o), ("new", n)):
            t = tallies[side] = (
                sum(r["failed"] for r in rs),
                sum(r["attempted"] for r in rs),
                sum(not r["correct"] for r in rs),
                sum(r["metrics"].get("reconcile.failed", (0.0, ""))[0] > 0 for r in rs),
            )
            print(f"{w:12} {side}: {len(rs)} runs, {t[0]}/{t[1]} ops failed, "
                  f"{t[2]} runs incorrect, {t[3]} reconciliations failed")
        (of, _, oi, orc), (nf, _, ni, nrc) = tallies["old"], tallies["new"]
        if nf > of or ni > oi:
            print(f"{w:12} FAILURES: new fails more than old")
            code = 1
        if nrc:
            print(f"{w:12} RECONCILE FAIL: the stages do not add up in {nrc} new run(s)")
            if nrc > orc:
                code = 1
        names = list(dict.fromkeys(k for r in o for k in r["metrics"]))
        for m in names:
            ov = [r["metrics"][m][0] for r in o if m in r["metrics"]]
            nv = [r["metrics"][m][0] for r in n if m in r["metrics"]]
            if not nv:
                continue
            unit = next(r["metrics"][m][1] for r in o if m in r["metrics"])
            better, bound = spec.get(m, ("lower", None))
            verdict, change = judge(better, bound, ov, nv)
            verdicts.append(verdict)
            print(f"{w:12} {m:40} {unit:6} old {describe(ov)}  new {describe(nv)}  "
                  f"n={len(ov)}/{len(nv)}  worse {100 * change:+.1f}%  {verdict}")
    count = verdicts.count
    print(f"{count('REGRESSION')} regression(s), {count('improved')} improvement(s), "
          f"{count('unresolved')} unresolved, {count('unchanged')} unchanged")
    return 1 if count("REGRESSION") else code


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare OLD NEW")
        sys.exit(compare(argv[1], argv[2]))
    run(argv)


if __name__ == "__main__":
    main()
