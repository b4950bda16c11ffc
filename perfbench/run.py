#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

One run (the form every tool calls):

    python3 perfbench/run.py --workload <gateway_fleet|sched_burst|token_share> \\
        --seed N --seconds S --trace <0|1>

builds the benchmark package from source (into $CARGO_TARGET_DIR, by
default .bench_build), runs one workload and passes its output through:
a per-metric table, then one JSON line. Extra flags (--scale smoke,
--rate N, --out-dir D) go to the benchmark binary unchanged.

Trajectory and smoke reports:

    python3 perfbench/run.py report [--smoke]

runs every workload on seeds 1-10, untraced and traced, each in its own
process for BENCHMARK.json's run_seconds, and writes the median,
quartiles, min and n of every metric. The full report goes to
perfbench/TRAJECTORY.json; --smoke runs the reduced workloads on seeds
1-5 for their minimum number of trials and writes perfbench/out/smoke.json
instead, so a smoke run never replaces a recorded trajectory (nor
BENCHMARK.json, which no mode writes).

A/B comparison against another checkout (for example the parent
commit):

    python3 perfbench/run.py compare --baseline DIR [--workload W]

runs A (the baseline) and B (this checkout) in ABBA order, one pair per
trajectory seed with the same seed for both runs of a pair, each for
run_seconds. It reports, per end-to-end metric, each side's median and
quartiles and how many pairs B won. A pair where either run fails is
dropped whole.

All runs are single-process and single-threaded; run them on an
otherwise idle machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["gateway_fleet", "sched_burst", "token_share"]
BINARY = "ks-perfbench"
# Seeds of the recorded trajectory and of compare's pairs.
TRAJECTORY_SEEDS = list(range(1, 11))
# Seeds and run length of a smoke report: each run does its minimum
# number of trials.
SMOKE_SEEDS = [1, 2, 3, 4, 5]
SMOKE_SECONDS = 1


def spec():
    """BENCHMARK.json of this checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build(root, target=None):
    """Builds the benchmark of the checkout at `root` into `target` (by
    default $CARGO_TARGET_DIR, else .bench_build); returns the binary."""
    target = Path(target or os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(root / "perfbench" / "Cargo.toml"),
    ]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"building the benchmark failed (exit {done.returncode})")
    return target / "release" / BINARY


def run_once(binary, root, args):
    """Runs the benchmark binary; returns (exit code, result dict or None)."""
    done = subprocess.run([str(binary), *args], cwd=root, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def commit(root):
    """The checked-out commit, marked -dirty when the tree has changes."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=root, capture_output=True, text=True,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def parse_flags(argv, defaults):
    """--name value flags into a dict seeded with `defaults`; bare
    flags (value-less) become True."""
    opts = dict(defaults)
    i = 0
    while i < len(argv):
        name = argv[i].removeprefix("--")
        if name not in opts:
            sys.exit(f"unknown flag {argv[i]}")
        if isinstance(opts[name], bool):
            opts[name] = True
            i += 1
        else:
            if i + 1 >= len(argv):
                sys.exit(f"{argv[i]} needs a value")
            opts[name] = argv[i + 1]
            i += 2
    return opts


def report(argv):
    opts = parse_flags(argv, {"smoke": False})
    if opts["smoke"]:
        seeds, seconds, scale = SMOKE_SEEDS, SMOKE_SECONDS, ["--scale", "smoke"]
    else:
        seeds, seconds, scale = TRAJECTORY_SEEDS, spec()["run_seconds"], []
    binary = build(ROOT)
    runs, failures, workloads = 0, [], {}
    for w in WORKLOADS:
        per_trace = {}
        for trace in ("0", "1"):
            samples = {}
            for seed in seeds:
                args = ["--workload", w, "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", trace, *scale]
                code, result = run_once(binary, ROOT, args)
                runs += 1
                if code != 0 or not result or not result.get("correct"):
                    failures.append(f"{w} seed {seed} trace {trace}: exit {code}")
                    continue
                for name, m in result["metrics"].items():
                    samples.setdefault(name, {"unit": m["unit"], "values": []})
                    samples[name]["values"].append(m["value"])
            per_trace["end_to_end" if trace == "0" else "per_layer"] = {
                name: dict(stats.summarize(s["values"]), unit=s["unit"])
                for name, s in samples.items()
            }
        workloads[w] = per_trace
        for name, m in per_trace["end_to_end"].items():
            share = m["iqr_share"]
            print(f"{w:<14} {name:<20} median {m['median']:<14.6g} {m['unit']:<9}"
                  f" IQR share {share if share is None else round(share, 4)}  n {m['n']}")
    out = {
        "commit": commit(ROOT),
        "cores": os.cpu_count(),
        "scale": "smoke" if opts["smoke"] else "full",
        "seeds": seeds,
        "seconds_per_run": seconds,
        "runs": runs,
        "failures": failures,
        "workloads": workloads,
    }
    path = ROOT / "perfbench" / ("out/smoke.json" if opts["smoke"] else "TRAJECTORY.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)} ({runs} runs, {len(failures)} failed)")
    return 1 if failures else 0


def compare(argv):
    opts = parse_flags(argv, {"baseline": "", "workload": ""})
    if not opts["baseline"]:
        sys.exit("compare needs --baseline DIR")
    base_root = Path(opts["baseline"]).resolve()
    lanes = {
        "A": (build(base_root, base_root / ".bench_build"), base_root),
        "B": (build(ROOT), ROOT),
    }
    bench = spec()
    seconds = str(bench["run_seconds"])
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [opts["workload"]] if opts["workload"] else WORKLOADS
    status = 0
    for w in workloads:
        # One entry per pair that both lanes ran correctly, so the A and
        # B values at an index always come from the same seed.
        pairs = []
        for seed, order in zip(TRAJECTORY_SEEDS, stats.abba(len(TRAJECTORY_SEEDS))):
            pair = {}
            for lane in order:
                binary, root = lanes[lane]
                args = ["--workload", w, "--seed", str(seed), "--seconds", seconds,
                        "--trace", "0"]
                code, result = run_once(binary, root, args)
                if code != 0 or not result or not result.get("correct"):
                    print(f"{w} seed {seed} lane {lane}: exit {code}; pair dropped",
                          file=sys.stderr)
                    status = 1
                    break
                pair[lane] = {name: m["value"] for name, m in result["metrics"].items()}
            if len(pair) == 2:
                pairs.append(pair)
        print(f"== {w} (A = {base_root}, B = {ROOT}), {len(pairs)} pairs")
        for name in better:
            if not pairs or any(name not in p[lane] for p in pairs for lane in "AB"):
                continue
            a = [p["A"][name] for p in pairs]
            b = [p["B"][name] for p in pairs]
            sa, sb = stats.summarize(a), stats.summarize(b)
            won, n = stats.wins(a, b, better[name])
            change = (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
            worse = change if better[name] == "lower" else -change
            verdict = "regressed" if worse > bound[name] else "ok"
            print(
                f"  {name:<20} A {sa['median']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}]"
                f"  B {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}]"
                f"  change {change:+.2%}  B won {won}/{n}  {verdict}"
            )
    return status


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "report":
        return report(argv[1:])
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    binary = build(ROOT)
    sys.stdout.flush()
    return subprocess.run([str(binary), *argv], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
