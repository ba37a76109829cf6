"""benchmarks/e2e — the repo's benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py                      # everything
    python3 benchmarks/e2e/run.py --workload job_sweep_cold --seed 7 \\
        --seconds 15 --trace 0                         # one contract run

For each workload the harness fills the store a warm workload starts
from (set-up), then keeps starting untraced repeats — each in a fresh
child process with every ``REPRO_*`` variable stripped — until
``--seconds`` have passed, and reports the median of every end-to-end
metric.  ``--trace 1`` adds the traced pass (``stepwise.py``), which
gives the per-layer table.  Outputs are verified (``golden/seed42.json``,
repeat-to-repeat, traced-vs-untraced, warm-path counters); any failed
check is counted in ``failed`` and makes the command exit non-zero.

Metric names, units, bounds and the workloads' reasons are read from
``BENCHMARK.json`` at the repo root: that file is the registry, this one
emits exactly what it lists.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from compare import spread
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
WORK_ROOT = HERE / ".work"
GOLDEN = HERE / "golden" / "seed42.json"
GOLDEN_SEED = 42

#: a child that runs longer than this is killed and the run fails; the
#: slowest child (a traced medium sweep) takes about 30 s on two cores
CHILD_TIMEOUT_S = 150


# --------------------------------------------------------------------- #
# children
# --------------------------------------------------------------------- #


def child_env() -> dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def run_child(request: dict) -> dict:
    """Run ``workloads.py`` on one request; its last output line is JSON.

    The child leads its own process group so that a timeout also stops
    the pool workers it started.
    """
    request = dict(request, spawned_at=time.time())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(request)],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=REPO,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(
            f"{request['workload']} {request['mode']} child exceeded "
            f"{CHILD_TIMEOUT_S}s and was killed"
        )
    if proc.returncode != 0:
        raise SystemExit(
            f"{request['workload']} {request['mode']} child exited "
            f"{proc.returncode}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# one workload
# --------------------------------------------------------------------- #


def run_workload(name: str, args, bench: dict, session: Path) -> dict:
    """Set up, repeat, optionally trace; returns the workload's record."""
    workload = WORKLOADS[name]
    home = session / name
    request = {"workload": name, "seed": args.seed, "smoke": args.smoke}

    fixture = None
    fixture_s = 0.0
    fixture_digest = None
    if workload.region != "sweep":
        fixture = str(home / "fixture")
        built = run_child(dict(request, mode="fixture", dir=fixture))
        fixture_s, fixture_digest = built["fixture_s"], built["digest"]

    repeats = []
    started = time.monotonic()
    while True:
        scratch = home / f"repeat{len(repeats)}"
        repeats.append(
            run_child(
                dict(request, mode="timed", dir=str(scratch), fixture=fixture)
            )
        )
        shutil.rmtree(scratch)
        # a traced run needs one untraced repeat, to compare against
        if args.trace == "1" or time.monotonic() - started >= args.seconds:
            break

    values = {
        "wall_s": [r["wall_s"] for r in repeats],
        "cells_per_s": [r["cells"] / r["wall_s"] for r in repeats],
        "peak_rss_mb": [r["peak_rss_mb"] for r in repeats],
        "setup_s": [fixture_s + r["setup_s"] for r in repeats],
    }
    checks = {}
    for index, repeat in enumerate(repeats):
        for check, ok in repeat["checks"].items():
            checks[f"repeat{index}.{check}"] = ok
    digest = repeats[0]["digest"]
    checks["repeats_agree"] = all(r["digest"] == digest for r in repeats)
    if workload.region == "reports":
        checks["text_equals_fill"] = digest == fixture_digest

    if args.seed == GOLDEN_SEED and not args.smoke and not args.update_golden:
        golden = json.loads(GOLDEN.read_text())
        # exact float reprs are only promised on the numeric stack that
        # recorded them: elsewhere the digest is shown, not enforced
        if golden["recorded_on"] == numeric_stack(repeats[0]):
            checks["golden"] = golden["digests"].get(name) == digest
        else:
            print(f"{name}: golden digest not checked, recorded on "
                  f"{golden['recorded_on']}")

    record = {
        "cells": repeats[0]["cells"],
        "repeats": len(repeats),
        "digest": digest,
        "values": values,
        "python": repeats[0]["python"],
        "numpy": repeats[0]["numpy"],
    }
    if args.trace != "0":
        trace_out = WORK_ROOT / f"trace-{name}.jsonl"
        traced = run_child(
            dict(
                request, mode="traced", dir=str(home / "traced"),
                fixture=fixture, trace_out=str(trace_out),
            )
        )
        checks["traced_digest_matches"] = traced["digest"] == digest
        if "pooled_digest" in traced:
            checks["pooled_equals_stepwise"] = (
                traced["pooled_digest"] == traced["digest"]
            )
        record["per_layer"] = layer_metrics(workload, repeats, traced)
        unlisted = set(record["per_layer"]) - {
            m["name"] for m in bench["per_layer"]
        }
        if unlisted:
            raise SystemExit(
                f"layer metrics missing from BENCHMARK.json: {sorted(unlisted)}"
            )
        record["trace_file"] = str(trace_out.relative_to(REPO))

    failed_cells = sum(r["failed_cells"] for r in repeats)
    record["checks"] = checks
    record["attempted"] = sum(r["cells"] for r in repeats) + len(checks)
    record["failed"] = failed_cells + sum(1 for ok in checks.values() if not ok)
    record["failed_frac"] = record["failed"] / record["attempted"]
    return record


def layer_metrics(workload, repeats: list[dict], traced: dict) -> dict:
    """The per-layer table: traced spans and counts, plus what only the
    untraced repeats know (unit times, the program's own counters)."""
    layers = dict(traced["layers"])
    wall_s = statistics.median(r["wall_s"] for r in repeats)

    def rate(count: str, *seconds: str) -> float:
        busy = sum(layers.get(name, 0.0) for name in seconds)
        return layers.get(count, 0.0) / busy if busy > 0 else 0.0

    layers["cardinality.truth.subsets_per_s"] = rate(
        "cardinality.truth.subsets_counted",
        "cardinality.truth.compute_all_s", "cardinality.truth.lazy_s",
    )
    layers["cardinality.estimator.calls_per_s"] = rate(
        "cardinality.estimator.calls", "cardinality.estimator.bind_s"
    )
    layers["enumeration.dp.pairs_per_s"] = rate(
        "enumeration.dp.pairs_priced", "enumeration.dp.optimize_s"
    )

    units = sorted(s for r in repeats for s in r["unit_seconds"])
    layers["pipeline.driver.unit_s_p50"] = (
        statistics.median(units) if units else 0.0
    )
    layers["pipeline.driver.unit_s_p90"] = (
        statistics.quantiles(units, n=10)[-1] if len(units) > 1
        else sum(units)
    )
    layers["pipeline.driver.unit_s_max"] = max(units, default=0.0)
    # the traced pass is sequential: against a pooled run the like-for-like
    # reference is its units' worker-side seconds plus the master's datagen
    reference = wall_s if workload.processes == 1 else statistics.median(
        sum(r["unit_seconds"]) + r["phases"].get("generate", 0.0)
        for r in repeats
    )
    layers["pipeline.driver.trace_overhead_frac"] = (
        traced["wall_s"] - reference
    ) / reference
    layers["pipeline.scheduler.busy_frac"] = statistics.median(
        sum(r["unit_seconds"]) / (workload.processes * r["wall_s"])
        for r in repeats
    )
    for counter, value in repeats[0]["counters"].items():
        layers[f"pipeline.instrument.{counter}"] = value
    for phase in ("generate", "truth", "enumerate", "dp", "store"):
        layers[f"pipeline.instrument.phase.{phase}_s"] = statistics.median(
            r["phases"].get(phase, 0.0) for r in repeats
        )
    return layers


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def numeric_stack(child: dict) -> dict:
    """What decides the last bit of a float: CPU, python and numpy."""
    return {
        "cpu": cpu_model(),
        "python": child["python"],
        "numpy": child["numpy"],
    }


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def print_workload(name: str, record: dict, bench: dict) -> None:
    why = next(w["why"] for w in bench["workloads"] if w["name"] == name)
    print(f"\n== {name} — {record['cells']} cells, "
          f"{record['repeats']} repeat(s)\n   {why}")
    for metric in bench["end_to_end"]:
        values = record["values"][metric["name"]]
        median, q1, q3 = spread(values)
        print(
            f"   {metric['name']:<14}{median:>12.4f} "
            f"{metric['unit']:<8} q1 {q1:.4f}  q3 {q3:.4f}  "
            f"n={len(values)}  bound {metric['bound']:.0%}"
        )
    print(f"   {'failed_frac':<14}{record['failed_frac']:>12.4f} "
          f"{'frac':<8} {record['failed']} of {record['attempted']}")
    for check, ok in record["checks"].items():
        if not ok:
            print(f"   CHECK FAILED: {check}")
    if "per_layer" in record:
        print("   per layer (traced pass):")
        for metric in bench["per_layer"]:
            value = record["per_layer"].get(metric["name"], 0.0)
            print(f"     {metric['name']:<46}{value:>16.6g} {metric['unit']}")


def contract_line(record: dict, bench: dict, trace: str) -> str:
    """The one JSON object the benchmark contract reads off the last line."""
    metrics = {}
    if trace != "1":
        for metric in bench["end_to_end"]:
            metrics[metric["name"]] = {
                "value": statistics.median(record["values"][metric["name"]]),
                "unit": metric["unit"],
            }
    if trace != "0":
        for metric in bench["per_layer"]:
            metrics[metric["name"]] = {
                "value": record["per_layer"].get(metric["name"], 0.0),
                "unit": metric["unit"],
            }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


# --------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------- #


def parse_args(argv, bench: dict):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument(
        "--workload", choices=[w["name"] for w in bench["workloads"]],
        help="run one workload and end with the contract's JSON line "
        "(default: all four)",
    )
    parser.add_argument(
        "--seed", type=int, default=GOLDEN_SEED,
        help="database seed (default %(default)s, the golden seed)",
    )
    parser.add_argument(
        "--seconds", type=float, default=bench["run_seconds"],
        help="keep starting repeats until this much time has passed "
        "(default %(default)s, from BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", choices=("0", "1", "both"), default="both",
        help="0: untraced repeats only; 1: one repeat plus the traced "
        "pass; both (default): all repeats plus the traced pass",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="3 queries at tiny scale, one repeat, every workload: "
        "checks the harness, measures nothing",
    )
    parser.add_argument(
        "--out", type=Path, default=WORK_ROOT / "result.json",
        help="where the result JSON goes (default %(default)s)",
    )
    parser.add_argument(
        "--append", type=Path, metavar="PATH",
        help="also append the result as one line to this trajectory file",
    )
    parser.add_argument(
        "--update-golden", action="store_true",
        help=f"rewrite {GOLDEN.relative_to(REPO)} from this run "
        f"(seed {GOLDEN_SEED}, all workloads, not --smoke)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    if args.update_golden and (
        args.seed != GOLDEN_SEED or args.smoke or args.workload
    ):
        parser.error(
            f"--update-golden needs --seed {GOLDEN_SEED} and every workload"
        )
    return args


def main(argv=None) -> int:
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    args = parse_args(argv, bench)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # the build step: bytecode for the program and the harness, so the
    # first child's set-up is not a compile
    compileall.compile_dir(str(SRC), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2, maxlevels=0)

    names = [args.workload] if args.workload else [
        w["name"] for w in bench["workloads"]
    ]
    WORK_ROOT.mkdir(exist_ok=True)
    session = Path(tempfile.mkdtemp(prefix="session-", dir=WORK_ROOT))
    try:
        records = {
            name: run_workload(name, args, bench, session) for name in names
        }
    finally:
        shutil.rmtree(session, ignore_errors=True)

    first = records[names[0]]
    result = {
        "schema": 1,
        "claim": None,
        "commit": commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": dict(
            numeric_stack(first),
            nproc=os.cpu_count(),
            platform=platform.platform(),
        ),
        "workloads": records,
    }
    for name in names:
        print_workload(name, records[name], bench)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    if args.append is not None:
        with args.append.open("a") as handle:
            handle.write(json.dumps(result) + "\n")
    failed = sum(record["failed"] for record in records.values())
    if args.update_golden and failed == 0:
        golden = {
            "recorded_on": numeric_stack(first),
            "digests": {name: records[name]["digest"] for name in names},
        }
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"\nresult: {args.out}  failed checks or cells: {failed}")
    if args.workload:
        print(contract_line(first, bench, args.trace))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
