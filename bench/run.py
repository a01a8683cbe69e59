"""Benchmark for scatterlab: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload poset-exhaustive --seed 0 --seconds 20 --trace 0

``--trace 0`` splits ``--seconds`` over ``CHILDREN`` fresh interpreters run
one after another.  Process ``k`` generates its inputs from the input seed
``seed * CHILDREN + k``, times its own set-up, then runs untraced passes.
``EXTRA_SETUPS`` more fresh interpreters only time the set-up of parts 0, 1,
..., so that ``setup_s`` is a median over more samples than there are
measuring processes.  The end-to-end metrics are medians over all passes
(and set-ups) of all processes, so neither one process that runs fast or
slow as a whole nor one input draw that happens to be cheap or dear moves
them much.  ``--trace 1`` uses input part 0: one untraced process runs for
half the time (the baseline for the tracing overhead), then traced passes
run in this process with every layer's public functions wrapped, and the
per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the environment and any failure.  A
detailed record goes to ``.bench_out/`` in the checkout.  ``--tiny`` shrinks
every workload for the self-test (``bench/test_bench.py``).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
CHILDREN = 5  # untraced measuring processes per run
EXTRA_SETUPS = 6  # set-up-only processes per run, for more setup_s samples
DEADLINE_S = 150  # a run gives up (exit 2) rather than overrun this
END_TO_END = {"wall_s": "s", "checks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources, failed child)."""


def prepare_imports() -> None:
    """Import scatterlab from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "scatterlab" / "__init__.py").is_file():
        raise BenchError(f"no scatterlab package under {src}; run from a checkout of the repository")
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise BenchError("tests/oracles.py is missing; the oracle cross-check needs it")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import scatterlab

    if Path(scatterlab.__file__).resolve().parent != (src / "scatterlab").resolve():
        raise BenchError(f"scatterlab was imported from {scatterlab.__file__}, not from {src}")


def load_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git_sha() -> str:
    """HEAD of the checkout when it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int, info: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        **info,
    }


def run_child(args: list[str], deadline: float) -> dict:
    """Run this script in a fresh interpreter; return its last stdout line as JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *args]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def timed_passes(workload, inputs, seconds: float, tracer=None) -> list:
    """Passes while at least half of a typical pass still fits in ``seconds``
    (always one).  Only the first pass keeps its results, for the oracles."""
    from workloads import Pass

    out = []
    start = time.perf_counter()
    while True:
        gc.collect()
        p = Pass(on_segment=tracer.set_segment if tracer else None)
        t0 = time.perf_counter()
        if tracer is not None:
            p.seconds = tracer.run_pass(lambda: workload.run(inputs, p))
            p.outer_s = time.perf_counter() - t0
        else:
            workload.run(inputs, p)
            p.seconds = time.perf_counter() - t0
        p.digest = p.digests()
        if out:
            p.results = []
        out.append(p)
        typical = statistics.median(x.seconds for x in out)
        if time.perf_counter() - start + typical / 2 > seconds:
            return out


def summarize(passes: list) -> dict:
    """What a measuring process reports about its passes."""
    return {
        "passes": [p.seconds for p in passes],
        "digests": [p.digest for p in passes],
        "checks": [p.checks for p in passes],
        "props_s": {label: [p.segment_s[label] for p in passes] for label in passes[0].segment_s},
        "attempted": sum(p.ops for p in passes),
        "failures": [msg for p in passes for msg in p.failures],
    }


def input_seed(seed: int, part: int) -> int:
    return seed * CHILDREN + part


def child_measure(
    name: str, seed: int, part: int, seconds: float, tiny: bool, oracle: bool, setup_only: bool, t_start: float
) -> dict:
    """Body of a measuring process: set-up (timed from the start of
    ``main``), then untraced passes and optionally the oracle cross-check,
    unless only the set-up is to be timed."""
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(input_seed(seed, part), tiny)
    setup_s = time.perf_counter() - t_start
    if setup_only:
        return {"setup_s": setup_s}
    passes = timed_passes(workload, inputs, seconds)
    out = summarize(passes)
    if oracle:
        checked = workload.cross_check(inputs, passes[0], load_oracles())
        out["attempted"] += len(checked)
        out["failures"] += [what for what, ok in checked if not ok]
    out.update(
        seed=seed,
        part=part,
        setup_s=setup_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        info=workload.info(inputs),
    )
    return out


def output_gate(name: str, tiny: bool, runs: list[dict]) -> tuple[int, list[str]]:
    """Every pass on the same inputs must give the same report digests and
    the same check count; on the default seed's inputs the digests must also
    equal the recorded ones."""
    attempted, bad = 0, []
    recorded = json.loads(DIGESTS.read_text())["workloads"].get(name, {})
    firsts: dict[str, tuple[dict, int]] = {}
    for r in runs:
        where = f"seed {r['seed']} part {r['part']}"
        for d, checks in zip(r["digests"], r["checks"]):
            if where not in firsts:
                firsts[where] = (d, checks)
                if r["seed"] == DEFAULT_SEED and not tiny:
                    want = recorded.get(str(r["part"]), {})
                    for key in sorted(set(want) | set(d)):
                        attempted += 1
                        if want.get(key) != d.get(key):
                            bad.append(f"{where}: {key} digest {d.get(key)} differs from recorded {want.get(key)}")
                continue
            first, first_checks = firsts[where]
            attempted += 1
            if checks != first_checks:
                bad.append(f"{where}: checks per pass changed from {first_checks} to {checks}")
            for key in sorted(set(d) | set(first)):
                attempted += 1
                if d.get(key) != first.get(key):
                    bad.append(f"{where}: {key} digest changed between passes")
    return attempted, bad


def child_flags(name: str, seed: int, part: int, seconds: float, tiny: bool) -> list[str]:
    flags = ["--child", "--workload", name, "--seed", str(seed), "--part", str(part), "--seconds", str(seconds)]
    return flags + (["--tiny"] if tiny else [])


def measure(name: str, seed: int, seconds: float, tiny: bool) -> dict:
    """Untraced run: ``CHILDREN`` measuring processes, the first of which
    also runs the oracle cross-check after its timed passes."""
    deadline = time.monotonic() + DEADLINE_S
    runs = [
        run_child(child_flags(name, seed, k, seconds / CHILDREN, tiny) + (["--oracle"] if k == 0 else []), deadline)
        for k in range(CHILDREN)
    ]
    setups = [r["setup_s"] for r in runs]
    setups += [
        run_child(child_flags(name, seed, k % CHILDREN, 0, tiny) + ["--setup-only"], deadline)["setup_s"]
        for k in range(EXTRA_SETUPS)
    ]
    checked = list(runs)
    if seed != DEFAULT_SEED and not tiny:
        # One untimed pass on the default seed's inputs, so that every run
        # compares report bytes with the recorded digests.
        checked.append(run_child(child_flags(name, DEFAULT_SEED, 0, 0, tiny), deadline))
    attempted, failures = output_gate(name, tiny, checked)
    attempted += sum(r["attempted"] for r in checked)
    failures += [msg for r in checked for msg in r["failures"]]

    times = [t for r in runs for t in r["passes"]]
    rates = [c / t for r in runs for c, t in zip(r["checks"], r["passes"])]
    metrics = {
        "wall_s": statistics.median(times),
        "checks_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
    }
    props_s = {
        f"props_s.{label[6:]}": [t for r in runs for t in r["props_s"][label]]
        for label in runs[0]["props_s"]
        if label.startswith("props:")
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "env": environment(
            name,
            seed,
            {
                "input_seeds": [input_seed(seed, r["part"]) for r in runs],
                "checks_per_pass": [r["checks"][0] for r in runs],
                "instances_per_pass": [r["info"].pop("instances") for r in runs],
                **runs[0]["info"],
            },
        ),
        "samples": {
            "passes": times,
            "setup_s": setups,
            "rss_mb": [r["rss_mb"] for r in runs],
        },
        "props_s": {key: (statistics.median(v), len(v)) for key, v in props_s.items()},
        "digests": {str(r["part"]): r["digests"][0] for r in runs},
    }


def shares(tracer, passes: list) -> dict[str, float]:
    """Layer shares named in the workload rationales, over the traced passes."""
    total = sum(p.seconds for p in passes)
    _, self_s = tracer.layer_totals()
    _, driven = tracer.layer_totals({"driven"})
    driven_s = sum(p.segment_s.get("driven", 0.0) for p in passes)

    def part(names, s) -> float:
        return sum(v for k, v in s.items() if any(k == n or k.startswith(n + ".") for n in names))

    return {
        "share.universe_build": part(["universe.random_pair_function", "universe.build", "universe.updated"], self_s)
        / total,
        "share.poset_iter_suites": part(["poset", "sampling.iter_conditions", "suites"], self_s) / total,
        "share.amalgam_precedes": part(["amalgam", "poset.precedes"], self_s) / total,
        "share.generic_pair_closure_driven": (
            part(["generic", "universe.pair_closure"], driven) / driven_s if driven_s else 0.0
        ),
    }


def trace(name: str, seed: int, seconds: float, tiny: bool) -> dict:
    """Traced run: one untraced process for the baseline, then wrapped passes here."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(input_seed(seed, 0), tiny)
    child = run_child(child_flags(name, seed, 0, seconds / 2, tiny), time.monotonic() + DEADLINE_S)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes = timed_passes(workload, inputs, seconds / 2, tracer)
        calls, self_s = tracer.layer_totals()
        carrier_points = sum(space.kappa for space in tracer.spaces.values())
    finally:
        tracer.uninstall()

    traced = summarize(passes) | {"seed": seed, "part": 0}
    attempted, failures = output_gate(name, tiny, [child, traced])
    attempted += child["attempted"] + traced["attempted"]
    failures += child["failures"] + traced["failures"]

    npass = len(passes)
    pass_s = sum(p.seconds for p in passes) / npass
    unattributed = sum(tracer.root_self) / npass
    layer_sum = sum(v for k, v in self_s.items() if k != tracing.ROOT) / npass
    attempted += 1
    if abs(layer_sum + unattributed - pass_s) > 1e-6 * max(1.0, pass_s):
        failures.append(f"layer self times {layer_sum} + unattributed {unattributed} != pass {pass_s}")
    # Checks against what the tracer's own bookkeeping cannot hide: every span
    # closed by the end of its pass, and the spans directly under the root fit
    # into the pass time as measured around the tracer.
    for k, (p, top, left_open) in enumerate(zip(passes, tracer.top_level_s, tracer.open_after_pass)):
        attempted += 2
        if left_open:
            failures.append(f"traced pass {k}: {left_open} spans still open after the pass")
        if top > p.outer_s:
            failures.append(f"traced pass {k}: top-level spans {top} s exceed the pass time {p.outer_s} s")

    c = tracer.counters
    delta = tracer.ids["amalgam.delta_xi"], tracer.ids["amalgam.amalgamate"]
    metrics: dict[str, float] = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = calls[layer] / npass
        metrics[f"{layer}.self_s"] = self_s[layer] / npass
    metrics.update(
        {
            "universe.build.entries": c["universe.build.entries"] / npass,
            "universe.pair_closure.rounds": c["universe.pair_closure.rounds"] / npass,
            "sampling.iter_conditions.yielded": c["sampling.iter_conditions.yielded"] / npass,
            "amalgam.delta_xi.calls_per_point": (
                tracer.by_parent[delta] / c["amalgam.amalgamate.points"] if c["amalgam.amalgamate.points"] else 0.0
            ),
            "generic.minimal_nbhd.calls_per_point": (
                calls["generic.minimal_nbhd"] / carrier_points if carrier_points else 0.0
            ),
            "suites.checks": passes[0].props_checks,
            "formats.report_bytes": c["formats.report_bytes"] / npass,
            "trace.pass_s": pass_s,
            "trace.overhead_s": pass_s - statistics.median(child["passes"]),
            "trace.unattributed_s": unattributed,
            "bench.checks_per_pass": passes[0].checks,
            "bench.instances_per_pass": workload.info(inputs)["instances"],
        }
    )
    for key, value in metrics.items():
        if isinstance(value, float) and value.is_integer() and not key.endswith("_s"):
            metrics[key] = int(value)

    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{name}.json")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "env": environment(
            name, seed, {"input_seeds": [input_seed(seed, 0)], **workload.info(inputs), "checks_per_pass": passes[0].checks}
        ),
        "samples": {"traced_passes": traced["passes"], "untraced_passes": child["passes"]},
        "shares": shares(tracer, passes),
        "spans": {"kept": len(tracer.spans), "dropped": tracer.dropped},
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> dict:
    """One benchmark run driven from this process; returns the result object
    printed as the last line, plus the details under ``"report"``."""
    prepare_imports()
    import tracing
    import workloads

    if name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    if traced:
        rep = trace(name, seed, seconds, tiny)
        units = tracing.per_layer_metric_units()
    else:
        rep = measure(name, seed, seconds, tiny)
        units = END_TO_END
    metrics = {key: {"value": rep["metrics"][key], "unit": unit} for key, unit in units.items()}
    attempted = max(1, rep["attempted"])
    return {
        "correct": not rep["failures"],
        "attempted": attempted,
        "failed": min(len(rep["failures"]), attempted),
        "metrics": metrics,
        "report": rep,
    }


def print_result(result: dict) -> None:
    rep = result["report"]
    print("env " + json.dumps(rep["env"], sort_keys=True))
    for key, m in result["metrics"].items():
        print(f"{key} {m['value']} {m['unit']}")
    if "props_s" in rep:
        print(f"samples wall_s={len(rep['samples']['passes'])} setup_s={len(rep['samples']['setup_s'])}")
        for key, (value, n) in rep["props_s"].items():
            print(f"{key} {value} s samples={n}")
        for part, digests in rep["digests"].items():
            for key, value in digests.items():
                print(f"digest part {part} {key} {value}")
    else:
        for key, value in rep["shares"].items():
            print(f"{key} {value:.3f}")
    print(f"fail_ratio {result['failed'] / result['attempted']} ratio")
    for msg in rep["failures"][:20]:
        print(f"FAILURE {msg}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (self-test)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.child:
            prepare_imports()
            out = child_measure(
                args.workload, args.seed, args.part, args.seconds, args.tiny, args.oracle, args.setup_only, t_start
            )
            print(json.dumps(out))
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_result(result)
    OUT.mkdir(exist_ok=True)
    record = {k: result[k] for k in ("correct", "attempted", "failed", "metrics", "report")}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
