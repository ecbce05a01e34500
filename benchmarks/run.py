"""psumlint benchmark.

    python3 benchmarks/run.py --workload wrap|lattice|cli --seed N \
        --seconds S --trace 0|1
    python3 benchmarks/run.py --scale [--seed N]

Run from the root of a source checkout; psumlint is imported from `src/`.
Each run generates the workload's `.sysml` files from the seed, measures
for S seconds with one closed-loop client (one operation, and at most one
child process, at a time), checks every output against oracles that do not
use psumlint, and prints one JSON object as its last line of stdout.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced run. `--scale` is the ungated scaling probe:
`wrap` and `lattice` at x1, x2 and x4 size, with each layer's growth.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import corpus

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
WORK = BENCH_DIR / ".work"
WORKLOADS = ("wrap", "lattice", "cli")

#: a child that runs longer than this counts as a failed operation
OP_TIMEOUT_S = 120.0
#: the scaling probe runs x4 inputs through quadratic stages
PROBE_TIMEOUT_S = 900.0
#: fresh interpreters timed per run for setup_s and host.python_start_s
STARTUP_SAMPLES = 31
#: cli workload: matrix invocations between two check/pipeline operations
CLI_CHUNK = 7

IMPORT_CODE = ("import time; t = time.perf_counter(); import psumlint; "
               "print(time.perf_counter() - t)")
#: the `psumlint` console script's entry point
CLI_CODE = ("import sys; from psumlint.cli import main; "
            "sys.argv[0] = 'psumlint'; main()")


@dataclass
class Exit:
    seconds: float
    code: int
    stdout: bytes


class Client:
    """Spawns one child at a time and keeps the failure accounting."""

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kib = 0
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        print(f"FAILED {label}: {message}", file=sys.stderr)

    def spawn(self, args: list[str], label: str) -> Exit | None:
        """Run `python3 <args>`; wall time from spawn to exit, and the
        child's own peak RSS from wait4. Counts one attempted operation;
        a timeout counts as failed and returns None."""
        self.attempted += 1
        out_path = WORK / "stdout"
        with open(out_path, "wb") as out, open(WORK / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            lock = threading.Lock()
            reaped = False

            def kill() -> None:
                with lock:
                    if not reaped:
                        proc.kill()

            timer = threading.Timer(self.timeout, kill)
            timer.start()
            # wait without reaping, so the timer never signals a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                reaped = True
                _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            timer.cancel()
            timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            self.fail(label, f"killed by signal {-proc.returncode} "
                             f"(timeout {self.timeout:.0f} s)")
            return None
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        return Exit(elapsed, proc.returncode, out_path.read_bytes())

    def stderr_tail(self) -> str:
        text = (WORK / "stderr").read_text(encoding="utf-8", errors="replace")
        return text.strip().splitlines()[-1] if text.strip() else ""


def quartile3(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def expected_exit(groups: list[corpus.Group]) -> int:
    return max(g.exit_code for g in groups)


class Run:
    """One benchmark run: corpus, set-up, measurement and oracles."""

    def __init__(self, workload: str, seed: int, scale: int = 1,
                 timeout: float = OP_TIMEOUT_S) -> None:
        self.workload = workload
        self.client = Client(timeout)
        self.out_dir = WORK / f"corpus-{workload}-{seed}-x{scale}"
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.corpus = corpus.generate(workload, seed, str(FIXTURES),
                                      str(self.out_dir), scale)
        self.spec_path = WORK / f"spec-{workload}-{seed}-x{scale}.json"
        self.spans_path = WORK / f"spans-{workload}-{seed}-x{scale}.json"
        self.write_spec(0, False, [])
        self.digests: dict[str, str] = {}
        #: outputs whose bytes varied while their content did not
        self.byte_variants: dict[str, set[str]] = {}

    def remove_inputs(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.spec_path.unlink(missing_ok=True)

    # -- oracles -------------------------------------------------------------

    def same_output(self, key: str, digest: str, bytes_digest: str,
                    label: str) -> bool:
        """Every repetition of an output must say the same; a change in
        bytes alone (JSON key order) is recorded and reported, not failed."""
        first = self.digests.setdefault(key, digest)
        if first != digest:
            self.client.fail(label, f"output changed between runs: "
                                    f"{first[:12]} then {digest[:12]}")
            return False
        seen = self.byte_variants.setdefault(key, set())
        if bytes_digest not in seen and len(seen) == 1:
            print(f"NOTE {label}: same content, different bytes (JSON key "
                  f"order) between processes", file=sys.stderr)
        seen.add(bytes_digest)
        return True

    def check_facts(self, facts: list[dict], label: str) -> bool:
        for group, found in zip(self.corpus.groups, facts):
            want = {"exit": group.exit_code}
            if group.exit_code == 0:
                want.update(errors=0, annotations=group.annotations)
            if group.inherited_sources is not None:
                want["inherited_sources"] = group.inherited_sources
            wrong = {k: (found[k], v) for k, v in want.items()
                     if found[k] != v}
            if wrong:
                self.client.fail(label, f"{group.paths[0]}: (got, expected) "
                                        f"{wrong}")
                return False
        return True

    def check_cli_output(self, argv: list[str], result: Exit, expected: int,
                         label: str) -> bool:
        if result.code != expected:
            self.client.fail(label, f"exit {result.code}, expected {expected}"
                                    f": {self.client.stderr_tail()}")
            return False
        stdout = result.stdout.decode("utf-8")
        if not self.same_output(" ".join(argv), *corpus.digests([stdout]),
                                label):
            return False
        if expected != 0 or "json" not in argv or argv[0] not in ("check",
                                                                  "stats"):
            return True
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            self.client.fail(label, f"stdout is not JSON: {exc}")
            return False
        paths = [a for a in argv[1:] if a.endswith(".sysml")]
        groups = [g for g in self.corpus.groups if g.paths[0] in paths]
        if argv[0] == "check":
            errors = [d for d in payload if d["severity"] == "error"]
            clean = {p for g in groups if g.exit_code == 0 for p in g.paths}
            bad = [d for d in errors if d["file"] in clean]
            if bad:
                self.client.fail(label, f"error findings in clean files: "
                                        f"{bad[:3]}")
                return False
            return True
        found, _inherited = corpus.stats_facts(payload)
        if found != groups[0].annotations:
            self.client.fail(label, f"stereotype counts {found}, text has "
                                    f"{groups[0].annotations}")
            return False
        return True

    # -- operations ----------------------------------------------------------

    def compile(self) -> None:
        result = self.client.spawn(["-m", "compileall", "-q", str(SRC),
                                    str(BENCH_DIR)], "compileall")
        if result is not None and result.code != 0:
            self.client.fail("compileall", self.client.stderr_tail())

    def startup(self, code: str, label: str, timed_inside: bool
                ) -> list[float]:
        times = []
        for _ in range(STARTUP_SAMPLES):
            result = self.client.spawn(["-c", code], label)
            if result is None:
                continue
            if result.code != 0:
                self.client.fail(label, self.client.stderr_tail())
                continue
            times.append(float(result.stdout) if timed_inside
                         else result.seconds)
        return times

    def cli(self, argv: list[str], expected: int) -> Exit | None:
        label = "psumlint " + " ".join(argv)
        result = self.client.spawn(["-c", CLI_CODE, *argv], label)
        if result is None:
            return None
        return result if self.check_cli_output(argv, result, expected,
                                               label) else None

    def check(self) -> float | None:
        argv = ["check", *self.corpus.all_paths(), "--format", "json"]
        result = self.cli(argv, expected_exit(self.corpus.groups))
        return None if result is None else result.seconds

    def write_spec(self, seconds: float, memory: bool, cli_argv: list) -> None:
        spec = {"groups": [g.paths for g in self.corpus.groups],
                "seconds": seconds, "memory": memory, "cli": cli_argv,
                "spans": str(self.spans_path)}
        self.spec_path.write_text(json.dumps(spec), encoding="utf-8")

    def worker(self, mode: str) -> dict | None:
        label = f"worker {mode} {self.workload}"
        result = self.client.spawn(
            [str(BENCH_DIR / "worker.py"), mode, str(self.spec_path)], label)
        if result is None:
            return None
        if result.code != 0:
            self.client.fail(label, self.client.stderr_tail())
            return None
        payload = json.loads(result.stdout.decode("utf-8").splitlines()[-1])
        if "error" in payload:
            self.client.fail(label, payload["error"])
            return None
        return payload

    def pipeline(self) -> float | None:
        payload = self.worker("pipeline")
        if payload is None:
            return None
        if not (self.check_facts(payload["facts"], "pipeline")
                and self.same_output("pipeline", payload["digest"],
                                     payload["bytes_digest"], "pipeline")):
            return None
        return payload["pipeline_s"]

    # -- runs ----------------------------------------------------------------

    def cycle(self) -> list[tuple[str, tuple | None]]:
        """Operations of one cycle of the closed loop, in order. On `cli`
        a cycle is the whole invocation matrix, so every run samples the
        same mix of invocations."""
        ops = [("check", None), ("pipeline", None)]
        if self.workload != "cli":
            return ops
        cycle = []
        invocations = self.corpus.invocations
        for start in range(0, len(invocations), CLI_CHUNK):
            cycle += ops + [("invoke", inv)
                            for inv in invocations[start:start + CLI_CHUNK]]
        return cycle

    def measure(self, seconds: float) -> dict:
        self.compile()
        setup = self.startup(IMPORT_CODE, "import psumlint", True)
        samples: dict[str, list[float]] = {"check": [], "pipeline": [],
                                           "invoke": []}
        self.client.peak_rss_kib = 0
        last: dict[str, float] = {}

        def run_ops(ops) -> None:
            for kind, inv in ops:
                start = time.perf_counter()
                if kind == "check":
                    value = self.check()
                elif kind == "pipeline":
                    value = self.pipeline()
                else:
                    result = self.cli(*inv)
                    value = None if result is None else result.seconds
                last[kind] = time.perf_counter() - start
                if value is not None:
                    samples[kind].append(value)

        # whole cycles (at least one) while the next is expected to end in
        # time, judged by the last ones; then check/pipeline pairs alike
        deadline = time.perf_counter() + seconds
        run_ops(self.cycle())
        for ops in (self.cycle(), self.cycle()[:2]):
            while time.perf_counter() + sum(last[k] for k, _ in ops) \
                    <= deadline:
                run_ops(ops)
        invoke = samples["invoke" if self.workload == "cli" else "check"]
        print(f"samples: setup {len(setup)}, check {len(samples['check'])}, "
              f"pipeline {len(samples['pipeline'])}, invoke {len(invoke)}")
        ok = 100.0 * (self.client.attempted - self.client.failed) \
            / self.client.attempted
        metrics = {"peak_rss_mb": self.client.peak_rss_kib / 1024,
                   "ok_ops_pct": ok}
        for name, values in (("setup_s", setup),
                             ("check_s", samples["check"]),
                             ("pipeline_s", samples["pipeline"]),
                             ("invoke_p50_s", invoke)):
            if values:
                metrics[name] = statistics.median(values)
        if invoke:
            metrics["invoke_p75_s"] = quartile3(invoke)
        return metrics

    def traced(self, seconds: float, memory: bool = True,
               with_cli: bool = True) -> dict:
        self.compile()
        starts = self.startup("pass", "python -c pass", False)
        if not with_cli:
            cli_argv = []
        elif self.workload == "cli":
            cli_argv = self.corpus.invocations
        else:
            cli_argv = [(["check", *self.corpus.all_paths(), "--format",
                          "json"], expected_exit(self.corpus.groups))]
        self.write_spec(seconds, memory, cli_argv)
        payload = self.worker("traced")
        if payload is None:
            return {}
        for failure in payload["failures"]:
            self.client.fail("traced run", failure)
        for done in payload["passes"]:
            if self.check_facts(done["facts"], "traced run pipeline"):
                self.same_output("pipeline", done["digest"],
                                 done["bytes_digest"], "traced run pipeline")
        metrics = dict(payload["metrics"])
        if starts:
            metrics["host.python_start_s"] = statistics.median(starts)
        return metrics


def declared_units(section: str) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares in a section."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def scaling_probe(seed: int) -> int:
    """Each layer's self time at x1, x2 and x4 size, and its growth."""
    keys = ("source.read_s", "lexer.tokenize_s", "syntax.parse_file_s",
            "model.build_s", "inheritance.effective_s", "validator.validate_s",
            "propagation.graph_s", "propagation.trace_s", "reporting.render_s",
            "trace.pipeline_s")
    report = {}
    failures = 0
    for workload in ("wrap", "lattice"):
        rows = {}
        for scale in (1, 2, 4):
            run = Run(workload, seed, scale, PROBE_TIMEOUT_S)
            metrics = run.traced(0, memory=False, with_cli=False)
            run.remove_inputs()
            failures += run.client.failed
            rows[scale] = metrics
            print(f"{workload} x{scale}: " + (", ".join(
                f"{k} {metrics[k]:.3f}" for k in keys) if metrics
                else "FAILED"), flush=True)
        growth = {}
        for key in keys:
            if all(key in rows[s] for s in (1, 2, 4)) and rows[1][key] > 0:
                growth[key] = {"x2": rows[2][key] / rows[1][key],
                               "x4": rows[4][key] / rows[1][key]}
        report[workload] = {"seconds": {f"x{s}": rows[s] for s in rows},
                            "growth": growth}
        for key, ratio in growth.items():
            flag = "  > 4.5x" if ratio["x4"] > 4.5 else ""
            print(f"  {workload} {key}: x2 {ratio['x2']:.2f}, "
                  f"x4 {ratio['x4']:.2f}{flag}")
    (WORK / "scaling.json").write_text(json.dumps(report, indent=2),
                                       encoding="utf-8")
    print(json.dumps({"failed": failures, "growth": {
        w: {k: round(v["x4"], 2) for k, v in r["growth"].items()}
        for w, r in report.items()}}))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", action="store_true",
                        help="run the scaling probe instead of a workload")
    args = parser.parse_args(argv)
    for needed in (SRC / "psumlint" / "__init__.py", FIXTURES):
        if not needed.exists():
            print(f"benchmark: {needed} is missing; run from a psumlint "
                  f"source checkout", file=sys.stderr)
            return 2
    WORK.mkdir(exist_ok=True)
    if args.scale:
        return scaling_probe(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    run = Run(args.workload, args.seed)
    if args.trace:
        units = declared_units("per_layer")
        found = run.traced(args.seconds)
    else:
        units = declared_units("end_to_end")
        found = run.measure(args.seconds)
    metrics = {name: {"value": found[name], "unit": unit}
               for name, unit in units.items() if name in found}
    missing = sorted(set(units) - set(found))
    run.remove_inputs()
    for name in missing:
        run.client.fail("metrics", f"{name} has no sample")
    combined = hashlib.sha256(json.dumps(sorted(run.digests.items()))
                              .encode("utf-8")).hexdigest()
    varying = sorted(k for k, v in run.byte_variants.items() if len(v) > 1)
    (WORK / f"digests-{args.workload}-{args.seed}.json").write_text(
        json.dumps({"content": run.digests, "bytes_vary": varying},
                   indent=1, sort_keys=True), encoding="utf-8")
    print(f"output digest {args.workload} seed {args.seed}: {combined}")
    print(f"outputs whose bytes varied between processes: {varying}")
    print(json.dumps({"correct": run.client.failed == 0,
                      "attempted": run.client.attempted,
                      "failed": run.client.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
