"""The benchmark's workloads: inputs made from the seed, one op driven through
`degdep.cli.main` in process, and the checks of each op's outputs.

Every op is a closed loop of CLI calls with --jobs 1.  The program sees only
the generated inputs: the op seed passed as --seed and, for
consistency-wide, the joint law file written here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
import oracle


@dataclass
class Op:
    """Timings and output files of one op."""

    seed: int
    seconds: float
    generate_s: float
    measure_s: float
    edges: int
    codes: list[int]
    outputs: dict[str, Path]
    layer_values: dict[str, float] = field(default_factory=dict)

    def discard(self) -> None:
        for path in self.outputs.values():
            path.unlink(missing_ok=True)


_SETUP = """\
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import degdep.cli
{build}
print(time.perf_counter() - start)
"""


class Workload:
    """One benchmark workload; subclasses define the op and its checks."""

    name = ""
    why = ""

    def __init__(self, degdep, seed: int, workdir: Path, smoke: bool):
        self.degdep = degdep
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    # fresh-process set-up ---------------------------------------------------

    def setup_build(self) -> str:
        """Source that builds the workload's laws or joint after the import."""
        raise NotImplementedError

    def fresh_setup_seconds(self, root: Path) -> float:
        """Import degdep and build the inputs in a new interpreter; its time."""
        src = str(root / "src")
        code = _SETUP.format(src=src, build=self.setup_build())
        done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                              text=True, timeout=120, check=True)
        return float(done.stdout.split()[-1])

    # ops ----------------------------------------------------------------------

    def probe_sites(self) -> list:
        """Untraced runs wrap only the generator, to split generate_s off."""
        return []

    def run(self, seed: int, tag: str, traced: bool) -> Op:
        tracer = layers.Tracer()
        sites = layers.all_sites(self.degdep) if traced else self.probe_sites()
        with layers.installed(tracer, sites):
            op = self.op(seed, tag, tracer)
        op.layer_values = dict(tracer.values)
        return op

    def op(self, seed: int, tag: str, tracer: layers.Tracer) -> Op:
        raise NotImplementedError

    def check(self, op: Op) -> list[str]:
        """Problems found in the op's outputs; empty when all are right."""
        raise NotImplementedError

    def fingerprint(self, op: Op) -> str:
        """Digest of the seeded outputs, which must not depend on tracing."""
        raise NotImplementedError

    def _sweep(self, seed: int, tag: str, tracer, argv: list[str]) -> Op:
        rows = self.workdir / f"{tag}.csv"
        start = time.perf_counter()
        code = self.degdep.cli.main(argv + ["--seed", str(seed), "--jobs", "1",
                                            "-o", str(rows)])
        seconds = time.perf_counter() - start
        generate = tracer.values.get("generate_s", 0.0)
        return Op(seed, seconds, generate, seconds - generate,
                  int(tracer.values.get("edges", 0)), [code], {"rows": rows})


def _parse_laws(law: str) -> str:
    """Set-up source that parses the out- and in-law as the CLI does."""
    return f"from degdep.pmf import parse_law\nparse_law({law!r})\nparse_law({law!r})"


def _exit_problems(op: Op) -> list[str]:
    return [f"exit code {code}" for code in op.codes if code != 0]


def _csv_without_runtime(path: Path) -> str:
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    keep = [i for i, name in enumerate(records[0]) if name != "runtime_ms"]
    return "\n".join(",".join(rec[i] for i in keep) for rec in records)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class RoundtripZeta(Workload):
    name = "roundtrip-zeta"
    why = ("generate an ecm zeta:2.5 graph at n=1e6 to a file, then measure it: "
           "text I/O and the per-occurrence Kendall merge dominate")
    law = "zeta:2.5"

    def __init__(self, *args):
        super().__init__(*args)
        self.n = 20_000 if self.smoke else 1_000_000

    def setup_build(self) -> str:
        return _parse_laws(self.law)

    def op(self, seed, tag, tracer) -> Op:
        graph = self.workdir / f"{tag}.tsv"
        report = self.workdir / f"{tag}.json"
        main = self.degdep.cli.main  # looked up now, so a traced op sees the span
        start = time.perf_counter()
        generated = main(["generate", "--model", "ecm", "--n", str(self.n),
                          "--out-law", self.law, "--in-law", self.law,
                          "--seed", str(seed), "-o", str(graph)])
        middle = time.perf_counter()
        measured = main(["measure", str(graph), "--seed", str(seed), "-o", str(report)])
        end = time.perf_counter()
        edges = json.loads(report.read_text())["edges"] if measured == 0 else 0
        outputs = {"graph": graph, "meta": Path(f"{graph}.meta.json"), "report": report}
        return Op(seed, end - start, middle - start, end - middle, edges,
                  [generated, measured], outputs)

    def check(self, op) -> list[str]:
        problems = _exit_problems(op)
        if problems:
            return problems
        meta = json.loads(op.outputs["meta"].read_text())
        report = json.loads(op.outputs["report"].read_text())
        src, dst = oracle.read_edges(op.outputs["graph"])
        m = int(src.size)
        n = int(max(src.max(), dst.max())) + 1
        if meta["edges"] != meta["bidegree"]["total_stubs"] - meta["ledger"]["total_erased"]:
            problems.append("meta: edges != total_stubs - total_erased")
        if meta["edges"] != m or report["edges"] != m or report["n"] != n:
            problems.append(f"edge count: file {m}, meta {meta['edges']}, report {report['edges']}")
        if np.any(src == dst) or np.unique(src * n + dst).size != m:
            problems.append("ecm output is not simple")
        for label in oracle.PAIRS:
            stats = oracle.exact_stats(*oracle.degree_pairs(src, dst, label))
            problems += oracle.check_pair(label, report["pairs"][label], stats)
        return problems

    def fingerprint(self, op) -> str:
        digest = hashlib.sha256()
        for key in ("graph", "meta", "report"):
            digest.update(op.outputs[key].read_bytes())
        return digest.hexdigest()


class SweepEcmPoisson(Workload):
    name = "sweep-ecm-poisson"
    why = ("null-model sweep, ecm poisson:3 at n=1e4 with 32 tie-break draws: "
           "sweep orchestration and the tie-break loop, no file I/O")
    law = "poisson:3"
    measures_per_replica = 4 * 3  # all pairs x the null-model measures

    def __init__(self, *args):
        super().__init__(*args)
        self.size = 2_000 if self.smoke else 10_000

    def setup_build(self) -> str:
        return _parse_laws(self.law)

    def probe_sites(self) -> list:
        return [layers.Site(self.degdep.experiments, "generate_ecm", "generate_s",
                            layers.add_count("edges", lambda a, r: r.graph.edge_count))]

    def op(self, seed, tag, tracer) -> Op:
        op = self._sweep(seed, tag, tracer, [
            "experiment", "null-model", "--model", "ecm", "--sizes", str(self.size),
            "--replicas", "1", "--out-law", self.law, "--in-law", self.law,
            "--tie-break-replicas", "32"])
        op.outputs["summary"] = Path(f"{op.outputs['rows']}.summary.csv")
        return op

    def check(self, op) -> list[str]:
        problems = _exit_problems(op)
        if problems:
            return problems
        rows = _read_rows(op.outputs["rows"])
        if len(rows) != self.measures_per_replica:
            problems.append(f"{len(rows)} rows, expected {self.measures_per_replica}")
        for row in rows:
            where = f"{row['pair']} {row['measure']}"
            if row["defined"] != "true" or not -1.0 <= float(row["value"] or "nan") <= 1.0:
                problems.append(f"{where}: value {row['value']!r} undefined or out of range")
            if row["attempts"] != "1" or float(row["erased_fraction"] or "nan") < 0.0:
                problems.append(f"{where}: attempts {row['attempts']}, "
                                f"erased_fraction {row['erased_fraction']!r}")
        if len(_read_rows(op.outputs["summary"])) != self.measures_per_replica:
            problems.append("summary CSV has the wrong number of cells")
        return problems

    def fingerprint(self, op) -> str:
        return (_csv_without_runtime(op.outputs["rows"])
                + op.outputs["summary"].read_text())


class ConsistencyWide(Workload):
    name = "consistency-wide"
    why = ("consistency sweep on a 32k-atom dependent joint with ~4000 values per "
           "side: no small tie table exists; tie-break draws dominate")
    offsets = 8      # y values per x
    offset_range = 512
    # |estimate - population value| at n=1e5 has a spread near 1/sqrt(n);
    # 0.02 is far outside it for any seed.
    abs_error_tol = 0.02
    # targets are float sums over 32k atoms; the exact values are rationals
    target_tol = 1e-9

    def __init__(self, *args):
        super().__init__(*args)
        width = 400 if self.smoke else 4_000
        self.size = 5_000 if self.smoke else 100_000
        rng = np.random.default_rng(self.seed)
        xs = np.repeat(np.arange(width), self.offsets)
        shifts = rng.permuted(np.tile(np.arange(self.offset_range), (width, 1)), axis=1)
        ys = xs + shifts[:, : self.offsets].ravel()
        ws = rng.integers(1, 17, xs.size)
        self.joint = self.workdir / "joint.tsv"
        total = int(ws.sum())
        with open(self.joint, "w", encoding="utf-8", newline="\n") as fh:
            for x, y, w in zip(xs.tolist(), ys.tolist(), ws.tolist()):
                fh.write(f"{x}\t{y}\t{w / total!r}\n")
        self.population = oracle.population_values(xs.tolist(), ys.tolist(), ws.tolist())

    def setup_build(self) -> str:
        return ("from degdep.pmf import read_joint_pmf, spearman_population, "
                "spearman_average_limit, kendall_population\n"
                f"joint = read_joint_pmf({str(self.joint)!r})\n"
                "spearman_population(joint); spearman_average_limit(joint); "
                "kendall_population(joint)")

    def probe_sites(self) -> list:
        return [layers.Site(self.degdep.cli, "read_joint_pmf", "generate_s"),
                layers.Site(self.degdep.pmf.JointPmf, "sample", "generate_s",
                            layers.add_count("edges", lambda a, r: len(r[0])))]

    def op(self, seed, tag, tracer) -> Op:
        return self._sweep(seed, tag, tracer, [
            "experiment", "consistency", "--joint", str(self.joint),
            "--sizes", str(self.size), "--replicas", "1"])

    def check(self, op) -> list[str]:
        problems = _exit_problems(op)
        if problems:
            return problems
        rows = _read_rows(op.outputs["rows"])
        if sorted(row["measure"] for row in rows) != sorted(self.population):
            problems.append(f"measures {[row['measure'] for row in rows]}")
        for row in rows:
            measure = row["measure"]
            if row["defined"] != "true":
                problems.append(f"{measure}: undefined")
                continue
            value, target, error = (float(row[k]) for k in ("value", "target", "abs_error"))
            if abs(target - self.population[measure]) > self.target_tol:
                problems.append(f"{measure}: target {target!r}, "
                                f"population {self.population[measure]!r}")
            if error != abs(value - target) or error > self.abs_error_tol:
                problems.append(f"{measure}: abs_error {error!r} for value {value!r}")
        return problems

    def fingerprint(self, op) -> str:
        return _csv_without_runtime(op.outputs["rows"])


WORKLOADS = {cls.name: cls for cls in (RoundtripZeta, SweepEcmPoisson, ConsistencyWide)}
