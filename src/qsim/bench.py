"""Benchmark harness: SPMD execution with barrier-bracketed timing, warm-up
exclusion, normalized Hellinger fidelity, and one report per rank.

Per circuit the harness runs: barrier, start clock, distributed execution
plus sampling, barrier, stop clock. With warm-up exclusion the first
circuit's time never enters the statistics. The clock is injectable so the
timing protocol itself is testable; the dense oracle runs outside it.

Every rank returns a `BenchmarkReport` holding its own timings and its own
exchange traffic, and which dense kernel ran (the compiled one, or numpy
where it cannot be built, which runs several times slower); the caller
prints rank 0's. The report's fields are its JSON keys, so
`render("json")` and `report_from_json` are inverses.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import circuits as circ
from . import ckernel
from . import svcore as sv
from .dist import run_distributed, sample_distributed
from .fabric import FabricEndpoint
from .svcore import Circuit, CountsDistribution

SCHEMA_VERSION = 1


def _normalized(dist) -> dict[str, float]:
    if isinstance(dist, CountsDistribution):
        entries, total = dist.entries, dist.total
    else:
        entries, total = dict(dist), float(sum(dist.values()))
    if not entries or total <= 0:
        raise ValueError("empty distribution")
    return {k: v / total for k, v in entries.items()}


def hellinger_fidelity(p: dict[str, float], q: dict[str, float]) -> float:
    """Raw Hellinger fidelity (sum_x sqrt(p_x q_x))^2 of two normalized
    distributions; `math.fsum` rounds once, whatever the key set's order."""
    overlap = math.fsum(math.sqrt(p[x] * q[x]) for x in p.keys() & q.keys())
    return overlap * overlap


def fidelity(measured, ideal) -> float | None:
    """Normalized Hellinger fidelity in [0, 1]: the raw fidelity rescaled
    against the ideal's fidelity with the uniform distribution over the
    measured register, clamped to [0, 1]. Equal distributions score 1,
    uniform output against a nonuniform ideal scores 0. A uniform ideal
    over two or more outcomes leaves nothing to rescale against, and shot
    noise keeps a correct run's counts from matching it exactly, so it
    scores None (reported as null, like a state above the oracle cap)."""
    p = _normalized(measured)
    q = _normalized(ideal)
    widths = {len(k) for k in p} | {len(k) for k in q}
    if len(widths) != 1:
        raise ValueError("bitstring widths differ between distributions")
    width = widths.pop()
    f = hellinger_fidelity(p, q)
    # same floating path as above so a uniform measured distribution lands
    # exactly on the baseline
    u = 1.0 / float(1 << width)
    overlap_u = math.fsum(math.sqrt(v * u) for v in q.values())
    f_uniform = overlap_u * overlap_u
    if 1.0 - f_uniform < 1e-12:
        # the ideal *is* uniform: over one outcome (an empty register) only
        # an exact match counts, over more no sampled fidelity is defined
        if width:
            return None
        return 1.0 if f > 1.0 - 1e-12 else 0.0
    return min(1.0, max(0.0, (f - f_uniform) / (1.0 - f_uniform)))


@dataclass
class BenchmarkConfig:
    """One benchmark invocation; all ranks must pass identical configs."""

    benchmark: str  # qpe | tfim | random
    n: int
    shots: int = 1000
    num_circuits: int = 10
    exclude_warmup: bool = True
    steps: int = 10
    seed: int = 1234
    fabric: str = "loopback"
    fusion: bool = True
    # tfim lattice/model parameters
    rows: int | None = None
    cols: int | None = None
    lattice: str = "square"
    periodic: bool = True
    coupling: float = 1.0
    transverse_field: float = 1.0
    t_total: float = 1.0
    # random-circuit size (defaults to 10 gates per qubit)
    random_gates: int | None = None

    def validate(self):
        if self.benchmark not in ("qpe", "tfim", "random"):
            raise ValueError(f"unknown benchmark {self.benchmark!r}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.num_circuits < 1:
            raise ValueError("num_circuits must be >= 1")
        if self.exclude_warmup and self.num_circuits < 2:
            raise ValueError("warm-up exclusion needs at least two circuits")
        if self.n < 1:
            raise ValueError("qubit count must be >= 1")


@dataclass
class CircuitResult:
    index: int
    name: str
    wall_time_seconds: float
    # None above the oracle cap, or when the ideal is uniform (`fidelity`)
    fidelity: float | None


@dataclass
class BenchmarkReport:
    """One rank's report. The fields, in order, are the JSON keys. `traffic`
    counts this rank's exchange() traffic since its endpoint was created;
    reports written before every endpoint counted its traffic may hold null.
    `kernel` is "compiled" or "numpy"; reports written before it was
    recorded lack the key and read as null."""

    schema_version: int
    config: dict
    world_size: int
    transport: str
    kernel: str | None
    creation_time_seconds: float
    circuits: list[CircuitResult]
    warmup_excluded: bool
    timed_circuits: int
    mean_wall_time_seconds: float
    std_wall_time_seconds: float
    traffic: dict | None

    def render(self, fmt: str) -> str:
        """The report as JSON, or as CSV: one row per circuit, then the mean
        and the std of the timed circuits' wall times, then the kernel, if
        known."""
        if fmt == "json":
            return json.dumps(asdict(self), indent=2) + "\n"
        if fmt != "csv":
            raise ValueError(f"unknown report format {fmt!r}")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["circuit", "name", "wall_time_seconds", "fidelity"])
        for c in self.circuits:
            writer.writerow([c.index, c.name, repr(c.wall_time_seconds),
                             "" if c.fidelity is None else repr(c.fidelity)])
        suffix = "_excl_warmup" if self.warmup_excluded else ""
        benchmark = self.config["benchmark"]
        writer.writerow(["mean" + suffix, benchmark, repr(self.mean_wall_time_seconds), ""])
        writer.writerow(["std" + suffix, benchmark, repr(self.std_wall_time_seconds), ""])
        if self.kernel is not None:
            writer.writerow(["kernel", self.kernel, "", ""])
        return buf.getvalue()


def report_from_json(text: str) -> BenchmarkReport:
    """The inverse of `render("json")`. A document that is not a report
    raises ValueError naming its missing or unknown keys, or the field
    whose value has the wrong type: at the top level, in each circuit, in
    `config` against `BenchmarkConfig`'s fields, and in `traffic` (or null)
    against its int totals and its `bytes_by_global_bit` of str -> int.
    A report without `kernel` reads as one with a null kernel."""
    d = json.loads(text)
    if isinstance(d, dict):
        d.setdefault("kernel", None)
    d = _fields_of(d, BenchmarkReport)
    d["circuits"] = [CircuitResult(**_fields_of(c, CircuitResult)) for c in d["circuits"]]
    _fields_of(d["config"], BenchmarkConfig)
    if d["traffic"] is not None:
        _keys_of(d["traffic"], "traffic", _TRAFFIC_TYPES)
        for bit, nbytes in d["traffic"]["bytes_by_global_bit"].items():
            _check_type("traffic bytes_by_global_bit", bit, "int", nbytes)
    return BenchmarkReport(**d)


# the exact types of JSON value each annotation admits: a bool is no number
_JSON_TYPES = {"int": [int], "float": [int, float], "str": [str], "bool": [bool],
               "dict": [dict], "list": [list], "None": [type(None)]}
# the annotation of each value `run_benchmark` writes into `traffic`
_TRAFFIC_TYPES = {"exchange_bytes_total": "int", "messages_total": "int",
                  "bytes_by_global_bit": "dict"}


def _check_type(owner: str, name: str, annotation: str, value) -> None:
    """ValueError naming the field unless `value` is a JSON value of the
    annotated type, such as "float | None" or "list[CircuitResult]"."""
    kind = type(value)
    if not any(kind in _JSON_TYPES[t.split("[")[0]] for t in annotation.split(" | ")):
        raise ValueError(f"{owner} field {name!r} must be {annotation}, got {kind.__name__}")


def _fields_of(d, cls) -> dict:
    """`d` if it holds exactly the fields of dataclass `cls`, each a JSON
    value of the field's annotated type; otherwise ValueError naming what
    is wrong."""
    return _keys_of(d, cls.__name__, {f.name: f.type for f in fields(cls)})


def _keys_of(d, owner: str, types: dict[str, str]) -> dict:
    """`d` if it holds exactly the keys of `types`, each a JSON value of its
    annotated type; otherwise ValueError naming what is wrong."""
    names = list(types)
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object with keys {names}, got {type(d).__name__}")
    missing = [k for k in names if k not in d]
    unknown = [k for k in d if k not in names]
    if missing or unknown:
        raise ValueError(f"not a {owner}: missing keys {missing}, unknown keys {unknown}")
    for name, annotation in types.items():
        _check_type(owner, name, annotation, d[name])
    return d


def _build_circuits(cfg: BenchmarkConfig) -> list[Circuit]:
    if cfg.benchmark == "qpe":
        k = cfg.n - 1
        if k < 1:
            raise ValueError("qpe needs at least 2 qubits (k counting + 1 target)")
        return [circ.build_qpe(circ.QpeSpec(k, i % (1 << k)))
                for i in range(cfg.num_circuits)]
    if cfg.benchmark == "tfim":
        rows = cfg.rows if cfg.rows is not None else 1
        cols = cfg.cols if cfg.cols is not None else cfg.n
        if rows * cols != cfg.n:
            raise ValueError(f"lattice {rows}x{cols} does not have {cfg.n} sites")
        lattice = circ.LatticeSpec(rows, cols, cfg.lattice, cfg.periodic)
        spec = circ.tfim_from_lattice(
            lattice, cfg.coupling, cfg.transverse_field, cfg.t_total, cfg.steps
        )
        return [circ.build_tfim(spec)] * cfg.num_circuits
    # random: a fresh seed per circuit
    gates = cfg.random_gates if cfg.random_gates is not None else 10 * cfg.n
    return [
        circ.build_random_circuit(cfg.n, gates, cfg.seed + i)
        for i in range(cfg.num_circuits)
    ]


def _ideal_distributions(cfg: BenchmarkConfig, built: list[Circuit]) -> list[dict | None]:
    if cfg.benchmark == "qpe":  # circuit i estimates phase (i mod 2^k) / 2^k
        k = cfg.n - 1
        return [{sv.bitstring(i % (1 << k), k): 1.0} for i in range(len(built))]
    if cfg.benchmark == "tfim":  # one circuit, repeated
        return [_oracle_distribution(built[0])] * len(built)
    return [_oracle_distribution(c) for c in built]


def _oracle_distribution(circuit: Circuit) -> dict[str, float] | None:
    """Ideal outcome distribution from the dense oracle, or None above the
    cap (a missing fidelity is reported as null, never approximated)."""
    if circuit.num_qubits > sv.QUBIT_CAP:
        return None
    return sv.probabilities(sv.dense_run(circuit), circuit.measured)


def run_benchmark(
    cfg: BenchmarkConfig,
    ep: FabricEndpoint,
    clock=time.perf_counter,
) -> BenchmarkReport:
    """SPMD benchmark body; every rank calls with an identical config and
    returns its own report (timings and traffic are measured per rank).
    A loopback world whose ranks pass the same `cfg` object builds the
    circuits and runs the dense oracle once (`FabricEndpoint.shared`), so
    its ranks run the same circuit objects and plan each once; a rank that
    waits for another's build counts the wait as creation time."""
    cfg.validate()
    blob = json.dumps(asdict(cfg), sort_keys=True).encode()
    if ep.broadcast(0, blob) != blob:
        raise ValueError("benchmark config differs across ranks")

    t_create = clock()
    built = ep.shared(cfg, lambda: _build_circuits(cfg))
    creation_seconds = clock() - t_create
    ideals = ep.shared(cfg, lambda: _ideal_distributions(cfg, built))

    results: list[CircuitResult] = []
    for i, circuit in enumerate(built):
        ep.barrier()
        t0 = clock()
        st = run_distributed(circuit, ep, fusion=cfg.fusion)
        counts = sample_distributed(st, cfg.shots, cfg.seed + i, circuit.measured)
        ep.barrier()
        wall = clock() - t0
        ideal = ideals[i]
        fid = None if ideal is None else fidelity(counts, ideal)
        results.append(CircuitResult(i, circuit.name, wall, fid))

    timed = [r.wall_time_seconds for r in results[1 if cfg.exclude_warmup else 0 :]]
    log = ep.traffic
    return BenchmarkReport(
        schema_version=SCHEMA_VERSION,
        config=asdict(cfg),
        world_size=ep.world_size,
        transport=ep.kind,
        kernel="numpy" if ckernel.load() is None else "compiled",
        creation_time_seconds=creation_seconds,
        circuits=results,
        warmup_excluded=cfg.exclude_warmup,
        timed_circuits=len(timed),
        mean_wall_time_seconds=float(np.mean(timed)),
        std_wall_time_seconds=float(np.std(timed)),
        traffic={
            "exchange_bytes_total": log.bytes_sent(),
            "messages_total": sum(log.bit_messages.values()),
            "bytes_by_global_bit": {str(b): v for b, v in sorted(log.bit_bytes.items())},
        },
    )
