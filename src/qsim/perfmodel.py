"""Analytic interconnect performance model.

Predicted time for one rank is

    T = local_bytes / mem_bw
      + sum over global bits g of exchange_bytes[g] / (bidir_bw(g) / 2)

where exchange bytes at bit g are what one rank sends in one direction per
half-slice relocalization and the link serving bit g comes from the
hierarchical topology. There is no latency or contention term: bisection
bandwidth is the modeled constraint. Traffic is a sum over the step list
that the distributed engine executes (`dist.schedule`), so the counts
match, bit by bit, the sends that each endpoint logs.

Bandwidth catalog values are peak bidirectional figures in bytes/second
(1 GB/s = 1e9 B/s). Per-system memory bandwidths are calibration inputs,
not measurements; override them in topology configs as needed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .dist import schedule, sweeps
from .fabric import rank_bits
from .svcore import Circuit

_GB = 1e9
# bytes per complex128 amplitude
_AMP_BYTES = 16


@dataclass(frozen=True)
class LinkModel:
    """A named interconnect with its peak bidirectional bandwidth."""

    name: str
    bidir_bw: float  # bytes/second

    def __post_init__(self):
        if self.bidir_bw <= 0:
            raise ValueError("bandwidth must be positive")


_CATALOG_GBPS = {
    "PCIe 4.0": 64.0,
    "PCIe 5.0": 128.0,
    "PCIe 6.0": 256.0,
    "NVLink 3": 600.0,
    "NVLink 4": 900.0,
    "NVLink C2C": 900.0,
    "Infinity Fabric": 153.6,
    "Slingshot 11": 25.0,
    "ConnectX-7": 50.0,
    "NVLink 5": 1800.0,
}


def link(name: str) -> LinkModel:
    """A catalog interconnect at its peak bidirectional bandwidth."""
    try:
        return LinkModel(name, _CATALOG_GBPS[name] * _GB)
    except KeyError:
        raise ValueError(
            f"unknown interconnect {name!r}; known: {sorted(_CATALOG_GBPS)}"
        ) from None


DEFAULT_MEM_BW = 8e12  # B/s, HBM3e-class device memory


@dataclass(frozen=True)
class Topology:
    """Hierarchical communication domains: `levels` lists (domain_size,
    link) pairs covering the global index bits from least to most
    significant. Total ranks = product of domain sizes."""

    levels: tuple[tuple[int, LinkModel], ...]
    mem_bw: float = DEFAULT_MEM_BW

    def __post_init__(self):
        if self.mem_bw <= 0:
            raise ValueError("memory bandwidth must be positive")
        for size, _ in self.levels:
            if rank_bits(size, "domain size") == 0:
                raise ValueError("domain size must be at least 2, got 1")

    @property
    def total_ranks(self) -> int:
        return math.prod(size for size, _ in self.levels)

    @property
    def global_bits(self) -> int:
        return rank_bits(self.total_ranks)

    def level_of_bit(self, g: int) -> int:
        acc = 0
        for lvl, (size, _) in enumerate(self.levels):
            acc += rank_bits(size)
            if g < acc:
                return lvl
        raise ValueError(f"global bit {g} beyond {self.global_bits} bits")

    def bit_link(self, g: int) -> LinkModel:
        return self.levels[self.level_of_bit(g)][1]

    def for_ranks(self, world_size: int) -> "Topology":
        """The same hierarchy truncated to the first log2(P) global bits."""
        rank_bits(world_size)
        if world_size > self.total_ranks:
            raise ValueError(
                f"topology covers {self.total_ranks} ranks, not {world_size}"
            )
        remaining = world_size
        levels = []
        for size, lnk in self.levels:
            take = min(size, remaining)
            if take > 1:
                levels.append((take, lnk))
                remaining //= take
        return Topology(tuple(levels), self.mem_bw)


def _two_level(inside: str, between: str, total: int, mem_bw: float) -> Topology:
    """Nodes of 4 ranks on link `inside`, joined by link `between` when
    `total` spans more than one node."""
    levels = [(4, link(inside))]
    if total > 4:
        levels.append((total // 4, link(between)))
    return Topology(tuple(levels), mem_bw)


def nvl72_topology(total: int = 64, mem_bw: float = DEFAULT_MEM_BW) -> Topology:
    """All-to-all NVLink 5 rack: 4-GPU nodes, then a rack level on the
    same fabric."""
    return _two_level("NVLink 5", "NVLink 5", total, mem_bw)


def ib_topology(total: int = 64, mem_bw: float = DEFAULT_MEM_BW) -> Topology:
    """NVLink 5 inside a 4-GPU node, NDR InfiniBand (ConnectX-7) between
    nodes."""
    return _two_level("NVLink 5", "ConnectX-7", total, mem_bw)


def perlmutter_topology(total: int = 64, mem_bw: float = 2e12) -> Topology:
    """A100-class baseline: NVLink 3 inside a 4-GPU node, Slingshot 11
    between nodes. mem_bw is a public-knowledge placeholder, not a paper
    value; treat it as a calibration input."""
    return _two_level("NVLink 3", "Slingshot 11", total, mem_bw)


@dataclass
class TrafficProfile:
    """Per-rank traffic for one circuit execution. `exchange_bytes_per_level`
    maps global bit -> bytes one rank sends in one direction."""

    n: int
    k: int
    local_sweeps: int
    local_bytes: int
    exchange_bytes_per_level: dict[int, int] = field(default_factory=dict)
    swap_count_per_level: dict[int, int] = field(default_factory=dict)

    @property
    def total_exchange_bytes(self) -> int:
        return sum(self.exchange_bytes_per_level.values())

    @property
    def swap_count(self) -> int:
        return sum(self.swap_count_per_level.values())


def schedule_traffic(
    circuit: Circuit,
    n: int,
    topology: Topology,
    fusion: bool = False,
) -> TrafficProfile:
    """Sum the distributed engine's own step list, `dist.schedule`, as the
    engine runs it (`dist.sweeps`). Every local step, with the diagonal
    steps folded into it, and every diagonal step left on its own sweeps
    the slice once (read+write); a diagonal step from fusion may span up
    to 13 qubits and is still one sweep. Every relocalization moves half
    the slice per rank in each direction."""
    k = topology.global_bits
    steps = schedule(circuit, n, k, fusion)
    swept = sum(step.action in ("local", "diagonal") for step, _, _ in sweeps(steps))
    # a relocalization crosses the rank-id bit of its global position
    swaps = Counter(step.global_pos - (n - k) for step in steps if step.action == "relocalize")
    slice_bytes = (1 << (n - k)) * _AMP_BYTES
    half_slice = (1 << max(n - k - 1, 0)) * _AMP_BYTES
    return TrafficProfile(
        n=n,
        k=k,
        local_sweeps=swept,
        local_bytes=swept * 2 * slice_bytes,
        exchange_bytes_per_level={b: c * half_slice for b, c in sorted(swaps.items())},
        swap_count_per_level=dict(sorted(swaps.items())),
    )


def predict_time(profile: TrafficProfile, topology: Topology) -> float:
    """Per-rank execution time under the bandwidth-only model."""
    t = profile.local_bytes / topology.mem_bw
    for g, nbytes in profile.exchange_bytes_per_level.items():
        t += nbytes / (topology.bit_link(g).bidir_bw / 2.0)
    return t


@dataclass(frozen=True)
class CurvePoint:
    P: int
    n: int
    t_seconds: float
    efficiency: float
    speedup: float


def weak_scaling_curve(
    base_n: int,
    base_circuit_family,
    topology: Topology,
    max_ranks: int,
    fusion: bool = True,
) -> list[CurvePoint]:
    """One qubit is added per rank doubling: at P = 2^j the circuit has
    base_n + j qubits. The ideal time is the same circuit's single-rank
    time divided by P (normalizing away the growing gate count);
    efficiency = T_ideal / T_P and speedup = P * efficiency."""
    points = []
    for j in range(rank_bits(max_ranks, "max_ranks") + 1):
        P = 1 << j
        n = base_n + j
        circuit = base_circuit_family(n)
        topo = topology.for_ranks(P)
        t = predict_time(schedule_traffic(circuit, n, topo, fusion), topo)
        topo1 = topology.for_ranks(1)
        t1 = predict_time(schedule_traffic(circuit, n, topo1, fusion), topo1)
        eff = (t1 / P) / t
        points.append(CurvePoint(P, n, t, eff, P * eff))
    return points


def strong_scaling_curve(
    n: int,
    circuit: Circuit,
    topology: Topology,
    max_ranks: int,
    fusion: bool = True,
) -> list[CurvePoint]:
    """Fixed problem, growing ranks; speedup relative to P = 1."""
    points = []
    t1 = None
    for j in range(rank_bits(max_ranks, "max_ranks") + 1):
        P = 1 << j
        topo = topology.for_ranks(P)
        t = predict_time(schedule_traffic(circuit, n, topo, fusion), topo)
        if t1 is None:
            t1 = t
        speedup = t1 / t
        points.append(CurvePoint(P, n, t, speedup / P, speedup))
    return points


def curve_to_csv(points: list[CurvePoint]) -> str:
    lines = ["P,n,T_seconds,efficiency,speedup"]
    for pt in points:
        lines.append(
            f"{pt.P},{pt.n},{pt.t_seconds:.9e},{pt.efficiency:.6f},{pt.speedup:.6f}"
        )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# topology config files (plain key=value text)
# --------------------------------------------------------------------------


def read_kv(text: str) -> dict[str, str]:
    """key = value lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_topology(text: str) -> Topology:
    """Config keys: mem_bw (bytes/s), and per level i: level.<i>.size plus
    either level.<i>.link (catalog name) or level.<i>.bw (bytes/s)."""
    kv = read_kv(text)
    mem_bw = float(kv.pop("mem_bw", DEFAULT_MEM_BW))
    by_level: dict[int, dict[str, str]] = {}
    for key, value in kv.items():
        parts = key.split(".")
        if len(parts) != 3 or parts[0] != "level":
            raise ValueError(f"unknown topology key {key!r}")
        by_level.setdefault(int(parts[1]), {})[parts[2]] = value
    levels = []
    for i in sorted(by_level):
        fields = by_level[i]
        if "size" not in fields:
            raise ValueError(f"level {i} needs a size")
        size = int(fields["size"])
        if "link" in fields:
            lnk = link(fields["link"])
        elif "bw" in fields:
            lnk = LinkModel(f"custom-level-{i}", float(fields["bw"]))
        else:
            raise ValueError(f"level {i} needs a link name or a bw value")
        levels.append((size, lnk))
    return Topology(tuple(levels), mem_bw)


def load_topology(path) -> Topology:
    with open(path, "r", encoding="utf-8") as f:
        return parse_topology(f.read())
