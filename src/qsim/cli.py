"""Command-line frontend.

Subcommands:
  bench {qpe,tfim,random}   run a benchmark on a loopback or tcp world
  model predict             predicted execution time for one configuration
  model weak                weak-scaling curve (CSV or JSON)
  model strong              strong-scaling curve (CSV or JSON)
  report                    re-emit a saved JSON report (e.g. as CSV)

Flags are the one input path: no environment variable or config file
sets a benchmark parameter. Rank counts (--ranks, --max-ranks) follow the
one power-of-two rule, `fabric.rank_bits`.
Loopback mode spawns all ranks as worker threads in this process; tcp mode
runs as one rank of an externally launched world. A dense step splits over
the process's cores, or over OMP_NUM_THREADS of them if that is set, one
step at a time, so a loopback rank whose step overlaps another's runs it
serially; ranks that share a host set OMP_NUM_THREADS to their share of
its cores, as perfbench does. Either way every rank measures its own
timings and relocalization traffic, and only rank 0 prints its report (and
writes --out).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench, circuits, dist, fabric, perfmodel
from .bench import BenchmarkConfig

_FABRICS = ("loopback", "tcp")
_TOPOLOGIES = {
    "nvl72": perfmodel.nvl72_topology,
    "ib": perfmodel.ib_topology,
    "perlmutter": perfmodel.perlmutter_topology,
}


def _add_common_bench_flags(parser):
    parser.add_argument("-n", "--qubits", type=int, required=True)
    parser.add_argument("-s", "--shots", type=int, default=1000)
    parser.add_argument("-c", "--circuits", type=int, default=10)
    parser.add_argument("--ranks", type=int, default=1)
    parser.add_argument("--fabric", choices=_FABRICS, default="loopback")
    parser.add_argument("--rendezvous", default=None)
    parser.add_argument("--rank", type=int, default=None,
                        help="this process's rank (tcp mode only)")
    parser.add_argument("--fusion", choices=("on", "off"), default="on")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--no-warmup-exclude", action="store_true",
                        help="keep the first circuit's time in the statistics")
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def _add_model_flags(parser):
    parser.add_argument("--topology", default="nvl72",
                        help=f"preset name ({', '.join(_TOPOLOGIES)}), sized to "
                             "cover the rank count, or topology config file "
                             "(default: nvl72)")
    parser.add_argument("--fusion", choices=("on", "off"), default="on")
    parser.add_argument("--family", choices=("qpe", "tfim"), default="qpe")
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="qsim")
    sub = root.add_subparsers(dest="command", required=True)

    bench_p = sub.add_parser("bench", help="run a benchmark")
    bench_sub = bench_p.add_subparsers(dest="benchmark", required=True)
    for kind in ("qpe", "tfim", "random"):
        sp = bench_sub.add_parser(kind)
        _add_common_bench_flags(sp)
        if kind == "tfim":
            sp.add_argument("--steps", type=int, default=10)
            sp.add_argument("--rows", type=int, default=None)
            sp.add_argument("--cols", type=int, default=None)
            sp.add_argument("--lattice", choices=("square", "triangular"),
                            default="square")
            sp.add_argument("--open-boundary", action="store_true")
            sp.add_argument("--coupling", type=float, default=1.0)
            sp.add_argument("--field", type=float, default=1.0)
            sp.add_argument("--time", type=float, default=1.0, dest="t_total")
        if kind == "random":
            sp.add_argument("--gates", type=int, default=None)

    model_p = sub.add_parser("model", help="analytic performance model")
    model_sub = model_p.add_subparsers(dest="model_cmd", required=True)
    predict = model_sub.add_parser("predict")
    predict.add_argument("-n", "--qubits", type=int, required=True)
    predict.add_argument("--ranks", type=int, default=1)
    _add_model_flags(predict)
    weak = model_sub.add_parser("weak")
    weak.add_argument("--base-n", type=int, required=True)
    weak.add_argument("--max-ranks", type=int, required=True)
    _add_model_flags(weak)
    strong = model_sub.add_parser("strong")
    strong.add_argument("-n", "--qubits", type=int, required=True)
    strong.add_argument("--max-ranks", type=int, required=True)
    _add_model_flags(strong)

    report_p = sub.add_parser("report", help="re-emit a saved JSON report")
    report_p.add_argument("path")
    report_p.add_argument("--format", choices=("json", "csv"), default="csv")
    report_p.add_argument("--out", default=None)

    return root


def _bench_config(args) -> BenchmarkConfig:
    """The config the flags spell out; a family's own flags set its fields."""
    family = {}
    if args.benchmark == "tfim":
        family = dict(steps=args.steps, rows=args.rows, cols=args.cols,
                      lattice=args.lattice, periodic=not args.open_boundary,
                      coupling=args.coupling, transverse_field=args.field,
                      t_total=args.t_total)
    if args.benchmark == "random":
        family = dict(random_gates=args.gates)
    return BenchmarkConfig(
        benchmark=args.benchmark,
        n=args.qubits,
        shots=args.shots,
        num_circuits=args.circuits,
        exclude_warmup=not args.no_warmup_exclude,
        seed=args.seed,
        fabric=args.fabric,
        fusion=args.fusion == "on",
        **family,
    )


def _write(text: str, out: str | None) -> None:
    """Print text and, with --out, write the same text to that file."""
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def _run_bench(args) -> int:
    fabric.rank_bits(args.ranks, "--ranks")
    cfg = _bench_config(args)

    def body(ep):
        report = bench.run_benchmark(cfg, ep)
        if ep.rank == 0:
            _write(report.render(args.format), args.out)

    if args.fabric == "loopback":
        if args.rank is not None:
            raise ValueError("--rank only applies to the tcp fabric")
        fabric.run_spmd(fabric.create_world("loopback", args.ranks), body)
        return 0
    # tcp: this process is one rank of an external launch
    ep = fabric.create_world(
        "tcp", args.ranks, rendezvous=args.rendezvous, rank=args.rank
    )
    try:
        body(ep)
    finally:
        ep.close()
    return 0


def _model_ranks(args) -> int:
    return args.ranks if args.model_cmd == "predict" else args.max_ranks


def _topology(args) -> perfmodel.Topology:
    """A preset by name, built for at least 64 ranks and at least the
    model's rank count, else a config file by path."""
    if args.topology in _TOPOLOGIES:
        return _TOPOLOGIES[args.topology](total=max(64, _model_ranks(args)))
    try:
        return perfmodel.load_topology(args.topology)
    except FileNotFoundError:
        raise ValueError(
            f"--topology {args.topology!r} is neither a preset "
            f"({', '.join(_TOPOLOGIES)}) nor an existing config file"
        ) from None


def _family(args):
    if args.family == "qpe":
        return lambda n: circuits.build_qpe(circuits.QpeSpec(n - 1, 1))
    steps = args.steps

    def tfim_family(n):
        lattice = circuits.LatticeSpec(1, n, "square", periodic=True)
        return circuits.build_tfim(circuits.tfim_from_lattice(lattice, steps=steps))

    return tfim_family


def _emit_curve(points, args) -> None:
    if args.format == "csv":
        text = perfmodel.curve_to_csv(points)
    else:
        text = json.dumps(
            [
                {
                    "P": pt.P,
                    "n": pt.n,
                    "T_seconds": pt.t_seconds,
                    "efficiency": pt.efficiency,
                    "speedup": pt.speedup,
                }
                for pt in points
            ],
            indent=2,
        ) + "\n"
    _write(text, args.out)


def _run_model(args) -> int:
    flag = "--ranks" if args.model_cmd == "predict" else "--max-ranks"
    fabric.rank_bits(_model_ranks(args), flag)
    topology = _topology(args)
    fusion = args.fusion == "on"
    family = _family(args)
    if args.model_cmd == "predict":
        circuit = family(args.qubits)
        topo = topology.for_ranks(args.ranks)
        profile = perfmodel.schedule_traffic(circuit, args.qubits, topo, fusion)
        out = {
            "P": args.ranks,
            "n": args.qubits,
            "circuit": circuit.name,
            "predicted_seconds": perfmodel.predict_time(profile, topo),
            "local_sweeps": profile.local_sweeps,
            "local_bytes": profile.local_bytes,
            "exchange_bytes_per_level": {
                str(b): v for b, v in profile.exchange_bytes_per_level.items()
            },
            "swap_count_per_level": {
                str(b): v for b, v in profile.swap_count_per_level.items()
            },
        }
        _write(json.dumps(out, indent=2) + "\n", args.out)
        return 0
    if args.model_cmd == "weak":
        points = perfmodel.weak_scaling_curve(
            args.base_n, family, topology, args.max_ranks, fusion
        )
    else:
        circuit = family(args.qubits)
        points = perfmodel.strong_scaling_curve(
            args.qubits, circuit, topology, args.max_ranks, fusion
        )
    _emit_curve(points, args)
    return 0


def _run_report(args) -> int:
    with open(args.path, "r", encoding="utf-8") as f:
        report = bench.report_from_json(f.read())
    _write(report.render(args.format), args.out)
    return 0


def parse_and_run(argv=None) -> int:
    """Parse argv and execute. Returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        if args.command == "bench":
            return _run_bench(args)
        if args.command == "model":
            return _run_model(args)
        return _run_report(args)
    except (ValueError, OSError, fabric.FabricError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> int:
    return parse_and_run()


if __name__ == "__main__":
    raise SystemExit(main())
