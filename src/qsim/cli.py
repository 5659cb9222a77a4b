"""Command-line frontend.

Subcommands:
  bench {qpe,tfim,random}   run a benchmark on a loopback or tcp world
  model predict             predicted execution time for one configuration
  model weak                weak-scaling curve (CSV or JSON)
  model strong              strong-scaling curve (CSV or JSON)
  report                    re-emit a saved JSON report (e.g. as CSV)

Environment variables QSIM_FABRIC, QSIM_RENDEZVOUS and QSIM_SEED provide
defaults; explicit flags always win. Loopback mode spawns all ranks as
worker threads in this process; tcp mode runs as one rank of an externally
launched world.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench, circuits, dist, fabric, perfmodel
from .bench import BenchmarkConfig

_FABRICS = ("loopback", "tcp")
_TOPOLOGIES = {
    "nvl72": perfmodel.nvl72_topology,
    "ib": perfmodel.ib_topology,
    "perlmutter": perfmodel.perlmutter_topology,
}


def env_overrides(env=None) -> dict:
    """Defaults drawn from the environment; malformed values name the
    offending variable."""
    env = os.environ if env is None else env
    out: dict = {}
    if "QSIM_FABRIC" in env:
        value = env["QSIM_FABRIC"]
        if value not in _FABRICS:
            raise ValueError(
                f"QSIM_FABRIC must be one of {_FABRICS}, got {value!r}"
            )
        out["fabric"] = value
    if "QSIM_RENDEZVOUS" in env:
        out["rendezvous"] = env["QSIM_RENDEZVOUS"]
    if "QSIM_SEED" in env:
        try:
            out["seed"] = int(env["QSIM_SEED"])
        except ValueError:
            raise ValueError(
                f"QSIM_SEED must be an integer, got {env['QSIM_SEED']!r}"
            ) from None
    return out


def _add_common_bench_flags(parser, defaults):
    parser.add_argument("-n", "--qubits", type=int, required=True)
    parser.add_argument("-s", "--shots", type=int, default=1000)
    parser.add_argument("-c", "--circuits", type=int, default=10)
    parser.add_argument("--ranks", type=int, default=1)
    parser.add_argument("--fabric", choices=_FABRICS,
                        default=defaults.get("fabric", "loopback"))
    parser.add_argument("--rendezvous", default=defaults.get("rendezvous"))
    parser.add_argument("--rank", type=int, default=None,
                        help="this process's rank (tcp mode only)")
    parser.add_argument("--fusion", choices=("on", "off"), default="on")
    parser.add_argument("--seed", type=int, default=defaults.get("seed", 1234))
    parser.add_argument("--no-warmup-exclude", action="store_true",
                        help="keep the first circuit's time in the statistics")
    parser.add_argument("--instrument", action="store_true",
                        help="record exchange traffic into the report")
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def _add_model_flags(parser):
    parser.add_argument("--topology", default="nvl72",
                        help=f"preset name ({', '.join(_TOPOLOGIES)}; 64 ranks) "
                             "or topology config file (default: nvl72)")
    parser.add_argument("--fusion", choices=("on", "off"), default="on")
    parser.add_argument("--family", choices=("qpe", "tfim"), default="qpe")
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser(defaults: dict) -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="qsim")
    sub = root.add_subparsers(dest="command", required=True)

    bench_p = sub.add_parser("bench", help="run a benchmark")
    bench_sub = bench_p.add_subparsers(dest="benchmark", required=True)
    for kind in ("qpe", "tfim", "random"):
        sp = bench_sub.add_parser(kind)
        _add_common_bench_flags(sp, defaults)
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
            sp.add_argument("--tfim-config", default=None,
                            help="key=value file with lattice/model parameters")
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


def _check_power_of_two(value: int, what: str):
    if value < 1 or value & (value - 1):
        raise ValueError(f"{what} must be a power of two, got {value}")


def _bench_config(args) -> BenchmarkConfig:
    cfg = BenchmarkConfig(
        benchmark=args.benchmark,
        n=args.qubits,
        shots=args.shots,
        num_circuits=args.circuits,
        exclude_warmup=not args.no_warmup_exclude,
        seed=args.seed,
        fabric=args.fabric,
        fusion=args.fusion == "on",
    )
    if args.benchmark == "tfim":
        params = {}
        if args.tfim_config:
            with open(args.tfim_config, "r", encoding="utf-8") as f:
                params = perfmodel.read_kv(f.read())
        cfg.steps = int(params.get("steps", args.steps))
        rows = params.get("rows", args.rows)
        cols = params.get("cols", args.cols)
        cfg.rows = int(rows) if rows is not None else None
        cfg.cols = int(cols) if cols is not None else None
        cfg.lattice = params.get("kind", args.lattice)
        if "periodic" in params:
            cfg.periodic = params["periodic"].lower() in ("1", "true", "yes")
        else:
            cfg.periodic = not args.open_boundary
        cfg.coupling = float(params.get("J", args.coupling))
        cfg.transverse_field = float(params.get("h", args.field))
        cfg.t_total = float(params.get("t_total", args.t_total))
    if args.benchmark == "random":
        cfg.random_gates = args.gates
    return cfg


def _emit(report: bench.BenchmarkReport, args, policy) -> None:
    text = report.to_json() if args.format == "json" else report.to_csv()
    policy.print(text)
    if args.out and policy.is_leader:
        bench.emit_report(report, args.format, args.out)


def _run_bench(args) -> int:
    _check_power_of_two(args.ranks, "--ranks")
    cfg = _bench_config(args)
    if args.fabric == "loopback":
        if args.rank is not None:
            raise ValueError("--rank only applies to the tcp fabric")
        world = fabric.create_world("loopback", args.ranks)
        if args.instrument:
            world, _ = fabric.instrument_world(world)

        def body(ep):
            with bench.leader_only_output(ep) as policy:
                report = bench.run_benchmark(cfg, ep)
                _emit(report, args, policy)
            return report

        fabric.run_spmd(world, body)
        return 0
    # tcp: this process is one rank of an external launch
    if args.rank is None or args.rendezvous is None:
        raise ValueError("tcp mode needs --rank and --rendezvous")
    ep = fabric.create_world(
        "tcp", args.ranks, rendezvous=args.rendezvous, rank=args.rank
    )
    if args.instrument:
        ep = fabric.InstrumentedEndpoint(ep)
    try:
        with bench.leader_only_output(ep) as policy:
            policy.redirect_process_stdout()
            report = bench.run_benchmark(cfg, ep)
            _emit(report, args, policy)
    finally:
        ep.close()
    return 0


def _topology(args) -> perfmodel.Topology:
    """A preset by name, else a config file by path."""
    if args.topology in _TOPOLOGIES:
        return _TOPOLOGIES[args.topology](total=64)
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
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)


def _run_model(args) -> int:
    topology = _topology(args)
    fusion = args.fusion == "on"
    family = _family(args)
    if args.model_cmd == "predict":
        _check_power_of_two(args.ranks, "--ranks")
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
        text = json.dumps(out, indent=2) + "\n"
        sys.stdout.write(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
        return 0
    _check_power_of_two(args.max_ranks, "--max-ranks")
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
    text = report.to_json() if args.format == "json" else report.to_csv()
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    if args.out:
        bench.emit_report(report, args.format, args.out)
    return 0


def parse_and_run(argv=None, env=None) -> int:
    """Parse argv (flags beat environment beats defaults) and execute.
    Returns the process exit code."""
    try:
        defaults = env_overrides(env)
        args = build_parser(defaults).parse_args(argv)
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
