"""Command-line entry point: simulate couplings, run verification suites, emit tables.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 runtime failure: an infeasible rate (a contraction rate no coupling can
realize), or a run that cannot go on (a step too large for the random walk,
a pair at the cut locus, a broken driver constraint, a conjugate point).
A runtime failure prints one line to stderr and writes no output file.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .acceptance import SUITES, run_suite
from .couplings import make_strategy, rotation_angle_cos
from .errors import (
    ConjugatePointError,
    CouplingConstraintError,
    CutLocusError,
    DomainError,
    InfeasibleRateError,
    StepTooLargeError,
)
from .simulate import run_paths
from .spaces import ModelSpace, parse_space
from .verify import LAW_TOL, REPORT_KEYS, build_law, drift_identity_check, report_json

SEED_ENV_VAR = "BMCOUPLE_SEED"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


@dataclass
class SimConfig:
    """Validated simulation configuration; renders to and parses from key=value text."""

    space: str = "sphere:2"
    strategy: str = "fixed-s2"
    rho0: float = 1.0
    x0: str | None = None  # explicit start coordinates, comma-separated; win over rho0
    y0: str | None = None
    k: float | None = None
    alpha_override: float | None = None
    eps: float | None = None
    h: float = 1e-3
    t_final: float = 1.0
    paths: int = 100
    seed: int = 0
    record_stride: int = 1
    threads: int = field(default_factory=lambda: os.cpu_count() or 1)
    law: str | None = None
    out: str | None = None

    def render(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "SimConfig":
        values = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line: {raw!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
        return cls(**_coerce_config(values))


def _coerce_config(values: dict) -> dict:
    out = {}
    casts = {f.name: f for f in fields(SimConfig)}
    for key, val in values.items():
        if key not in casts:
            raise DomainError(f"unknown config key {key!r}")
        if key in ("space", "strategy", "law", "out", "x0", "y0"):
            out[key] = val
        elif key in ("paths", "seed", "record_stride", "threads"):
            out[key] = int(val)
        else:
            out[key] = float(val)
    return out


def _start_points(config: SimConfig, space: ModelSpace):
    if (config.x0 is None) != (config.y0 is None):
        raise DomainError("give both --x0 and --y0 or neither")
    if config.x0 is None:
        return space.base_point(), space.point_at_distance(config.rho0)
    x0 = np.array(_parse_grid(config.x0))
    y0 = np.array(_parse_grid(config.y0))
    if x0.shape != (space.ambient_dim,) or y0.shape != (space.ambient_dim,):
        raise DomainError(f"start points need {space.ambient_dim} coordinates each")
    space.check_point(x0)
    space.check_point(y0)
    return x0, y0


def cmd_simulate(config: SimConfig) -> int:
    if config.paths < 1:
        raise DomainError("--paths must be at least 1")
    if config.h <= 0 or config.t_final <= 0:
        raise DomainError("--h and --T must be positive")
    space = parse_space(config.space)
    strategy = make_strategy(
        config.strategy,
        space,
        k=config.k,
        alpha_override=config.alpha_override,
        eps=config.eps,
    )
    x0, y0 = _start_points(config, space)
    law = None if config.law is None else build_law(config.law, space, x0, y0, config.k)
    record = run_paths(
        strategy,
        x0,
        y0,
        h=config.h,
        t_final=config.t_final,
        n_paths=config.paths,
        seed=config.seed,
        record_stride=config.record_stride,
        threads=config.threads,
    )
    summary = dict.fromkeys(REPORT_KEYS)
    summary.update(
        strategy=config.strategy, law=config.law, n_paths=config.paths, h_ladder=[config.h], sup_err=[], z_scores=[]
    )
    if law is not None:
        observed = record.rho if law.observable == "geodesic" else record.chord
        target = law.evaluate(record.times)
        summary["sup_err"] = [float(np.max(np.abs(np.mean(observed, axis=1) - target)))]
        summary["pass"] = summary["sup_err"][0] < LAW_TOL
    out_dir = config.out or "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "trajectories.csv")
    json_path = os.path.join(out_dir, "summary.json")
    with open(csv_path, "w") as handle:
        record.to_csv(handle)
    with open(json_path, "w") as handle:
        handle.write(report_json(summary) + "\n")
    final_rho = record.rho[-1]
    print(f"wrote {csv_path} and {json_path}")
    print(
        f"final distance over {config.paths} paths: mean {np.mean(final_rho):.6f}, "
        f"min {np.min(final_rho):.6f}, max {np.max(final_rho):.6f}"
    )
    if summary["sup_err"]:
        print(f"sup-time mean abs deviation from law {config.law}: {summary['sup_err'][0]:.6f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    kwargs = {}
    if args.threads is not None:
        import inspect

        if "threads" in inspect.signature(SUITES[args.suite]).parameters:
            kwargs["threads"] = args.threads
    result = run_suite(args.suite, **kwargs)
    for line in result["lines"]:
        status = "PASS" if line["ok"] else "FAIL"
        print(f"[{status}] {line['label']}: {line['detail']}")
    print(f"suite {result['suite']}: {'PASS' if result['pass'] else 'FAIL'}")
    return EXIT_OK if result["pass"] else EXIT_FAIL


def _parse_grid(text: str) -> list[float]:
    items = [piece for piece in text.split(",") if piece.strip()]
    return [float(piece) for piece in items]


def _format_table(rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "md":
        head = "| " + " | ".join(columns) + " |"
        sep = "| " + " | ".join("---" for _ in columns) + " |"
        body = ["| " + " | ".join(str(row[c]) for c in columns) + " |" for row in rows]
        return "\n".join([head, sep] + body)
    lines = [",".join(columns)]
    lines += [",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns) for row in rows]
    return "\n".join(lines)


def cmd_table(args) -> int:
    if args.kind == "drift-identity":
        report = drift_identity_check()
        rows = report["rows"]
        columns = ["curvature", "dim", "alpha", "rho", "closed", "assembled", "rel_err"]
    elif args.kind == "feasibility":
        k_grid = _parse_grid(args.k_grid)
        rho_grid = _parse_grid(args.rho_grid)
        if not k_grid or not rho_grid:
            raise DomainError("feasibility table needs non-empty --k-grid and --rho-grid")
        rows = []
        for r in (-1, 0, 1):
            for d in (2, 3):
                space = ModelSpace(r, d)
                for rho in rho_grid:
                    if r == 1 and rho >= np.pi:
                        continue
                    for k in k_grid:
                        cos_alpha = float(rotation_angle_cos(space, k, rho))
                        rows.append(
                            {
                                "curvature": r,
                                "dim": d,
                                "rho": rho,
                                "k": k,
                                "feasible": bool(abs(cos_alpha) <= 1.0),
                            }
                        )
        columns = ["curvature", "dim", "rho", "k", "feasible"]
    elif args.kind == "law-ladder":
        from .acceptance import distance_law_suite

        suite = distance_law_suite(n_paths=args.paths, threads=args.threads or 1)
        rows = []
        for report in suite["reports"]:
            for h, err in zip(report["h_ladder"], report["sup_err"]):
                rows.append(
                    {
                        "strategy": report["strategy"],
                        "law": report["law"],
                        "h": h,
                        "sup_err": err,
                        "fitted_order": report["fitted_order"],
                    }
                )
        columns = ["strategy", "law", "h", "sup_err", "fitted_order"]
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown table kind {args.kind!r}")
    print(_format_table(rows, columns, args.format))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmcouple",
        description="Simulate and verify couplings of Brownian motions on model spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a coupling and write trajectories + summary")
    sim.add_argument("--config", help="key=value file; explicit flags win")
    sim.add_argument("--space", help="space as kind:dim, e.g. sphere:2")
    sim.add_argument("--strategy", help="strategy id")
    sim.add_argument("--rho0", type=float, help="starting geodesic distance")
    sim.add_argument("--x0", help="explicit first start point, comma-separated coordinates")
    sim.add_argument("--y0", help="explicit second start point (overrides --rho0 placement)")
    sim.add_argument("--k", type=float, help="target exponential rate (rotation strategy)")
    sim.add_argument("--alpha-override", type=float, dest="alpha_override")
    sim.add_argument("--eps", type=float, help="patching threshold (enables the regime machine)")
    sim.add_argument("--h", type=float, help="step size")
    sim.add_argument("--T", type=float, dest="t_final", help="time horizon")
    sim.add_argument("--paths", type=int, help="number of Monte Carlo paths")
    sim.add_argument("--seed", type=int, help=f"base seed (default from ${SEED_ENV_VAR} or 0)")
    sim.add_argument("--record-stride", type=int, dest="record_stride")
    sim.add_argument("--threads", type=int)
    sim.add_argument("--law", help="optional closed-form law to compare against")
    sim.add_argument("--out", help="output directory (default: current)")

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("suite", choices=sorted(SUITES))
    ver.add_argument("--threads", type=int)

    tab = sub.add_parser("table", help="emit a comparison table")
    tab.add_argument("kind", choices=["drift-identity", "feasibility", "law-ladder"])
    tab.add_argument("--format", choices=["csv", "md"], default="csv")
    tab.add_argument("--k-grid", default="-2,-1,-0.5,0,0.5,1,2", dest="k_grid")
    tab.add_argument("--rho-grid", default="0.25,0.5,1,2", dest="rho_grid")
    tab.add_argument("--paths", type=int, default=50)
    tab.add_argument("--threads", type=int)
    return parser


def _merge_sim_config(args) -> SimConfig:
    if args.config:
        with open(args.config) as handle:
            config = SimConfig.parse(handle.read())
    else:
        config = SimConfig()
    if args.seed is None and args.config is None and SEED_ENV_VAR in os.environ:
        config.seed = int(os.environ[SEED_ENV_VAR])
    for f in fields(SimConfig):
        value = getattr(args, f.name)
        if value is not None:
            setattr(config, f.name, value)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(_merge_sim_config(args))
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_table(args)
    except InfeasibleRateError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (StepTooLargeError, CutLocusError, CouplingConstraintError, ConjugatePointError) as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DomainError, OSError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
