"""Command line front end.

Subcommands:
  run      simulate a config and write metrics.csv + summary.yaml
  profile  same, with convergence-parameter estimation enabled
  bound    evaluate the convergence-rate bounds from a parameter file
  sweep    run a seed x parameter grid, one output directory per cell

Configuration errors exit with status 2 and name the offending key; a
missing file also exits 2.  A run that diverges numerically or breaks a
protocol invariant exits with status 3 and a one-line `error:` message.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import Any, Dict, List, Optional

import numpy as np
import yaml

from . import harness
from .errors import ConfigError, NumericDivergenceError, ProtocolError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afafed",
        description="Asynchronous, fair, adaptive federated learning simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("run", "run one simulation"),
        ("profile", "run one simulation with parameter estimation"),
        ("bound", "evaluate convergence-rate bounds from a parameter file"),
        ("sweep", "run a seed/parameter grid"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="YAML configuration file")
        p.add_argument("--out", required=(name != "bound"),
                       help="output directory" + ("" if name != "bound" else " (optional)"))
        if name in ("run", "profile", "sweep"):
            p.add_argument("--seed", type=int, default=None,
                           help="override the configured seed")
    return parser


def _load(path: str, seed: Optional[int]) -> Dict[str, Any]:
    cfg = harness.load_config(path)
    if seed is not None:
        cfg["sim"]["seed"] = seed
    return cfg


def _cmd_run(args: argparse.Namespace, profiling: bool) -> int:
    cfg = _load(args.config, args.seed)
    exp, result, estimates = harness.run_experiment(cfg, enable_profiling=profiling)
    harness.write_outputs(args.out, exp, result, estimates)
    final = result.rows[-1].global_risk if result.rows else None
    print(f"aggregations={result.aggregations} final_time={result.final_time:.6g} "
          f"final_risk={'n/a' if final is None else f'{final:.6g}'}")
    if estimates is not None:
        print(f"estimates: c_hat={estimates.c_hat} gamma_hat={estimates.gamma_hat} "
              f"a_hat={estimates.a_hat} feasible={estimates.feasible}")
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{args.config}: top level must be a mapping")
    out = harness.evaluate_bounds(doc)
    print(f"beta_max_admissible={out['beta_max_admissible']:.12g}")
    if out.get("constant") is not None:
        print(f"bound_constant_beta={out['constant']:.12g} (beta={out['constant_beta']:.12g})")
    else:
        print(f"bound_constant_beta=refused ({out['constant_refused']})")
    print(f"bound_clipped_beta={out['clipped']:.12g}")
    if "scaled" in out:
        print(f"bound_scaled={out['scaled']['bound']:.12g} "
              f"(C={out['scaled']['c']:.6g} Gamma={out['scaled']['gamma']:.6g} "
              f"A={out['scaled']['a']:.6g})")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "bounds.yaml"), "w", encoding="utf-8") as fh:
            yaml.safe_dump(out, fh, sort_keys=True)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{args.config}: top level must be a mapping")
    sweep = doc.pop("sweep", None)
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: config needs a sweep section with seeds and/or grid")
    seeds: List[int] = list(sweep.get("seeds", []))
    if args.seed is not None:
        seeds = [args.seed]
    if not seeds:
        seeds = [harness.resolve_config(doc)["sim"]["seed"]]
    grid: Dict[str, List[Any]] = sweep.get("grid", {}) or {}
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.grid.{key}: need a non-empty list of values")

    keys = sorted(grid)
    cells = list(itertools.product(*(grid[k] for k in keys))) if keys else [()]
    index_rows = []
    for seed in seeds:
        for values in cells:
            cfg = harness.resolve_config(doc)
            cfg["sim"]["seed"] = seed
            label_parts = [f"seed{seed}"]
            for key, value in zip(keys, values):
                harness.set_by_path(cfg, key, value)
                label_parts.append(f"{key.split('.')[-1]}{value}")
            label = "_".join(label_parts)
            cell_dir = os.path.join(args.out, label)
            exp, result, estimates = harness.run_experiment(cfg)
            harness.write_outputs(cell_dir, exp, result, estimates)
            final = result.rows[-1].global_risk if result.rows else None
            index_rows.append({
                "cell": label, "seed": seed,
                **{k: v for k, v in zip(keys, values)},
                "aggregations": result.aggregations,
                "final_risk": final,
            })
            print(f"{label}: aggregations={result.aggregations} "
                  f"final_risk={'n/a' if final is None else f'{final:.6g}'}")
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "sweep.yaml"), "w", encoding="utf-8") as fh:
        yaml.safe_dump(harness._plain(index_rows), fh, sort_keys=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # the overflow on the way to a divergence is reported once, as the
        # NumericDivergenceError, not as one numpy warning per operation
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "run":
                return _cmd_run(args, profiling=False)
            if args.command == "profile":
                return _cmd_run(args, profiling=True)
            if args.command == "bound":
                return _cmd_bound(args)
            if args.command == "sweep":
                return _cmd_sweep(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericDivergenceError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
