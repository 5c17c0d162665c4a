"""Command line front end.

Subcommands:
  run      simulate a config and write metrics.csv + summary.yaml
  profile  same, with convergence-parameter estimation enabled
  bound    evaluate the convergence-rate bounds from a parameter file
  sweep    run a seed x parameter grid, one output directory ``cell<i>``
           per cell under ``--out``, indexed in ``--out/sweep.yaml``

Configuration errors exit with status 2 and name the offending key.  A
missing or unreadable config file (malformed YAML, not UTF-8, a directory),
an ``--out`` that cannot be a directory, and a sweep cell whose directory
cannot be one also exit 2, before any run.  A run that diverges numerically
or breaks a protocol invariant exits with status 3 and a one-line `error:`
message.  A sweep records such a cell's fault in its index row and runs the
remaining cells; it exits 3 after the last cell if any cell failed.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

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


def _fmt_risk(risk: Optional[float]) -> str:
    return "n/a" if risk is None else f"{risk:.6g}"


def _cmd_run(args: argparse.Namespace, profiling: bool) -> int:
    cfg = _load(args.config, args.seed)
    exp, result, estimates = harness.run_experiment(cfg, enable_profiling=profiling)
    summary = harness.write_outputs(args.out, exp, result, estimates)
    print(f"aggregations={result.aggregations} final_time={result.final_time:.6g} "
          f"final_risk={_fmt_risk(summary['final_risk'])}")
    if estimates is not None:
        print(f"estimates: c_hat={estimates.c_hat} gamma_hat={estimates.gamma_hat} "
              f"a_hat={estimates.a_hat} feasible={estimates.feasible}")
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    out = harness.evaluate_bounds(harness.read_yaml(args.config))
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
        harness.write_yaml(os.path.join(args.out, "bounds.yaml"), out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    doc = harness.read_yaml(args.config)
    sweep = doc.pop("sweep", None)
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: config needs a sweep section with seeds and/or grid")
    seeds = sweep.get("seeds", [])
    if not isinstance(seeds, list):
        raise ConfigError(f"sweep.seeds: need a list of seeds, got {seeds!r}")
    # --seed replaces sweep.seeds, whose values are then not checked
    seeds = ([("--seed", args.seed)] if args.seed is not None
             else [(f"sweep.seeds[{i}]", seed) for i, seed in enumerate(seeds)])
    grid: Dict[str, List[Any]] = sweep.get("grid", {}) or {}
    if not isinstance(grid, dict):
        raise ConfigError(f"sweep.grid: need a mapping of dotted keys to lists, got {grid!r}")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.grid.{key}: need a non-empty list of values")

    # every cell and its directory are checked before the first cell runs,
    # so a bad value leaves no partial sweep behind
    cells = _sweep_cells(harness.resolve_config(doc), seeds, grid)
    width = len(str(len(cells) - 1))
    names = [f"cell{i:0{width}d}" for i in range(len(cells))]
    for name in names:
        _check_out(os.path.join(args.out, name))
    # the index is written to its .tmp file, then moved onto sweep.yaml
    index_path = os.path.join(args.out, "sweep.yaml")
    tmp = index_path + ".tmp"
    for path in (index_path, tmp):
        if os.path.isdir(path):
            raise ConfigError(f"--out: {path}: is a directory")
    os.makedirs(args.out, exist_ok=True)
    index = []
    for name, (values, cfg) in zip(names, cells):
        row = {"cell": name, "seed": cfg["sim"]["seed"], **values}
        try:
            exp, result, estimates = harness.run_experiment(cfg)
        except (NumericDivergenceError, ProtocolError) as exc:
            row.update(stop_reason=type(exc).__name__, error=str(exc))
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            summary = harness.write_outputs(os.path.join(args.out, name), exp, result, estimates)
            row.update(aggregations=result.aggregations, stop_reason=result.stop_reason,
                       final_risk=summary["final_risk"])
            print(f"{name}: aggregations={result.aggregations} "
                  f"final_risk={_fmt_risk(summary['final_risk'])}")
        index.append(row)
        # moved into place whole, so an interrupted sweep leaves the finished cells' index
        harness.write_yaml(tmp, index)
        os.replace(tmp, index_path)
    return 3 if any("error" in row for row in index) else 0


def _sweep_cells(
    base: Dict[str, Any], seeds: List[Tuple[str, Any]], grid: Dict[str, List[Any]]
) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """(grid values, checked config) of every cell, in the order they run.

    The cells are the product of the axes: ``sim.seed`` over the (place,
    seed) pairs ``seeds`` (the config's own seed when there are none), then
    each grid key in sorted order, whose values' places are
    ``sweep.grid.<key>[j]``.  Each cell is checked by building its
    experiment.  A fault of the config alone is raised as it is; a fault
    that one value causes on its own is named by its place; a fault only a
    combination causes names every grid value of the cell.
    """
    axes = [("sim.seed", seeds or [("sim.seed", base["sim"]["seed"])])]
    axes += [(key, [(f"sweep.grid.{key}[{j}]", v) for j, v in enumerate(grid[key])])
             for key in sorted(grid)]

    def build(picks: List[Tuple[str, Any]]) -> harness.Experiment:
        cfg = copy.deepcopy(base)
        for key, value in picks:
            harness.set_by_path(cfg, key, value)
        return harness.build_experiment(cfg)

    def fails(picks: List[Tuple[str, Any]]) -> bool:
        try:
            build(picks)
        except ConfigError:
            return True
        return False

    cells = []
    for cell in itertools.product(*(entries for _, entries in axes)):
        picks = [(key, value) for (key, _), (_, value) in zip(axes, cell)]
        try:
            cfg = build(picks).cfg
        except ConfigError as exc:
            if fails([]):
                raise exc from None        # the config itself is at fault
            where = [place for place, _ in cell]
            alone = [w for w, pick in zip(where, picks) if fails([pick])]
            # a value that fails on its own is named alone, else the combination
            raise ConfigError(f"{alone[0] if alone else ', '.join(where[1:])}: {exc}") from None
        cells.append((dict(picks[1:]), cfg))
    return cells


def _check_out(path: str) -> None:
    """Refuse an ``--out`` that cannot become a directory, before anything runs."""
    full = probe = os.path.abspath(path)
    while not os.path.exists(probe):       # the nearest part of the path that exists
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        what = "exists" if probe == full else f"lies under {probe}, which exists"
        raise ConfigError(f"--out: {path}: {what} and is not a directory")


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
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
