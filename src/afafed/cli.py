"""Command line front end.

Subcommands:
  run      simulate a config and write metrics.csv + summary.yaml
  profile  same, with convergence-parameter estimation enabled
  bound    evaluate the convergence-rate bounds from a parameter file
  sweep    run a seed x parameter grid, one output directory per cell,
           each one path component directly under ``--out``

Configuration errors exit with status 2 and name the offending key.  A
missing or unreadable config file (malformed YAML, not UTF-8, a directory),
an ``--out`` that cannot be a directory, and sweep cells that share a
directory or whose directory cannot be one also exit 2, before any run.
A run that diverges numerically or breaks a protocol invariant exits with
status 3 and a one-line `error:` message.
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
    # a bad seed is named by its place in the sweep, not by sim.seed alone
    seed_key = harness.CONFIG_SCHEMA["sim"].type["seed"]
    for i, seed in enumerate(seeds):
        try:
            harness._value(seed_key, seed, "sim.seed")
        except ConfigError as exc:
            raise ConfigError(f"sweep.seeds[{i}]: {exc}") from None
    if args.seed is not None:
        seeds = [args.seed]
    if not seeds:
        seeds = [harness.resolve_config(doc)["sim"]["seed"]]
    grid: Dict[str, List[Any]] = sweep.get("grid", {}) or {}
    if not isinstance(grid, dict):
        raise ConfigError(f"sweep.grid: need a mapping of dotted keys to lists, got {grid!r}")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.grid.{key}: need a non-empty list of values")

    # every cell and its directory are checked before the first cell runs,
    # so a bad value leaves no partial sweep behind
    cells = [cell for i, seed in enumerate(seeds)
             for cell in _sweep_cells(doc, seed, f"sweep.seeds[{i}]", grid)]
    places_of: Dict[str, List[str]] = {}
    for label, places, *_ in cells:
        if label in places_of:
            pairs = [(a, b) for a, b in zip(places_of[label], places) if a != b]
            raise ConfigError(f"{', '.join(b for _, b in pairs)}: the cell directory {label} "
                              f"repeats that of {', '.join(a for a, _ in pairs)}")
        places_of[label] = places
        _check_out(os.path.join(args.out, label))
    index_rows = []
    for label, _, seed, values, cfg in cells:
        exp, result, estimates = harness.run_experiment(cfg)
        summary = harness.write_outputs(os.path.join(args.out, label), exp, result, estimates)
        final = summary["final_risk"]
        index_rows.append({
            "cell": label, "seed": seed, **values,
            "aggregations": result.aggregations,
            "final_risk": final,
        })
        print(f"{label}: aggregations={result.aggregations} final_risk={_fmt_risk(final)}")
    os.makedirs(args.out, exist_ok=True)
    harness.write_yaml(os.path.join(args.out, "sweep.yaml"), index_rows)
    return 0


def _sweep_cells(
    doc: Dict[str, Any], seed: int, seed_place: str, grid: Dict[str, List[Any]]
) -> List[Tuple[str, List[str], int, Dict[str, Any], Dict[str, Any]]]:
    """(label, places, seed, grid values, resolved config) of every grid cell
    for one seed.

    The label names the cell's directory under ``--out``; a path separator
    in a value becomes ``_``, so the label is one path component.  The
    places are ``seed_place`` and the cell's grid value of each key, e.g.
    ``sweep.grid.mixing.beta_max[1]``.  Each cell is checked by building its
    experiment.  A fault that one grid value causes on its own is named by
    its place; a fault only a combination causes names every grid key of
    the cell.
    """
    base = harness.resolve_config(doc)
    base["sim"]["seed"] = seed

    def with_values(picks: Dict[str, Any]) -> Dict[str, Any]:
        cfg = copy.deepcopy(base)
        for key, value in picks.items():
            harness.set_by_path(cfg, key, value)
        return cfg

    def fault(picks: Dict[str, Any]) -> Optional[ConfigError]:
        try:
            harness.build_experiment(with_values(picks))
        except ConfigError as exc:
            return exc
        return None

    keys = sorted(grid)
    cells = []
    for indices in itertools.product(*(range(len(grid[k])) for k in keys)):
        values = {k: grid[k][i] for k, i in zip(keys, indices)}
        where = [f"sweep.grid.{k}[{i}]" for k, i in zip(keys, indices)]
        exc = fault(values)
        if exc is not None:
            if fault({}) is not None:
                raise exc                  # the config itself is at fault
            alone = [w for w, k in zip(where, keys) if fault({k: values[k]}) is not None]
            # a value that fails on its own is named alone, else the combination
            raise ConfigError(f"{alone[0] if alone else ', '.join(where)}: {exc}")
        label = "_".join([f"seed{seed}"] + [f"{k.split('.')[-1]}{v}" for k, v in values.items()])
        for sep in filter(None, (os.sep, os.altsep)):
            label = label.replace(sep, "_")
        cells.append((label, [seed_place] + where, seed, values, with_values(values)))
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
