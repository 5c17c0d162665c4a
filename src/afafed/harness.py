"""Experiment assembly: config files, synthetic data, presets, and outputs.

Configs are YAML with one section per concern (model, topology, data,
buffer, arrivals, compute, adaptive, mixing, link, sim, eval).
``CONFIG_SCHEMA`` declares every key once; a preset fills every key from its
defaults, the config file overrides individual keys, the CLI can override the
seed, and ``build_experiment`` checks the result against the schema.  Runs
write a fixed-header per-aggregation CSV plus a YAML summary, so two runs of
the same config and seed can be compared byte for byte.
"""

from __future__ import annotations

import copy
import math
import os
import warnings
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

import numpy as np
import yaml

from . import bounds as bnd
from .coworker import AdaptiveConfig
from .errors import ConfigError
from .model_core import LossKind, LossModel
from .network_sim import (
    ArrivalProcess,
    CoworkerSetup,
    Evaluation,
    LinkModel,
    RunResult,
    SimulationEngine,
    random_streams,
)
from .profiler import ParameterEstimates, finalize
from .server import MixingConfig

CSV_HEADER = [
    "t", "time", "sender", "age", "beta",
    "lambda_checksum", "fairness_index", "global_risk", "grad_sqnorm",
]

_REQUIRED, _OPTIONAL = object(), object()    # Key defaults: must be given / may be left out


class Key(NamedTuple):
    """One configuration key: its default, its type and the values it admits.

    ``type`` is int, float or str; a table (a dict of Keys) for a mapping; or
    ``[table]`` for a non-empty list of mappings.  ``default`` is the value
    the presets start from.  A ``per_coworker`` key also takes a list with
    one value per coworker.  ``ge``/``gt``/``le`` bound the keys that no
    constructor checks, and also ``p_loss``, ``rate`` and ``timer_factor``,
    which LinkModel checks too, so that a fault names its dotted key and
    list index, and ``iter_max`` from above, which AdaptiveConfig checks
    from below.
    """

    default: Any = _REQUIRED
    type: Any = float
    nullable: bool = False
    ge: Optional[float] = None
    gt: Optional[float] = None
    le: Optional[float] = None
    per_coworker: bool = False


def _section(**keys: Key) -> Key:
    return Key(type=keys)


_CATEGORY = {
    "count": Key(type=int, ge=1),
    "speed": Key(gt=0),
    "rate": Key(gt=0),
    "p_loss": Key(_OPTIONAL, ge=0, le=1),
}

# every key of a run config, written once; null keys mean no such stop
# condition, a payload size derived from model.dim, an arrival law that does
# not use the rate or interval, or a loss taken from the categories
CONFIG_SCHEMA: Dict[str, Key] = {
    "preset": Key(_OPTIONAL, str),
    "model": _section(kind=Key("quadratic", str), dim=Key(5, int, ge=1),
                      noise_std=Key(0.05, ge=0), class_sep=Key(2.0, ge=0)),
    "topology": _section(categories=Key([
        {"count": 3, "speed": 50e7, "rate": 100e4, "p_loss": 0.0},
        {"count": 3, "speed": 25e7, "rate": 50e4, "p_loss": 0.0},
        {"count": 2, "speed": 1.0e7, "rate": 2e4, "p_loss": 0.0},
    ], [_CATEGORY])),
    "data": _section(shard_size=Key(64, int, ge=1), partition=Key("iid", str),
                     classes_per_coworker=Key(2, int, ge=1, le=2)),
    "buffer": _section(capacity=Key(64, int), minibatch=Key(16, int)),
    "arrivals": _section(kind=Key("poisson", str), rate=Key(5.0, nullable=True),
                         interval=Key(0.0, nullable=True),
                         trace=Key(None, str, nullable=True, per_coworker=True)),
    "compute": _section(cycles_per_iter=Key(1.0e7, gt=0)),
    # a cluster runs up to iter_max iterations, one Python step of about 13 µs
    # each: 10**6 is about 13 s of iterations
    "adaptive": _section(iter_max=Key(5, int, le=10**6), omega_a=Key(2.0), omega_c=Key(1.0),
                         b0=Key(1.0), gamma=Key(0.1), eta_min=Key(0.01), eta_max=Key(0.5)),
    "mixing": _section(beta_min=Key(0.001), beta_max=Key(0.9), de=Key(0.0),
                       phi=Key("power", str), alpha=Key(0.5), hinge_b=Key(4, int),
                       fairness_margin=Key(4.0)),
    "link": _section(p_loss=Key(None, nullable=True, ge=0, le=1, per_coworker=True),
                     downlink_delay=Key(0.0), payload_bits=Key(None, nullable=True),
                     timer_factor=Key(3.0, gt=0), rate_jitter=Key(0.0)),
    "sim": _section(seed=Key(1, int, ge=0), T=Key(200, int, nullable=True, ge=0),
                    horizon=Key(None, nullable=True, ge=0),
                    event_budget=Key(None, int, nullable=True, ge=0)),
    "eval": _section(every=Key(1, int, ge=0)),
}

# the parameter file of `afafed bound`, under a `bound:` key or at top level
BOUND_SCHEMA: Dict[str, Key] = {
    **{name: Key() for name in ("zeta", "f0", "f_star", "c", "gamma", "a",
                                "epsilon", "beta_min", "beta_max")},
    "horizon": Key(type=int),
    "beta": Key(_OPTIONAL),
    "scaled": Key(_OPTIONAL, {name: Key() for name in (
        "c0", "gamma0", "a0", "sigma_sq_bar", "i_bar", "i2_bar")}, nullable=True),
}

# table_a1 as overrides of the schema defaults (which are table_a1_small)
_TABLE_A1 = {
    "topology": {"categories": [
        {"count": 30, "speed": 50e7, "rate": 100e4, "p_loss": 0.0},
        {"count": 40, "speed": 25e7, "rate": 50e4, "p_loss": 0.0},
        {"count": 30, "speed": 1.0e7, "rate": 2e4, "p_loss": 0.0},
    ]},
    "adaptive": {"iter_max": 30},
    "sim": {"T": 2000},
}


def _defaults(table: Dict[str, Key]) -> Dict[str, Any]:
    return {name: _defaults(key.type) if isinstance(key.type, dict) else copy.deepcopy(key.default)
            for name, key in table.items() if key.default is not _OPTIONAL}


def presets() -> Dict[str, Dict[str, Any]]:
    """Named starting points; table_a1_small is the desk-scale default."""
    small = _defaults(CONFIG_SCHEMA)
    return {"table_a1_small": small, "table_a1": _deep_merge(small, _TABLE_A1)}


def _deep_merge(base: Dict[str, Any], override: Dict[str, Any]) -> Dict[str, Any]:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(doc: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Apply preset then per-key overrides; returns the fully resolved dict.

    Values are checked by ``build_experiment``, not here.
    """
    doc = dict(doc or {})
    preset_name = doc.pop("preset", "table_a1_small")
    table = presets()
    if preset_name not in table:
        raise ConfigError(f"preset: unknown preset {preset_name!r}; choose from {sorted(table)}")
    resolved = _deep_merge(table[preset_name], doc)
    resolved["preset"] = preset_name
    return resolved


# libyaml's loader and dumper where PyYAML was built with it, several times
# faster than the pure-Python ones (see write_yaml for the bytes they write)
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _YAML_DUMPER(getattr(yaml, "CSafeDumper", yaml.SafeDumper)):
    """The safe dumper, writing a list or mapping met twice in full each time."""

    def ignore_aliases(self, data: Any) -> bool:
        return True


def read_yaml(path: str) -> Dict[str, Any]:
    """The YAML mapping in the file at ``path``; an empty file reads ``{}``.

    A file that is not a YAML mapping, is not UTF-8 text, holds a value
    Python cannot construct or is a directory is a ConfigError naming the
    path, and a YAML syntax error also names its line and column.  A missing
    file raises FileNotFoundError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()        # decoded in one piece, so a fault's offset is the file's
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}: line {mark.line + 1}, column {mark.column + 1}" if mark else path
        reason = getattr(exc, "problem", None) or str(exc)
        raise ConfigError(f"{where}: {' '.join(reason.split())}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except ValueError as exc:
        # a scalar that YAML resolves but Python refuses: a date such as
        # 2001-02-30, or an integer of more than 4300 digits
        raise ConfigError(f"{path}: {exc}") from None
    except IsADirectoryError:
        raise ConfigError(f"{path}: is a directory, not a file") from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return doc


def write_yaml(path: str, doc: Any) -> None:
    """Write ``doc`` as ``yaml.safe_dump(doc, sort_keys=True, width=2**31 - 1)``
    writes it, whether or not PyYAML was built with libyaml, except that an
    object the document holds twice (a sweep's grid value in every row that
    takes it) is written in full each time, never as an anchor and alias.

    At the default width of 80 the two dumpers fold a long double-quoted
    string (one holding a tab, a control or a non-ASCII character) at
    different places; at this width neither folds a line, so both write the
    same bytes.
    """
    with open(path, "w", encoding="utf-8") as fh:
        yaml.dump(doc, fh, Dumper=_YAML_DUMPER, sort_keys=True, width=2**31 - 1)


def load_config(path: str) -> Dict[str, Any]:
    return resolve_config(read_yaml(path))


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {message}")


def _check(table: Dict[str, Key], node: Any, path: str) -> Dict[str, Any]:
    """A copy of mapping ``node`` with every value checked against ``table``.

    Refuses unknown and missing keys, disallowed nulls, non-finite numbers,
    integers outside 64 bits and values under a key's bound; errors name the
    dotted key.  Keys left out of ``node`` stay out of the copy.
    """
    _require(isinstance(node, dict), path or "config", "must be a mapping")
    out = {}
    for name, value in node.items():
        dotted = f"{path}.{name}" if path else str(name)
        _require(name in table, dotted, f"unknown key; known keys are {sorted(table)}")
        out[name] = _value(table[name], value, dotted)
    missing = [name for name, key in table.items()
               if name not in node and key.default is not _OPTIONAL]
    _require(not missing, path or "config", f"missing keys {missing}")
    return out


def _value(key: Key, value: Any, dotted: str) -> Any:
    if value is None and key.nullable:
        return None
    if isinstance(key.type, dict):
        return _check(key.type, value, dotted)
    if isinstance(key.type, list):
        _require(isinstance(value, list) and bool(value), dotted, "need a non-empty list")
        return [_check(key.type[0], item, f"{dotted}[{i}]") for i, item in enumerate(value)]
    if key.per_coworker and isinstance(value, (list, tuple)):
        return [_scalar(key, item, f"{dotted}[{i}]") for i, item in enumerate(value)]
    return _scalar(key, value, dotted)


def _scalar(key: Key, value: Any, dotted: str) -> Any:
    if key.type is str:
        _require(isinstance(value, str), dotted, f"expected a string, got {value!r}")
        return value
    # YAML 1.1 reads unsigned exponents like 1.0e7 as strings, so strings
    # that spell a number are numbers here
    _require(value is not None, dotted, "expected a number, got null")
    _require(not isinstance(value, bool), dotted, f"expected a number, got {value!r}")
    if key.type is int and isinstance(value, str):
        try:
            value = int(value)      # exact; '1.0e7' is left to the float path
        except ValueError:
            pass
    if key.type is int and isinstance(value, int):
        out = value                 # a float holds integers exactly only up to 2**53
    else:
        try:
            out = float(value)
        except OverflowError:
            raise ConfigError(f"{dotted}: expected a finite number, "
                              "got an integer past the float range") from None
        except (TypeError, ValueError):
            raise ConfigError(f"{dotted}: expected a number, got {value!r}") from None
        _require(math.isfinite(out), dotted, f"expected a finite number, got {value!r}")
        if key.type is int:
            _require(out.is_integer(), dotted, f"expected an integer, got {value!r}")
            out = int(out)
    if key.type is int:
        # numpy sizes and indices are 64-bit: a larger size fails deep inside numpy
        _require(-2**63 <= out < 2**63, dotted, f"expected a 64-bit integer, got {value!r}")
        # from 2**53 on, neighbouring integers round to the same float
        _require(isinstance(value, int) or abs(out) < 2**53, dotted,
                 f"a float past 2**53 such as {value!r} cannot tell which integer was "
                 "written; write the integer without a fraction or exponent")
    _require(key.ge is None or out >= key.ge, dotted, f"must be >= {key.ge}")
    _require(key.gt is None or out > key.gt, dotted, f"must be > {key.gt}")
    _require(key.le is None or out <= key.le, dotted, f"must be <= {key.le}")
    return out


_T = TypeVar("_T")


def _build(key: str, ctor: Callable[..., _T], *args: Any, **kwargs: Any) -> _T:
    """``ctor(*args, **kwargs)``, reporting its ValueError as a fault of ``key``."""
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def set_by_path(doc: Dict[str, Any], dotted: str, value: Any) -> None:
    """Set a nested key given a dotted path like mixing.beta_max."""
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"{dotted}: no such configuration section {part!r}")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"{dotted}: no such configuration key")
    node[parts[-1]] = value


# ---------------- data generation ---------------- #


Shard = Tuple[np.ndarray, np.ndarray]     # (X, y): (m, d) features, (m,) targets


def generate_shards(cfg: Dict[str, Any]) -> List[Shard]:
    """Per-coworker synthetic (X, y) shards, deterministic in the seed.

    Quadratic runs draw features from a standard normal and label them with a
    shared ground-truth vector plus Gaussian noise.  Logistic runs draw two
    Gaussian clusters; the label-skew partition restricts each coworker to a
    fixed subset of the classes.  The config's model and partition are those
    ``build_experiment`` admits; this function only generates.
    """
    seed = cfg["sim"]["seed"]
    kind = cfg["model"]["kind"]
    dim = cfg["model"]["dim"]
    n = cfg["data"]["shard_size"]
    k_total = sum(cat["count"] for cat in cfg["topology"]["categories"])
    partition = cfg["data"]["partition"]
    # one batch seeds the shared stream and every coworker's shard stream
    truth, *streams = random_streams(seed, [(11, 0)] + [(10, cid) for cid in range(k_total)])

    if kind == "quadratic":
        w_true = truth.standard_normal(dim)
        noise = cfg["model"]["noise_std"]
        shards = []
        for rng in streams:
            X = rng.standard_normal((n, dim))
            y = X @ w_true + noise * rng.standard_normal(n)
            shards.append((X, y))
        return shards

    # logistic: two Gaussian clusters split by a shared direction
    sep = cfg["model"]["class_sep"]
    direction = truth.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    classes = cfg["data"]["classes_per_coworker"]
    shards = []
    for cid, rng in enumerate(streams):
        if partition == "iid" or classes == 2:
            labels = rng.integers(0, 2, size=n)
        else:
            labels = np.full(n, cid % 2)
        signs = 2.0 * labels - 1.0
        X = rng.standard_normal((n, dim)) + np.outer(signs * (sep / 2.0), direction)
        shards.append((X, labels.astype(np.float64)))
    return shards


def read_arrival_trace(path: str) -> Tuple[Tuple[float, ...], Shard]:
    """Parse an arrival trace: one `time,x1,..,xd,label` line per example.

    One ``np.loadtxt`` call parses the file.  Empty lines and text from a
    ``#`` to the end of its line are skipped; a line holding only whitespace
    (before any ``#``) is refused.  Every line must have as many fields as
    the first one, each field must be a plain ASCII number (``1_0`` and
    non-ASCII digits are refused), and every value must be finite.  A
    refused file is scanned line by line, so the error names the line; a
    path that cannot be opened is refused with the system's reason.
    """
    try:
        with warnings.catch_warnings():
            # an empty file is refused below; numpy would also warn about it
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2, encoding="utf-8")
    except ValueError as exc:
        raise _trace_fault(path, str(exc)) from None
    except OSError as exc:      # numpy's own not-found error carries no strerror
        raise ConfigError(f"{path}: {exc.strerror or 'No such file or directory'}") from None
    if rows.shape[1] < 3 or not np.isfinite(rows).all():     # an empty file reads (0, 1)
        raise _trace_fault(path, "times, features and labels must be finite")
    return tuple(rows[:, 0].tolist()), (rows[:, 1:-1].copy(), rows[:, -1].copy())


def _trace_fault(path: str, fallback: str) -> ConfigError:
    """The first faulty line of a trace that numpy refused or that failed a
    check, as ``path:line``; else ``path: fallback``.

    Lines are skipped and split as ``np.loadtxt`` does in
    :func:`read_arrival_trace`, and converted with ``float()``.
    """
    width = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].rstrip("\n")
            if not text:
                continue
            where = f"{path}:{lineno}"
            if not text.strip():
                return ConfigError(f"{where}: a line holding only whitespace; "
                                   f"leave it empty or start it with '#'")
            fields = text.split(",")
            if len(fields) < 3:
                return ConfigError(f"{where}: need arrival_time, at least one feature, and a label")
            if not width:
                width = len(fields)
            elif len(fields) != width:
                return ConfigError(
                    f"{where}: {len(fields)} fields, but the first example has {width}")
            try:
                values = [float(f) for f in fields]
            except ValueError as exc:
                return ConfigError(f"{where}: {exc}")
            if not all(map(math.isfinite, values)):
                return ConfigError(f"{where}: times, features and labels must be finite")
    if not width:
        return ConfigError(f"{path}: trace file holds no examples")
    return ConfigError(f"{path}: {fallback}")


# ---------------- experiment assembly ---------------- #


@dataclass
class Experiment:
    """A fully wired engine plus the checked config it was built from."""

    cfg: Dict[str, Any]
    engine: SimulationEngine
    evaluation: Optional[Evaluation] = None     # the engine's observer; None with eval off


def _per_coworker(value: Any, key: str, k: int) -> List[Any]:
    """The value of a per_coworker key for each of k coworkers: a scalar
    repeats, and a list must hold k entries."""
    if not isinstance(value, list):
        return [value] * k
    _require(len(value) == k, key, f"need {k} entries, one per coworker, got {len(value)}")
    return value


# the most arrivals a law may bring, by the config's estimate, in one cluster
# and its timer wait: the engine admits them one at a time on a float clock
MAX_ARRIVALS_PER_CLUSTER = 1e9


def _check_arrival_density(adaptive: AdaptiveConfig, setups: Sequence[CoworkerSetup],
                           categories: Sequence[int], key: str) -> None:
    """Refuse an arrival law too dense for some coworker's cluster span.

    A coworker's estimate is its law's ``mean_rate`` × (iter_max ×
    iteration_duration + timer_duration), the engine's durations of a
    longest cluster and its timer wait; a law with no mean rate (a trace,
    whose arrivals are finite) is not checked.  The fault names ``key`` and
    ``categories[cid]``, the topology category of the worst coworker cid.
    Past about 2**53 arrivals a float clock stops advancing, so such a run
    would never end.
    """
    worst, category = 0.0, 0
    for setup, i in zip(setups, categories):
        rate = setup.arrivals.mean_rate
        if rate is not None:
            estimate = rate * (adaptive.iter_max * setup.iteration_duration
                               + setup.link.timer_duration)
            if estimate > worst:
                worst, category = estimate, i
    if worst > MAX_ARRIVALS_PER_CLUSTER:
        raise ConfigError(f"{key}: about {worst:.2g} arrivals per cluster and timer wait in "
                          f"topology.categories[{category}], more than the "
                          f"{MAX_ARRIVALS_PER_CLUSTER:.0e} a run admits one by one")


def build_experiment(cfg: Dict[str, Any], enable_profiling: bool = False) -> Experiment:
    """Validate the resolved config and construct the simulation engine.

    The config is checked against ``CONFIG_SCHEMA``; ``Experiment.cfg`` is
    the checked copy, with every number coerced to its key's type.  Observers
    go on ``engine.observers``; ``evaluation`` is the first, with eval on.
    """
    cfg = _check(CONFIG_SCHEMA, cfg, "")
    kind = cfg["model"]["kind"]
    _require(kind in ("quadratic", "logistic"), "model.kind", f"unknown loss {kind!r}")
    # the partition rules hold for every data source, generated or traced
    partition = cfg["data"]["partition"]
    _require(partition in ("iid", "label_skew"), "data.partition",
             f"unknown partition {partition!r}")
    _require(partition == "iid" or kind == "logistic", "data.partition",
             "label_skew requires the logistic model (regression has no classes)")
    dim = cfg["model"]["dim"]
    model = LossModel(LossKind(kind), dim)

    # one (category index, category) entry per coworker
    cats = [(i, cat) for i, cat in enumerate(cfg["topology"]["categories"])
            for _ in range(cat["count"])]
    k_total = len(cats)

    p_loss = cfg["link"]["p_loss"]
    losses = ([cat.get("p_loss", 0.0) for _, cat in cats] if p_loss is None
              else _per_coworker(p_loss, "link.p_loss", k_total))

    payload_bits = cfg["link"]["payload_bits"]
    if payload_bits is None:
        payload_bits = 64.0 * (dim + 2)

    arrivals_cfg = cfg["arrivals"]
    # a law's fault is about its one parameter, or else its kind
    param = {"poisson": "rate", "periodic": "interval"}.get(arrivals_cfg["kind"], "kind")
    if arrivals_cfg["kind"] == "trace":
        _require(arrivals_cfg["trace"] is not None, "arrivals.trace",
                 "trace arrivals need a file path")
        trace_paths = _per_coworker(arrivals_cfg["trace"], "arrivals.trace", k_total)
        # each distinct file is parsed once; its coworkers share its arrays and
        # its law, and the engine stacks a copy of the rows for each of them
        parsed = {}
        for path in dict.fromkeys(trace_paths):
            times, (X, y) = _build("arrivals.trace", read_arrival_trace, path)
            _require(X.shape[1] == dim, "arrivals.trace",
                     f"{path} has {X.shape[1]} features per example, but model.dim is {dim}")
            if kind == "logistic":
                # the logistic loss is unbounded below for labels above 1
                bad = np.flatnonzero((y != 0.0) & (y != 1.0))
                if len(bad):
                    raise ConfigError(f"arrivals.trace: {path}: logistic labels must be 0 or 1, "
                                      f"but example {bad[0]} has label {y[bad[0]]}")
            parsed[path] = ((X, y), _build(f"arrivals.trace: {path}", ArrivalProcess,
                                           kind="trace", times=times))
        shards, laws = zip(*(parsed[path] for path in trace_paths))
    else:
        try:
            shards = generate_shards(cfg)
        except MemoryError as exc:
            # numpy refuses a size past the machine's memory at once
            raise ConfigError(f"model.dim: {k_total} shards of data.shard_size × model.dim = "
                              f"{cfg['data']['shard_size']} × {dim} floats: {exc}") from None
        laws = [_build(f"arrivals.{param}", ArrivalProcess, kind=arrivals_cfg["kind"],
                       rate=arrivals_cfg["rate"] or 0.0,
                       interval=arrivals_cfg["interval"] or 0.0)] * k_total

    adaptive = _build("adaptive", AdaptiveConfig, **cfg["adaptive"])
    mixing = _build("mixing", MixingConfig, **cfg["mixing"])
    # the link: section, less p_loss, which each coworker's category may set
    link = {**cfg["link"], "payload_bits": payload_bits}
    del link["p_loss"]
    # a quotient of two positive floats may still underflow to 0
    setups = [
        _build(
            "compute", CoworkerSetup,
            shard=shards[cid],
            link=_build("link", LinkModel, p_loss=losses[cid], rate=cat["rate"], **link),
            iteration_duration=cfg["compute"]["cycles_per_iter"] / cat["speed"],
            arrivals=laws[cid],
            capacity=cfg["buffer"]["capacity"],
            minibatch=cfg["buffer"]["minibatch"],
        )
        for cid, (_, cat) in enumerate(cats)
    ]

    sim = cfg["sim"]
    unbounded = sim["horizon"] is None and sim["event_budget"] is None
    _require(sim["T"] is not None or not unbounded,
             "sim.T", "need at least one of sim.T, sim.horizon and sim.event_budget")
    # with every uplink lost no aggregation ever happens, while Poisson
    # arrivals and retries keep the calendar busy: the run would never stop
    _require(not (sim["T"] and unbounded and all(p == 1.0 for p in losses)),
             "sim.T", "unreachable: every coworker has p_loss 1.0; "
             "set sim.horizon or sim.event_budget")

    _check_arrival_density(adaptive, setups, [i for i, _ in cats], f"arrivals.{param}")

    # the engine's buffers check capacity and minibatch
    engine = _build(
        "buffer", SimulationEngine,
        model=model,
        setups=setups,
        adaptive=adaptive,
        mixing=mixing,
        w0=np.zeros(dim),
        seed=sim["seed"],
        enable_profiling=enable_profiling,
    )
    exp = Experiment(cfg=cfg, engine=engine)
    if cfg["eval"]["every"] > 0:
        exp.evaluation = Evaluation(engine, cfg["eval"]["every"])
        engine.observers.append(exp.evaluation)
    return exp


def run_experiment(
    cfg: Dict[str, Any],
    enable_profiling: bool = False,
) -> Tuple[Experiment, RunResult, Optional[ParameterEstimates]]:
    """Build, run to the configured stop condition, optionally profile."""
    exp = build_experiment(cfg, enable_profiling=enable_profiling)
    sim = exp.cfg["sim"]
    result = exp.engine.run(
        aggregations=sim["T"], horizon=sim["horizon"], event_budget=sim["event_budget"],
    )
    estimates = None
    if result.profiling_log is not None and result.profiling_log.samples > 0:
        exp.engine.run_profiling_epilogue()
        estimates = finalize(result.profiling_log, exp.engine.server.lambdas)
    return exp, result, estimates


# ---------------- outputs ---------------- #


def metrics_csv_text(rows: Sequence) -> str:
    """Render the CSV_HEADER fields of the per-aggregation rows, header first.

    Every field is a Python int or float; a float is written as its repr,
    its shortest exact round-trip form, and an evaluation column that was
    not due as an empty cell.
    """
    line = "{},{!r},{},{},{!r},{!r},{!r},{},{}\n".format
    text = [",".join(CSV_HEADER) + "\n"]
    for r in rows:
        risk, grad_sq = r.global_risk, r.grad_sqnorm
        text.append(line(r.t, r.time, r.sender, r.age, r.beta, r.lambda_checksum,
                         r.fairness_index, "" if risk is None else repr(risk),
                         "" if grad_sq is None else repr(grad_sq)))
    return "".join(text)


def final_risk(exp: Experiment) -> Optional[float]:
    """The global risk at the final w̄ under the final λ, or None with evaluation off.

    The evaluation observer takes it in its last stack, when the run stops,
    so it exists whether or not the last metrics row was due; the summary,
    ``afafed run`` and ``afafed sweep`` all report this one value.
    """
    return None if exp.evaluation is None else exp.evaluation.final_risk


def summarize(exp: Experiment, result: RunResult,
              estimates: Optional[ParameterEstimates]) -> Dict[str, Any]:
    """Assemble the run summary written next to the metrics CSV.

    Every value is built as a plain Python value (None, bool, int, float,
    str, list or dict), the only types the safe YAML dumper writes, so the
    summary is written as it is returned: arrays through ``tolist()``, and
    the estimates' ``feasible`` tuple as a list.
    """
    engine = exp.engine
    accepted_total = int(result.accepted_by.sum())
    access = (result.accepted_by / accepted_total) if accepted_total else result.accepted_by * 0.0
    iters = np.array(result.iters_per_acceptance, dtype=np.float64)
    evaluated = [r for r in result.rows if r.grad_sqnorm is not None]
    summary: Dict[str, Any] = {
        "aggregations": result.aggregations,
        "stop_reason": result.stop_reason,
        "final_time": result.final_time,
        "events_processed": result.events_processed,
        "iterations_total": result.iterations_total,
        "stall_events": result.stall_events,
        "uplink": {
            "attempts": result.uplink_attempts,
            "drops": result.uplink_drops,
            "delivered": result.uplink_attempts - result.uplink_drops,
        },
        "per_coworker": {
            "accepted": result.accepted_by.tolist(),
            "access_prob": access.tolist(),
        },
        "iter_moments": {
            "i_bar": float(iters.mean()) if iters.size else None,
            "i2_bar": float((iters**2).mean()) if iters.size else None,
        },
        "lambdas_final": engine.server.lambdas.tolist(),
        "final_risk": final_risk(exp),
        "mean_grad_sqnorm": (
            float(np.mean([r.grad_sqnorm for r in evaluated])) if evaluated else None
        ),
        "seed": exp.cfg["sim"]["seed"],
        "numpy": np.__version__,        # the trace's draws and float bits depend on it
        "config": exp.cfg,
    }
    if estimates is not None:
        summary["estimates"] = {**asdict(estimates), "feasible": list(estimates.feasible)}
    return summary


def write_outputs(out_dir: str, exp: Experiment, result: RunResult,
                  estimates: Optional[ParameterEstimates]) -> Dict[str, Any]:
    """Write metrics.csv and summary.yaml; returns the summary it wrote."""
    summary = summarize(exp, result, estimates)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(metrics_csv_text(result.rows))
    write_yaml(os.path.join(out_dir, "summary.yaml"), summary)
    return summary


# ---------------- bound evaluation from a parameter file ---------------- #


def evaluate_bounds(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate the rate bounds from a parameter mapping (see README)."""
    params = _check(BOUND_SCHEMA, doc.get("bound", doc), "bound")
    scaled = params.pop("scaled", None)
    beta = params.pop("beta", params["beta_max"])
    inputs = _build("bound", bnd.BoundInputs, **params)
    out: Dict[str, Any] = {
        "beta_max_admissible": bnd.beta_max_admissible(inputs),
        "clipped": bnd.bound_clipped_beta(inputs),
    }
    try:
        out["constant"] = bnd.bound_constant_beta(inputs, beta)
        out["constant_beta"] = beta
    except ValueError as exc:
        out["constant"] = None
        out["constant_refused"] = str(exc)
    if scaled is not None:
        out["scaled"] = asdict(
            _build("bound.scaled", bnd.bound_scaled, inputs, **scaled))
    return out
