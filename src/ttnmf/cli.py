"""Command-line pipeline: synth, train, estimate, evaluate.

Exit codes: 0 success, 1 usage/config, 2 data validation, 3 numerical failure.
TTNMF_LOG={error,warn,info,debug} controls diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .errors import (ConfigError, NumericalFailure, ParseError, ShapeError,
                     UsageError, ValidationError)
from .estimation import EstimatorConfig, estimate_od_flows
from .factors import LagSet
from .fileio import (ModelArchive, format_float, load_matrix_csv, load_model,
                     parse_config_file, save_model, sha256_hex, write_matrix_csv)
from .metrics import cdf_points, sre, summary_stats, tre
from .network import (RoutingMatrix, TrafficMatrix, compute_link_flows,
                      generate_synthetic, split_train_test)
from .training import BLOCKS, TrainConfig, train

logger = logging.getLogger(__name__)

# lag sets and tuning ratios for the two reference networks
PROFILES = {
    "internet2": {"lags": "1,2,3,12,24,96,102,108,288",
                  "beta_h": 0.2, "beta_a": 0.2, "rank": 20},
    "geant": {"lags": "1,4,8,32,34,36,96",
              "beta_h": 0.1, "beta_a": 0.1, "rank": 20},
    "none": {},
}

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ttnmf",
                     description="OD traffic estimation from link loads",
                     epilog="CSV orientation (headerless, '#' comments "
                            "allowed): routing.csv links x OD pairs of {0,1}; "
                            "traffic.csv and mask.csv OD pairs x timestamps; "
                            "linkflows.csv links x timestamps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    common(p)
    p.add_argument("--routers", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--T", dest="n_timestamps", type=int)
    p.add_argument("--lags")
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--split", type=int)
    p.add_argument("--mask-fraction", dest="mask_fraction", type=float)

    p = sub.add_parser("train", help="fit a factor model to traffic data")
    common(p)
    p.add_argument("--routing")
    p.add_argument("--traffic")
    p.add_argument("--mask")
    p.add_argument("--rank", type=int)
    p.add_argument("--lags")
    p.add_argument("--beta-h", dest="beta_h", type=float)
    p.add_argument("--beta-a", dest="beta_a", type=float)
    p.add_argument("--missing-mode", dest="missing_mode",
                   choices=("none", "weighted_fill", "em_mask"))
    p.add_argument("--q-max", dest="q_max", type=int)
    p.add_argument("--split", type=int)
    p.add_argument("--profile", choices=tuple(PROFILES))

    p = sub.add_parser("estimate", help="estimate OD flows from link flows")
    common(p)
    p.add_argument("--model")
    p.add_argument("--linkflows")
    p.add_argument("--r-max-em", dest="r_max_em", type=int)
    p.add_argument("--delta-em", dest="delta_em", type=float)

    p = sub.add_parser("evaluate", help="compare estimated and true OD flows")
    common(p)
    p.add_argument("--true", dest="true_path")
    p.add_argument("--est", dest="est_path")
    return parser


_DEFAULTS = {
    "routers": 6, "rank": 4, "n_timestamps": 400, "lags": "1,2",
    "noise": 0.05, "seed": 0, "split": None, "mask_fraction": 0.0,
    "beta_h": 0.2, "beta_a": 0.2, "missing_mode": "none", "q_max": 50,
    "r_max_em": 200, "delta_em": 1e-9,
}

_CASTS = {
    "routers": int, "rank": int, "n_timestamps": int, "seed": int,
    "split": int, "q_max": int, "r_max_em": int,
    "noise": float, "mask_fraction": float, "beta_h": float, "beta_a": float,
    "delta_em": float,
}


def _setting(args, cfg, profile, key, required=False):
    """Flag > config file > profile > built-in default."""
    value = getattr(args, key, None)
    if value is None and key in cfg:
        cast = _CASTS.get(key, str)
        try:
            value = cast(cfg[key])
        except ValueError:
            raise ConfigError(
                f"config key {key}={cfg[key]!r} is not a valid "
                f"{cast.__name__}") from None
    if value is None:
        value = profile.get(key)
    if value is None:
        value = _DEFAULTS.get(key)
    if value is None and required:
        raise ConfigError(f"missing required setting {key!r}")
    return value


def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        path = _require_file(args.config, "config")
        cfg = parse_config_file(path)
        known = set(_CASTS) | {"lags", "routing", "traffic", "mask", "model",
                               "linkflows", "true_path", "est_path",
                               "missing_mode", "profile"}
        unknown = set(cfg) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _require_file(path, what) -> Path:
    if path is None:
        raise ConfigError(f"missing required input: {what}")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} file not found: {p}")
    if not p.is_file():
        raise ConfigError(f"{what} path {p} is not a file")
    return p


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"output path {out} is not a directory") from None
    return out


@contextlib.contextmanager
def _replaced_on_success(path: Path):
    """Yield a temporary path in path's directory; os.replace it onto path
    if the block succeeds, delete it if the block raises."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextlib.contextmanager
def _text_replaced_on_success(path: Path):
    """A text file handle for _replaced_on_success(path), with \\n endings."""
    with _replaced_on_success(path) as tmp, \
            open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def _cmd_synth(args) -> int:
    cfg = _load_config(args)
    get = lambda key: _setting(args, cfg, {}, key)
    lag_set = LagSet.from_text(get("lags"))
    scenario = generate_synthetic(
        n_routers=get("routers"), planted_rank=get("rank"),
        n_timestamps=get("n_timestamps"), planted_lags=lag_set,
        noise_level=get("noise"), seed=get("seed"))
    out = _outdir(args)
    write_matrix_csv(out / "routing.csv", scenario.routing.entries)
    write_matrix_csv(out / "traffic.csv", scenario.traffic.entries)
    links = compute_link_flows(scenario.routing, scenario.traffic)
    write_matrix_csv(out / "linkflows.csv", links.entries)
    frac = get("mask_fraction")
    if frac:
        if not 0 <= frac < 1:
            raise ConfigError(f"mask fraction must lie in [0, 1), got {frac}")
        rng = np.random.default_rng([get("seed"), 1])
        mask = (rng.random(scenario.traffic.entries.shape) >= frac) * 1.0
        write_matrix_csv(out / "mask.csv", mask)
    split = get("split")
    if split is not None:
        train_part, test_part = split_train_test(scenario.traffic, split)
        write_matrix_csv(out / "traffic_train.csv", train_part.entries)
        write_matrix_csv(out / "traffic_test.csv", test_part.entries)
        test_links = compute_link_flows(scenario.routing, test_part)
        write_matrix_csv(out / "linkflows_test.csv", test_links.entries)
    logger.info("synth: wrote scenario with %d links, %d OD pairs, %d slots",
                scenario.routing.n_links, scenario.routing.n_pairs,
                scenario.traffic.n_timestamps)
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    profile_name = args.profile or cfg.get("profile") or "none"
    if profile_name not in PROFILES:
        raise ConfigError(f"unknown profile {profile_name!r}")
    profile = PROFILES[profile_name]
    get = lambda key, **kw: _setting(args, cfg, profile, key, **kw)

    routing_path = _require_file(args.routing or cfg.get("routing"), "routing")
    traffic_path = _require_file(args.traffic or cfg.get("traffic"), "traffic")
    routing = RoutingMatrix(load_matrix_csv(routing_path, "routing"))
    entries = load_matrix_csv(traffic_path, "traffic")
    mask = None
    mask_arg = args.mask or cfg.get("mask")
    if mask_arg:
        mask = load_matrix_csv(_require_file(mask_arg, "mask"), "mask")
    split = get("split")
    if split is not None:
        if not 0 < split <= entries.shape[1]:
            raise ConfigError(
                f"split must lie in (0, {entries.shape[1]}], got {split}")
        entries = entries[:, :split]
        if mask is not None:
            mask = mask[:, :split]
    traffic = TrafficMatrix(entries, mask=mask)

    lag_text = args.lags if args.lags is not None else cfg.get("lags")
    if lag_text is None:
        lag_text = profile.get("lags", "")
    lag_set = LagSet.from_text(lag_text)
    config = TrainConfig(
        rank=get("rank"), lag_set=lag_set,
        beta_temporal=get("beta_h"), beta_ortho=get("beta_a"),
        q_max=get("q_max"), missing_mode=get("missing_mode"))
    model, report = train(traffic, routing, config)

    out = _outdir(args)
    config_text = "\n".join(
        f"{k}={v}" for k, v in sorted(vars(config).items())) + "\n"
    # both entries arrays are C-contiguous, so their buffers hash as their
    # tobytes() would, without a copy
    provenance = {
        "config_sha256": sha256_hex(config_text.encode()),
        "traffic_sha256": sha256_hex(traffic.entries),
        "routing_sha256": sha256_hex(routing.entries),
    }
    # a failed or interrupted write leaves no partial output behind
    with _replaced_on_success(out / "model.ttnmf") as tmp:
        save_model(tmp, ModelArchive(model, routing, provenance))
    with _text_replaced_on_success(out / "trace.csv") as fh:
        fh.write("q,e_q,f_q,temporal,ortho,spatial_iters,latent_iters,"
                 "ar_iters,wall_ms\n")
        # the seed row has no block iterations
        iters = [(0, 0, 0), *zip(*(report.block_iteration_counts[b]
                                   for b in BLOCKS))]
        for q, (*terms, its, ms) in enumerate(zip(
                report.objective_trace, report.penalized_trace,
                report.temporal_trace, report.ortho_trace, iters,
                report.iteration_wall_ms)):
            fh.write(",".join([str(q), *map(format_float, terms),
                               *map(str, its), format_float(ms)]) + "\n")
    logger.info("train: %d outer iterations (%s), final fit %.6g, "
                "wall %.2fs", report.n_iterations, report.stop_reason,
                report.objective_trace[-1], report.wall_time)
    return 0


def _cmd_estimate(args) -> int:
    cfg = _load_config(args)
    get = lambda key: _setting(args, cfg, {}, key)
    model_path = _require_file(args.model or cfg.get("model"), "model")
    link_path = _require_file(args.linkflows or cfg.get("linkflows"),
                              "linkflows")
    archive = load_model(model_path)
    links = load_matrix_csv(link_path, "link")
    if links.shape[0] != archive.routing.n_links:
        raise ShapeError(
            f"link-flow matrix has {links.shape[0]} rows but the model was "
            f"trained with {archive.routing.n_links} links")
    config = EstimatorConfig(r_max_em=get("r_max_em"),
                             delta_em=get("delta_em"))
    estimates = estimate_od_flows(links, archive.model, archive.routing, config)
    out = _outdir(args)
    with _replaced_on_success(out / "estimated.csv") as tmp:
        write_matrix_csv(tmp, estimates)
    logger.info("estimate: %d columns estimated", estimates.shape[1])
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    true_path = _require_file(args.true_path or cfg.get("true_path"),
                              "true OD matrix")
    est_path = _require_file(args.est_path or cfg.get("est_path"),
                             "estimated OD matrix")
    x_true = load_matrix_csv(true_path, "traffic")
    x_est = load_matrix_csv(est_path, "traffic")
    if x_true.shape != x_est.shape:
        raise ShapeError(
            f"true shape {x_true.shape} != estimated shape {x_est.shape}")
    row_err = sre(x_true, x_est)
    col_err = tre(x_true, x_est)
    out = _outdir(args)
    for name, err in (("sre.csv", row_err), ("tre.csv", col_err)):
        with _replaced_on_success(out / name) as tmp:
            write_matrix_csv(tmp, err.values.reshape(-1, 1))
    row_stats = summary_stats(row_err)
    col_stats = summary_stats(col_err)
    with _text_replaced_on_success(out / "stats.csv") as fh:
        fh.write("stat,sre,tre\n")
        for key in ("min", "max", "mean", "median", "std"):
            fh.write(f"{key},{format_float(row_stats[key])},"
                     f"{format_float(col_stats[key])}\n")
        fh.write(f"undefined,{len(row_err.undefined_indices)},"
                 f"{len(col_err.undefined_indices)}\n")
    for name, err in (("cdf_sre.csv", row_err), ("cdf_tre.csv", col_err)):
        with _text_replaced_on_success(out / name) as fh:
            fh.write("value,fraction\n")
            for value, fraction in cdf_points(err):
                fh.write(f"{format_float(value)},{format_float(fraction)}\n")
    logger.info("evaluate: mean SRE %.4f, mean TRE %.4f",
                row_stats["mean"], col_stats["mean"])
    return 0


_COMMANDS = {"synth": _cmd_synth, "train": _cmd_train,
             "estimate": _cmd_estimate, "evaluate": _cmd_evaluate}


def main(argv=None) -> int:
    level_name = os.environ.get("TTNMF_LOG", "warn").lower()
    if level_name not in _LOG_LEVELS:
        print(f"ttnmf: unknown TTNMF_LOG level {level_name!r}", file=sys.stderr)
        return 1
    logging.basicConfig(stream=sys.stderr, level=_LOG_LEVELS[level_name],
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError) as exc:
        print(f"ttnmf: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError, ShapeError) as exc:
        print(f"ttnmf: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"ttnmf: {exc}", file=sys.stderr)
        return 3


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
