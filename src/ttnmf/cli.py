"""Command-line pipeline: synth, train, estimate, evaluate.

Exit codes: 0 success, 1 usage/config or a file that cannot be opened,
2 data validation, 3 numerical failure.
TTNMF_LOG={error,warn,info,debug} controls diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (ConfigError, NumericalFailure, ParseError, ShapeError,
                     UsageError, ValidationError)
from .estimation import estimate_od_flows
from .factors import LagSet
from .fileio import (ModelArchive, format_float, load_matrix_csv, load_model,
                     save_model, sha256_hex, write_matrix_csv)
from .metrics import cdf_points, sre, summary_stats, tre
from .network import (LinkFlowMatrix, RoutingMatrix, TrafficMatrix,
                      compute_link_flows, generate_synthetic, split_train_test)
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

# thread-count setters of OpenBLAS builds: numpy's wheels carry the
# scipy_openblas symbols, with the 64_ suffix for 64-bit integers
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> tuple[_Parser, dict]:
    """The ttnmf parser and its subcommand parsers by name.

    Each setting is declared once, as a flag with its type and built-in
    default; the training defaults are those of TrainConfig.  A profile
    entry names the flag's dest.
    """
    parser = _Parser(prog="ttnmf",
                     description="OD traffic estimation from link loads",
                     epilog="CSV orientation (headerless, '#' comments "
                            "allowed): routing.csv links x OD pairs of {0,1}; "
                            "traffic.csv and mask.csv OD pairs x timestamps; "
                            "linkflows.csv links x timestamps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", required=True, help="output directory")
        return p

    p = command("synth", "generate a synthetic scenario")
    p.add_argument("--routers", type=int, default=6)
    p.add_argument("--rank", type=int, default=4)
    p.add_argument("--T", dest="n_timestamps", type=int, default=400)
    p.add_argument("--lags", default="1,2")
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", type=int)
    p.add_argument("--mask-fraction", dest="mask_fraction", type=float,
                   default=0.0)

    p = command("train", "fit a factor model to traffic data")
    p.add_argument("--routing")
    p.add_argument("--traffic")
    p.add_argument("--mask")
    p.add_argument("--rank", type=int, default=4)
    p.add_argument("--lags", default="")
    p.add_argument("--beta-h", dest="beta_h", type=float,
                   default=TrainConfig.beta_temporal)
    p.add_argument("--beta-a", dest="beta_a", type=float,
                   default=TrainConfig.beta_ortho)
    p.add_argument("--split", type=int)
    p.add_argument("--profile", choices=tuple(PROFILES))

    p = command("estimate", "estimate OD flows from link flows")
    p.add_argument("--model")
    p.add_argument("--linkflows")

    p = command("evaluate", "compare estimated and true OD flows")
    p.add_argument("--true", dest="true_path")
    p.add_argument("--est", dest="est_path")
    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """Flag > profile > built-in default.

    A first parse finds --profile; the profile's entries then become train's
    defaults, and a second parse lets each flag override them.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "profile", None):
        commands["train"].set_defaults(**PROFILES[args.profile])
        args = parser.parse_args(argv)
    return args


def _require_file(path, what) -> Path:
    if path is None:
        raise ConfigError(f"missing required input: {what}")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} file not found: {p}")
    if not p.is_file():
        raise ConfigError(f"{what} path {p} is not a file")
    return p


def _read(build, *inputs):
    """build(*matrices) of the CSV files that inputs give as (path, what)
    pairs, each a required input.  build is a matrix type, which checks the
    values; an error it raises is given the files' names."""
    paths = [_require_file(path, what) for path, what in inputs]
    try:
        return build(*map(load_matrix_csv, paths))
    except (ShapeError, ValidationError) as exc:
        raise _naming(exc, paths) from None


def _naming(exc, paths):
    """exc, of its own type, with the names of the files at fault."""
    return type(exc)(f"{', '.join(map(str, paths))}: {exc}")


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


def _write_csv(path: Path, matrix, header=None) -> None:
    """write_matrix_csv(path, matrix, header) through _replaced_on_success:
    a failed or interrupted write leaves no partial output behind."""
    with _replaced_on_success(path) as tmp:
        write_matrix_csv(tmp, matrix, header)


def _cmd_synth(args) -> int:
    lag_set = LagSet.from_text(args.lags)
    frac = args.mask_fraction
    if not 0 <= frac < 1:
        raise ConfigError(f"mask fraction must lie in [0, 1), got {frac}")
    split, T = args.split, args.n_timestamps
    if split is not None and not 0 < split < T:
        raise ConfigError(f"split must lie in (0, {T}), got {split}")
    scenario = generate_synthetic(
        n_routers=args.routers, planted_rank=args.rank,
        n_timestamps=args.n_timestamps, planted_lags=lag_set,
        noise_level=args.noise, seed=args.seed)
    links = compute_link_flows(scenario.routing, scenario.traffic)
    outputs = {"routing.csv": scenario.routing.entries,
               "traffic.csv": scenario.traffic.entries,
               "linkflows.csv": links.entries}
    if frac:
        rng = np.random.default_rng([args.seed, 1])
        outputs["mask.csv"] = (
            rng.random(scenario.traffic.entries.shape) >= frac) * 1.0
    if split is not None:
        train_part, test_part = split_train_test(scenario.traffic, split)
        outputs["traffic_train.csv"] = train_part.entries
        outputs["traffic_test.csv"] = test_part.entries
        outputs["linkflows_test.csv"] = compute_link_flows(
            scenario.routing, test_part).entries
    # every setting is checked before the first file is written
    out = _outdir(args)
    for name, matrix in outputs.items():
        _write_csv(out / name, matrix)
    logger.info("synth: wrote scenario with %d links, %d OD pairs, %d slots",
                scenario.routing.n_links, scenario.routing.n_pairs,
                scenario.traffic.n_timestamps)
    return 0


def _cmd_train(args) -> int:
    routing = _read(RoutingMatrix, (args.routing, "routing"))
    inputs = [(args.traffic, "traffic")]
    if args.mask:
        inputs.append((args.mask, "mask"))
    # the whole file is checked, not only the columns that --split keeps
    traffic = _read(TrafficMatrix, *inputs)
    split = args.split
    if split is not None:
        T = traffic.n_timestamps
        if not 0 < split <= T:
            raise ConfigError(f"split must lie in (0, {T}], got {split}")
        mask = None if traffic.mask is None else traffic.mask[:, :split]
        traffic = TrafficMatrix(traffic.entries[:, :split], mask=mask)

    config = TrainConfig(
        rank=args.rank, lag_set=LagSet.from_text(args.lags),
        beta_temporal=args.beta_h, beta_ortho=args.beta_a)
    try:
        model, report = train(traffic, routing, config)
    except ValidationError as exc:  # the traffic data is at fault
        raise _naming(exc, [path for path, _ in inputs]) from None

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
        save_model(tmp, ModelArchive(model, provenance))
    # the seed row has no block iterations; every count and q is exact in
    # float64, and format_float writes it as an integer
    iters = np.zeros((report.n_iterations + 1, len(BLOCKS)))
    iters[1:] = np.transpose([report.block_iteration_counts[b]
                              for b in BLOCKS])
    _write_csv(out / "trace.csv", np.column_stack((
        np.arange(len(iters)), report.objective_trace,
        report.penalized_trace, report.temporal_trace, report.ortho_trace,
        iters, report.iteration_wall_ms)),
        "q,e_q,f_q,temporal,ortho,spatial_iters,latent_iters,ar_iters,"
        "wall_ms")
    logger.info("train: %d outer iterations (%s), final fit %.6g, "
                "wall %.2fs", report.n_iterations, report.stop_reason,
                report.objective_trace[-1], report.wall_time)
    return 0


def _cmd_estimate(args) -> int:
    model = load_model(_require_file(args.model, "model")).model
    links = _read(LinkFlowMatrix, (args.linkflows, "linkflows"))
    n_links = model.routing.shape[0]
    if links.n_links != n_links:
        raise ShapeError(
            f"{args.linkflows}: link-flow matrix has {links.n_links} rows "
            f"but the model was trained with {n_links} links")
    estimates = estimate_od_flows(links, model)
    _write_csv(_outdir(args) / "estimated.csv", estimates)
    logger.info("estimate: %d columns estimated", estimates.shape[1])
    return 0


def _cmd_evaluate(args) -> int:
    x_true = _read(TrafficMatrix, (args.true_path, "true OD matrix")).entries
    x_est = _read(TrafficMatrix,
                  (args.est_path, "estimated OD matrix")).entries
    if x_true.shape != x_est.shape:
        raise ShapeError(
            f"{args.true_path}, {args.est_path}: true shape {x_true.shape} "
            f"!= estimated shape {x_est.shape}")
    if not x_true.any():
        raise ValidationError(f"{args.true_path}: true OD matrix is all zero")
    row_err = sre(x_true, x_est)
    col_err = tre(x_true, x_est)
    row_stats = summary_stats(row_err)
    col_stats = summary_stats(col_err)
    out = _outdir(args)
    for name, err in (("sre.csv", row_err), ("tre.csv", col_err)):
        _write_csv(out / name, err.values.reshape(-1, 1))
    with _replaced_on_success(out / "stats.csv") as tmp, \
            open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("stat,sre,tre\n")
        for key in ("min", "max", "mean", "median", "std"):
            fh.write(f"{key},{format_float(row_stats[key])},"
                     f"{format_float(col_stats[key])}\n")
        fh.write(f"undefined,{len(row_err.undefined_indices)},"
                 f"{len(col_err.undefined_indices)}\n")
    for name, err in (("cdf_sre.csv", row_err), ("cdf_tre.csv", col_err)):
        _write_csv(out / name, cdf_points(err), "value,fraction")
    logger.info("evaluate: mean SRE %.4f, mean TRE %.4f",
                row_stats["mean"], col_stats["mean"])
    return 0


@functools.cache
def _loaded_openblas():
    """(library, thread-count setter) of the OpenBLAS this process has
    loaded, or None: no /proc/self/maps, another BLAS, or no known setter."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return None
    paths = [f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]]
    for path in dict.fromkeys(paths):
        try:
            # RTLD_NOLOAD: a handle to the copy already mapped, never a new one
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return lib, setter
    return None


def _pin_blas_threads():
    """Run the loaded OpenBLAS on one thread, for the rest of the process.

    On the CLI's matrix sizes a second thread adds CPU time, not speed, and
    the thread count changes the order of sums in the products, so one
    thread also makes the outputs independent of OPENBLAS_NUM_THREADS, which
    OpenBLAS reads only when numpy loads it.  The second core goes to
    estimation.refine_em instead: it runs two fixed column halves on two
    threads, each half's products on this one BLAS thread, so its outputs
    do not depend on thread scheduling either.
    """
    found = _loaded_openblas()
    if found is None:
        logger.debug("no OpenBLAS thread setter found; BLAS threads unchanged")
    else:
        found[1](1)


_COMMANDS = {"synth": _cmd_synth, "train": _cmd_train,
             "estimate": _cmd_estimate, "evaluate": _cmd_evaluate}


# exit code of each error reported in one line; an OSError is a path that
# cannot be opened, such as an output name too long for the file system
_EXIT_CODES = {UsageError: 1, ConfigError: 1, OSError: 1, ParseError: 2,
               ValidationError: 2, ShapeError: 2, NumericalFailure: 3}


def main(argv=None) -> int:
    level_name = os.environ.get("TTNMF_LOG", "warn").lower()
    if level_name not in _LOG_LEVELS:
        print(f"ttnmf: unknown TTNMF_LOG level {level_name!r}", file=sys.stderr)
        return 1
    logging.basicConfig(stream=sys.stderr, level=_LOG_LEVELS[level_name],
                        format="%(levelname)s %(name)s: %(message)s")
    _pin_blas_threads()
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"ttnmf: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(exc, kind))


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
