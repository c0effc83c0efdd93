"""Command-line experiment runner.

Subcommands: simulate, platt-convergence, sign-mc, universality,
multiindex. Every run is deterministic given --seed: re-running writes
byte-identical CSV/JSON. Exit codes: 0 success, 2 configuration error,
3 numerical failure; the failing error's type name goes to stderr.

A flat key-value config file (one `key = value` per line, `#` comments,
keys named like the long flags with - or _) can seed any subcommand via
--config; explicit flags override file values.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

from .errors import AngcalError, ContractError
from .experiments import (
    DEFAULT_CALIBRATORS,
    ExperimentConfig,
    run_multiindex,
    run_platt_convergence,
    run_sign_mc,
    run_simulate,
    run_universality,
)
from .links import LinkFunction

def _config_actions(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Config-file key -> argparse action, over the long flags of every subcommand.

    A key is its flag without the leading dashes, with - written as _;
    --config and --help are not settable from a file.
    """
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {}
    for subparser in subparsers.choices.values():
        for action in subparser._actions:
            if action.dest in ("config", "help"):
                continue
            for flag in action.option_strings:
                if flag.startswith("--"):
                    actions[flag[2:].replace("-", "_")] = action
    return actions


def _parse_config_file(path: str, keys) -> dict:
    """key -> value text for each `key = value` line; keys outside `keys` are rejected."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ContractError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_").lower()
        if key not in keys:
            raise ContractError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file; flags override")
    parser.add_argument("--n", type=int, default=1000, help="training sample size")
    parser.add_argument("--d", type=int, default=2000, help="feature dimension")
    parser.add_argument("--lambda", dest="lam", type=float, default=0.5, help="ridge strength")
    parser.add_argument("--seed", type=int, default=1, help="master seed (all streams derive from it)")
    parser.add_argument(
        "--link",
        default="sigmoid:3:1",
        help="label link, kind:a:b (sigmoid:3:1, probit:1:0.3, crelu:3:0.5)",
    )
    parser.add_argument(
        "--entry",
        default="gaussian",
        choices=("gaussian", "rademacher", "uniform"),
        help="iid entry distribution of the pre-correlation design",
    )
    parser.add_argument("--cov", default="ar1:0.5", help="covariance family: ar1:RHO or identity (scaled by 1/d)")
    parser.add_argument("--n-test", type=int, default=20000, help="test points for reliability/losses")
    parser.add_argument("--platt-holdout", type=int, default=20000, help="labeled holdout size for Platt/isotonic")
    parser.add_argument("--sign-holdout-frac", type=float, default=0.1, help="fraction of n carved for the sign estimator")
    parser.add_argument("--sign-holdout-file", default=None, help="CSV holdout (features then a 0/1 label column)")
    parser.add_argument(
        "--calibrators",
        default=",".join(DEFAULT_CALIBRATORS),
        help="comma list among uncalibrated,angular,angular-star,platt,isotonic,chance",
    )
    parser.add_argument("--platt-family", default="link", choices=("link", "sigmoid"), help="Platt hypothesis family")
    parser.add_argument("--out", default=None, help="output directory (default: run-<seed>-<timestamp>)")
    parser.add_argument("--svg", action="store_true", default=False, help="also write reliability.svg")


def build_parser() -> argparse.ArgumentParser:
    # abbreviations stay off so config-file merging can tell exactly which
    # flags were passed on the command line
    parser = argparse.ArgumentParser(
        prog="angcal",
        description="Angle-aware calibration experiments for high-dimensional linear classifiers.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="single seeded experiment with reliability reports", allow_abbrev=False)
    _add_common_flags(p)

    p = sub.add_parser(
        "platt-convergence", help="Platt fits on growing holdouts vs the angular predictor", allow_abbrev=False
    )
    _add_common_flags(p)
    p.add_argument("--sizes", default="100,1000,10000", help="ascending comma list of holdout sizes")
    p.add_argument("--grid-points", type=int, default=1000, help="logit grid size for sup distances")

    p = sub.add_parser("sign-mc", help="Monte Carlo error rate of the holdout sign estimator", allow_abbrev=False)
    _add_common_flags(p)
    p.add_argument("--trials", type=int, default=5000, help="number of holdout redraws")

    p = sub.add_parser(
        "universality", help="simulate under a non-Gaussian design vs a Gaussian twin", allow_abbrev=False
    )
    _add_common_flags(p)

    p = sub.add_parser(
        "multiindex", help="multi-index angular calibration with true cross angles", allow_abbrev=False
    )
    _add_common_flags(p)
    p.add_argument("--k", type=int, default=2, help="number of indices")
    return parser


def _parse_cov(text: str) -> tuple[str, float]:
    text = text.strip().lower()
    if text == "identity":
        return "identity", 0.0
    if text.startswith("ar1:"):
        try:
            return "ar1", float(text.split(":", 1)[1])
        except ValueError:
            pass
    elif text == "ar1":
        return "ar1", 0.5
    raise ContractError(f"cannot parse covariance {text!r}; expected ar1:RHO or identity")


def _to_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ContractError(f"cannot parse boolean {value!r}")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cov_kind, cov_rho = _parse_cov(str(args.cov))
    calibrators = tuple(name.strip() for name in str(args.calibrators).split(",") if name.strip())
    return ExperimentConfig(
        n=int(args.n),
        d=int(args.d),
        lam=float(args.lam),
        seed=int(args.seed),
        link=LinkFunction.parse(str(args.link)),
        entry=str(args.entry),
        cov_kind=cov_kind,
        cov_rho=cov_rho,
        n_test=int(args.n_test),
        platt_holdout=int(args.platt_holdout),
        sign_holdout_frac=float(args.sign_holdout_frac),
        sign_holdout_file=args.sign_holdout_file,
        calibrators=calibrators,
        platt_family=str(args.platt_family),
        svg=_to_bool(args.svg),
    )


def _make_out_dir(out: str | None, seed: int) -> tuple[Path, bool]:
    """Create the output directory (default run-<seed>-<timestamp>); also say whether this call created it."""
    path = Path(out) if out is not None else Path(f"run-{seed}-{time.strftime('%Y%m%d-%H%M%S')}")
    try:
        existed = path.is_dir()
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ContractError(f"cannot create output directory {path}: {exc}") from exc
    return path, not existed


def _apply_config_file(parser: argparse.ArgumentParser, args: argparse.Namespace, argv_list: list[str]) -> None:
    """Fill in file values for every flag the user did not pass explicitly."""
    actions = _config_actions(parser)
    file_values = _parse_config_file(args.config, actions)
    explicit = {token.split("=", 1)[0] for token in argv_list if token.startswith("--")}
    for key, value in file_values.items():
        action = actions[key]
        if explicit.isdisjoint(action.option_strings) and hasattr(args, action.dest):
            setattr(args, action.dest, value)


# Subcommand -> (its own flags as driver keywords, driver). The lambdas look the
# drivers up per call, so wrappers installed after import (a tracer's) see every call.
_COMMANDS = {
    "simulate": (lambda args: {}, lambda **kw: run_simulate(**kw)),
    "universality": (lambda args: {}, lambda **kw: run_universality(**kw)),
    "sign-mc": (lambda args: {"trials": int(args.trials)}, lambda **kw: run_sign_mc(**kw)),
    "platt-convergence": (
        lambda args: {
            "holdout_sizes": [int(s) for s in str(args.sizes).split(",") if s.strip()],
            "grid_points": int(args.grid_points),
        },
        lambda **kw: run_platt_convergence(**kw),
    ),
    "multiindex": (lambda args: {"k_indices": int(args.k)}, lambda **kw: run_multiindex(**kw)),
}


def main(argv=None) -> int:
    parser = build_parser()
    argv_list = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(argv_list)
    try:
        if getattr(args, "config", None):
            _apply_config_file(parser, args, argv_list)
        cfg = _config_from_args(args)
        own_flags, driver = _COMMANDS[args.command]
        kwargs = own_flags(args)
        out_dir, created = _make_out_dir(args.out, cfg.seed)
    except (ContractError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    try:
        driver(cfg=cfg, out_dir=out_dir, **kwargs)
    except AngcalError as exc:
        if created:
            with contextlib.suppress(OSError):  # a failed run leaves no empty directory behind
                out_dir.rmdir()
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ContractError) else 3
    print(f"wrote reports to {out_dir}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
