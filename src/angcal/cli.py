"""Command-line experiment runner.

Subcommands: simulate, platt-convergence, sign-mc, universality,
multiindex. Every run is deterministic given --seed: re-running writes
byte-identical CSV/JSON at any OPENBLAS_NUM_THREADS. Exit
codes: 0 success, 2 configuration error, 3 numerical failure or no
memory left; the failing error's type name goes to stderr.

Each long flag is also a key of the flat config file read via --config
(`key = value` lines, - or _ in keys, `#` comments). Explicit flags
override file values; a file's keys of other subcommands are ignored.
One table gives each key the one parser of its text, from either source,
into `ExperimentConfig` fields or driver keywords; an unset key takes
that field's or keyword's default, so no default lives here.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

from .errors import AngcalError, ContractError
from .experiments import (
    KNOWN_CALIBRATORS,
    ExperimentConfig,
    cov_fields,
    run_multiindex,
    run_platt_convergence,
    run_sign_mc,
    run_simulate,
    run_universality,
)
from .links import LinkFunction
from .rng import ENTRY_DISTRIBUTIONS


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ContractError(f"cannot parse boolean {text!r}")


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in text.split(",") if item.strip())


# key -> (keyword, parser of its text, help). A key is its long flag without the
# dashes, - written as _. The keywords of the common keys but `out` are
# ExperimentConfig fields; a subcommand's own keys are its driver's keywords.
_COMMON_KEYS = {
    "n": ("n", int, "training sample size"),
    "d": ("d", int, "feature dimension"),
    "lambda": ("lam", float, "ridge strength"),
    "seed": ("seed", int, "master seed (all streams derive from it)"),
    "link": ("link", LinkFunction.parse, "label link, kind:a:b (sigmoid:3:1, probit:1:0.3, crelu:3:0.5)"),
    "entry": ("entry", str, f"iid entry distribution of the design: {'|'.join(ENTRY_DISTRIBUTIONS)}"),
    "cov": ("cov_rho", cov_fields, "covariance: ar1:RHO, or identity for ar1:0 (scaled by 1/d)"),
    "n_test": ("n_test", int, "test points for reliability/losses"),
    "platt_holdout": ("platt_holdout", int, "labeled holdout size for Platt/isotonic"),
    "sign_holdout_frac": ("sign_holdout_frac", float, "fraction of n carved for the sign estimator"),
    "sign_holdout_file": ("sign_holdout_file", str, "CSV holdout (features then a 0/1 label column)"),
    "calibrators": ("calibrators", _comma_list, f"comma list among {','.join(KNOWN_CALIBRATORS)}"),
    "platt_family": ("platt_family", str, "Platt hypothesis family: link|sigmoid"),
    "out": ("out", str, "output directory (default: run-<seed>-<timestamp>)"),
    "svg": ("svg", _to_bool, "also write reliability.svg"),
}
_SWITCHES = ("svg",)  # flags that take no value on the command line

# Subcommand -> (help, driver, own keys). The lambdas look the drivers up per
# call, so wrappers installed after import (a tracer's) see every call.
_COMMANDS = {
    "simulate": ("single seeded experiment with reliability reports", lambda **kw: run_simulate(**kw), {}),
    "platt-convergence": (
        "Platt fits on growing holdouts vs the angular predictor",
        lambda **kw: run_platt_convergence(**kw),
        {
            "sizes": (
                "holdout_sizes",
                lambda t: tuple(map(int, _comma_list(t))),
                "strictly ascending comma list of holdout sizes",
            ),
            "grid_points": ("grid_points", int, "logit grid size for sup distances"),
        },
    ),
    "sign-mc": (
        "Monte Carlo error rate of the holdout sign estimator",
        lambda **kw: run_sign_mc(**kw),
        {"trials": ("trials", int, "number of holdout redraws")},
    ),
    "universality": (
        "simulate under a non-Gaussian design vs a Gaussian twin",
        lambda **kw: run_universality(**kw),
        {},
    ),
    "multiindex": (
        "multi-index angular calibration with true cross angles",
        lambda **kw: run_multiindex(**kw),
        {"k": ("k_indices", int, "number of indices")},
    ),
}
_FILE_KEYS = _COMMON_KEYS.keys() | {key for _, _, own in _COMMANDS.values() for key in own}


def build_parser() -> argparse.ArgumentParser:
    """A subparser per subcommand that collects the text of exactly the flags given."""
    parser = argparse.ArgumentParser(
        prog="angcal",
        description="Angle-aware calibration experiments for high-dimensional linear classifiers.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, own) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", metavar="FILE", help="flat key=value config file; flags override")
        for key, (_, _, key_help) in (_COMMON_KEYS | own).items():
            switch = {"action": "store_const", "const": "yes"} if key in _SWITCHES else {}
            p.add_argument("--" + key.replace("_", "-"), help=key_help, **switch)
    return parser


def _parse_config_file(path: str) -> dict:
    """key -> value text for each `key = value` line; keys of no subcommand are rejected."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ContractError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_").lower()
        if key not in _FILE_KEYS:
            raise ContractError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _parse(keys: dict, texts: dict) -> dict:
    """Keywords from the text of each of `keys` that `texts` holds."""
    kwargs = {}
    for key, (dest, parse, _) in keys.items():
        if key in texts:
            try:
                value = parse(texts[key])
            except ValueError as exc:
                raise ContractError(f"--{key.replace('_', '-')}: cannot parse {texts[key]!r}") from exc
            kwargs[dest] = value
    return kwargs


def _make_out_dir(out: str | None, seed: int) -> tuple[Path, bool]:
    """Create the output directory (default run-<seed>-<timestamp>); also say whether this call created it."""
    path = Path(out) if out is not None else Path(f"run-{seed}-{time.strftime('%Y%m%d-%H%M%S')}")
    try:
        existed = path.is_dir()
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ContractError(f"cannot create output directory {path}: {exc}") from exc
    return path, not existed


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    _, driver, own = _COMMANDS[flags.pop("command")]
    created = False
    try:
        texts = (_parse_config_file(flags.pop("config")) if "config" in flags else {}) | flags
        common = _parse(_COMMON_KEYS, texts)
        out = common.pop("out", None)
        cfg = ExperimentConfig(**common)
        kwargs = _parse(own, texts)
        out_dir, created = _make_out_dir(out, cfg.seed)
        driver(cfg=cfg, out_dir=out_dir, **kwargs)
    except (AngcalError, MemoryError) as exc:  # a run too large for memory fails like a numerical one
        if created:
            with contextlib.suppress(OSError):  # a failed run leaves no empty directory behind
                out_dir.rmdir()
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"{name}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ContractError) else 3
    print(f"wrote reports to {out_dir}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
