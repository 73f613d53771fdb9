"""Command-line front end: pattern sweeps, CHSH reports, synthetic data, analysis.

Exit codes: 0 success, 2 usage error, 3 data error. Output files embed the
resolved configuration, so identical config + seed reproduce identical bytes.
`main` builds its argparse tree on the first call and reuses it for every
later call in the same process; handlers look up the library functions at
call time.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bell import (SettingQuad, check_general_search, chsh_finite, chsh_ideal, optimize_general,
                   optimize_symmetric)
from .binspace import parity_tables
from .closedform import PROB_NAMES, apply_crosstalk, effective_drive, ideal_probabilities
from .config import RunConfig, load_config, parse_bins
from .counts import (DEFAULT_BACKGROUND_WINDOW, DEFAULT_PEAK_WINDOW, PAIR_LABELS, chsh_estimate,
                     correlator_estimate, emit_histogram, extract_counts, ingest_histogram,
                     simulate_chsh_ensembles, simulate_counts, synthesize_histogram, visibility)
from .errors import FreqbinError, InvalidInputError
from .params import ModulationSetting, strict_int

USAGE_EXIT = 2
DATA_EXIT = 3
MAX_STEPS = 10_000  # pattern sweep points; each is one finite-bin setting
MAX_ENSEMBLES = 1_000_000  # montecarlo ensembles, ~1.3 us each drawn in numpy chunks

# Flags that override one config field: (flag, section or None for top level, key, type, help)
_CONFIG_FLAGS = (
    ("--rf-frequency", None, "rf_frequency", float, None),
    ("--center-frequency", None, "center_frequency", float, None),
    ("--epsilon", "truncation", "epsilon", float, "truncation amplitude tolerance"),
    ("--max-order", "truncation", "max_order", strict_int, "truncation hard cap"),
    ("--crosstalk", "measurement", "crosstalk", float, None),
    ("--efficiency", "measurement", "efficiency", float, None),
    ("--pair-rate", "measurement", "pair_rate", float, None),
    ("--accidental-rate", "measurement", "accidental_rate", float, None),
    ("--duration", "measurement", "duration", float, None),
    ("--dispersion-quadratic", "dispersion", "quadratic_coefficient", float, None),
)


class _UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        config = _resolve_config(args)
        return args.handler(args, config)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except FreqbinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


@functools.cache  # built on the first main call, not at import; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--seed", type=strict_int)
    common.add_argument("--out", help="output file (or directory for simulate)")
    common.add_argument("--format", choices=("csv", "json"), dest="out_format")
    common.add_argument("--bins", help="bin list '1,2,3' or range '1..6'")
    for flag, _, _, kind, text in _CONFIG_FLAGS:
        common.add_argument(flag, type=kind, help=text)

    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--a0", type=float, default=0.2318)
    settings.add_argument("--a1", type=float, default=0.6955)
    settings.add_argument("--b0", type=float, default=None, help="defaults to a0")
    settings.add_argument("--b1", type=float, default=None, help="defaults to a1")
    settings.add_argument("--alpha0", type=float, default=0.0)
    settings.add_argument("--alpha1", type=float, default=math.pi)
    settings.add_argument("--beta0", type=float, default=None, help="defaults to alpha0")
    settings.add_argument("--beta1", type=float, default=None, help="defaults to alpha1")

    parser = argparse.ArgumentParser(prog="freqbin",
                                     description="Frequency-bin entangled photon-pair simulator "
                                                 "and coincidence statistics toolkit")
    parser.add_argument("--version", action="version", version=f"freqbin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", parents=[common], help="two-photon interference curve over alpha")
    p.add_argument("--a", type=float, default=0.6955)
    p.add_argument("--b", type=float, default=0.6955)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--alpha-start", type=float, default=0.0)
    p.add_argument("--alpha-stop", type=float, default=2.0 * math.pi)
    p.add_argument("--steps", type=strict_int, default=25, help="number of sweep points (>= 2)")
    p.add_argument("--pattern-model", choices=("ideal", "finite", "both"), default="ideal")
    p.set_defaults(handler=_cmd_pattern)

    chsh = sub.add_parser("chsh", help="CHSH evaluation, optimization, and ensembles")
    chsh_sub = chsh.add_subparsers(dest="chsh_command", required=True)

    p = chsh_sub.add_parser("eval", parents=[common, settings],
                            help="theory and synthetic-experiment correlator table")
    p.set_defaults(handler=_cmd_chsh_eval)

    p = chsh_sub.add_parser("optimize", parents=[common],
                            help="maximize S over the symmetric family (and optionally all 8 parameters)")
    p.add_argument("--interval", type=float, nargs=2, default=(0.0, 0.5), metavar=("LO", "HI"))
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--general", action="store_true", help="also run the 8-parameter search")
    p.add_argument("--restarts", type=strict_int, default=20)
    p.add_argument("--amplitude-bound", type=float, default=1.5)
    p.set_defaults(handler=_cmd_chsh_optimize)

    p = chsh_sub.add_parser("finite", parents=[common, settings],
                            help="CHSH from the finite-bin simulation")
    p.set_defaults(handler=_cmd_chsh_finite)

    p = chsh_sub.add_parser("montecarlo", parents=[common, settings],
                            help="seeded ensemble of synthetic CHSH estimates")
    p.add_argument("--ensembles", type=strict_int, default=500)
    p.set_defaults(handler=_cmd_chsh_montecarlo)

    p = sub.add_parser("simulate", parents=[common, settings],
                       help="write synthetic coincidence histograms and count records")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("analyze", parents=[common],
                       help="estimate CHSH (4 histograms) or visibility (phase scan) from files")
    p.add_argument("files", nargs="+", help="histogram CSV files")
    p.add_argument("--peak-window", type=float, nargs=2, default=DEFAULT_PEAK_WINDOW,
                   metavar=("LO", "HI"))
    p.add_argument("--background-window", type=float, nargs=2, default=DEFAULT_BACKGROUND_WINDOW,
                   metavar=("LO", "HI"))
    p.add_argument("--labels", help="comma-separated setting labels, e.g. 'A0B0,A0B1,A1B0,A1B1'")
    p.add_argument("--no-subtract", action="store_true", help="skip background subtraction")
    p.add_argument("--normalization", help="four per-outcome normalization factors 'EE,EO,OE,OO'")
    p.add_argument("--visibility", choices=("EO", "OE"),
                   help="treat the files as a phase scan and report fringe visibility")
    p.set_defaults(handler=_cmd_analyze)

    return parser


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    data = config.to_dict()
    if args.seed is not None:
        data["seed"] = args.seed
    if args.bins is not None:
        data["bins"] = list(parse_bins(args.bins))
    for flag, section, key, _, _ in _CONFIG_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            (data[section] if section else data)[key] = value
    return RunConfig.from_dict(data)


def _quad_from_args(args) -> SettingQuad:
    b0 = args.b0 if args.b0 is not None else args.a0
    b1 = args.b1 if args.b1 is not None else args.a1
    beta0 = args.beta0 if args.beta0 is not None else args.alpha0
    beta1 = args.beta1 if args.beta1 is not None else args.alpha1
    return SettingQuad(a0=ModulationSetting(args.a0, args.alpha0),
                       a1=ModulationSetting(args.a1, args.alpha1),
                       b0=ModulationSetting(b0, beta0),
                       b1=ModulationSetting(b1, beta1))


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:  # missing directory, a directory in the way, no permission
        raise InvalidInputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _record(command: str, config: RunConfig, parameters: dict, results: dict) -> dict:
    return {"command": command, "version": __version__, "config": config.to_dict(),
            "parameters": parameters, "results": results}


def _emit_report(out, out_format, payload: dict, csv_lines: list[str]) -> None:
    """Write a report to out as JSON (format None or "json") or CSV with a sibling run record."""
    if not out:
        return
    if out_format == "csv":
        _write(out, "\n".join(csv_lines) + "\n")
        _write(str(out) + ".run.json", _json_text(payload))
    else:
        _write(out, _json_text(payload))


def _closed_form_tables(pairs, crosstalk: float) -> list:
    """Closed-form parity table of each setting pair, with interleaver crosstalk."""
    return [apply_crosstalk(ideal_probabilities(effective_drive(sa, sb)), crosstalk)
            for sa, sb in pairs]


# --- pattern -----------------------------------------------------------------

def _cmd_pattern(args, config: RunConfig) -> int:
    if args.steps < 2:
        raise _UsageError("--steps must be at least 2")
    if args.steps > MAX_STEPS:
        raise InvalidInputError(f"--steps must be at most {MAX_STEPS}, got {args.steps}")
    if not args.alpha_stop > args.alpha_start:
        raise _UsageError("--alpha-stop must exceed --alpha-start")

    alphas = [args.alpha_start + k * (args.alpha_stop - args.alpha_start) / (args.steps - 1)
              for k in range(args.steps)]
    setting_b = ModulationSetting(args.b, args.beta)
    pairs = [(ModulationSetting(args.a, alpha), setting_b) for alpha in alphas]
    curves = {}  # the ideal curve carries no crosstalk; the finite one applies the config's
    if args.pattern_model in ("ideal", "both"):
        curves["ideal"] = [table.as_tuple() for table in _closed_form_tables(pairs, 0.0)]
    if args.pattern_model in ("finite", "both"):
        curves["finite"] = [table.as_tuple() for table in parity_tables(
            config.bins, pairs, config.measurement, config.dispersion, config.truncation)]

    results: dict = {}
    if len(curves) == 2:
        results["max_curve_gap"] = max(abs(i - f) for irow, frow in zip(*curves.values())
                                       for i, f in zip(irow, frow))

    parameters = {"a": args.a, "b": args.b, "beta": args.beta,
                  "alpha_start": args.alpha_start, "alpha_stop": args.alpha_stop,
                  "steps": args.steps, "model": args.pattern_model}
    out_format = args.out_format or "csv"
    out = args.out or f"pattern.{out_format}"
    payload = _record("pattern", config, parameters, results)
    lines = []
    if out_format == "json":  # the curves go into the JSON report, not into a CSV's run record
        payload["results"]["alpha"] = alphas
        payload["results"].update((name, [list(row) for row in rows])
                                  for name, rows in curves.items())
    else:
        lines.append(",".join(["alpha"] + [f"{n}_{name}" if len(curves) == 2 else n
                                           for name in curves for n in PROB_NAMES]))
        for alpha, *rows in zip(alphas, *curves.values()):
            lines.append(",".join([_fmt(alpha)] + [_fmt(v) for row in rows for v in row]))
    _emit_report(out, out_format, payload, lines)
    print(f"pattern: wrote {args.steps} sweep points to {out}")
    if "max_curve_gap" in results:
        print(f"pattern: max ideal/finite curve gap {results['max_curve_gap']:.6e}")
    return 0


# --- chsh --------------------------------------------------------------------

def _cmd_chsh_eval(args, config: RunConfig) -> int:
    quad = _quad_from_args(args)
    theory = chsh_ideal(quad)
    tables = _closed_form_tables(quad.pairs(), config.measurement.crosstalk)
    rng = np.random.default_rng(config.seed)  # one stream per run, drawn in PAIR_LABELS order
    records = [simulate_counts(probs, config.measurement, rng, labels=label)
               for probs, label in zip(tables, PAIR_LABELS)]
    s, sigma_s, c_table = chsh_estimate(records, subtract=True)

    print(f"{'pair':6s} {'settings':48s} {'theory':>8s} {'experiment':>18s}")
    lines = ["pair,theory,experiment,sigma"]
    for (la, lb), (sa, sb), e_theory, c, rec in zip(PAIR_LABELS, quad.pairs(),
                                                    theory.correlators, c_table, records):
        sig = math.sqrt(correlator_estimate(rec, True, None)[1])
        setting_text = (f"a={sa.amplitude:.4f} alpha={sa.phase:.4f} "
                        f"b={sb.amplitude:.4f} beta={sb.phase:.4f}")
        print(f"{la},{lb:3s} {setting_text:48s} {e_theory:8.3f} {c:10.3f} +/- {sig:.3f}")
        lines.append(f"{la}{lb},{_fmt(e_theory)},{_fmt(c)},{_fmt(sig)}")
    print(f"{'S':6s} {'':48s} {theory.s_value:8.3f} {s:10.3f} +/- {sigma_s:.3f}")
    lines.append(f"S,{_fmt(theory.s_value)},{_fmt(s)},{_fmt(sigma_s)}")

    results = {"theory": {"correlators": list(theory.correlators), "s": theory.s_value},
               "experiment": {"c_table": list(c_table), "s": s, "sigma_s": sigma_s},
               "records": [rec.to_json_dict() for rec in records]}
    _emit_report(args.out, args.out_format,
                 _record("chsh-eval", config, dataclasses.asdict(quad), results), lines)
    return 0


def _cmd_chsh_optimize(args, config: RunConfig) -> int:
    # both are recorded in the run record, so they are checked even without --general
    check_general_search(args.amplitude_bound, args.restarts)
    c_star, s_star = optimize_symmetric(tuple(args.interval), args.tolerance)
    print(f"symmetric optimum: c* = {c_star:.6f}  amplitudes (c, 3c) = "
          f"({c_star:.4f}, {3 * c_star:.4f})  S = {s_star:.6f}")
    results = {"symmetric": {"c_star": c_star, "s_star": s_star}}
    lines = ["quantity,value", f"c_star,{_fmt(c_star)}", f"s_star,{_fmt(s_star)}"]
    if args.general:
        quad, report = optimize_general(args.amplitude_bound, args.restarts, config.seed)
        d00, d11 = report.drives[0], report.drives[3]
        ratio = d11 / d00 if d00 else float("nan")
        print(f"general optimum:   S = {report.s_value:.6f}  drives = "
              f"({', '.join(f'{d:.4f}' for d in report.drives)})  D11/D00 = {ratio:.4f}")
        if report.s_value < s_star - 1e-9:  # e.g. --restarts 1: the zero start is stationary
            print(f"warning: the general search stopped at S = {report.s_value:.6f}, below the "
                  f"symmetric S = {s_star:.6f}; more --restarts may reach it", file=sys.stderr)
        results["general"] = {"quad": dataclasses.asdict(quad), "s": report.s_value,
                              "drives": list(report.drives)}
        lines.append(f"s_general,{_fmt(report.s_value)}")
        lines.extend(f"d_{label},{_fmt(d)}"
                     for label, d in zip(("00", "01", "10", "11"), report.drives))
    parameters = {"interval": list(args.interval), "tolerance": args.tolerance,
                  "general": args.general, "restarts": args.restarts,
                  "amplitude_bound": args.amplitude_bound}
    _emit_report(args.out, args.out_format,
                 _record("chsh-optimize", config, parameters, results), lines)
    return 0


def _cmd_chsh_finite(args, config: RunConfig) -> int:
    quad = _quad_from_args(args)
    report = chsh_finite(quad, config.bins, config.measurement, config.dispersion, config.truncation)
    ideal = chsh_ideal(quad)
    lines = ["pair,finite,ideal"]
    for (la, lb), e_finite, e_ideal in zip(PAIR_LABELS, report.correlators, ideal.correlators):
        print(f"E({la},{lb})  finite = {e_finite:9.6f}   ideal = {e_ideal:9.6f}")
        lines.append(f"{la}{lb},{_fmt(e_finite)},{_fmt(e_ideal)}")
    print(f"S        finite = {report.s_value:9.6f}   ideal = {ideal.s_value:9.6f}")
    lines.append(f"S,{_fmt(report.s_value)},{_fmt(ideal.s_value)}")
    results = {"finite": {"correlators": list(report.correlators), "s": report.s_value},
               "ideal": {"correlators": list(ideal.correlators), "s": ideal.s_value}}
    _emit_report(args.out, args.out_format,
                 _record("chsh-finite", config, dataclasses.asdict(quad), results), lines)
    return 0


def _cmd_chsh_montecarlo(args, config: RunConfig) -> int:
    if args.ensembles < 2:
        raise _UsageError("--ensembles must be at least 2")
    if args.ensembles > MAX_ENSEMBLES:
        raise InvalidInputError(
            f"--ensembles must be at most {MAX_ENSEMBLES}, got {args.ensembles}")
    quad = _quad_from_args(args)
    tables = _closed_form_tables(quad.pairs(), config.measurement.crosstalk)
    s_values, sigmas = simulate_chsh_ensembles(tables, config.measurement, config.seed,
                                               args.ensembles)
    mean = float(np.mean(s_values))
    std = float(np.std(s_values, ddof=1))
    mean_sigma = float(np.mean(sigmas))
    print(f"montecarlo: {args.ensembles} ensembles  S = {mean:.4f} +/- {std:.4f} (empirical)"
          f"  mean reported sigma_s = {mean_sigma:.4f}")
    results = {"ensembles": args.ensembles, "s_mean": mean, "s_std": std,
               "mean_sigma_s": mean_sigma}
    lines = ["quantity,value", f"ensembles,{args.ensembles}", f"s_mean,{_fmt(mean)}",
             f"s_std,{_fmt(std)}", f"mean_sigma_s,{_fmt(mean_sigma)}"]
    _emit_report(args.out, args.out_format,
                 _record("chsh-montecarlo", config, dataclasses.asdict(quad), results), lines)
    return 0


# --- simulate / analyze --------------------------------------------------------

def _cmd_simulate(args, config: RunConfig) -> int:
    out_dir = Path(args.out or ".")
    quad = _quad_from_args(args)
    model = config.measurement
    tables = _closed_form_tables(quad.pairs(), model.crosstalk)
    rng = np.random.default_rng(config.seed)  # one stream per run, drawn in PAIR_LABELS order
    outputs = {}  # every check runs before the output directory is made
    for probs, (la, lb) in zip(tables, PAIR_LABELS):
        histogram = synthesize_histogram(probs, model, rng)
        record = extract_counts(histogram, DEFAULT_PEAK_WINDOW, DEFAULT_BACKGROUND_WINDOW,
                                duration_s=model.duration, labels=(la, lb))
        outputs[f"hist_{la}{lb}.csv"] = emit_histogram(histogram)
        outputs[f"record_{la}{lb}.json"] = _json_text(record.to_json_dict())
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing file
        raise InvalidInputError(f"cannot make directory {out_dir}: {exc.strerror or exc}") from None
    for name, text in outputs.items():
        _write(out_dir / name, text)
    written = list(outputs)
    run_path = out_dir / "simulate.run.json"
    _write(run_path, _json_text(_record("simulate", config, dataclasses.asdict(quad),
                                        {"files": written,
                                         "peak_window": list(DEFAULT_PEAK_WINDOW),
                                         "background_window": list(DEFAULT_BACKGROUND_WINDOW)})))
    print(f"simulate: wrote {len(written) + 1} files to {out_dir}")
    return 0


def _cmd_analyze(args, config: RunConfig) -> int:
    labels = None
    if args.labels:
        labels = [label.strip() for label in args.labels.split(",")]
        if len(labels) != len(args.files):
            raise _UsageError("--labels count must match the number of files")
    normalization = None
    if args.normalization:
        parts = args.normalization.split(",")
        if len(parts) != 4:
            raise _UsageError("--normalization needs four comma-separated factors")
        try:
            normalization = tuple(float(p) for p in parts)
        except ValueError:
            raise _UsageError("--normalization factors must be numbers") from None

    records = []
    for index, path in enumerate(args.files):
        try:
            with open(path, "rb") as handle:
                histogram = ingest_histogram(handle)
        except (OSError, FreqbinError) as exc:
            raise InvalidInputError(f"{path}: {exc}") from None
        label = labels[index] if labels else Path(path).stem
        records.append(extract_counts(histogram, tuple(args.peak_window),
                                      tuple(args.background_window),
                                      duration_s=args.duration or 1.0,
                                      labels=(label, label)))

    if args.visibility:
        vis, sigma = visibility(records, args.visibility)
        print(f"visibility({args.visibility}) = {vis:.4f} +/- {sigma:.4f} over {len(records)} scan points")
        results = {"visibility": vis, "sigma": sigma, "outcome": args.visibility}
        lines = ["quantity,value", f"visibility,{_fmt(vis)}", f"sigma,{_fmt(sigma)}"]
    else:
        if len(records) != 4:
            raise _UsageError("CHSH analysis needs exactly 4 histogram files (A0B0, A0B1, A1B0, A1B1)")
        s, sigma_s, c_table = chsh_estimate(records, subtract=not args.no_subtract,
                                            normalization=normalization)
        lines = ["pair,c"]
        for rec, c in zip(records, c_table):
            print(f"C({rec.setting_labels[0]}) = {c:8.4f}")
            lines.append(f"{rec.setting_labels[0]},{_fmt(c)}")
        print(f"S = {s:.4f} +/- {sigma_s:.4f}")
        lines.append(f"S,{_fmt(s)}")
        lines.append(f"sigma_s,{_fmt(sigma_s)}")
        results = {"s": s, "sigma_s": sigma_s, "c_table": list(c_table),
                   "records": [rec.to_json_dict() for rec in records]}
    parameters = {"files": list(args.files), "peak_window": list(args.peak_window),
                  "background_window": list(args.background_window),
                  "subtract": not args.no_subtract,
                  "normalization": list(normalization) if normalization else None,
                  "visibility": args.visibility}
    _emit_report(args.out, args.out_format, _record("analyze", config, parameters, results), lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
