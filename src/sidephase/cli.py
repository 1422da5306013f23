"""Command-line front end.

Subcommands: constants | channel | sweep | montecarlo | audit.  Every
number in every report comes from a library call; this module only
parses arguments, routes, and serializes.

Exit codes: 0 success, 2 usage or config error, 3 simulation plan
rejected (the message names the smallest adequate n_steps).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import constants as const
from .audit import build_audit, render_table
from .config import (
    CHANNEL_KINDS,
    CHANNELS,
    PARAMS,
    SweepSpec,
    UsageError,
    build_channel,
    grid_values,
    parse_grid,
    read_channel_config,
)
from .dephasing import (
    DecoherenceProfile,
    ExponentialCorrelation,
    build_profile,
    decoherence_time,
)
from .mechanisms import channel_to_correlation, phonon_rate
from .montecarlo import (
    DegenerateStatisticsError,
    PlanRejectedError,
    SimulationPlan,
    compare_to_analytic,
    ensemble_coherence,
)

__all__ = ["main"]

INSIGNIFICANT_RATE = 1e-20  # 1/s; below this a rate is reported as negligible

CONVENTIONS = ("static", "markovian", "unit-gamma")


def _fmt(value) -> str:
    """CSV cell: floats at 17 significant digits, flags as 0/1."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _json_safe(value):
    """Infinite floats (no decoherence, static noise) become JSON null."""
    if isinstance(value, float) and math.isinf(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _write_json(path: str | None, payload) -> None:
    """Strict JSON (NaN is an error) to path, or to stdout without one."""
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False)
    if not path:
        sys.stdout.write(text + "\n")
        return
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"SEED environment variable is not an integer: {env!r}") from exc
    return 0


def _constants_payload() -> dict:
    c = const.CONSTANTS
    payload = {
        "physical_constants": {
            "hbar": {"value": c.hbar, "unit": "J s"},
            "k_boltzmann": {"value": c.k_boltzmann, "unit": "J/K"},
            "mu0_over_4pi": {"value": c.mu0_over_4pi, "unit": "T^2 m^3/J"},
        },
        "spin_species": {
            name: {
                "gamma": {"value": s.gamma, "unit": "rad/s/T"},
                "spin": s.spin,
            }
            for name, s in const.SPECIES.items()
        },
        "silicon": {
            "debye_temperature": {"value": const.SILICON.debye_temperature, "unit": "K"},
            "lattice_constant": {"value": const.SILICON.lattice_constant, "unit": "m"},
            "sound_velocity": {"value": const.SILICON.sound_velocity, "unit": "m/s"},
            "atom_mass": {"value": const.SILICON.atom_mass, "unit": "J s^2/m^2"},
            "hyperfine_constant": {
                "value": const.SILICON.hyperfine_constant,
                "unit": "rad/s",
            },
            "site_density": {"value": const.SILICON.site_density, "unit": "1/m^3"},
            "xi": {"value": const.SILICON.xi, "unit": "dimensionless"},
        },
        "natural_si29_abundance_percent": const.NATURAL_SI29_ABUNDANCE_PERCENT,
    }
    return payload


def cmd_constants(args: argparse.Namespace) -> int:
    _write_json(args.out, _constants_payload())
    return 0


def _channel_report(kind: str, channel, convention: str) -> dict:
    parameters = {key: getattr(channel, key) for key in PARAMS[kind]}
    report: dict = {"channel": kind, "parameters": parameters}
    if kind == "phonon":
        rate_exact = phonon_rate(channel, "exact-integral")
        rate_factorial = phonon_rate(channel, "factorial-approx")
        report["rates_per_s"] = {
            "exact-integral": rate_exact,
            "factorial-approx": rate_factorial,
        }
        td = math.inf if rate_exact == 0.0 else 1.0 / rate_exact
        report["decoherence_time_s"] = td
        report["flags"] = {
            "insignificant": rate_exact < INSIGNIFICANT_RATE,
            "low_temperature_valid": channel.low_temperature_valid,
            "infinite_decoherence_time": math.isinf(td),
        }
        return report

    correlation = channel_to_correlation(channel)
    times = {
        name: decoherence_time(correlation, name) for name in CONVENTIONS
    }
    report["variance_rad2_per_s2"] = correlation.variance
    report["correlation_time_s"] = correlation.tau_c
    report["decoherence_time_s"] = times
    report["selected_convention"] = convention
    report["selected_decoherence_time_s"] = times[convention]
    flags = {"infinite_decoherence_time": math.isinf(times[convention])}
    if kind == "hyperfine":
        flags["adiabatic"] = channel.adiabatic
    if kind == "nuclear":
        flags["polarized"] = channel.polarized
    report["flags"] = flags
    return report


def _profile_for(channel, kind: str, t_max: float, t_points: int) -> DecoherenceProfile:
    times = np.linspace(0.0, t_max, t_points)
    if kind == "phonon":
        rate = phonon_rate(channel, "exact-integral")
        return DecoherenceProfile(
            times=tuple(float(t) for t in times),
            gamma_values=tuple(float(rate * t) for t in times),
        )
    return build_profile(channel_to_correlation(channel), times)


def cmd_channel(args: argparse.Namespace) -> int:
    if args.profile_out and args.t_max is None:
        raise UsageError("--profile-out requires --t-max")
    if args.t_max is not None and not 0.0 < args.t_max < math.inf:
        raise UsageError("--t-max must be positive and finite")
    params: dict[str, float] = {}
    if args.config:
        params = read_channel_config(args.config).get(args.kind, {})
    channel = build_channel(args.kind, params)
    _write_json(args.out, _channel_report(args.kind, channel, args.convention))
    if args.profile_out:
        profile = _profile_for(channel, args.kind, args.t_max, args.t_points)
        with open(args.profile_out, "w", newline="") as fh:
            profile.write_csv(fh)
    return 0


def _sweep_header(spec: SweepSpec) -> list[str]:
    if spec.kind == "phonon":
        return [
            spec.param,
            "rate_exact",
            "rate_factorial",
            "td_linear",
            "low_temperature_valid",
        ]
    header = [
        spec.param,
        "variance",
        "tau_c",
        "td_static",
        "td_markovian",
        "td_unit_gamma",
    ]
    if spec.kind == "nuclear":
        header += ["polarization_x", "polarized"]
    return header


def _sweep_row(spec: SweepSpec, value: float) -> list:
    params = dict(spec.fixed)
    if spec.param == "ratio":
        temperature = params.get("temperature", CHANNELS[spec.kind].temperature)
        params["field"] = value * temperature
    else:
        params[spec.param] = value
    channel = build_channel(spec.kind, params)
    if spec.kind == "phonon":
        rate_exact = phonon_rate(channel, "exact-integral")
        td = math.inf if rate_exact == 0.0 else 1.0 / rate_exact
        return [
            value,
            rate_exact,
            phonon_rate(channel, "factorial-approx"),
            td,
            channel.low_temperature_valid,
        ]
    correlation = channel_to_correlation(channel)
    row = [
        value,
        correlation.variance,
        correlation.tau_c,
        decoherence_time(correlation, "static"),
        decoherence_time(correlation, "markovian"),
        decoherence_time(correlation, "unit-gamma"),
    ]
    if spec.kind == "nuclear":
        row += [channel.polarization_x, channel.polarized]
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    fixed: dict[str, float] = {}
    if args.config:
        fixed = read_channel_config(args.config).get(args.channel, {})
    lo, hi, count, scale = parse_grid(args.grid)
    spec = SweepSpec(
        kind=args.channel,
        param=args.param,
        grid_min=lo,
        grid_max=hi,
        count=count,
        scale=scale,
        fixed=fixed,
    )
    header = _sweep_header(spec)
    rows = [_sweep_row(spec, float(v)) for v in grid_values(spec)]
    if args.format == "json":
        _write_json(args.out, [dict(zip(header, row)) for row in rows])
    else:
        _write_csv(args.out, header, rows)
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    if not 0 <= seed < 2 ** 64:
        raise UsageError("seed must fit in 64 bits")
    correlation = ExponentialCorrelation(args.variance, args.tau_c)
    plan = SimulationPlan(
        correlation=correlation,
        t_max=args.t_max,
        n_steps=args.n_steps,
        n_trajectories=args.n_trajectories,
        master_seed=seed,
    )
    result = ensemble_coherence(plan, n_grid=args.grid_points, n_workers=args.workers)
    reference = correlation
    if args.mismatch_tau_c != 1.0:
        reference = ExponentialCorrelation(
            correlation.variance, correlation.tau_c * args.mismatch_tau_c
        )
    comparison = compare_to_analytic(result, reference)
    header = ["t", "re_mean", "im_mean", "std_error", "analytic_envelope", "z"]
    rows = [
        [
            result.times[i],
            result.mean_coherence[i].real,
            result.mean_coherence[i].imag,
            result.std_error[i],
            comparison.analytic_envelope[i],
            comparison.z_scores[i],
        ]
        for i in range(len(result.times))
    ]
    _write_csv(args.out, header, rows)
    if args.summary_out:
        _write_json(
            args.summary_out,
            {
                "max_z": comparison.max_z,
                "n_trajectories": plan.n_trajectories,
                "n_steps": plan.n_steps,
                "t_max": plan.t_max,
                "variance": correlation.variance,
                "tau_c": correlation.tau_c,
                "master_seed": plan.master_seed,
                "mismatch_tau_c": args.mismatch_tau_c,
            },
        )
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    entries = build_audit()
    sys.stdout.write(render_table(entries) + "\n")
    if args.out:
        _write_json(args.out, [entry.__dict__ for entry in entries])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidephase",
        description=(
            "Pure-dephasing estimates for donor nuclear-spin qubits in "
            "silicon: channel variances, decoherence times, impurity "
            "bounds, and a stochastic cross-check."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="dump the constant registry")
    p_const.add_argument("--out", help="write JSON here instead of stdout")
    p_const.set_defaults(func=cmd_constants)

    p_chan = sub.add_parser("channel", help="single-channel report")
    p_chan.add_argument("kind", choices=CHANNEL_KINDS)
    p_chan.add_argument("--config", help="INI-style channel parameter file")
    p_chan.add_argument("--out", help="write the JSON report here")
    p_chan.add_argument(
        "--convention",
        choices=CONVENTIONS,
        default="static",
        help="which decoherence-time convention to highlight",
    )
    p_chan.add_argument("--profile-out", help="write a Gamma(t) CSV here")
    p_chan.add_argument("--t-max", type=float, help="profile horizon in seconds")
    p_chan.add_argument(
        "--t-points", type=int, default=200, help="profile grid size"
    )
    p_chan.set_defaults(func=cmd_channel)

    p_sweep = sub.add_parser("sweep", help="one-parameter channel sweep")
    p_sweep.add_argument("--channel", required=True, choices=CHANNEL_KINDS)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--grid", required=True, help="min:max:count:lin|log")
    p_sweep.add_argument("--config", help="INI-style channel parameter file")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mc = sub.add_parser("montecarlo", help="stochastic envelope cross-check")
    p_mc.add_argument("--variance", type=float, required=True)
    p_mc.add_argument(
        "--tau-c",
        type=float,
        required=True,
        help="correlation time in seconds (inf for static noise)",
    )
    p_mc.add_argument("--t-max", type=float, required=True)
    p_mc.add_argument("--n-steps", type=int, required=True)
    p_mc.add_argument("--n-trajectories", type=int, default=10000)
    p_mc.add_argument("--grid-points", type=int, default=50)
    p_mc.add_argument("--workers", type=int, default=1)
    p_mc.add_argument(
        "--seed", type=int, default=None, help="overrides the SEED env var"
    )
    p_mc.add_argument("--out", required=True, help="per-time CSV path")
    p_mc.add_argument("--summary-out", help="JSON summary path")
    p_mc.add_argument(
        "--mismatch-tau-c",
        type=float,
        default=1.0,
        help="compare against the envelope for tau_c scaled by this factor",
    )
    p_mc.set_defaults(func=cmd_montecarlo)

    p_audit = sub.add_parser("audit", help="recompute the published estimates")
    p_audit.add_argument("--out", help="also write the entries as JSON here")
    p_audit.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlanRejectedError as exc:
        print(f"plan rejected: {exc}", file=sys.stderr)
        return 3
    except (ValueError, DegenerateStatisticsError) as exc:
        # UsageError and the library's argument checks alike: exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
