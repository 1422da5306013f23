"""Command-line front end.

Subcommands: constants | channel | sweep | montecarlo | audit.  Every
number in every report comes from a library call but two, which this
module forms itself, both in _report's phonon branch: the phonon
decoherence time as 1/rate and the phonon profile's Gamma as rate * t.
Otherwise it only parses arguments, routes, and serializes JSON.  CSV
tables are written by dephasing.write_csv.

Commands compute, main writes.  main opens every output the command was
given, once each, and truncates none on opening.  The command then
computes all of its outputs and returns them as (path, output) pairs in
option order, each output either text (JSON is encoded by then) or a
function that writes a CSV table.  Only then does main write them, in that
order, to stdout where the path is None.  An existing file is overwritten
in place and then trimmed to its new length, so a write that fails or is
interrupted leaves exactly the bytes written so far.  A run that fails
removes the files it created, and leaves an existing file it had not yet
written as it was.  stdout carries only data; errors and warnings go to
stderr.

Exit codes: 0 success, 2 usage or config error, 3 simulation plan
rejected (the message names the smallest adequate n_steps).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import stat
import sys
import warnings
from typing import TYPE_CHECKING

from . import constants as const
from .audit import build_audit, render_table
from .config import (
    CHANNEL_KINDS,
    SweepSpec,
    UsageError,
    build_channel,
    grid_values,
    parse_grid,
    read_channel_config,
)
from .dephasing import (
    CONVENTIONS,
    ExponentialCorrelation,
    check_profile,
    decoherence_time,
    gamma_exact,
    write_csv,
    write_profile_csv,
)
from .mechanisms import PHONON_MODES, channel_to_correlation, phonon_rate

if TYPE_CHECKING:
    from typing import Callable, TextIO

    import numpy as np

    # Text (JSON already encoded) or a function that writes a CSV table;
    # a command returns them with their paths, None for stdout.
    Output = str | Callable[[TextIO], None]
    Outputs = list[tuple[str | None, Output]]

__all__ = ["main"]

INSIGNIFICANT_RATE = 1e-20  # 1/s; below this a rate is reported as negligible


def _json_safe(value):
    """Infinite floats (no decoherence, static noise) become JSON null."""
    if isinstance(value, float) and math.isinf(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _json_text(payload) -> str:
    """Strict JSON (NaN is an error), ending in a newline."""
    return json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write(fh: TextIO, output: Output) -> None:
    """One output to an open text stream."""
    if isinstance(output, str):
        fh.write(output)
    else:
        output(fh)


def _open_outputs(
    args: argparse.Namespace, handles: contextlib.ExitStack, created: list[str]
) -> dict[str, tuple[TextIO, bool]]:
    """Open every output the command was given, once each, before it runs.

    A missing file is created and listed in created; an existing one is
    opened without truncation, so its bytes stay as they are until it is
    written.  A command with two outputs thus never writes the first and
    then fails to open the second.  Two outputs that are one regular file,
    by the same path or through a link, are refused: the second write would
    replace the first.  So is an output that is the regular file on stdout,
    where the command also writes to stdout.  Each handle is closed with
    handles; the result maps each path to its handle and whether that is a
    regular file.
    """
    files: dict[str, tuple[TextIO, bool]] = {}
    opened = {}  # (st_dev, st_ino) -> "--flag path" of the output there
    # audit always prints its table; constants and channel print their
    # report where --out is not given.
    if args.func is cmd_audit or not args.out:
        with contextlib.suppress(OSError):  # no fd 1: nothing to compare
            info = os.fstat(1)
            opened[(info.st_dev, info.st_ino)] = "stdout"
    for option in args.outputs:
        path = getattr(args, option)
        if not path:
            continue
        flag = "--" + option.replace("_", "-")
        if path in files:
            fh = files[path][0]
        else:
            existed = os.path.exists(path)  # False for a link to a missing file
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)  # no O_TRUNC
            except (IsADirectoryError, FileNotFoundError, NotADirectoryError):
                if os.path.isdir(path):
                    raise UsageError(f"{flag} {path} is a directory") from None
                parent = os.path.dirname(path) or "."
                raise UsageError(f"{flag} {path}: no such directory {parent}") from None
            fh = handles.enter_context(open(fd, "w", newline=""))
            if not existed:
                created.append(os.path.realpath(path))  # the file, not a link to it
        info = os.fstat(fh.fileno())  # the file that will be written
        file_id = (info.st_dev, info.st_ino)
        if file_id in opened and stat.S_ISREG(info.st_mode):
            raise UsageError(f"{opened[file_id]} and {flag} {path} are the same file")
        opened[file_id] = f"{flag} {path}"
        files[path] = fh, stat.S_ISREG(info.st_mode)
    return files


def _config_section(path: str | None, kind: str) -> dict[str, float]:
    """The --config file's parameters for kind; none without --config."""
    # An empty path is read, and refused as not found.
    return {} if path is None else read_channel_config(path).get(kind, {})


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


def _registry_block(record) -> dict:
    """A registry record's numbers, as {value, unit} where its field has a unit."""
    return {
        f.name: (
            {"value": getattr(record, f.name), "unit": f.metadata["unit"]}
            if "unit" in f.metadata
            else getattr(record, f.name)
        )
        for f in dataclasses.fields(record)
        if f.name != "name"  # a species is listed under its name
    }


def _constants_payload() -> dict:
    return {
        "physical_constants": _registry_block(const.CONSTANTS),
        "spin_species": {
            name: _registry_block(species) for name, species in const.SPECIES.items()
        },
        "silicon": _registry_block(const.SILICON),
        "natural_si29_abundance_percent": const.NATURAL_SI29_ABUNDANCE_PERCENT,
    }


def cmd_constants(args: argparse.Namespace) -> Outputs:
    return [(args.out, _json_text(_constants_payload()))]


def _report(kind: str, channel, convention: str) -> tuple[dict, Callable]:
    """The channel's report, and its Gamma over an array of times.

    Gamma is the correlation's gamma_exact for an adiabatic channel and
    rate * t for the phonon channel, whose rate the report already holds.
    Finite inputs too large for float arithmetic are a usage error that
    names the channel.
    """
    report: dict = {"channel": kind, "parameters": dict(vars(channel))}
    try:
        if kind == "phonon":
            rates = {mode: phonon_rate(channel, mode) for mode in PHONON_MODES}
            report["rates_per_s"] = rates
            rate_exact = rates["exact-integral"]
            td = math.inf if rate_exact == 0.0 else 1.0 / rate_exact
            report["decoherence_time_s"] = td
            report["flags"] = {
                "insignificant": rate_exact < INSIGNIFICANT_RATE,
                "low_temperature_valid": channel.low_temperature_valid,
                "infinite_decoherence_time": math.isinf(td),
            }
            return report, lambda times: rate_exact * times
        correlation = channel_to_correlation(channel)
        times = {name: decoherence_time(correlation, name) for name in CONVENTIONS}
    except OverflowError:
        raise UsageError(
            f"{kind} channel: an input is too large for float arithmetic"
        ) from None
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
    return report, functools.partial(gamma_exact, correlation)


def _profile_for(
    kind: str, gamma: Callable, t_max: float, t_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Times and Gamma(t) on the --profile-out grid, checked before writing.

    gamma is the one _report returned, so the phonon channel's Debye
    quadrature runs once.  A grid whose times repeat, as np.linspace
    gives where --t-max is too short for float64 to hold --t-points distinct
    times, is a usage error naming both options, refused before Gamma is
    evaluated; check_profile then checks the values.
    """
    import numpy as np

    times = np.linspace(0.0, t_max, t_points)
    if (times[1:] <= times[:-1]).any():
        raise UsageError(
            f"--t-max {t_max:.6g} s is too short for --t-points {t_points}: "
            "the time grid repeats a time; lengthen --t-max or lower --t-points"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        gamma_values = gamma(times)
    if not np.isfinite(gamma_values).all():
        raise UsageError(
            f"{kind} channel: Gamma(t) is not finite up to "
            f"--t-max {t_max:.6g} s; shorten --t-max"
        )
    check_profile(times, gamma_values)
    return times, gamma_values


def cmd_channel(args: argparse.Namespace) -> Outputs:
    if args.profile_out and args.t_max is None:
        raise UsageError("--profile-out requires --t-max")
    if args.t_max is not None and not 0.0 < args.t_max < math.inf:
        raise UsageError("--t-max must be positive and finite")
    if args.t_points < 2:
        raise UsageError("--t-points must be at least 2")
    channel = build_channel(args.kind, _config_section(args.config, args.kind))
    report, gamma = _report(args.kind, channel, args.convention)
    profile = args.profile_out and _profile_for(args.kind, gamma, args.t_max, args.t_points)
    outputs: Outputs = [(args.out, _json_text(report))]
    if profile:
        outputs.append((args.profile_out, lambda fh: write_profile_csv(fh, *profile)))
    return outputs


def _sweep_row(spec: SweepSpec, value: float) -> dict:
    """One sweep row: the swept value, then fields of the channel report."""
    channel = build_channel(spec.kind, spec.params_at(value))
    report, _ = _report(spec.kind, channel, "static")
    if spec.kind == "phonon":
        return {
            spec.param: value,
            "rate_exact": report["rates_per_s"]["exact-integral"],
            "rate_factorial": report["rates_per_s"]["factorial-approx"],
            "td_linear": report["decoherence_time_s"],
            "low_temperature_valid": report["flags"]["low_temperature_valid"],
        }
    times = report["decoherence_time_s"]
    row = {
        spec.param: value,
        "variance": report["variance_rad2_per_s2"],
        "tau_c": report["correlation_time_s"],
        "td_static": times["static"],
        "td_markovian": times["markovian"],
        "td_unit_gamma": times["unit-gamma"],
    }
    if spec.kind == "nuclear":
        row["polarization_x"] = channel.polarization_x
        row["polarized"] = report["flags"]["polarized"]
    return row


def cmd_sweep(args: argparse.Namespace) -> Outputs:
    fixed = _config_section(args.config, args.channel)
    # parse_grid returns grid_min, grid_max, count and scale, in field order.
    spec = SweepSpec(args.channel, args.param, *parse_grid(args.grid), fixed)
    rows = [_sweep_row(spec, float(v)) for v in grid_values(spec)]
    if args.format == "json":
        return [(args.out, _json_text(rows))]
    columns = list(rows[0]), *zip(*(row.values() for row in rows))
    return [(args.out, lambda fh: write_csv(fh, *columns))]


def cmd_montecarlo(args: argparse.Namespace) -> Outputs:
    # The ensemble engine, and numpy with it, load only for this command.
    from .montecarlo import SimulationPlan, compare_to_analytic, ensemble_coherence

    seed = _resolve_seed(args.seed)
    if not args.mismatch_tau_c > 0.0:  # NaN too
        raise UsageError(
            "--mismatch-tau-c must be positive (inf for a static reference), "
            f"got {args.mismatch_tau_c!r}"
        )
    correlation = ExponentialCorrelation(args.variance, args.tau_c)
    plan = SimulationPlan(
        correlation=correlation,
        t_max=args.t_max,
        n_steps=args.n_steps,
        n_trajectories=args.n_trajectories,
        master_seed=seed,
    )
    # tau_c * 1.0 is tau_c, so without a mismatch the reference is the plan's noise.
    reference = ExponentialCorrelation(args.variance, args.tau_c * args.mismatch_tau_c)
    if args.workers < 1:  # after the plan, which may reject it first (exit 3)
        raise UsageError("--workers must be at least 1")
    result = ensemble_coherence(plan, n_grid=args.grid_points)
    comparison = compare_to_analytic(result, reference)
    table = (
        ("t", "re_mean", "im_mean", "std_error", "analytic_envelope", "z"),
        result.times,
        result.mean_coherence.real,
        result.mean_coherence.imag,
        result.std_error,
        comparison.analytic_envelope,
        comparison.z_scores,
    )
    outputs: Outputs = [(args.out, lambda fh: write_csv(fh, *table))]
    if args.summary_out:
        summary = {
            "max_z": comparison.max_z,
            "n_trajectories": plan.n_trajectories,
            "n_steps": plan.n_steps,
            "t_max": plan.t_max,
            "variance": correlation.variance,
            "tau_c": correlation.tau_c,
            "master_seed": plan.master_seed,
            "mismatch_tau_c": args.mismatch_tau_c,
        }
        outputs.append((args.summary_out, _json_text(summary)))
    return outputs


def cmd_audit(args: argparse.Namespace) -> Outputs:
    entries = build_audit()
    outputs: Outputs = [(None, render_table(entries) + "\n")]
    if args.out:
        outputs.append((args.out, _json_text([entry.__dict__ for entry in entries])))
    return outputs


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main call and kept."""
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
    p_const.set_defaults(func=cmd_constants, outputs=("out",))

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
    p_chan.set_defaults(func=cmd_channel, outputs=("out", "profile_out"))

    p_sweep = sub.add_parser("sweep", help="one-parameter channel sweep")
    p_sweep.add_argument("--channel", required=True, choices=CHANNEL_KINDS)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--grid", required=True, help="min:max:count:lin|log")
    p_sweep.add_argument("--config", help="INI-style channel parameter file")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep, outputs=("out",))

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
    p_mc.set_defaults(func=cmd_montecarlo, outputs=("out", "summary_out"))

    p_audit = sub.add_parser("audit", help="recompute the published estimates")
    p_audit.add_argument("--out", help="also write the entries as JSON here")
    p_audit.set_defaults(func=cmd_audit, outputs=("out",))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    created: list[str] = []
    code: int | None = None  # None while an exception escapes
    with warnings.catch_warnings(record=True) as caught:
        try:
            with contextlib.ExitStack() as handles:  # closed before a failed run cleans up
                files = _open_outputs(args, handles, created)
                for path, output in args.func(args):  # every output computed first
                    if path is None:
                        _write(sys.stdout, output)
                        continue
                    fh, regular = files[path]
                    try:
                        _write(fh, output)
                    finally:
                        # A regular file ends where this write ends, even a
                        # failed one; /dev/null, a pipe or a tty cannot be cut.
                        if regular:
                            fh.truncate()
            code = 0
        except (ValueError, OverflowError, MemoryError, OSError) as exc:
            # UsageError, the library's argument checks, degenerate statistics,
            # finite inputs too large for float arithmetic, arrays too large to
            # allocate and output paths that cannot be written alike: exit 2.
            # A coarse plan exits 3; montecarlo is loaded whenever one is raised.
            montecarlo = sys.modules.get(f"{__package__}.montecarlo")
            rejected = montecarlo is not None and isinstance(exc, montecarlo.PlanRejectedError)
            print(f"{'plan rejected' if rejected else 'error'}: {exc}", file=sys.stderr)
            code = 3 if rejected else 2
        finally:
            if code != 0:
                # A run that fails or is interrupted leaves only its message:
                # the files it created go, and an escaping exception goes on.
                for path in created:
                    with contextlib.suppress(FileNotFoundError):  # already gone
                        os.remove(path)
    if code:
        return code
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
