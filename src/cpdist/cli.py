"""Command-line front end: instance generation, distances, batch certification.

Three subcommands:

* ``cpdist gen``     writes seeded random channels as JSON documents;
* ``cpdist dist``    computes the full distance report for two channel files;
* ``cpdist verify``  runs seeded batches of the six certificate families.

Exit codes: 0 when everything passed, 1 when a certificate was violated
or an SDP solve failed, 2 for unusable input (bad flags, malformed files,
dimension errors, a pair of zero maps).

This module parses flags, calls the library and prints; the rules on
input live in the library, and their ValueError becomes exit 2 with its
message.  ``random_channel`` refuses the shapes ``gen`` cannot draw,
``bures`` a ``dist`` of maps between different spaces, and
``verify.run_batch`` a ``verify`` it cannot run, and ``verify._merged``
each ``--tol`` flag as it is split.  Only ``gen --count`` is checked here.

Tolerances are overridden with ``--tol.KEY=VALUE`` flags (for example
``--tol.witness=1e-6``); values outside the supported [1e-12, 1e-2] range
are accepted with a warning, so that deliberately unattainable tolerances
can demonstrate failure reporting.  Reports carry no timestamps and all
floats are written with 17 significant digits, so identical configurations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .maps import random_channel
from .metrics import continuity_certificate
from .sdp import SdpError
from .serialize import (
    channel_from_dict, channel_to_dict, dumps, read_json, write_json)
from .verify import FAMILIES, _merged, run_batch

__all__ = ["main"]

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

TOL_RANGE = (1e-12, 1e-2)


def _extract_tolerance_flags(argv):
    """Split --tol.KEY=V flags (argparse cannot express dotted options)."""
    rest, overrides = [], {}
    for arg in argv:
        if arg.startswith("--tol."):
            key, sep, value = arg[len("--tol."):].partition("=")
            if not sep or not key:
                raise ValueError(
                    f"malformed tolerance flag {arg!r}; expected --tol.KEY=VALUE")
            num = _merged({key: value})[key]
            if not TOL_RANGE[0] <= num <= TOL_RANGE[1]:
                print(
                    f"warning: tolerance {key}={num:g} outside the supported "
                    f"range [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}]; using it anyway",
                    file=sys.stderr,
                )
            overrides[key] = num
        else:
            rest.append(arg)
    return rest, overrides


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it as it is,
    and the family choices are fixed at import."""
    parser = argparse.ArgumentParser(
        prog="cpdist",
        description="distances between completely positive maps, with certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write seeded random channels as JSON")
    gen.add_argument("--d", type=int, default=2, help="input dimension")
    gen.add_argument("--n", type=int, default=None,
                     help="output dimension (default: same as --d)")
    gen.add_argument("--m", type=int, required=True, help="Kraus rank")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--out", default=".",
                     help="output directory (or file path when count is 1)")

    dist = sub.add_parser("dist", help="distance report for two channel files")
    dist.add_argument("file_a")
    dist.add_argument("file_b")
    dist.add_argument("--seed", type=int, default=None,
                      help="seed recorded in the report")
    dist.add_argument("--out", default=None,
                      help="write the report here instead of stdout")

    ver = sub.add_parser("verify", help="run seeded certificate batches")
    ver.add_argument("--d", type=int, default=2)
    ver.add_argument("--n", type=int, default=None)
    ver.add_argument("--m", type=int, default=None,
                     help="Kraus rank (default: drawn per instance)")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--count", type=int, default=1)
    ver.add_argument("--family", action="append", choices=sorted(FAMILIES),
                     help="restrict to this family (repeatable; default all)")
    ver.add_argument("--out", default=None,
                     help="write the summary here instead of stdout")
    return parser


def _cmd_gen(args) -> int:
    if args.count < 1:
        print("error: count must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    n = args.n if args.n is not None else args.d
    single_file = args.count == 1 and args.out.endswith(".json")
    try:
        for k in range(args.count):
            # drawn first, so that a refused shape leaves nothing behind
            channel = random_channel(args.d, n, args.m, seed=args.seed + k)
            if not single_file:
                os.makedirs(args.out, exist_ok=True)
            path = args.out if single_file else os.path.join(
                args.out, f"channel-{args.seed + k}.json")
            write_json(path, channel_to_dict(channel))
            print(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_PASS


def _load_channel(path):
    doc = read_json(path)
    return channel_from_dict(doc)


def _write_report(doc, out) -> bool:
    """Write `doc` to the file `out`, or to stdout when `out` is unset;
    False, after an error line, when the file cannot be written."""
    if not out:
        sys.stdout.write(dumps(doc))
        return True
    try:
        write_json(out, doc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_dist(args, tolerances) -> int:
    try:
        t1 = _load_channel(args.file_a)
        t2 = _load_channel(args.file_b)
        tols = _merged(tolerances)
        report = continuity_certificate(
            t1, t2, seed=args.seed, tol=tols["sandwich"],
            witness_tol=tols["witness"], residual_tol=tols["residual"])
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SdpError as exc:
        print(f"certificate violated: the SDP solve failed: {exc}",
              file=sys.stderr)
        return EXIT_VIOLATION
    if not _write_report(report.to_dict(), args.out):
        return EXIT_USAGE
    if not report.passed:
        offending = {key: report.slacks[key] for key in report.failed}
        print(f"certificate violated; offending slacks: {offending}",
              file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_PASS


def _cmd_verify(args, tolerances) -> int:
    n = args.n if args.n is not None else args.d
    families = args.family if args.family else sorted(FAMILIES)
    try:
        summary = run_batch(families, args.d, n, args.m, args.seed,
                            args.count, tolerances)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # compact report: per-family counts/worst slack, failures with slacks
    doc = {
        "config": summary["config"],
        "passed": summary["passed"],
        "failed": summary["failed"],
        "families": {},
    }
    for fam, rec in summary["families"].items():
        entry = {
            "passed": rec["passed"],
            "failed": rec["failed"],
            "worst_slack": rec["worst_slack"],
        }
        failures = [
            {
                "seed": inst["seed"],
                "worst_slack": inst["worst_slack"],
                **({"error": inst["details"]["error"]}
                   if "error" in inst["details"] else
                   {"margins": inst["details"].get("margins", {})}),
            }
            for inst in rec["instances"] if not inst["passed"]
        ]
        if failures:
            entry["failures"] = failures
        doc["families"][fam] = entry

    if not _write_report(doc, args.out):
        return EXIT_USAGE
    return EXIT_PASS if summary["failed"] == 0 else EXIT_VIOLATION


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, tolerances = _extract_tolerance_flags(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen":
        if tolerances:
            print("error: gen takes no tolerance flags", file=sys.stderr)
            return EXIT_USAGE
        return _cmd_gen(args)
    if args.command == "dist":
        return _cmd_dist(args, tolerances)
    return _cmd_verify(args, tolerances)


if __name__ == "__main__":
    sys.exit(main())
