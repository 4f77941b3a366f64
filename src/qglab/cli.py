"""Command-line front end.

Subcommands: validate, dual (of exactly one instance), corep-suite,
multiplier-suite, unitarize, khintchine, noncb, all.  Exit codes: 0 all
checks pass, 1 at least one check failed, 2 structural or budget error, or
an --out path that cannot be written.  QGLAB_DIM_CAP overrides the Fock
dimension budget.
"""

from __future__ import annotations

import argparse
import os
import sys

from .duality import build_dual
from .errors import DEFAULT_DIM_CAP, BudgetError, QglabError, StructuralError
from .serialize import instance_json
from .suite import (
    SUITE_NAMES,
    SuiteConfig,
    emit_report,
    load_config_instances,
    run_suite,
)

_SUBCOMMANDS = {
    "validate": ("validate",),
    "corep-suite": ("corep",),
    "multiplier-suite": ("multiplier",),
    "unitarize": ("unitarize",),
    "khintchine": ("khintchine",),
    "noncb": ("noncb",),
    "duality": ("duality",),
    "all": SUITE_NAMES,
}


def _parser():
    p = argparse.ArgumentParser(prog="qglab",
                                description="finite quantum group laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--instance", action="append", default=[],
                        help="path to an instance JSON file (repeatable)")
    source.add_argument("--builtin", action="append", default=[],
                        help="builtin instance name (repeatable)")
    source.add_argument("--out", default=None)
    common = argparse.ArgumentParser(add_help=False, parents=[source])
    common.add_argument("--seed", type=int, default=SuiteConfig.seed)
    common.add_argument("--tol", action="append", default=[],
                        metavar="NAME=VALUE", help="tolerance override")
    common.add_argument("--trials", type=int, default=SuiteConfig.trials)
    common.add_argument("--copies", type=int, default=SuiteConfig.copies)
    common.add_argument("--length", type=int, default=SuiteConfig.length,
                        help="Fock word length, at least 2; the khintchine and "
                             "noncb suites compute at depth min(length, 4)")
    common.add_argument("--dim-cap", type=int, default=None)
    common.add_argument("--format", choices=("json", "md"), default="json")
    for name in _SUBCOMMANDS:
        sub.add_parser(name, parents=[common])
    # the dual is one instance file: no suite flag applies to it
    sub.add_parser("dual", parents=[source],
                   help="emit the dual of exactly one instance as JSON")
    return p


def _number(kind, text, what):
    """kind(text), with a parse error raised as a StructuralError."""
    try:
        return kind(text)
    except ValueError:
        raise StructuralError("%s must be %s, got %r" % (
            what, "an integer" if kind is int else "a number", text)) from None


def _tol_overrides(pairs):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise StructuralError("tolerance override must be NAME=VALUE: %r" % item)
        k, v = item.split("=", 1)
        out[k.strip()] = _number(float, v, "tolerance %s" % k.strip())
    return out


def main() -> int:
    args = _parser().parse_args()
    try:
        if args.command == "dual":
            count = len(args.builtin) + len(args.instance)
            if count != 1:
                raise StructuralError("dual takes exactly one instance "
                                      "(--builtin or --instance), got %d" % count)
            [(_, G)] = load_config_instances(args.builtin, args.instance)
            _write(instance_json(build_dual(G).group), args.out)
            return 0
        dim_cap = args.dim_cap
        if dim_cap is None:
            dim_cap = _number(int, os.environ.get("QGLAB_DIM_CAP", DEFAULT_DIM_CAP),
                              "QGLAB_DIM_CAP")
        instances = load_config_instances(args.builtin, args.instance)
        cfg = SuiteConfig(
            instances=instances,
            suites=_SUBCOMMANDS[args.command],
            seed=args.seed,
            trials=args.trials,
            copies=args.copies,
            length=args.length,
            dim_cap=dim_cap,
            tol=_tol_overrides(args.tol),
        )
        report = run_suite(cfg)
        _write(emit_report(report, args.format), args.out)
        return 0 if report.passed else 1
    except BudgetError as exc:
        print("budget error: %s" % exc, file=sys.stderr)
        return 2
    except QglabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _write(text, out):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise StructuralError("cannot write %s: %s" % (out, exc)) from None
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
