"""Command-line front end.

Subcommands: validate, dual, corep-suite, multiplier-suite, unitarize,
khintchine, noncb, all.  Exit codes: 0 all checks pass, 1 at least one check
failed, 2 structural or budget error.  QGLAB_DIM_CAP overrides the Fock
dimension budget.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import BudgetError, QglabError, StructuralError
from .fock import DEFAULT_DIM_CAP
from .serialize import instance_to_dict
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--instance", action="append", default=[],
                        help="path to an instance JSON file (repeatable)")
    common.add_argument("--builtin", action="append", default=[],
                        help="builtin instance name (repeatable)")
    common.add_argument("--seed", type=int, default=SuiteConfig.seed)
    common.add_argument("--tol", action="append", default=[],
                        metavar="NAME=VALUE", help="tolerance override")
    common.add_argument("--trials", type=int, default=SuiteConfig.trials)
    common.add_argument("--copies", type=int, default=SuiteConfig.copies)
    common.add_argument("--length", type=int, default=SuiteConfig.length)
    common.add_argument("--dim-cap", type=int, default=None)
    common.add_argument("--format", choices=("json", "md"), default="json")
    common.add_argument("--out", default=None)
    for name in _SUBCOMMANDS:
        sub.add_parser(name, parents=[common])
    sub.add_parser("dual", parents=[common],
                   help="emit the dual instance as JSON")
    return p


def _tol_overrides(pairs):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise StructuralError("tolerance override must be NAME=VALUE: %r" % item)
        k, v = item.split("=", 1)
        out[k.strip()] = float(v)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        dim_cap = args.dim_cap
        if dim_cap is None:
            dim_cap = int(os.environ.get("QGLAB_DIM_CAP", DEFAULT_DIM_CAP))
        instances = load_config_instances(args.builtin, args.instance)
        if args.command == "dual":
            from .duality import build_dual
            text = ""
            for label, G in instances:
                dual = build_dual(G)
                import json
                text += json.dumps(instance_to_dict(dual.group), indent=1,
                                   sort_keys=True) + "\n"
            _write(text, args.out)
            return 0
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
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
