"""Command-line interface: gen, run, bench, validate."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from ..errors import ContractError, MunscError
from ..params import PROFILES
from ..solvers import SOLVER_NAMES, get_solver
from .bench import SUITES, run_suite, write_rows
from .data import generate_gaussian_mixture, load_dataset, save_dataset
from .experiment import ORACLE_MODES, run_experiment
from .validate import run_validate_suite


def _default_seed() -> int:
    raw = os.environ.get("MUNSC_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ContractError(f"MUNSC_SEED must be an integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="munsc", description="No-substitution k-median clustering on random-order streams")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic Gaussian-mixture dataset CSV")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k-true", type=int, default=3)
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--separation", type=float, default=30.0)
    g.add_argument("--outliers", type=float, default=0.02)
    g.add_argument("--seed", type=int, default=_default_seed())
    g.add_argument("--out", required=True)

    r = sub.add_parser("run", help="run one experiment and write a JSON report")
    r.add_argument("--data", required=True)
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--delta", type=float, default=0.2)
    r.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    r.add_argument("--solver", choices=SOLVER_NAMES, default="local-search")
    r.add_argument("--solver-max-iters", type=int, default=100, help="local-search passes per phase-1 solve")
    r.add_argument("--perm-seed", type=int, default=_default_seed())
    r.add_argument("--oracle", choices=ORACLE_MODES, default="auto")
    r.add_argument("--out", required=True)

    b = sub.add_parser("bench", help="run a benchmark suite and write CSV rows")
    b.add_argument("--suite", choices=SUITES, required=True)
    b.add_argument("--trials", type=int, default=10)
    b.add_argument("--jobs", type=int, default=1)
    b.add_argument("--n", type=int, default=240)
    b.add_argument("--k", type=int, default=2)
    b.add_argument("--delta", type=float, default=0.2)
    b.add_argument("--seed", type=int, default=_default_seed())
    b.add_argument("--out", required=True)

    sub.add_parser("validate", help="run the full property suite; exit 0 iff all checks pass")
    return p


def _on_file(what: str, path: str, fn):
    """`fn(Path(path))`; a file that cannot be used fails as `cannot {what} {path}: ...`."""
    try:
        return fn(Path(path))
    except (OSError, ValueError) as exc:  # ValueError covers ContractError on bad contents
        raise ContractError(f"cannot {what} {path}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except MunscError as exc:
        print(f"munsc: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if hasattr(args, "out") and not Path(args.out).parent.is_dir():  # fail before the work, not after it
        raise ContractError(f"cannot write --out {args.out}: no directory {Path(args.out).parent}")

    if args.command == "gen":
        sample = generate_gaussian_mixture(
            n=args.n,
            k_true=args.k_true,
            dim=args.dim,
            separation=args.separation,
            outlier_fraction=args.outliers,
            seed=args.seed,
        )
        _on_file("write --out", args.out, lambda path: save_dataset(sample.dataset, path))
        print(f"wrote {args.n} points to {args.out}")
        return 0

    if args.command == "run":
        data = _on_file("read --data", args.data, load_dataset)
        solver = get_solver(args.solver, max_iters=args.solver_max_iters)
        report = run_experiment(
            data,
            k=args.k,
            delta=args.delta,
            profile=args.profile,
            solver=solver,
            permutation_seed=args.perm_seed,
            oracle=args.oracle,
        )
        _on_file("write --out", args.out, lambda path: path.write_text(report.to_json() + "\n"))
        ratio = "n/a" if report.ratio is None else f"{report.ratio:.4f}"
        print(
            f"|T_out|={report.t_out_size} risk={report.achieved_risk:.6g} "
            f"oracle={report.oracle_label} ratio={ratio} -> {args.out}"
        )
        for w in report.warnings:
            print(f"warning: {w}", file=sys.stderr)
        return 0

    if args.command == "bench":
        rows = run_suite(
            args.suite,
            trials=args.trials,
            jobs=args.jobs,
            n=args.n,
            k=args.k,
            delta=args.delta,
            seed=args.seed,
        )
        _on_file("write --out", args.out, lambda path: write_rows(rows, path))
        print(f"wrote {len(rows)} rows to {args.out}")
        return 0

    if args.command == "validate":
        results = run_validate_suite()
        for res in results:
            print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.summary}")
        failed = [r for r in results if not r.passed]
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
        return 1 if failed else 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
