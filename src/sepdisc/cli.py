"""Command-line interface.

Subcommands: ``decide`` (verdict report on a state file), ``construct``
(emit state files for the shipped families), ``sweep`` (tetrahedron grid to
CSV), ``verify`` (property suites).  Exit codes for decide: 0
distinguishable, 1 indistinguishable, 2 undecided, 3 input error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

import numpy as np

from . import config
from .constructions import (
    FamilyParams,
    SubspaceFamily,
    TetraPoint,
    basis_for_targets,
    basis_from_unitary,
    family_sep_not_locc,
    indistinguishable_subspace,
    locc_basis_sch2,
    subspace_spec_from_pair,
    tetra_unitary,
    verify_subspace_properties,
)
from .discrimination import DiscriminationInstance, VerdictStatus, decide
from .errors import SepdiscError, StateFileError
from .states import magic_basis, orthonormal_completion
from .statefile import (
    parse_statefile,
    serialize_statefile,
    verdict_report,
)
from .verify import SUITES, tetra_walk

EXIT_BY_STATUS = {
    VerdictStatus.DISTINGUISHABLE: 0,
    VerdictStatus.INDISTINGUISHABLE: 1,
    VerdictStatus.UNDECIDED: 2,
}
EXIT_INPUT_ERROR = 3


class Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # "undecided" exit code; input problems always exit 3
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> Parser:
    parser = Parser(prog="sepdisc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    p_decide = sub.add_parser("decide", help="decide distinguishability of a state file")
    p_decide.add_argument("file", help="state file path, or - for stdin")
    p_decide.add_argument("--max-iterations", type=int, default=None, help="feasibility solver cap")

    p_construct = sub.add_parser("construct", help="emit a state file for a shipped construction")
    csub = p_construct.add_subparsers(dest="what", required=True, parser_class=Parser)
    p_fam = csub.add_parser("family", help="three-state family from angles alpha beta gamma")
    p_fam.add_argument("alpha", type=float)
    p_fam.add_argument("beta", type=float)
    p_fam.add_argument("gamma", type=float)
    p_tgt = csub.add_parser("targets", help="basis with prescribed concurrences c1 c2 c3")
    p_tgt.add_argument("c1", type=float)
    p_tgt.add_argument("c2", type=float)
    p_tgt.add_argument("c3", type=float)
    p_tet = csub.add_parser("tetra", help="basis achieving a tetrahedron point x1 x2 x3")
    p_tet.add_argument("x1", type=float)
    p_tet.add_argument("x2", type=float)
    p_tet.add_argument("x3", type=float)
    p_sub = csub.add_parser("subspace", help="orthocomplement basis of an indistinguishable subspace")
    p_sub.add_argument("kind", choices=["dim7", "dim6"])
    p_locc = csub.add_parser("locc-basis", help="LOCC-distinguishable basis of {phi}^perp")
    p_locc.add_argument("file", help="state file carrying phi (or a single state)")

    p_sweep = sub.add_parser("sweep", help="tetrahedron grid sweep to CSV")
    p_sweep.add_argument("--step", type=float, default=0.05)
    p_sweep.add_argument("--output", required=True, help="CSV output path")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--bases", type=int, default=None, help="sample count for the agreement experiment")
    return parser


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str) -> None:
    """Print to stdout; when the reader has closed the pipe (``| head``),
    the rest of the output is dropped without a traceback."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now points at devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_decide(args, tol) -> int:
    try:
        text = _read_text(args.file)
        data = parse_statefile(text)
    except (OSError, StateFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    for w in data.warnings:
        print(f"warning: {w}", file=sys.stderr)
    try:
        instance = DiscriminationInstance.from_pure(
            data.space,
            [st for _, st in data.states],
            data.phi[1] if data.phi else None,
        )
        verdict = decide(instance, tol, max_iterations=args.max_iterations)
    except SepdiscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    diagnostics = dict(verdict.diagnostics)
    # codimension-2 instances: attach the structural subspace report
    if not data.phi and len(data.states) == data.space.dim - 2:
        comp = orthonormal_completion([st for _, st in data.states])
        spec = subspace_spec_from_pair(comp[0], comp[1])
        report = verify_subspace_properties(spec, tol)
        diagnostics["subspace_properties"] = {
            "unique_product_vector": report.p0.passed,
            "entangled_members_need_three_products": report.p1.passed,
            "difference_combinations_need_three_products": report.p2.passed,
        }
        verdict = dataclasses.replace(verdict, diagnostics=diagnostics)
    _emit(verdict_report(verdict, text, [name for name, _ in data.states]))
    return EXIT_BY_STATUS[verdict.status]


def cmd_construct(args, tol) -> int:
    try:
        if args.what == "family":
            phi, basis = family_sep_not_locc(FamilyParams(args.alpha, args.beta, args.gamma))
        elif args.what == "targets":
            phi, basis = basis_for_targets(args.c1, args.c2, args.c3)
        elif args.what == "tetra":
            basis = basis_from_unitary(tetra_unitary(TetraPoint(args.x1, args.x2, args.x3)))
            phi = magic_basis()[3]
        elif args.what == "subspace":
            kind = SubspaceFamily.BIPARTITE_3X3_DIM7 if args.kind == "dim7" else SubspaceFamily.TRIPARTITE_222_DIM6
            spec = indistinguishable_subspace(kind)
            basis, phi = spec.complement, None
        elif args.what == "locc-basis":
            data = parse_statefile(_read_text(args.file))
            for w in data.warnings:
                print(f"warning: {w}", file=sys.stderr)
            if data.phi is not None:
                phi = data.phi[1]
            elif len(data.states) == 1:
                phi = data.states[0][1]
            else:
                raise StateFileError("locc-basis needs a phi entry or a single state")
            basis = locc_basis_sch2(phi, tol)
        else:  # pragma: no cover
            return EXIT_INPUT_ERROR
    except (OSError, SepdiscError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    named = [(f"psi{k+1}", st) for k, st in enumerate(basis)]
    _emit(serialize_statefile(basis[0].space, named, None if phi is None else ("phi", phi)))
    return 0


def cmd_sweep(args, tol) -> int:
    if not 0.0 < args.step <= 0.25:
        print("error: step must be in (0, 0.25]", file=sys.stderr)
        return EXIT_INPUT_ERROR
    rows = []
    for (x1, x2, x3), _, achieved, verdict in tetra_walk(args.step, tol):
        rows.append(
            [
                f"{x1:.6f}",
                f"{x2:.6f}",
                f"{x3:.6f}",
                f"{achieved[0]:.12f}",
                f"{achieved[1]:.12f}",
                f"{achieved[2]:.12f}",
                f"{float(np.max(np.abs(achieved - np.array([x1, x2, x3])))):.3e}",
                verdict.status.value,
            ]
        )
    try:
        with open(args.output, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["x1", "x2", "x3", "achieved1", "achieved2", "achieved3", "max_error", "decide_status"]
            )
            writer.writerows(rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    _emit(f"wrote {len(rows)} rows to {args.output}")
    return 0


def cmd_verify(args, tol) -> int:
    if args.bases is not None and args.bases < 1:
        print("error: --bases must be at least 1", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return EXIT_INPUT_ERROR
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        extra = {"n_bases": args.bases} if name == "theorem2" and args.bases is not None else {}
        results.extend(SUITES[name](seed=args.seed, tol=tol, **extra))
    failures = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        extra = f"  {r.detail}" if r.detail else ""
        _emit(f"[{mark}] {r.name}: count={r.count} worst={r.worst:.3e}{extra}")
        failures += int(not r.passed)
    _emit(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    tol = config.from_env()
    if args.command == "decide":
        return cmd_decide(args, tol)
    if args.command == "construct":
        return cmd_construct(args, tol)
    if args.command == "sweep":
        return cmd_sweep(args, tol)
    if args.command == "verify":
        return cmd_verify(args, tol)
    return EXIT_INPUT_ERROR  # pragma: no cover


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
