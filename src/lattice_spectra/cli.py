"""Batch command line front end: load, compute, verify, report, export.

Commands: ``show``, ``spec``, ``verify``, ``hom``.  Output is plain text by
default and byte-deterministic for fixed inputs; ``--format structured``
emits JSON lines.  Exit codes: 0 ok, 1 verification failure, 2 input error.
Verification runs serially; ``verify --jobs N`` is accepted for compatibility
and ignored.

Each command imports only the modules it runs, so a short command does not
pay for loading the whole package: ``show`` loads ``catalog`` and
``lattices``; ``spec`` adds ``spectra`` and ``topology``; ``verify`` adds
``duality`` and ``suites``; ``hom`` adds ``duality``.  ``json`` is imported
only where structured output is written.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .bitsets import bits
from .catalog import (
    GeneratorConfig,
    enumerate_lattices,
    named_lattices,
    parse_hom,
    parse_lattice,
    to_dot,
)
from .errors import LatticeToolError
from .lattices import all_filters, all_ideals, forbidden_sublattice, prime_ideals, violating_triple

if TYPE_CHECKING:
    from .suites import CheckResult


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise LatticeToolError(f"{path} is not UTF-8 text: {exc}") from exc


def _json_line(record: dict) -> str:
    import json

    return json.dumps(record, sort_keys=True) + "\n"


def _emit_results(results: list[CheckResult], fmt: str, out) -> int:
    failures = 0
    for r in results:
        if not r.passed:
            failures += 1
        if fmt == "structured":
            out.write(
                _json_line(
                    {
                        "lattice": r.lattice,
                        "check": r.check,
                        "status": "PASS" if r.passed else "FAIL",
                        "witness": r.witness or None,
                    }
                )
            )
        else:
            line = f"{'PASS' if r.passed else 'FAIL'} {r.lattice} {r.check}"
            if not r.passed and r.witness:
                line += f" witness={r.witness}"
            out.write(line + "\n")
    return failures


def cmd_show(args, out) -> int:
    lat = parse_lattice(_read(args.file))
    out.write(f"lattice {lat.name} ({lat.n} elements)\n")
    out.write("elements: " + " ".join(lat.names) + "\n")
    out.write(
        "covers: " + " ".join(f"{lat.names[a]}<{lat.names[b]}" for a, b in lat.covers) + "\n"
    )
    out.write(f"bottom: {lat.names[lat.bottom]}   top: {lat.names[lat.top]}\n")
    ideals = all_ideals(lat)
    filters = all_filters(lat)
    out.write(f"ideals ({len(ideals)}): " + " ".join(map(lat.set_label, ideals)) + "\n")
    out.write(f"filters ({len(filters)}): " + " ".join(map(lat.set_label, filters)) + "\n")
    primes = prime_ideals(lat)
    if primes:
        out.write(
            f"prime ideals: {len(primes)} " + " ".join(map(lat.set_label, primes)) + "\n"
        )
    else:
        out.write("prime ideals: 0\n")
    if lat.distributive:
        out.write("distributive: yes\n")
    else:
        x, y, z = violating_triple(lat)
        copy = forbidden_sublattice(lat)
        out.write(
            f"distributive: no (triple {lat.names[x]},{lat.names[y]},{lat.names[z]}; "
            f"{copy.kind} copy {lat.set_label(sum(1 << e for e in copy.elements))})\n"
        )
    return 0


def cmd_spec(args, out) -> int:
    from .spectra import build_bitop_spectrum, build_classical_spectrum
    from .topology import count_opens

    lat = parse_lattice(_read(args.file))
    # the opens are counted and the DOT file written before the first line,
    # so a size limit or an unwritable DOT path prints nothing
    if args.classical:
        spec = build_classical_spectrum(lat)
        zariski = count_opens(spec.space)
        _write_dot(args.dot, spec)
        out.write(f"classical spectrum of {lat.name}\n")
        out.write(f"points: {len(spec.points)}\n")
        labels = [lat.set_label(p) for p in spec.points]
        for label in labels:
            out.write(f"  {label}\n")
        out.write("d:\n")
        for x in range(lat.n):
            names = [labels[k] for k in bits(spec.dmap[x])]
            out.write(f"  {lat.names[x]} -> {{{','.join(names)}}}\n")
        out.write(f"zariski opens: {zariski}\n")
        # always so for prime ideals: tests/oracles.py::image_intersection_closed
        out.write("image intersection-closed: yes\n")
    else:
        spec = build_bitop_spectrum(lat)
        tau_opens, sigma_opens = count_opens(spec.space.tau), count_opens(spec.space.sigma)
        _write_dot(args.dot, spec)
        out.write(f"bitopological spectrum of {lat.name}\n")
        out.write(f"points: {len(spec.points)}\n")
        labels = [p.label() for p in spec.points]
        for label in labels:
            out.write(f"  {label}\n")
        for title, table in (("delta", spec.delta), ("epsilon", spec.epsilon)):
            out.write(f"{title}:\n")
            for x in range(lat.n):
                names = [labels[k] for k in bits(table[x])]
                out.write(f"  {lat.names[x]} -> {{{','.join(names)}}}\n")
        out.write(f"tau opens: {tau_opens}\n")
        out.write(f"sigma opens: {sigma_opens}\n")
        same = spec.space.tau == spec.space.sigma
        out.write(f"tau == sigma: {'yes' if same else 'no'}\n")
    return 0


def _write_dot(path, spectrum) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_dot(spectrum))


def _generator(*args, **kwargs) -> GeneratorConfig:
    """A generator configuration from command-line sizes; a size it rejects
    is an input error, not a verification failure."""
    try:
        return GeneratorConfig(*args, **kwargs)
    except ValueError as exc:
        raise LatticeToolError(str(exc)) from exc


def cmd_verify(args, out) -> int:
    from .suites import corpus_checks, run_lattice_suites

    run_corpus = False
    if args.catalog:
        lattices = list(named_lattices().values())
        run_corpus = True
    elif args.exhaustive is not None:
        lattices = list(enumerate_lattices(_generator("exhaustive", args.exhaustive)))
    elif args.random is not None:
        seed, count = args.random
        lattices = list(
            enumerate_lattices(_generator("random", 7, seed=seed, count=count))
        )
    elif args.file:
        lattices = [parse_lattice(_read(args.file))]
    else:
        raise LatticeToolError("nothing to verify: pass a file, --catalog, --exhaustive or --random")
    results = run_lattice_suites(lattices)
    if run_corpus:
        results += corpus_checks()
    failures = _emit_results(results, args.format, out)
    summary = {
        "lattices": len(lattices),
        "checks": len(results),
        "failures": failures,
    }
    if args.format == "structured":
        out.write(_json_line({"summary": summary}))
    else:
        out.write(
            f"lattices: {summary['lattices']}  checks: {summary['checks']}  "
            f"failures: {summary['failures']}\n"
        )
    return 1 if failures else 0


def cmd_hom(args, out) -> int:
    from .duality import (
        delta_natural_iso_check,
        essential_functor_on_morphism,
        proper_witness,
        quasi_proper_witness,
        spec_b_on_hom,
        spec_b_witness,
    )
    from .spectra import build_classical_spectrum

    source = parse_lattice(_read(args.source))
    target = parse_lattice(_read(args.target))
    hom = parse_hom(_read(args.homfile), source, target)
    out.write(f"hom {source.name} -> {target.name}: {hom.label()}\n")
    witness = proper_witness(hom)
    if witness is None:
        note = "" if build_classical_spectrum(target).points else " (vacuous: target spectrum empty)"
        out.write(f"proper: yes{note}\n")
    else:
        out.write(f"proper: no witness={witness}\n")
    morphism = spec_b_on_hom(hom)
    if morphism is None:
        out.write(f"quasi-proper: no witness={quasi_proper_witness(hom)}\n")
        return 0
    out.write("quasi-proper: yes\n")
    out.write(
        f"spectrum map: {len(morphism.source.up_tau)} points -> "
        f"{len(morphism.target.up_tau)} points\n"
    )
    witness = spec_b_witness(hom, morphism)
    if witness is not None:
        out.write(f"pbd-morphism conditions: FAIL witness={witness}\n")
        return 1
    out.write("pbd-morphism conditions: PASS\n")
    failing = delta_natural_iso_check(hom, essential_functor_on_morphism(morphism))
    if failing is not None:
        out.write(f"naturality square: FAIL witness={failing}\n")
        return 1
    out.write("naturality square: PASS\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-spectra",
        description="Finite lattice duality toolkit: spectra, reconstruction, theorem verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_show = sub.add_parser("show", help="print a lattice and its basic structure")
    p_show.add_argument("file")

    p_spec = sub.add_parser("spec", help="compute a spectrum")
    p_spec.add_argument("file")
    group = p_spec.add_mutually_exclusive_group()
    group.add_argument("--classical", action="store_true", help="prime-ideal spectrum")
    group.add_argument("--bitop", action="store_true", help="bitopological spectrum (default)")
    p_spec.add_argument("--dot", metavar="OUT", help="write a DOT rendering to OUT")

    p_verify = sub.add_parser("verify", help="run the theorem suites")
    # one input mode per run; with none, cmd_verify reports the input error
    mode = p_verify.add_mutually_exclusive_group()
    mode.add_argument("file", nargs="?", help="lattice file to verify")
    mode.add_argument("--catalog", action="store_true", help="verify the named catalog")
    mode.add_argument(
        "--exhaustive", type=int, metavar="N", help="verify all lattices with at most N elements"
    )
    mode.add_argument(
        "--random", nargs=2, type=int, metavar=("SEED", "COUNT"), help="verify seeded random lattices"
    )
    p_verify.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="accepted for compatibility and ignored; verification runs serially",
    )
    p_verify.add_argument(
        "--format", choices=("text", "structured"), default="text", help="report format"
    )

    p_hom = sub.add_parser("hom", help="classify a homomorphism and its spectrum map")
    p_hom.add_argument("homfile")
    p_hom.add_argument("source")
    p_hom.add_argument("target")
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "show": cmd_show,
        "spec": cmd_spec,
        "verify": cmd_verify,
        "hom": cmd_hom,
    }
    try:
        return handlers[args.command](args, out)
    except (LatticeToolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
