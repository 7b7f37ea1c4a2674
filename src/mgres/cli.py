"""Command-line interface.

Subcommands: validate, analyze, taylor, scarf, verify, minimize, relabel.
Every subcommand takes ``--output json|text`` and ``--out PATH``.  Exit
codes: 0 success, 1 a verification came back negative (not exact, or not
minimal under --minimal), 2 input parse or format error or an unwritable
--out path, 3 an internal invariant was breached while building a complex,
or any other unexpected error (reported on one line, never as a traceback).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import formats, lattice, verify
from .errors import FormatError, MgresError, NotAComplex, RestrictionError
from .relabel import relabel as apply_relabel
from .systems import scarf_complex, taylor_complex

INTERNAL_ERRORS = (RestrictionError, NotAComplex)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mgres",
        description="Taylor and Scarf complexes of multigraded morphisms, exactly.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", choices=["json", "text"], default="text")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")

    for name, text in [
        ("validate", "check a morphism file"),
        ("analyze", "rank, genericity, LCM-lattice, Scarf data"),
        ("taylor", "the complex of the full system"),
        ("scarf", "the complex of the Scarf system"),
        ("verify", "exactness/minimality of a complex file, or of the full-system "
                   "complex of a morphism file"),
        ("minimize", "cancel unit entries until minimal"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("file", help="complex file, or morphism file (its full-system complex)"
                       if name == "minimize" else None)
        if name == "verify":
            p.add_argument("--minimal", action="store_true", help="also require minimality")
        common(p)
        p.add_argument(
            "--allow-zero-columns",
            action="store_true",
            help="accept morphisms with identically zero columns",
        )

    p = sub.add_parser("relabel", help="transport a complex along a lattice map")
    p.add_argument("map", help="JSON list of {from, to} degree pairs")
    p.add_argument("src_complex")
    p.add_argument("target_morphism")
    common(p)

    return ap


def _load_morphism(args):
    return formats.load_morphism(args.file, allow_zero_columns=args.allow_zero_columns)


def _load_complex(args):
    """A complex file as it stands, or the full-system complex of a morphism
    file.  ``minimize`` refuses a complex file whose d^2 is not zero as bad
    input; ``verify`` reports it."""
    raw = formats.load_json(args.file)
    if formats.is_complex_dict(raw):
        x = formats.complex_from_dict(raw)
        if args.command == "minimize" and not verify.check_d2(x):
            raise FormatError(f"{args.file} is not a complex: "
                              "consecutive differentials do not compose to zero")
        return x
    return taylor_complex(
        formats.morphism_from_dict(raw, allow_zero_columns=args.allow_zero_columns)
    )


def _emit(args, payload: dict, text) -> None:
    """Write the payload as JSON, or ``text()`` (built only for text output)."""
    body = formats.canonical_dumps(payload) if args.output == "json" else text() + "\n"
    if args.out:
        try:
            Path(args.out).write_text(body)
        except OSError as exc:
            raise FormatError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(body)


def _analyze_payload(phi) -> dict:
    lat = lattice.lcm_lattice(phi)
    maxrank = phi.is_maximal_rank_everywhere()
    uniform, comb_generic = phi.is_uniform_rank(), phi.is_combinatorially_generic()
    # once per I^a: many non-Scarf degrees share theirs
    k_space, face_data = functools.cache(phi.k_space), []
    for fd in lat.nonscarf_data:
        k = k_space(fd.i_upper_a)
        face_data.append(
            {
                "degree": list(fd.degree),
                "I_a": sorted(fd.i_a),
                "I_of_a": sorted(fd.i_of_a),
                "I_upper_a": sorted(fd.i_upper_a),
                "k_space_basis": [
                    [phi.field.format(v) for v in row] for row in k.basis.data
                ],
            }
        )
    return {
        "format_version": formats.FORMAT_VERSION,
        "rank": phi.coeff_data.r,
        "uniform_rank": uniform,
        "combinatorially_generic": comb_generic,
        "generic": comb_generic and uniform,
        "maximal_rank_everywhere": maxrank.ok,
        "max_rank_witness": list(maxrank.witness) if maxrank.witness else None,
        "lcm_lattice": [list(a) for a in sorted(lat.elements)],
        "scarf_degrees": [list(a) for a in sorted(lat.scarf_part)],
        "nonscarf_degrees": [list(a) for a in sorted(lat.nonscarf_part)],
        "scarf_faces": [list(f) for f in sorted(lat.scarf_faces)],
        "face_data": face_data,
    }


def _analyze_text(payload: dict) -> str:
    def degs(key):
        return " ".join("(" + ",".join(map(str, a)) + ")" for a in payload[key])

    lines = [
        f"rank: {payload['rank']}",
        f"uniform rank: {payload['uniform_rank']}",
        f"combinatorially generic: {payload['combinatorially_generic']}",
        f"generic: {payload['generic']}",
        f"maximal rank everywhere: {payload['maximal_rank_everywhere']}",
        f"lcm lattice ({len(payload['lcm_lattice'])}): {degs('lcm_lattice')}",
        f"scarf degrees ({len(payload['scarf_degrees'])}): {degs('scarf_degrees')}",
        f"other degrees ({len(payload['nonscarf_degrees'])}): {degs('nonscarf_degrees')}",
        "scarf faces: "
        + " ".join("{" + ",".join(map(str, f)) + "}" for f in payload["scarf_faces"]),
    ]
    for fd in payload["face_data"]:
        a = "(" + ",".join(map(str, fd["degree"])) + ")"
        lines.append(
            f"degree {a}: I_a={set(fd['I_a'])} I(a)={set(fd['I_of_a'])} "
            f"I^a={set(fd['I_upper_a'])} K-basis={fd['k_space_basis']}"
        )
    return "\n".join(lines)


def run(argv) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "validate":
            phi = _load_morphism(args)
            payload = {
                "format_version": formats.FORMAT_VERSION,
                "valid": True,
                "columns": phi.e,
                "rows": phi.g,
                "rank": phi.coeff_data.r,
            }
            text = f"valid morphism: {phi.g}x{phi.e}, rank {phi.coeff_data.r}"
            _emit(args, payload, lambda: text)
            return 0

        if args.command == "analyze":
            payload = _analyze_payload(_load_morphism(args))
            _emit(args, payload, lambda: _analyze_text(payload))
            return 0

        if args.command == "verify":
            report = verify.is_resolution(_load_complex(args))
            payload = {"format_version": formats.FORMAT_VERSION, **report.to_dict()}
            text = f"exact: {str(report.exact).lower()}, minimal: {str(report.minimal).lower()}"
            _emit(args, payload, lambda: text)
            ok = report.exact and (report.minimal or not args.minimal)
            return 0 if ok else 1

        if args.command in ("taylor", "scarf"):
            phi = _load_morphism(args)
            y = taylor_complex(phi) if args.command == "taylor" else scarf_complex(phi)
        elif args.command == "minimize":
            y = verify.minimize(_load_complex(args))
        else:  # relabel
            f = formats.load_relabel_map(args.map)
            x = formats.load_complex(args.src_complex)
            y = apply_relabel(f, x, formats.load_morphism(args.target_morphism))
        _emit(args, formats.complex_to_dict(y), lambda: formats.complex_text(y))
        return 0
    except INTERNAL_ERRORS as exc:
        print(f"mgres: internal invariant breach: {exc}", file=sys.stderr)
        return 3
    except MgresError as exc:
        print(f"mgres: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"mgres: internal error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
