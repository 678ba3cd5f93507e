"""Command-line front end for the side-pairing pipeline.

Subcommands walk the same route the library does: ``build`` glues the
quotient and reports its homology, ``cusps`` and ``peripheral`` expose
the boundary structure, ``lattice`` develops the cusp cross sections,
``fill`` evaluates one surgery, and ``enumerate`` sweeps a box of
surgery coefficients and emits one record per tuple.

Output is deterministic byte for byte: exact rationals are printed as
fractions or exact decimals and records appear in lexicographic tuple
order.  ``enumerate`` draws, renders and writes the box one chunk at a
time, so its memory does not grow with the box.  Exit status 0 is
success, 1 a computational contract failure (a hypothesis of the
mathematics is not met), 2 an input error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

from .chains import euler_characteristic, homology
from .filling import FillingError, adapted_slopes, is_homology_sphere
from .flatgeom import (
    FlatGeometryError,
    PrecisionError,
    develop_lattice,
    slope_length,
    two_pi_ok,
    weakly_balanced,
)
from .gluing import (
    GluingError,
    PairingError,
    _excerpt,
    census_pairing,
    geometry,
    orientation_character,
    parse_pairing,
    quotient_complex,
    vertex_cycles,
)
from .peripheral import PeripheralError, cusp_sections, peripheral_system, report
from .polytope import embedded_cusp_scale
from .record import Record

_CHUNK = 1024
# The most tuples ``enumerate`` renders; a larger box is refused as input.
_MAX_BOX = 1_000_000
# ``enumerate --threads`` is kept for compatibility and has no effect;
# values outside 1.._MAX_THREADS are refused as input errors.
_MAX_THREADS = 64
# The most bytes read from a --pairing file; the bundled pairing has 1,356.
_MAX_PAIRING_BYTES = 1 << 20
# The most digits in a coefficient, a box bound, or a numerator or denominator of
# --scale or --balance-c; cubed or squared, each stays within Python's 4,300 digits.
_MAX_DIGITS = 1000
_RATIONAL = re.compile(r"\s*[-+]?(\d*)(?:\.(\d*))?(?:e([-+]?\d+))?(?:/(\d+))?\s*", re.I)
_LONG_VALUE = re.compile(r"""'((?:[^'\\]|\\.){41,})'|"((?:[^"\\]|\\.){41,})"|(\S{41,})""")


class _InputError(ValueError):
    """Bad command-line input (maps to exit status 2)."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals quote long values by ``_excerpt``."""

    def error(self, message):
        super().error(_LONG_VALUE.sub(lambda m: _excerpt(m[m.lastindex]), message))


class RunConfig(Record):
    """Everything one subcommand invocation needs, already validated."""

    pairing: str | None = None
    copies: int = 1
    box: tuple[tuple[int, int], ...] = ()
    scale: Fraction = Fraction(1)
    balance_c: Fraction | None = None
    format: str = "table"
    coefficients: tuple[tuple[int, int], ...] = ()


def _parse_fraction(text: str, name: str) -> Fraction:
    """``text`` as a Fraction, refused from the text alone if Fraction would
    build a numerator or denominator of more than ``_MAX_DIGITS`` digits."""
    if match := _RATIONAL.fullmatch(text.replace("_", "")):
        whole, decimals, power, below = (g or "" for g in match.groups())
        shift = int(power or 0) if len(power.lstrip("+-0")) <= 4 else 2 * _MAX_DIGITS
        if max(len(whole + decimals) + shift,
               len(below) or 1 + len(decimals) - shift) > _MAX_DIGITS:
            raise _InputError(f"{name} has a numerator or denominator of more "
                              f"than {_MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _InputError(f"{name} must be a rational number, got {_excerpt(text)}")


def _parse_int(text: str, what: str) -> int:
    """``text`` as an int, refused from the text alone past ``_MAX_DIGITS`` digits."""
    if sum(c.isdigit() for c in text) > _MAX_DIGITS:
        raise _InputError(f"{what} has an integer of more than {_MAX_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        raise _InputError(f"{what} is not a pair of integers") from None


def _parse_box(text: str) -> tuple[tuple[int, int], ...]:
    """One 'lo:hi' for all ten coordinates, or ten comma-separated ranges."""
    parts = text.split(",")
    if len(parts) == 1:
        parts = parts * 10
    if len(parts) != 10:
        raise _InputError(f"box needs 1 or 10 'lo:hi' ranges, got {len(parts)}")
    out = []
    for part in parts:
        pieces = part.split(":")
        if len(pieces) != 2:
            raise _InputError(f"box range {_excerpt(part)} is not 'lo:hi'")
        lo, hi = (_parse_int(piece, f"box range {_excerpt(part)}") for piece in pieces)
        if lo > hi:
            raise _InputError(f"box range {_excerpt(part)} is empty")
        out.append((lo, hi))
    return tuple(out)


def _parse_pairs(texts: Sequence[str]) -> tuple[tuple[int, int], ...]:
    out = []
    for text in texts:
        pieces = text.split(",")
        if len(pieces) != 2:
            raise _InputError(f"coefficient {_excerpt(text)} is not 'b,c'")
        out.append(tuple(_parse_int(piece, f"coefficient {_excerpt(text)}")
                         for piece in pieces))
    return tuple(out)


def _load_spec(config: RunConfig):
    if config.pairing is None:
        return census_pairing()
    path = Path(config.pairing)
    with path.open("rb") as handle:
        data = handle.read(_MAX_PAIRING_BYTES + 1)
    if len(data) > _MAX_PAIRING_BYTES:
        raise _InputError(f"{path}: longer than {_MAX_PAIRING_BYTES:,} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: not a text file ({exc.reason})") from exc
    return parse_pairing(text)


def _exact_decimal(x: Fraction) -> str:
    """Exact decimal rendering of a multiple of 10^-13, as every enclosure
    bound is."""
    n = (x * 10 ** 13).numerator
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 10 ** 13}.{n % 10 ** 13:013d}"


def _emit(lines: Iterable[str]) -> int:
    for line in lines:
        sys.stdout.write(line + "\n")
    return 0


def _jsonl(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _cycle_text(cycle) -> str:
    def one(v):
        return f"{v[0]}:{v[1]}" if isinstance(v, tuple) else str(v)
    return "(" + " ".join(one(v) for v in cycle) + ")"


def cmd_build(config: RunConfig) -> int:
    spec = _load_spec(config)
    character = orientation_character(spec)
    q = quotient_complex(spec, copies=config.copies)
    cells = [q.chain.cell_count(k) for k in range(q.top_dim + 1)]
    chi = euler_characteristic(q.chain)
    groups = [homology(q.chain, k) for k in range(1, 4)]
    cycles = vertex_cycles(q.spec)
    orientable = config.copies == 2 or character.orientable
    if config.format == "jsonl":
        record = {
            "cells": cells,
            "chi": chi,
            "copies": config.copies,
            "cycles": [[list(v) if isinstance(v, tuple) else v for v in cycle]
                       for cycle in cycles],
            "facets": geometry(spec.geometry).facet_count,
            "h": [str(g) for g in groups],
            "metadata": spec.metadata_dict(),
            "orientable": orientable,
            "pairings": len(spec.pairings),
            "self_pairings": sum(1 for p in spec.pairings if p.is_self_pairing()),
        }
        return _emit([_jsonl(record)])
    lines = []
    for key, value in spec.metadata_dict().items():
        lines.append(f"{key}: {value}")
    lines.append(f"geometry: {spec.geometry}, copies: {config.copies}")
    lines.append(f"facets: {geometry(spec.geometry).facet_count} glued by "
                 f"{len(spec.pairings)} pairings "
                 f"({sum(1 for p in spec.pairings if p.is_self_pairing())} self)")
    lines.append("cells: " + " ".join(str(n) for n in cells))
    lines.append(f"chi: {chi}")
    lines.append("orientable: " + ("yes" if orientable else "no"))
    if config.copies == 1:
        lines.append("character: " +
                     " ".join("+" if s == 1 else "-" for s in character.signs))
    lines.append("vertex cycles: " + " ".join(_cycle_text(c) for c in cycles))
    for k, g in enumerate(groups, start=1):
        lines.append(f"H{k}: {g}")
    return _emit(lines)


def cmd_cusps(config: RunConfig) -> int:
    spec = _load_spec(config)
    q = quotient_complex(spec, copies=config.copies)
    sections = cusp_sections(q)
    lines = []
    for s in sections:
        groups = [homology(s.chain, k) for k in range(4)]
        if config.format == "jsonl":
            lines.append(_jsonl({
                "cells": [len(c) for c in s.cells],
                "cubes": s.cube_count,
                "cusp": s.index + 1,
                "h": [str(g) for g in groups],
            }))
        else:
            lines.append(f"cusp {s.index + 1}: cubes {s.cube_count}, "
                         f"cells " + " ".join(str(len(c)) for c in s.cells) +
                         ", H1 " + str(groups[1]) +
                         ", H2 " + str(groups[2]) +
                         ", H3 " + str(groups[3]))
    return _emit(lines)


def cmd_peripheral(config: RunConfig) -> int:
    spec = _load_spec(config)
    system = peripheral_system(quotient_complex(spec, copies=config.copies))
    if config.format == "table":
        sys.stdout.write(report(system))
        return 0
    lines = []
    for i in range(system.cusp_count):
        lines.append(_jsonl({
            "cubes": system.cube_counts[i],
            "cusp": i + 1,
            "epsilon": list(system.epsilons[i]),
            "kappa": [list(v) for v in system.bases[i]],
            "matrix": [list(system.matrices[i].row(r))
                       for r in range(system.matrices[i].rows)],
            "section_h1": str(system.section_h1[i]),
        }))
    return _emit(lines)


def _overlap(scale: Fraction) -> str:
    """Why the cusps are not embedded at ``scale``; empty up to the bound."""
    bound = embedded_cusp_scale()
    return (f"scale {scale} exceeds the largest embedded cusp scale {bound}: "
            f"the cusps overlap") if scale > bound else ""


def cmd_lattice(config: RunConfig) -> int:
    if overlap := _overlap(config.scale):
        print(f"note: {overlap}", file=sys.stderr)
    spec = _load_spec(config)
    q = quotient_complex(spec, copies=config.copies)
    lines = []
    for s in cusp_sections(q):
        lattice = develop_lattice(s, scale=config.scale)
        if config.format == "jsonl":
            lines.append(_jsonl({
                "basis": [[str(x) for x in lattice.column(j)] for j in range(3)],
                "covolume": str(lattice.covolume()),
                "cusp": s.index + 1,
                "scale": str(lattice.scale),
            }))
        else:
            lines.append(f"cusp {s.index + 1}: covolume {lattice.covolume()}")
            lines.extend("  " + line for line in lattice.dump().splitlines())
    return _emit(lines)


def _filling_setup(config: RunConfig):
    """Peripheral system, cusp lattices and filling verdict for fill and enumerate.

    kappa_2 and kappa_3 span each peripheral kernel, so every adapted
    slope maps to its cusp's epsilon class: the filled H1, and with it
    the verdict, is the same for every coefficient tuple.  It is computed
    once, from the all-zero tuple.

    The 2*pi verdict assumes embedded, disjoint cusps, so a scale above
    the largest embedded one is refused first.
    """
    if overlap := _overlap(config.scale):
        raise FlatGeometryError(f"{overlap}, so the 2pi test does not apply")
    spec = _load_spec(config)
    q = quotient_complex(spec, copies=config.copies)
    system = peripheral_system(q)
    lattices = tuple(develop_lattice(s, scale=config.scale)
                     for s in cusp_sections(q))
    chi = euler_characteristic(q.chain)
    slopes = adapted_slopes(system, ((0, 0),) * system.cusp_count)
    result = is_homology_sphere(system, slopes, chi, orientable=True)
    return system, lattices, result


def _measure(system, lattices, result, pairs, balance_c):
    """Shared per-tuple evaluation for fill and enumerate."""
    slopes = adapted_slopes(system, pairs)
    lengths = tuple(slope_length(lattices[i], slopes.classes[i])
                    for i in range(len(lattices)))
    status = "ok"
    two_pi: bool | None
    try:
        two_pi = two_pi_ok(lengths)
    except PrecisionError:
        two_pi, status = None, "precision"
    balanced: bool | None = None
    if balance_c is not None and status == "ok":
        try:
            balanced = weakly_balanced(lengths, balance_c)
        except PrecisionError:
            balanced, status = None, "precision"
    return slopes, result, lengths, two_pi, balanced, status


def _record(pairs, slopes, result, lengths, two_pi, balanced, status) -> dict:
    return {
        "balanced": balanced,
        "h1": str(result.h1),
        "lengths": [{"hi": _exact_decimal(s.upper),
                     "lo": _exact_decimal(s.lower),
                     "sq": str(s.squared)} for s in lengths],
        "slopes": [list(v) for v in slopes.classes],
        "sphere": result.is_homology_sphere,
        "status": status,
        "tuple": [x for pair in pairs for x in pair],
        "two_pi": two_pi,
    }


def _flag(value: bool | None) -> str:
    return "-" if value is None else ("yes" if value else "no")


def _table_row(pairs, result, lengths, two_pi, balanced, status) -> str:
    coeffs = " ".join(f"{x:3d}" for pair in pairs for x in pair)
    shortest = min(s.lower for s in lengths)
    return (f"{coeffs}  {result.h1.describe():8} "
            f"{_flag(result.is_homology_sphere):6} "
            f"{_exact_decimal(shortest):>16} "
            f"{_flag(two_pi):6} {_flag(balanced):8} {status}")


_TABLE_HEADER = (" b1  c1  b2  c2  b3  c3  b4  c4  b5  c5  "
                 "H1       sphere        min_len 2pi    balanced status")


def cmd_fill(config: RunConfig) -> int:
    system, lattices, result = _filling_setup(config)
    values = _measure(system, lattices, result, config.coefficients,
                      config.balance_c)
    slopes, result, lengths, two_pi, balanced, status = values
    if config.format == "jsonl":
        return _emit([_jsonl(_record(config.coefficients, *values))])
    lines = [f"slopes: " + " ".join(str(tuple(v)) for v in slopes.classes),
             f"H1 filled: {result.h1}",
             f"homology 4-sphere: {_flag(result.is_homology_sphere)}"]
    for i, s in enumerate(lengths):
        lines.append(f"cusp {i + 1}: squared length {s.squared}, length in "
                     f"[{_exact_decimal(s.lower)}, {_exact_decimal(s.upper)}]")
    lines.append(f"all slopes >= 2pi: {_flag(two_pi)}")
    if config.balance_c is not None:
        lines.append(f"weakly balanced (c = {config.balance_c}): {_flag(balanced)}")
    if status != "ok":
        lines.append(f"status: {status}")
    lines.extend("note: " + note for note in result.notes)
    return _emit(lines)


def cmd_enumerate(config: RunConfig) -> int:
    system, lattices, result = _filling_setup(config)

    def render(tup: tuple[int, ...]) -> str:
        pairs = tuple((tup[2 * i], tup[2 * i + 1]) for i in range(5))
        values = _measure(system, lattices, result, pairs, config.balance_c)
        if config.format == "jsonl":
            return _jsonl(_record(pairs, *values))
        return _table_row(pairs, *values[1:])

    tuples = product(*(range(lo, hi + 1) for lo, hi in config.box))
    if config.format == "table":
        sys.stdout.write(_TABLE_HEADER + "\n")
    while chunk := list(islice(tuples, _CHUNK)):
        _emit([render(tup) for tup in chunk])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dehn24",
        description="Glue 24-cell side-pairings, inspect cusps, and survey "
                    "Dehn fillings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, copies_default: int) -> None:
        p.add_argument("--pairing", default=None,
                       help="pairing file (default: the bundled census manifold)")
        p.add_argument("--copies", type=int, choices=(1, 2), default=copies_default,
                       help=f"1 for the quotient itself, 2 for its orientation "
                            f"double cover (default {copies_default})")
        p.add_argument("--format", choices=("table", "jsonl"), default="table")

    p_build = sub.add_parser("build", help="glue the quotient and report homology")
    common(p_build, 1)
    p_build.set_defaults(func=cmd_build)

    p_cusps = sub.add_parser("cusps", help="boundary components and their homology")
    common(p_cusps, 1)
    p_cusps.set_defaults(func=cmd_cusps)

    p_peri = sub.add_parser("peripheral",
                            help="peripheral maps and adapted bases per cusp")
    common(p_peri, 2)
    p_peri.set_defaults(func=cmd_peripheral)

    p_lat = sub.add_parser("lattice", help="developed cusp cross-section lattices")
    common(p_lat, 2)
    p_lat.add_argument("--scale", default="1",
                       help="cross-section cube edge length (rational, default 1)")
    p_lat.set_defaults(func=cmd_lattice)

    p_fill = sub.add_parser("fill", help="evaluate one surgery coefficient tuple")
    common(p_fill, 2)
    p_fill.add_argument("--scale", default="1")
    p_fill.add_argument("--balance-c", default=None,
                        help="balance constant; omit to skip the balance check")
    p_fill.add_argument("coefficients", nargs=5, metavar="b,c",
                        help="five surgery coefficient pairs, one per cusp")
    p_fill.set_defaults(func=cmd_fill)

    p_enum = sub.add_parser("enumerate",
                            help="sweep a box of surgery coefficient tuples")
    common(p_enum, 2)
    p_enum.add_argument("--scale", default="1")
    p_enum.add_argument("--balance-c", default=None)
    p_enum.add_argument("--box", default="0:0",
                        help="'lo:hi' for all ten coefficients, or ten "
                             "comma-separated ranges")
    p_enum.add_argument("--threads", type=int, default=1,
                        help=f"accepted for compatibility (1 to {_MAX_THREADS}); "
                             f"has no effect")
    p_enum.set_defaults(func=cmd_enumerate)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    scale = _parse_fraction(getattr(args, "scale", "1"), "scale")
    if scale <= 0:
        raise _InputError("scale must be positive")
    balance_text = getattr(args, "balance_c", None)
    balance_c = None
    if balance_text is not None:
        balance_c = _parse_fraction(balance_text, "balance constant")
        if balance_c <= 0:
            raise _InputError("balance constant must be positive")
    threads = getattr(args, "threads", 1)
    if threads < 1:
        raise _InputError("thread count must be at least 1")
    if threads > _MAX_THREADS:
        raise _InputError(f"thread count must be at most {_MAX_THREADS}")
    box = _parse_box(getattr(args, "box", "0:0"))
    size = math.prod(hi - lo + 1 for lo, hi in box)
    if size > _MAX_BOX:
        count = f"{size:,}" if size < 10 ** 40 else "more than 10^40"
        raise _InputError(f"box has {count} tuples; enumerate renders at most {_MAX_BOX:,}")
    return RunConfig(
        pairing=args.pairing,
        copies=args.copies,
        box=box,
        scale=scale,
        balance_c=balance_c,
        format=args.format,
        coefficients=_parse_pairs(getattr(args, "coefficients", ())),
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    func: Callable[[RunConfig], int] = args.func
    try:
        config = _config_from_args(args)
        return func(config)
    except (_InputError, PairingError, GluingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PeripheralError, FillingError, FlatGeometryError, PrecisionError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
