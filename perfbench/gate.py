"""Correctness gate applied to every output the benchmark measures.

Every check here is independent of the package: records are parsed as
plain JSON and the 2*pi verdict is re-derived from each record's exact
squared lengths against a hand-written enclosure of 4*pi^2, not the one
in ``flatgeom``.
"""

import json
from fractions import Fraction

# 4*pi^2 = 39.478417604357...; a squared length strictly between these
# bounds could not be decided and fails the gate.
FOUR_PI_SQ_LOW = Fraction("39.47841")
FOUR_PI_SQ_HIGH = Fraction("39.47842")


def expected_two_pi(squares):
    """True if every slope is certainly >= 2*pi, False if one is certainly shorter."""
    if any(sq < FOUR_PI_SQ_LOW for sq in squares):
        return False
    if all(sq > FOUR_PI_SQ_HIGH for sq in squares):
        return True
    return None


def record_errors(line, expected_tuple):
    """Problems with one ``--format jsonl`` filling record, as strings."""
    try:
        rec = json.loads(line)
        squares = [Fraction(s["sq"]) for s in rec["lengths"]]
        bounds = [(Fraction(s["lo"]), Fraction(s["hi"])) for s in rec["lengths"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable record: {exc}"]
    errors = []
    if rec.get("tuple") != list(expected_tuple):
        errors.append(f"tuple {rec.get('tuple')} where {list(expected_tuple)} was due")
    if rec.get("sphere") is not True or rec.get("h1") != "0":
        errors.append(f"not a homology sphere: sphere={rec.get('sphere')} h1={rec.get('h1')}")
    if rec.get("status") != "ok":
        errors.append(f"status {rec.get('status')}")
    if len(squares) != 5:
        errors.append(f"{len(squares)} slope lengths")
    if not all(0 <= lo <= hi and lo * lo <= sq <= hi * hi
               for sq, (lo, hi) in zip(squares, bounds)):
        errors.append("a length enclosure does not bracket its squared length")
    want = expected_two_pi(squares)
    if want is None or rec.get("two_pi") is not want:
        errors.append(f"two_pi {rec.get('two_pi')} but squared lengths give {want}")
    return errors


def stream_errors(out, tuples):
    """Check a whole jsonl stream against the tuples due, in order.

    Returns (records read, records failed, first few problems).  A
    missing, extra or out-of-order record counts as failed.
    """
    lines = out.split(b"\n")
    problems = []
    if lines[-1] != b"":
        problems.append("output does not end with a newline")
    lines = lines[:-1]
    failed = abs(len(lines) - len(tuples))
    if failed:
        problems.append(f"{len(lines)} records where {len(tuples)} were due")
    for line, tup in zip(lines, tuples):
        errors = record_errors(line, tup)
        if errors:
            failed += 1
            problems.extend(errors)
    return max(len(lines), len(tuples)), failed, problems[:5]


def search_errors(report, expected_stages):
    """Problems with one search report, against the stage counts recorded for its slice."""
    errors = []
    if report.get("stages") != expected_stages:
        errors.append(f"stage counts {report.get('stages')} where {expected_stages} "
                      f"were recorded")
    if report.get("leaves") != expected_stages[0]:
        errors.append(f"{report.get('leaves')} leaves where {expected_stages[0]} were recorded")
    if report.get("bundled") is not True:
        errors.append("the bundled pairing is not among the survivors")
    return errors
