"""Command-line driver.

Reads a JSON job document (from --spec or stdin), validates it against the
per-command schema, runs the computation, and prints a deterministic JSON or
plain-table report.  Exit codes: 0 success, 2 bad input, 3 a size cap was
exceeded or a generator or the group is infinite, 4 the oracle cross-check
disagreed (report still printed), 5 an internal check failed (a bug: one
line "internal error: ..." on stderr, no report).
"""

import argparse
import json
import sys
from math import lcm

from . import __version__
from .circle import (central_complex, cover_homology, fiber_dimension,
                     gamma_homology, generic_fiber_homology)
from .exact import (BadRational, CapExceeded, InternalError, NotInvertible,
                    parse_rational)
from .groups import DEFAULT_CAP, generate
from .hkr import (COHOMOLOGY_CONVENTIONS, HOMOLOGY_CONVENTIONS, full_report,
                  oracle_verdict)
from .wps import WeightedStack, hh_vector, inertia_components

COMMANDS = ("quotient", "wps", "circle", "gamma")

_PAYLOAD_KEYS = {
    "quotient": ("generators",),
    "wps": ("weights",),
    "circle": ("n",),
    "gamma": ("r",),
}

_COMMON_KEYS = ("command", "t_max", "cap", "oracle", "format")


class SchemaError(ValueError):
    """The job document does not match the schema; message names the field."""


class NonSquareMatrix(SchemaError):
    """A generator entry is not a square matrix."""


class JobSpec:
    __slots__ = ("command", "generators", "weights", "n", "r",
                 "t_max", "cap", "oracle", "output")

    def __init__(self, command):
        self.command = command
        self.generators = None
        self.weights = None
        self.n = None
        self.r = None
        self.t_max = 10
        self.cap = DEFAULT_CAP
        self.oracle = False
        self.output = "json"


def _plain_int(value, field, minimum):
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError("%s: expected an integer" % field)
    if value < minimum:
        raise SchemaError("%s: must be at least %d" % (field, minimum))
    return value


def _entry(value, path):
    if isinstance(value, bool):
        raise SchemaError("%s: expected an integer or 'p/q' string" % path)
    if isinstance(value, int):
        return parse_rational(str(value))
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except BadRational as e:
            raise SchemaError("%s: %s" % (path, e)) from None
    raise SchemaError("%s: expected an integer or 'p/q' string" % path)


def _matrix(value, path, expect_n):
    if not isinstance(value, list) or not value:
        raise SchemaError("%s: expected a nonempty list of rows" % path)
    n = len(value)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise SchemaError("%s[%d]: expected a list" % (path, i))
        if len(row) != n:
            raise NonSquareMatrix("%s: row %d has %d entries in an %d-row matrix"
                                  % (path, i, len(row), n))
        rows.append(tuple(_entry(x, "%s[%d][%d]" % (path, i, j))
                          for j, x in enumerate(row)))
    if expect_n is not None and n != expect_n:
        raise SchemaError("%s: is %dx%d but earlier generators are %dx%d"
                          % (path, n, n, expect_n, expect_n))
    return tuple(rows)


def parse_jobspec(text):
    """Validate a JSON job document into a JobSpec.  Strict about keys."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("not valid JSON: %s" % e) from None
    except RecursionError:
        raise SchemaError("the document is nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    cmd = doc.get("command")
    if cmd not in COMMANDS:
        raise SchemaError("command: expected one of %s" % ", ".join(COMMANDS))
    allowed = set(_PAYLOAD_KEYS[cmd]) | set(_COMMON_KEYS)
    for key in doc:
        if key not in allowed:
            raise SchemaError("unknown field %r for command %r" % (key, cmd))
    for key in _PAYLOAD_KEYS[cmd]:
        if key not in doc:
            raise SchemaError("missing field %r" % key)
    job = JobSpec(cmd)
    if cmd == "quotient":
        gens = doc["generators"]
        if not isinstance(gens, list) or not gens:
            raise SchemaError("generators: expected a nonempty list of matrices")
        mats = []
        for i, g in enumerate(gens):
            mats.append(_matrix(g, "generators[%d]" % i,
                                len(mats[0]) if mats else None))
        job.generators = tuple(mats)
    elif cmd == "wps":
        ws = doc["weights"]
        if not isinstance(ws, list) or not ws:
            raise SchemaError("weights: expected a nonempty list")
        job.weights = tuple(_plain_int(a, "weights[%d]" % i, 1)
                            for i, a in enumerate(ws))
    elif cmd == "circle":
        job.n = _plain_int(doc["n"], "n", 2)
    else:
        job.r = _plain_int(doc["r"], "r", 2)
    if "t_max" in doc:
        job.t_max = _plain_int(doc["t_max"], "t_max", 0)
    if "cap" in doc:
        job.cap = _plain_int(doc["cap"], "cap", 1)
    if "oracle" in doc:
        if not isinstance(doc["oracle"], bool):
            raise SchemaError("oracle: expected true or false")
        job.oracle = doc["oracle"]
    if "format" in doc:
        if doc["format"] not in ("json", "table"):
            raise SchemaError("format: expected 'json' or 'table'")
        job.output = doc["format"]
    return job


def _series_table(series):
    out = {}
    for p in range(series.u_max + 1):
        row = series.row(p)
        out[str(p)] = {str(d): str(row[d]) for d in range(series.t_max + 1)}
    return out


def _echo(job):
    doc = {"command": job.command}
    if job.command == "quotient":
        doc["generators"] = [[[str(x) for x in row] for row in g]
                             for g in job.generators]
    elif job.command == "wps":
        doc["weights"] = list(job.weights)
    elif job.command == "circle":
        doc["n"] = job.n
    else:
        doc["r"] = job.r
    doc["t_max"] = job.t_max
    doc["cap"] = job.cap
    doc["oracle"] = job.oracle
    return doc


def _homology_name(h):
    free, torsion = h
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append("Z^%d" % free)
    parts.extend("Z/%d" % t for t in torsion)
    return " + ".join(parts) if parts else "0"


def _quotient_report(job):
    n = len(job.generators[0])
    cells = (job.t_max + 1) * (n + 1)
    if cells > job.cap:  # each reported table has n + 1 rows of t_max + 1 cells
        raise CapExceeded("t_max = %d on A^%d gives %d cells per table, over cap %d"
                          % (job.t_max, n, cells, job.cap))
    G = generate(job.generators, job.cap)
    hom = full_report(G, job.t_max, "homology")
    coh = full_report(G, job.t_max, "cohomology")
    report = {
        "command": "quotient",
        "version": __version__,
        "input": _echo(job),
        "group_order": G.order,
        "group_exponent": lcm(*(sec.class_ref.order for sec, _ in hom.sectors)),
        "sectors": [{
            "class_size": len(sec.class_ref.members),
            "centralizer_order": len(sec.class_ref.centralizer),
            "fixed_dim": sec.fixed_dim,
            "normal_codim": sec.c_g,
            "HH": _series_table(s),
            "HHcoh": _series_table(s2),
        } for (sec, s), (_, s2) in zip(hom.sectors, coh.sectors)],
        "HH": _series_table(hom.total),
        "HHcoh": _series_table(coh.total),
        "conventions": {"homology": HOMOLOGY_CONVENTIONS,
                        "cohomology": COHOMOLOGY_CONVENTIONS},
        "oracle": {"checked": False, "agreement": None,
                   "first_disagreement": None},
    }
    tables = [(s, s2) for (_, s), (_, s2) in zip(hom.sectors, coh.sectors)]
    del hom, coh  # the oracle builds sectors of its own
    if job.oracle:
        mismatch = oracle_verdict(G, tables)
        report["oracle"] = {"checked": True, "agreement": mismatch is None,
                            "first_disagreement": mismatch}
    return report


def _wps_report(job):
    if sum(job.weights) > job.cap:  # it bounds the number of components
        raise CapExceeded("weights sum to %d, over cap %d" % (sum(job.weights), job.cap))
    stack = WeightedStack(job.weights)
    comps = []
    for comp in inertia_components(stack):
        comps.append({
            "root": {"order": comp.order, "k": comp.k},
            "support": list(comp.support),
            "weights": list(comp.component_weights),
            "dimension": comp.dimension,
        })
    hh = hh_vector(stack)
    return {
        "command": "wps",
        "version": __version__,
        "input": _echo(job),
        "components": comps,
        "HH": {str(i): hh[i] for i in sorted(hh)},
    }


def _gamma_report(job):
    if job.r > job.cap:  # the cover model has r 2-cells
        raise CapExceeded("r = %d is over cap %d" % (job.r, job.cap))
    g = gamma_homology(job.r)
    c = cover_homology(job.r)
    return {
        "command": "gamma",
        "version": __version__,
        "input": _echo(job),
        "cofiber": {"H%d" % i: _homology_name(h) for i, h in enumerate(g)},
        "cover": {"H%d" % i: _homology_name(h) for i, h in enumerate(c)},
    }


def _circle_report(job):
    if job.n * job.n > job.cap:  # the generic-fiber graph has n^2 edges
        raise CapExceeded("circle n = %d has %d generic-fiber edges, over cap %d"
                          % (job.n, job.n * job.n, job.cap))
    rep = central_complex(job.n)
    h0, h1 = generic_fiber_homology(job.n)
    return {
        "command": "circle",
        "version": __version__,
        "input": _echo(job),
        "fiber_dimension": {"generic": fiber_dimension(job.n),
                            "central": fiber_dimension(job.n, at_zero=True)},
        "central_complex": {"H0": rep.h0, "H1": rep.h1,
                            "action_trivial": rep.trivial},
        "generic_fiber": {"H0": h0, "H1": h1},
    }


def run(job):
    """Execute a validated JobSpec and return the report dict."""
    builder = {"quotient": _quotient_report, "wps": _wps_report,
               "gamma": _gamma_report, "circle": _circle_report}[job.command]
    return builder(job)


def render_json(report):
    return json.dumps(report, indent=2) + "\n"


def _flat_lines(prefix, value, lines):
    if isinstance(value, dict):
        for k, v in value.items():
            _flat_lines("%s.%s" % (prefix, k) if prefix else str(k), v, lines)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flat_lines("%s[%d]" % (prefix, i), v, lines)
    else:
        lines.append((prefix, value))


def _grid(table):
    # table: {"p": {"d": "value"}}; render rows p descending, aligned columns
    ps = sorted(table, key=int, reverse=True)
    ds = sorted(next(iter(table.values())), key=int)
    head = ["p\\d"] + ds
    body = [[p] + [table[p][d] for d in ds] for p in ps]
    widths = [max(len(str(r[c])) for r in [head] + body) for c in range(len(head))]
    out = ["  ".join(str(x).rjust(w) for x, w in zip(row, widths))
           for row in [head] + body]
    return out


def render_table(report):
    lines = ["%s report (version %s)" % (report["command"], report["version"])]
    grids = []
    flat = []
    for key, value in report.items():
        if key in ("command", "version", "input", "conventions"):
            continue
        if key in ("HH", "HHcoh") and report["command"] == "quotient":
            grids.append((key, value))
            continue
        if key == "sectors":
            for i, sec in enumerate(value):
                flat.append(("sectors[%d]" % i,
                             "size %d, centralizer %d, fixed dim %d, codim %d"
                             % (sec["class_size"], sec["centralizer_order"],
                                sec["fixed_dim"], sec["normal_codim"])))
            continue
        _flat_lines(key, value, flat)
    width = max((len(k) for k, _ in flat), default=0)
    for k, v in flat:
        lines.append("%s  %s" % (k.ljust(width), v))
    for key, table in grids:
        lines.append("")
        lines.append("%s (rows p, columns weight):" % key)
        lines.extend("  " + l for l in _grid(table))
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="orbifold-hkr",
        description="Exact Hochschild invariants of quotient stacks, weighted "
                    "projective stacks, and filtered-circle chain models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--spec", help="path to a JSON job document (default: stdin)")
        p.add_argument("--t-max", type=int, dest="t_max", default=None)
        p.add_argument("--cap", type=int, default=None)
        p.add_argument("--oracle", action="store_true", default=None)
        p.add_argument("--format", choices=("json", "table"), default=None)
    args = parser.parse_args(argv)
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            print("input error: %s" % e, file=sys.stderr)
            return 2
    else:
        text = sys.stdin.read()
    try:
        job = parse_jobspec(text)
        if job.command != args.command:
            raise SchemaError("document says command %r but the CLI command is %r"
                              % (job.command, args.command))
        if args.t_max is not None:
            job.t_max = _plain_int(args.t_max, "t_max", 0)
        if args.cap is not None:
            job.cap = _plain_int(args.cap, "cap", 1)
        if args.oracle:
            job.oracle = True
        if args.format:
            job.output = args.format
        report = run(job)
    except (NotInvertible, ValueError) as e:  # SchemaError, BadRational among them
        print("input error: %s" % e, file=sys.stderr)
        return 2
    except CapExceeded as e:
        print("cap exceeded: %s" % e, file=sys.stderr)
        return 3
    except InternalError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 5
    sys.stdout.write(render_json(report) if job.output == "json"
                     else render_table(report))
    oracle = report.get("oracle") or {}
    if oracle.get("checked") and not oracle.get("agreement"):
        return 4
    return 0
