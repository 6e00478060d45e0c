"""Correctness checks on CLI reports, computed without the program's code.

Every expected value comes from a closed form or a count made here: group
orders, (bi)partition counts, Solomon's invariant series, the class equation,
inclusion-exclusion over gcds, and the known homology of the circle models.
Each error names the check that failed, so a test can tell them apart.
"""

import json
import re
from itertools import combinations
from math import factorial, gcd

_CELL = re.compile(r"[0-9]+\Z")


def partition_counts(n):
    """p(0), ..., p(n): the number of partitions of each k <= n."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    return p


def class_count(family, n):
    """Conjugacy classes of S_n (partitions) or B_n (pairs of partitions)."""
    p = partition_counts(n)
    if family == "S":
        return p[n]
    return sum(p[k] * p[n - k] for k in range(n + 1))


def group_order(family, n):
    return factorial(n) * (2 ** n if family == "B" else 1)


def degrees(family, n):
    """Degrees of the basic invariants: 1..n for S_n, 2, 4, ..., 2n for B_n."""
    return [k * (2 if family == "B" else 1) for k in range(1, n + 1)]


def solomon_series(degs, t_top):
    """c[p][d]: the coefficient of u^p t^d in prod (1 + u t^e) / (1 - t^e)."""
    c = [[0] * (t_top + 1) for _ in range(len(degs) + 1)]
    c[0][0] = 1
    for e in degs:
        for row in c:
            for d in range(e, t_top + 1):
                row[d] += row[d - e]
        for p in range(len(degs), 0, -1):
            for d in range(t_top, e - 1, -1):
                c[p][d] += c[p - 1][d - e]
    return c


def _table(rows, cols, cell):
    return {str(p): {str(d): str(cell(p, d)) for d in range(cols)}
            for p in range(rows)}


def _first_difference(a, b, path=""):
    """Path of the first cell where two JSON values differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                return "%s/%s" % (path, k)
            found = _first_difference(a[k], b[k], "%s/%s" % (path, k))
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return "%s (length %d != %d)" % (path, len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            found = _first_difference(x, y, "%s[%d]" % (path, i))
            if found:
                return found
        return None
    return None if type(a) is type(b) and a == b else path or "/"


def _tables(report):
    yield "HH", report["HH"]
    yield "HHcoh", report["HHcoh"]
    for i, sec in enumerate(report["sectors"]):
        yield "sectors[%d].HH" % i, sec["HH"]
        yield "sectors[%d].HHcoh" % i, sec["HHcoh"]


def _check_quotient(job, report):
    errors = []
    family, n = job["group"]
    t_max = job["doc"]["t_max"]
    order = group_order(family, n)
    sectors = report["sectors"]
    if report["group_order"] != order:
        errors.append("group_order: %r, expected %d"
                      % (report["group_order"], order))
    classes = class_count(family, n)
    if len(sectors) != classes:
        errors.append("sector_count: %d sectors, expected %d"
                      % (len(sectors), classes))
    for i, sec in enumerate(sectors):
        if sec["class_size"] * sec["centralizer_order"] != order:
            errors.append("class_equation: sectors[%d] has %r * %r != %d"
                          % (i, sec["class_size"], sec["centralizer_order"],
                             order))
    if sum(sec["class_size"] for sec in sectors) != order:
        errors.append("class_equation: class sizes do not sum to %d" % order)
    if report["HH"]["0"]["0"] != str(len(sectors)):
        errors.append("hh00: total HH at (0, 0) is %r for %d sectors"
                      % (report["HH"]["0"]["0"], len(sectors)))
    for where, table in _tables(report):
        for p, row in table.items():
            for d, v in row.items():
                if not isinstance(v, str) or not _CELL.match(v):
                    errors.append("cells: %s[%s][%s] = %r is not a "
                                  "non-negative integer" % (where, p, d, v))
    untwisted = [sec for sec in sectors if sec["fixed_dim"] == n]
    if len(untwisted) != 1:
        errors.append("solomon_hh: %d sectors fix all of V, expected 1"
                      % len(untwisted))
    else:
        series = solomon_series(degrees(family, n), t_max + n)
        want_hh = _table(n + 1, t_max + 1, lambda p, d: series[p][d])
        want_coh = _table(n + 1, t_max + 1, lambda p, m: series[p][m + p])
        found = _first_difference(untwisted[0]["HH"], want_hh)
        if found:
            errors.append("solomon_hh: untwisted HH differs at %s" % found)
        found = _first_difference(untwisted[0]["HHcoh"], want_coh)
        if found:
            errors.append("solomon_hhcoh: untwisted HHcoh differs at %s"
                          % found)
    if job["doc"].get("oracle"):
        oracle = report["oracle"]
        if oracle["checked"] is not True or oracle["agreement"] is not True:
            errors.append("oracle: checked=%r agreement=%r"
                          % (oracle["checked"], oracle["agreement"]))
    return errors


def _check_circle(job, report):
    errors = []
    n = job["doc"]["n"]
    fiber = report["fiber_dimension"]
    if fiber != {"generic": n, "central": n}:
        errors.append("circle_fiber: %r, expected both %d" % (fiber, n))
    central = report["central_complex"]
    if central != {"H0": 1, "H1": 1, "action_trivial": True}:
        errors.append("circle_central: %r" % (central,))
    generic = report["generic_fiber"]
    if generic != {"H0": 1, "H1": 1}:
        errors.append("circle_generic: %r, expected (1, 1)" % (generic,))
    return errors


def _check_gamma(job, report):
    errors = []
    r = job["doc"]["r"]
    cofiber = {"H0": "Z", "H1": "Z/%d" % r, "H2": "0"}
    cover = {"H0": "Z", "H1": "0", "H2": "Z" if r == 2 else "Z^%d" % (r - 1)}
    if report["cofiber"] != cofiber:
        errors.append("gamma_cofiber: %r, expected %r"
                      % (report["cofiber"], cofiber))
    if report["cover"] != cover:
        errors.append("gamma_cover: %r, expected %r" % (report["cover"], cover))
    return errors


def union_of_root_groups(weights):
    """|mu_a1 u ... u mu_ak| by inclusion-exclusion over gcds."""
    total = 0
    for r in range(1, len(weights) + 1):
        for S in combinations(weights, r):
            g = 0
            for a in S:
                g = gcd(g, a)
            total += (-1) ** (r + 1) * g
    return total


def _check_wps(job, report):
    errors = []
    weights = job["doc"]["weights"]
    if report["HH"] != {"0": sum(weights)}:
        errors.append("wps_hh: %r, expected {'0': %d}"
                      % (report["HH"], sum(weights)))
    want = union_of_root_groups(weights)
    if len(report["components"]) != want:
        errors.append("wps_components: %d components, expected %d"
                      % (len(report["components"]), want))
    return errors


_CHECKS = {"quotient": _check_quotient, "circle": _check_circle,
           "gamma": _check_gamma, "wps": _check_wps}


def check_report(job, report):
    """Errors found in one parsed report; empty when every check holds."""
    try:
        if report["command"] != job["command"]:
            return ["command: report is for %r" % (report["command"],)]
        return _CHECKS[job["command"]](job, report)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as e:
        return ["malformed: %s: %s" % (type(e).__name__, e)]


def check_output(job, exit_code, stdout):
    """(report, errors) for one finished job: exit code, JSON, then content."""
    if exit_code != 0:
        return None, ["exit: code %r" % (exit_code,)]
    try:
        report = json.loads(stdout)
    except ValueError as e:
        return None, ["json: %s" % e]
    return report, check_report(job, report)


_INVARIANT_KEYS = ("group_order", "group_exponent", "sectors", "HH", "HHcoh")


def check_same_tables(report, plain):
    """Change-of-basis invariance: a conjugated presentation must give the
    plain presentation's classes and tables cell by cell."""
    try:
        for key in _INVARIANT_KEYS:
            found = _first_difference(report[key], plain[key], key)
            if found:
                return ["conjugation: differs from the plain job at %s" % found]
    except (KeyError, TypeError) as e:
        return ["malformed: %s: %s" % (type(e).__name__, e)]
    return []
