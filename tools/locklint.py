"""Static lock-discipline checker for the concurrent packages.

The serving, observability and resilience layers share mutable state
across threads behind ``with self._lock:`` blocks.  The bug class that
keeps re-appearing is *partial* discipline: an attribute mutated under
the lock in one method and bare in another, so readers can observe a
torn update.  This checker finds exactly that shape with the standard
library ``ast`` module — no third-party dependency:

* for every class, every ``self.<attr> = ...`` / ``self.<attr> += ...``
  / ``del self.<attr>`` site is recorded together with whether it is
  lexically inside a ``with`` statement whose context expression looks
  like a lock (an attribute whose name contains ``lock``, ``cond`` or
  ``cv``, e.g. ``self._lock`` or ``self._state._lock``);
* ``__init__``/``__new__``/``__post_init__`` are skipped — construction
  happens before the object is shared;
* an attribute mutated *both* inside and outside lock blocks is a
  finding.  Attributes only ever mutated bare are fine (they are either
  single-threaded or somebody else's problem); attributes only mutated
  under the lock are the happy path.

Findings on the ``ALLOWLIST`` are reported as warnings and do not fail
the run — each entry documents why the mixed discipline is intentional.
Everything else is an error and exits 1, which is how CI runs it::

    python tools/locklint.py src/repro/service src/repro/obs \\
        src/repro/resilience --report locklint-counts.json
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys

#: (class name, attribute) pairs where mixed lock discipline is
#: deliberate; kept warn-only so the report still surfaces them.
ALLOWLIST: dict[tuple[str, str], str] = {
    # _maybe_half_open is a private "(locked)" helper: both callers
    # (state, allow) already hold self._lock, so its bare mutations
    # are in fact lock-protected.  The checker is lexical and cannot
    # see the caller's lock.
    ("CircuitBreaker", "_state"):
        "mutated in _maybe_half_open, whose callers hold self._lock",
}

#: substrings that mark a ``with`` context expression as a lock.
_LOCKISH = ("lock", "cond", "cv", "mutex")

#: methods that run before the instance is shared between threads.
_CONSTRUCTORS = frozenset(
    {"__init__", "__new__", "__post_init__", "__init_subclass__"}
)


def _is_lockish(expr: ast.expr) -> bool:
    """True when a ``with`` item's context expression looks like a lock.

    Matches bare attribute chains (``self._lock``), calls on them
    (``self._lock.acquire_timeout(...)``) and names (``lock``).
    """
    if isinstance(expr, ast.Call):
        return _is_lockish(expr.func)
    if isinstance(expr, ast.Attribute):
        return (
            any(mark in expr.attr.lower() for mark in _LOCKISH)
            or _is_lockish(expr.value)
        )
    if isinstance(expr, ast.Name):
        return any(mark in expr.id.lower() for mark in _LOCKISH)
    return False


def _self_attr_targets(node: ast.stmt):
    """Yield attribute names of ``self.<attr>`` mutated by *node*."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target] if getattr(node, "value", True) else []
    elif isinstance(node, ast.Delete):
        targets = node.targets
    else:
        return
    for target in targets:
        # Unpack tuple/list targets: ``self.a, self.b = ...``
        stack = [target]
        while stack:
            t = stack.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                stack.extend(t.elts)
            elif (
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            ):
                yield t.attr


class _MethodScanner(ast.NodeVisitor):
    """Record each self-attribute mutation site with its lock depth."""

    def __init__(self, sites: list) -> None:
        self.sites = sites  # (attr, line, locked)
        self._depth = 0

    def visit_With(self, node: ast.With) -> None:
        locked = any(_is_lockish(item.context_expr)
                     for item in node.items)
        if locked:
            self._depth += 1
        self.generic_visit(node)
        if locked:
            self._depth -= 1

    visit_AsyncWith = visit_With

    def _record(self, node: ast.stmt) -> None:
        for attr in _self_attr_targets(node):
            if any(mark in attr.lower() for mark in _LOCKISH):
                continue  # assigning the lock itself
            self.sites.append((attr, node.lineno, self._depth > 0))

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record(node)
        self.generic_visit(node)

    visit_AugAssign = _record
    visit_AnnAssign = _record
    visit_Delete = _record

    # Nested defs get their own ``self``; do not descend.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef


def scan_file(path: str) -> list[dict]:
    """All mixed-discipline findings in one source file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    findings = []
    for cls in (n for n in ast.walk(tree)
                if isinstance(n, ast.ClassDef)):
        # (attr) -> {"locked": [(method, line)], "bare": [...]}
        per_attr: dict[str, dict[str, list]] = {}
        for method in cls.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if method.name in _CONSTRUCTORS:
                continue
            sites: list = []
            scanner = _MethodScanner(sites)
            for stmt in method.body:
                scanner.visit(stmt)
            for attr, line, locked in sites:
                bucket = per_attr.setdefault(
                    attr, {"locked": [], "bare": []}
                )
                bucket["locked" if locked else "bare"].append(
                    (method.name, line)
                )
        for attr, bucket in sorted(per_attr.items()):
            if bucket["locked"] and bucket["bare"]:
                findings.append({
                    "file": path,
                    "class": cls.name,
                    "attr": attr,
                    "locked": bucket["locked"],
                    "bare": bucket["bare"],
                    "allowed": (cls.name, attr) in ALLOWLIST,
                })
    return findings


def _iter_sources(paths: list[str]):
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, _, filenames in os.walk(path):
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="find attributes mutated both inside and outside "
                    "'with self._lock' blocks",
    )
    parser.add_argument("paths", nargs="+",
                        help="source files or directories to scan")
    parser.add_argument("--report", metavar="FILE",
                        help="write finding counts to FILE as JSON")
    args = parser.parse_args(argv)

    findings = []
    files = 0
    for path in _iter_sources(args.paths):
        files += 1
        findings.extend(scan_file(path))

    errors = 0
    for f in findings:
        severity = "warning" if f["allowed"] else "error"
        if not f["allowed"]:
            errors += 1
        sites = ", ".join(
            f"{m}:{line}" for m, line in f["bare"]
        )
        print(
            f"{severity} [lock-discipline] {f['file']}: "
            f"{f['class']}.{f['attr']} is mutated under a lock "
            f"({len(f['locked'])} site(s)) but bare in {sites}"
        )
        if f["allowed"]:
            print(f"  allowlisted: {ALLOWLIST[(f['class'], f['attr'])]}")
    print(
        f"{files} file(s) scanned: {errors} error(s), "
        f"{len(findings) - errors} allowlisted warning(s)"
    )

    if args.report:
        counts = {
            "files": files,
            "errors": errors,
            "warnings": len(findings) - errors,
            "findings": [
                {k: f[k] for k in
                 ("file", "class", "attr", "allowed")}
                for f in findings
            ],
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(counts, fh, indent=2)
            fh.write("\n")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
