#!/usr/bin/env python3
"""Lint the stat-name contract (docs/OBSERVABILITY.md).

Scans the C++ sources for stats constructor literals --

    stats::Scalar  name{"engine.cycles", "..."};
    stats::Gauge   g{"governor.rss_bytes", "..."};
    stats::Distribution d{"engine.fanout_width", "...", 0, 64, 16};
    stats::Formula f{"engine.cycles_per_path", "...", ...};

-- and enforces that every registered name is dotted-lowercase
(``[a-z0-9_]+(\\.[a-z0-9_]+)+``), unique across the tree, and filed
under a known top-level group (so ``telemtry.frames_written`` fails
the build instead of silently forking the catalogue).  The same
rules are enforced at runtime by the registry (base/stats.cc); this
lint catches violations at build time, before any binary runs, and
keeps the documented catalogue greppable.

``--require NAME`` (repeatable) additionally asserts that NAME is
registered somewhere: CI pins the names that external surfaces
depend on -- the batch status file, the run-report stats snapshot
and the telemetry stream -- so a rename cannot silently break a
dashboard.

``--catalogue FILE`` checks the documented catalogue against the
registrations in both directions: every registered name must have a
catalogue row, and every name a row lists must be registered.  A row
is a Markdown table row whose first cell is one backticked stat name,
or two as ``| `a` / `b` |``.

Exit code 0 when clean, 1 with one diagnostic line per offence.
"""

import argparse
import pathlib
import re
import sys

# A stats object construction: the type, a variable name, then a brace
# or paren initializer whose first argument is the string literal name.
CTOR_RE = re.compile(
    r"stats::(?:Scalar|Gauge|Distribution|Formula)\s+"
    r"[A-Za-z_]\w*\s*[{(]\s*\"([^\"]+)\"",
)

NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

# A catalogue row: a table row whose first cell is `a` or `a` / `b`.
ROW_RE = re.compile(r"^\|\s*(`[^`|]+`(?:\s*/\s*`[^`|]+`)?)\s*\|")

# The documented top-level groups (docs/OBSERVABILITY.md, "Stat
# catalogue").  A new subsystem adds its group here in the same PR
# that registers its first stat.
KNOWN_GROUPS = frozenset({
    "batch",
    "checker",
    "checkpoint",
    "engine",
    "governor",
    "sim",
    "state_table",
    "telemetry",
    "trace",
})

# Test sources may deliberately register scratch stats (including
# intentionally-bad names inside EXPECT_THROW); only production code
# under src/ and tools/ defines the documented catalogue.
DEFAULT_ROOTS = ["src", "tools"]


def scan_text(path, text):
    """Yield (where, stat_name) for every registration in @p text."""
    for m in CTOR_RE.finditer(text):
        line = text.count("\n", 0, m.start()) + 1
        yield f"{path}:{line}", m.group(1)


def scan(root: pathlib.Path):
    """Yield (where, stat_name) for every registration under root."""
    for path in sorted(root.rglob("*.cc")) + sorted(root.rglob("*.hh")):
        text = path.read_text(encoding="utf-8", errors="replace")
        yield from scan_text(path, text)


def catalogue_rows(path, text):
    """Yield (where, stat_name) for every name a catalogue row lists.
    Rows whose first cell is not made of stat names (other tables)
    are not catalogue rows."""
    for line_no, line in enumerate(text.splitlines(), 1):
        m = ROW_RE.match(line)
        if not m:
            continue
        names = re.findall(r"`([^`]+)`", m.group(1))
        if all(NAME_RE.fullmatch(n) for n in names):
            for name in names:
                yield f"{path}:{line_no}", name


def lint(registrations, required, catalogue=None):
    """Check (where, name) pairs, and against the (where, name) rows
    of @p catalogue when given; return (errors, total, unique)."""
    errors = []
    seen = {}
    total = 0
    for where, name in registrations:
        total += 1
        if not NAME_RE.fullmatch(name):
            errors.append(
                f"{where}: stat name {name!r} is not "
                "dotted-lowercase ([a-z0-9_]+(.[a-z0-9_]+)+)"
            )
        elif name.split(".", 1)[0] not in KNOWN_GROUPS:
            groups = ", ".join(sorted(KNOWN_GROUPS))
            errors.append(
                f"{where}: stat name {name!r} has unknown top-level "
                f"group {name.split('.', 1)[0]!r} (known: {groups})"
            )
        if name in seen:
            errors.append(
                f"{where}: stat name {name!r} already registered "
                f"at {seen[name]}"
            )
        else:
            seen[name] = where
    for name in required:
        if name not in seen:
            errors.append(
                f"--require {name}: not registered anywhere "
                "(renamed or removed? external surfaces depend on it)"
            )
    if catalogue is not None:
        documented = {name for _, name in catalogue}
        for name, where in seen.items():
            if name not in documented:
                errors.append(
                    f"{where}: stat name {name!r} has no catalogue row"
                )
        for where, name in catalogue:
            if name not in seen:
                errors.append(
                    f"{where}: catalogue lists {name!r}, which is not "
                    "registered (renamed or removed?)"
                )
    return errors, total, len(seen)


def self_test() -> int:
    """The lint's own failure paths must actually fail."""
    cases = [
        # (source text, required, catalogue text or None, substring
        # expected in an error)
        ('stats::Scalar a{"Engine.cycles", ""};', [], None,
         "not dotted-lowercase"),
        ('stats::Scalar a{"nodots", ""};', [], None,
         "not dotted-lowercase"),
        ('stats::Scalar a{"telemtry.frames_written", ""};', [], None,
         "unknown top-level group"),
        ('stats::Scalar a{"engine.cycles", ""};\n'
         'stats::Gauge b{"engine.cycles", ""};', [], None,
         "already registered"),
        ('stats::Scalar a{"engine.cycles", ""};',
         ["trace.dropped_events"], None, "not registered anywhere"),
        ('stats::Scalar a{"engine.cycles", ""};\n'
         'stats::Scalar b{"engine.paths", ""};', [],
         "| `engine.cycles` | Scalar | cycles |\n",
         "has no catalogue row"),
        ('stats::Scalar a{"engine.cycles", ""};', [],
         "| `engine.cycles` / `engine.removed` | Scalar | x |\n",
         "which is not registered"),
    ]
    failures = 0
    for i, (text, required, cat, expect) in enumerate(cases):
        rows = None if cat is None else list(
            catalogue_rows("<self-test>", cat))
        errors, _, _ = lint(scan_text("<self-test>", text), required,
                            rows)
        if not any(expect in e for e in errors):
            print(f"self-test case {i}: expected an error matching "
                  f"{expect!r}, got {errors}", file=sys.stderr)
            failures += 1
    # And a clean registration must stay clean; rows of other tables
    # are not catalogue rows.
    errors, _, _ = lint(
        scan_text("<self-test>",
                  'stats::Scalar a{"engine.cycles", ""};'),
        ["engine.cycles"],
        list(catalogue_rows("<self-test>",
                            "| `engine.cycles` | Scalar | cycles |\n"
                            "| `engine` | `run` | span |\n")))
    if errors:
        print(f"self-test clean case: unexpected {errors}",
              file=sys.stderr)
        failures += 1
    print(f"check_stat_names --self-test: "
          f"{len(cases) + 1} cases, {failures} failure(s)")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "roots",
        nargs="*",
        default=DEFAULT_ROOTS,
        help="directories to scan (default: src tools)",
    )
    ap.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless NAME is registered (repeatable); pins "
        "names that external surfaces depend on",
    )
    ap.add_argument(
        "--catalogue",
        metavar="FILE",
        help="check FILE's stat catalogue rows against the "
        "registrations, in both directions",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="exercise the lint's own failure paths and exit",
    )
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    errors = []
    regs = []
    for root in args.roots:
        rootpath = pathlib.Path(root)
        if not rootpath.is_dir():
            errors.append(f"{root}: not a directory")
            continue
        regs.extend(scan(rootpath))
    catalogue = None
    if args.catalogue:
        path = pathlib.Path(args.catalogue)
        catalogue = list(catalogue_rows(
            path, path.read_text(encoding="utf-8")))
    lint_errors, total, unique = lint(regs, args.require, catalogue)
    errors.extend(lint_errors)

    for e in errors:
        print(e, file=sys.stderr)
    print(f"check_stat_names: {total} registrations, "
          f"{unique} unique names, {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
