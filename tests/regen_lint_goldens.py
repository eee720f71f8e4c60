"""Regenerate the linter's golden render fixtures.

Run after a deliberate renderer format change::

    PYTHONPATH=src python -m tests.regen_lint_goldens

then eyeball the diff before committing.  ``--check`` regenerates into a
temp directory and diffs against the checked-in fixtures instead of
overwriting them (exit 1 on drift) — CI runs this so the goldens cannot
go stale silently.

Besides the hand-written inputs, the catalog itself is pinned: all
``src/repro/props/sources/*.prop``, linted as ``repro lint`` lints them
(with the catalog's named predicates), as ``catalog.txt`` /
``catalog.json``.  Every field kind, width and trust label the linter
reads shows up there — L008–L010, the L017–L019 bounds, the split-mode
state-bit costs.
"""

import argparse
import difflib
import os
import sys
import tempfile

import repro.props
from repro.lint import lint_source, render_json, render_text
from repro.props import catalog_predicates

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "lint", "golden")
CATALOG = os.path.join(os.path.dirname(repro.props.__file__), "sources")

#: golden input -> the stem its two renderings are written under
INPUTS = {
    "golden_input.prop": "report",
    "unless_scan_input.prop": "unless_scan",
    "absent_bind_input.prop": "absent_bind",
    "samepacket_uid_input.prop": "samepacket_uid",
}


def _lint(directory: str, names, predicates=None) -> list:
    reports = []
    for name in names:
        with open(os.path.join(directory, name)) as fp:
            reports.append(lint_source(fp.read(), predicates, path=name))
    return reports


def generate(out_dir: str) -> list:
    runs = [(stem, _lint(GOLDEN, [source])) for source, stem in INPUTS.items()]
    runs.append(("catalog", _lint(CATALOG, sorted(
        n for n in os.listdir(CATALOG) if n.endswith(".prop")),
        catalog_predicates())))
    outputs = []
    for stem, reports in runs:
        outputs += [
            (stem + ".txt", render_text(reports) + "\n"),
            (stem + ".json", render_json(reports) + "\n"),
        ]
    paths = []
    for name, text in outputs:
        path = os.path.join(out_dir, name)
        with open(path, "w") as fp:
            fp.write(text)
        paths.append(name)
    return paths


def check() -> int:
    drifted = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in generate(tmp):
            with open(os.path.join(GOLDEN, name)) as fp:
                want = fp.readlines()
            with open(os.path.join(tmp, name)) as fp:
                got = fp.readlines()
            if want != got:
                drifted = True
                sys.stdout.writelines(difflib.unified_diff(
                    want, got, fromfile=f"golden/{name}",
                    tofile=f"regenerated/{name}"))
    if drifted:
        print("lint goldens drifted: rerun "
              "PYTHONPATH=src python -m tests.regen_lint_goldens")
        return 1
    print("lint goldens up to date")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="diff regenerated goldens against fixtures instead of writing")
    args = parser.parse_args()
    if args.check:
        raise SystemExit(check())
    for name in generate(GOLDEN):
        print(f"wrote {GOLDEN}/{name}")


if __name__ == "__main__":
    main()
