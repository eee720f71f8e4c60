"""Regenerate the codegen backend's golden matcher sources.

Run after a deliberate change to the source emitted by
``repro.core.codegen``::

    PYTHONPATH=src python -m tests.regen_codegen_goldens

then eyeball the diff before committing — the goldens pin the exact
straight-line program the monitor executes for three representative
catalog properties (and, for one of them, the SPLIT-mode program, which
plans every op instead of refreshing and creating in place), so any
emission change is reviewable as a plain-text diff.  ``--check``
regenerates into a temp directory and diffs against the checked-in
fixtures instead of overwriting them (exit 1 on drift) — CI runs this so
the goldens cannot go stale silently.
"""

import argparse
import difflib
import os
import sys
import tempfile

from repro.core import Monitor
from repro.props import load_property
from repro.switch.switch import ProcessingMode

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "codegen")

#: (property, monitor mode) pairs whose generated programs are pinned.
#: One indexed-probe multi-stage property with an ``unless`` watcher, one
#: deadline (Feature 7 ``within``) property — between them they cover
#: candidate discharge, advance, unless kills, refresh-vs-create, and
#: deadline arming — the first one's SPLIT program, whose refresh and
#: create are planned ops like the rest, and one out-of-band stage with
#: nothing to hash on, whose candidates are its whole stage population.
PINNED = (
    ("knocking-invalidated", ProcessingMode.INLINE),
    ("dhcp-reply-within", ProcessingMode.INLINE),
    ("knocking-invalidated", ProcessingMode.SPLIT),
    ("link-down-clears-learning", ProcessingMode.INLINE),
)


def fixture_name(prop_name: str, mode: ProcessingMode) -> str:
    suffix = "_split" if mode is ProcessingMode.SPLIT else ""
    return prop_name.replace("-", "_") + suffix + ".py.txt"


def generated_source(prop_name: str,
                     mode: ProcessingMode = ProcessingMode.INLINE) -> str:
    monitor = Monitor(mode=mode)
    monitor.add_property(load_property(prop_name))
    return monitor.codegen_source()


def generate(out_dir: str) -> list:
    names = []
    for prop_name, mode in PINNED:
        name = fixture_name(prop_name, mode)
        with open(os.path.join(out_dir, name), "w") as fp:
            fp.write(generated_source(prop_name, mode))
        names.append(name)
    return names


def check() -> int:
    drifted = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in generate(tmp):
            try:
                with open(os.path.join(GOLDEN, name)) as fp:
                    want = fp.readlines()
            except FileNotFoundError:
                want = []
            with open(os.path.join(tmp, name)) as fp:
                got = fp.readlines()
            if want != got:
                drifted = True
                sys.stdout.writelines(difflib.unified_diff(
                    want, got, fromfile=f"codegen/{name}",
                    tofile=f"regenerated/{name}"))
    if drifted:
        print("codegen goldens drifted: rerun "
              "PYTHONPATH=src python -m tests.regen_codegen_goldens")
        return 1
    print("codegen goldens up to date")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="diff regenerated goldens against fixtures instead of writing")
    args = parser.parse_args()
    if args.check:
        raise SystemExit(check())
    os.makedirs(GOLDEN, exist_ok=True)
    for name in generate(GOLDEN):
        print(f"wrote {os.path.join(GOLDEN, name)}")


if __name__ == "__main__":
    main()
