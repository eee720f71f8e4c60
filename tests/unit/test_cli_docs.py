"""docs/CLI.md is locked to the real argparse surface.

Walks ``repro.cli.build_parser()``: every subcommand and every option
string must appear verbatim in docs/CLI.md, and every ``repro <word>``
heading in the doc must name a real subcommand — so the reference can
neither lag behind the CLI nor document things that do not exist.
"""

import argparse
import os
import re

import pytest

from repro.cli import build_parser

DOC = os.path.join(os.path.dirname(__file__), "..", "..", "docs", "CLI.md")


def doc_text():
    with open(DOC, encoding="utf-8") as fp:
        return fp.read()


def subcommand_parsers():
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("no subparsers on the repro parser")


class TestCliDocs:
    def test_every_subcommand_has_a_section(self):
        text = doc_text()
        for name in subcommand_parsers():
            assert f"## `repro {name}" in text, (
                f"subcommand {name!r} has no '## `repro {name} ...`' "
                f"section in docs/CLI.md")

    def test_every_flag_is_documented(self):
        text = doc_text()
        missing = []
        for name, sub in subcommand_parsers().items():
            for action in sub._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                for opt in action.option_strings:
                    if len(opt) > 2 and opt not in text:
                        missing.append(f"{name} {opt}")
        assert not missing, (
            "flags present in the CLI but absent from docs/CLI.md: "
            + ", ".join(missing))

    def test_every_positional_is_documented(self):
        text = doc_text()
        missing = []
        for name, sub in subcommand_parsers().items():
            for action in sub._actions:
                if action.option_strings:
                    continue
                token = action.metavar or action.dest
                if token.upper() not in text.upper():
                    missing.append(f"{name} {token}")
        assert not missing, missing

    def test_doc_names_no_phantom_subcommands(self):
        known = set(subcommand_parsers())
        for match in re.finditer(r"^## `repro (\w+)", doc_text(), re.M):
            assert match.group(1) in known, (
                f"docs/CLI.md documents 'repro {match.group(1)}', which "
                f"the parser does not define")

    def test_doc_names_no_phantom_flags(self):
        known = set()
        for sub in subcommand_parsers().values():
            for action in sub._actions:
                known.update(action.option_strings)
        for match in re.finditer(r"`(--[a-z][a-z-]*)", doc_text()):
            assert match.group(1) in known, (
                f"docs/CLI.md mentions {match.group(1)!r}, which no "
                f"subcommand defines")

    def test_chaos_profiles_listed_match_the_registry(self):
        from repro.faults.profiles import PROFILES

        section = doc_text().split("## `repro chaos")[1]
        for profile in PROFILES:
            assert f"`{profile}`" in section, profile

    def test_parser_help_renders(self):
        # The doc is prose; the parser's own --help must still work.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
