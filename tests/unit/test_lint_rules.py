"""Unit tests for the property linter (repro.lint).

Every rule code in the registry has a minimal fixture under
``tests/fixtures/lint/`` that demonstrably triggers it; the renderers are
pinned by golden files under ``tests/fixtures/lint/golden/``.
"""

import glob
import json
import os

import pytest

from repro.cli import main
from repro.lint import (
    RULES,
    Diagnostic,
    LintOptions,
    Severity,
    lint_file,
    lint_source,
    render_json,
    render_text,
    resolve_backend_name,
)
from repro.lang.compile import CompileError, compile_ast
from repro.lang.parser import parse

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures", "lint")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def fixture_for(code):
    matches = glob.glob(fixture_path(code + "_*.prop"))
    assert len(matches) == 1, f"expected exactly one fixture for {code}"
    return matches[0]


def lint_fixture(code):
    options = None
    if code == "L102":
        options = LintOptions(focus_backend="OpenFlow 1.3")
    return lint_file(fixture_for(code), options=options)


class TestEveryRuleHasATriggeringFixture:
    """The acceptance bar: each registered rule fires on its fixture."""

    @pytest.mark.parametrize("code", sorted(RULES))
    def test_rule_triggers_on_its_fixture(self, code):
        report = lint_fixture(code)
        codes = {d.code for d in report.all_diagnostics()}
        assert code in codes, (
            f"{os.path.basename(fixture_for(code))} did not trigger {code}; "
            f"got {sorted(codes)}"
        )

    @pytest.mark.parametrize("code", sorted(RULES))
    def test_rule_fires_at_its_registered_severity(self, code):
        report = lint_fixture(code)
        hits = [d for d in report.all_diagnostics() if d.code == code]
        assert hits and all(
            d.severity is RULES[code].severity for d in hits)

    def test_fixture_directory_has_no_strays(self):
        names = {os.path.basename(p).split("_")[0]
                 for p in glob.glob(fixture_path("*.prop"))}
        assert names == set(RULES)


class TestDiagnosticAnchoring:
    def test_positions_point_at_the_offending_token(self):
        report = lint_file(fixture_for("L001"))
        (diag,) = [d for d in report.all_diagnostics() if d.code == "L001"]
        with open(fixture_for("L001")) as fp:
            lines = fp.read().splitlines()
        assert diag.line >= 1
        assert "$X" in lines[diag.line - 1]

    def test_parse_error_carries_the_token_position(self):
        report = lint_source("property broken\nobserve s : zebra\n")
        (diag,) = report.all_diagnostics()
        assert diag.code == "L000"
        assert diag.line == 2

    def test_unregistered_code_is_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="L999", severity=Severity.ERROR, message="nope")


class TestSuppressions:
    SOURCE = """\
property suppressed "the unused bind is intentional"
key D
observe first : arrival
    # lint: disable=L002
    bind D = eth.src, extra = in_port
observe second : egress
    where eth.dst == $D
"""

    def test_line_annotation_silences_next_line(self):
        report = lint_source(self.SOURCE)
        assert not [d for d in report.all_diagnostics() if d.code == "L002"]
        assert report.suppressed == 1

    def test_file_annotation_silences_everywhere(self):
        source = self.SOURCE.replace(
            "# lint: disable=L002", "# just a comment")
        source = "# lint: disable-file=L002\n" + source
        report = lint_source(source)
        assert not [d for d in report.all_diagnostics() if d.code == "L002"]

    def test_without_annotation_the_warning_fires(self):
        source = self.SOURCE.replace("    # lint: disable=L002\n", "")
        report = lint_source(source)
        assert [d for d in report.all_diagnostics() if d.code == "L002"]
        assert report.suppressed == 0


class TestBackendResolution:
    def test_exact_case_insensitive(self):
        assert resolve_backend_name("varanus") == "Varanus"

    def test_unique_prefix(self):
        assert resolve_backend_name("OpenS") == "OpenState"

    def test_ambiguous_prefix_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend_name("Open")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend_name("nonesuch")


class TestRenderGolden:
    """The renderers are pinned: regenerate the goldens deliberately with
    ``python -m tests.regen_lint_goldens`` if the format changes."""

    GOLDEN_SOURCE_FILE = "golden_input.prop"

    def _report(self):
        with open(fixture_path(os.path.join("golden", self.GOLDEN_SOURCE_FILE))) as fp:
            return lint_source(fp.read(), path="golden_input.prop")

    def test_text_rendering_matches_golden(self):
        with open(fixture_path(os.path.join("golden", "report.txt"))) as fp:
            expected = fp.read()
        assert render_text([self._report()]) + "\n" == expected

    def test_json_rendering_matches_golden(self):
        with open(fixture_path(os.path.join("golden", "report.json"))) as fp:
            expected = fp.read()
        assert render_json([self._report()]) + "\n" == expected

    @pytest.mark.parametrize("ext,render", [
        ("txt", render_text), ("json", render_json)])
    def test_unless_scan_rendering_matches_golden(self, ext, render):
        """L015 on the cancel path: an unless nothing keys, on a stage
        whose own advance is indexable."""
        source = "unless_scan_input.prop"
        with open(fixture_path(os.path.join("golden", source))) as fp:
            report = lint_source(fp.read(), path=source)
        (hit,) = [d for d in report.all_diagnostics() if d.code == "L015"]
        assert "an unless of stage 'reply'" in hit.message
        assert "(role: unless)" in hit.message
        with open(fixture_path(
                os.path.join("golden", "unless_scan." + ext))) as fp:
            assert render([report]) + "\n" == fp.read()

    @pytest.mark.parametrize("stem,code,token", [
        ("absent_bind", "L001", "bind Q"),
        ("samepacket_uid", "L014", "samepacket b"),
    ])
    @pytest.mark.parametrize("ext,render", [
        ("txt", render_text), ("json", render_json)])
    def test_unbound_at_run_time_rendering_matches_golden(
            self, stem, code, token, ext, render):
        """An absent stage's binds (L001) and a samepacket naming an
        absent or oob stage (L014) are errors where they are written,
        as the elaborator refuses them."""
        source = stem + "_input.prop"
        with open(fixture_path(os.path.join("golden", source))) as fp:
            text = fp.read()
        report = lint_source(text, path=source)
        hits = [d for d in report.all_diagnostics() if d.code == code]
        lines = text.splitlines()
        assert hits and any(token in lines[d.line - 1] for d in hits)
        for ast in parse(text):
            with pytest.raises(CompileError):
                compile_ast(ast)
        with open(fixture_path(
                os.path.join("golden", stem + "." + ext))) as fp:
            assert render([report]) + "\n" == fp.read()

    def test_json_is_valid_and_summarised(self):
        payload = json.loads(render_json([self._report()]))
        assert payload["summary"]["files"] == 1
        assert payload["files"][0]["path"] == "golden_input.prop"
        for entry in payload["files"][0]["properties"]:
            assert {"name", "elaborated", "diagnostics"} <= set(entry)


class TestCliLint:
    def test_error_fixture_exits_nonzero(self, capsys):
        assert main(["lint", fixture_for("L005")]) == 1
        out = capsys.readouterr().out
        assert "L005" in out and "error" in out

    def test_warning_only_fixture_exits_zero(self, capsys):
        assert main(["lint", fixture_for("L200")]) == 0
        out = capsys.readouterr().out
        assert "L200" in out

    def test_json_flag_emits_json(self, capsys):
        assert main(["lint", "--json", fixture_for("L200")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0

    def test_backend_focus_turns_info_into_error(self, capsys):
        path = fixture_for("L102")
        assert main(["lint", path]) == 0
        capsys.readouterr()
        assert main(["lint", "--backend", "OpenFlow 1.3", path]) == 1
        assert "L102" in capsys.readouterr().out

    def test_unknown_backend_is_a_usage_error(self, capsys):
        assert main(["lint", "--backend", "nonesuch",
                     fixture_for("L200")]) == 2

    def test_missing_file_is_an_error(self, capsys):
        assert main(["lint", "no/such/file.prop"]) == 1
        assert "L000" in capsys.readouterr().out

    def test_check_prints_lint_warnings_with_positions(self, capsys):
        assert main(["check", fixture_for("L002")]) == 0
        err = capsys.readouterr().err
        assert "L002" in err
        # position prefix path:line:col
        assert ":4:" in err or ":5:" in err

    def test_check_fails_on_lint_errors(self, capsys):
        assert main(["check", fixture_for("L005")]) == 1

    def test_check_lints_before_it_compiles(self, capsys):
        """A spec error lint pins to a token is reported at the token,
        not as a bare compile error at the property header."""
        assert main(["check", fixture_for("L001")]) == 1
        err = capsys.readouterr().err
        assert ":5:22: error L001" in err
        assert "ERROR" not in err


def contradiction_findings(source):
    return [(d.code, d.line, d.column, d.message)
            for d in lint_source(source).all_diagnostics()
            if d.code in ("L005", "L006", "L016")]


class TestContradictoryPairs:
    """L005 judges every guard pair on a field, and an unbound-fact
    variable never makes an ``==`` pair contradictory."""

    VAR_AND_LITERAL = """\
property eq_var_and_literal "tcp.dst is both $p and 80"
observe first : arrival
    bind p = tcp.dst
observe second : arrival
    where tcp.dst == $p and tcp.dst == 80
"""

    def test_equal_to_a_variable_and_a_literal_is_satisfiable(
            self, tmp_path, capsys):
        from repro.core import Monitor
        from repro.lang import compile_one
        from repro.packet import tcp_syn
        from repro.switch.events import PacketArrival

        assert contradiction_findings(self.VAR_AND_LITERAL) == []
        path = tmp_path / "eq_var_and_literal.prop"
        path.write_text(self.VAR_AND_LITERAL)
        assert main(["check", str(path)]) == 0
        monitor = Monitor()
        monitor.add_property(compile_one(self.VAR_AND_LITERAL))
        for time in (0.0, 1.0):
            monitor.observe(PacketArrival(
                switch_id="s", time=time, in_port=1,
                packet=tcp_syn(1, 2, "10.0.0.1", "10.0.0.2", 5000, 80)))
        assert [v.bindings for v in monitor.violations] == [{"p": 80}]

    def test_two_literals_conflict_past_a_variable(self):
        (finding,) = contradiction_findings("""\
property three_equalities "5 vs 7001, not $A vs either"
observe first : arrival
    bind A = tcp.src
observe second : arrival
    where tcp.src == $A and tcp.src == 5 and tcp.src == 7001
""")
        assert finding == (
            "L005", 5, 46,
            "stage 'second' can never match: tcp.src cannot equal both 5 "
            "and 7001")

    def test_a_variable_cannot_exceed_itself(self):
        (finding,) = contradiction_findings("""\
property above_itself "ttl is $B and above $B"
observe first : arrival
    bind B = ipv4.ttl
observe second : arrival
    where ipv4.ttl == $B and ipv4.ttl > $B
""")
        assert finding == (
            "L005", 5, 30,
            "stage 'second' can never match: ipv4.ttl == $B and "
            "ipv4.ttl > $B can never both hold")


class TestRuleRegistry:
    def test_codes_are_partitioned_by_family(self):
        for code in RULES:
            number = int(code[1:])
            if number == 0:
                continue
            assert 1 <= number <= 299

    def test_slugs_are_unique(self):
        slugs = [rule.slug for rule in RULES.values()]
        assert len(slugs) == len(set(slugs))

    def test_schema_knows_every_rewritable_field(self):
        from repro.lint.schema import FIELD_SCHEMA
        from repro.switch.rewrite import rewritable_fields

        missing = [f for f in rewritable_fields() if f not in FIELD_SCHEMA]
        assert not missing
