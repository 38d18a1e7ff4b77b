import contextlib
import errno
import io
import os
import re
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import FIXTURES, CountingRegistry, P, fixture_bytes
from treegen import branching_xml_tree_with_rules, rules_text

from lexitree.cli import _build_parser, main, parse_path
from lexitree.model import (
    Node,
    UnexpandedAlternatives,
    check_consistency,
    effective_set,
    enumerate_traversals,
    format_value,
    iter_nodes,
    partial_traversals,
)
from lexitree.rules import default_registry, default_rules_text
from lexitree.transform import TableSpec, expand_alternatives, extract_table, materialize_inheritance
from lexitree.rules import parse_rules
from lexitree.xmlio import ParseDiagnostic, parse_entry, serialize_entry


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# paths


def test_parse_path():
    assert parse_path("") == ()
    assert parse_path("0.1.2") == (0, 1, 2)
    with pytest.raises(ValueError):
        parse_path("0.x")
    for text in ("-1", "1_0", "+0", " 0", "\u0660"):  # int() takes each; U+0660 is Arabic-Indic zero
        with pytest.raises(ValueError, match="bad path"):
            parse_path(text)


# ---------------------------------------------------------------------------
# validate


def test_validate_gendarme_ok(capsys):
    code, out, err = run(capsys, "validate", FIXTURES / "gendarme.xml")
    assert (code, out, err) == (0, "OK\n", "")


def test_validate_reports_overwrite_conflict(capsys):
    code, out, err = run(capsys, "validate", FIXTURES / "double_orth.xml")
    assert code == 1
    assert out == ""
    assert "appears twice" in err and "'orth'" in err


def test_validate_reports_dependency_violation(capsys):
    code, out, err = run(capsys, "validate", FIXTURES / "dep_violation.xml")
    assert code == 1
    assert "'gen'" in err and "'pos'" in err


def test_validate_pins_each_stray_text_warning(capsys):
    code, out, err = run(capsys, "validate", FIXTURES / "stray_text.xml")
    assert (code, out) == (0, "OK\n")
    assert err == "".join(
        f"{FIXTURES / 'stray_text.xml'}: warning: line {line}, column {column}: "
        "stray text inside a structural element; ignored\n"
        for line, column in [(4, 26), (7, 23), (15, 18), (19, 40)]
    )


def test_a_required_value_may_end_in_a_no_break_space(capsys, tmp_path):
    rules = tmp_path / "nbsp.rules"
    rules.write_text("class orth over\nclass pos over\nclass gen over\ndep gen pos noun\u00a0\n", encoding="utf-8")
    doc = tmp_path / "nbsp.xml"
    doc.write_text("<struc><orth>x</orth><pos>noun\u00a0</pos><gen>f</gen></struc>", encoding="utf-8")
    assert run(capsys, "validate", doc, "--rules", rules) == (0, "OK\n", "")
    doc.write_text("<struc><orth>x</orth><pos>noun</pos><gen>f</gen></struc>", encoding="utf-8")
    code, out, err = run(capsys, "validate", doc, "--rules", rules)
    assert (code, out) == (1, "")
    assert err == "(root): feature 'gen' requires 'pos'='noun\\xa0' but the effective value is 'noun'\n"


@pytest.mark.parametrize("space", ["  ", "\t"])
def test_a_required_value_with_a_run_of_spaces_or_a_tab_matches_the_parsed_value(capsys, tmp_path, space):
    # the rule's value is held as the parser reads the governor's text, one space between the words
    rules = tmp_path / "proper.rules"
    rules.write_text(f"class orth over\nclass pos over\nclass gen over\nclass def cum\ndep gen pos proper{space}noun\n",
                     encoding="utf-8")
    doc = tmp_path / "proper.xml"
    doc.write_text("<struc><orth>x</orth><pos>proper  noun</pos><struc><gen>m</gen></struc></struc>", encoding="utf-8")
    assert run(capsys, "validate", doc, "--rules", rules) == (0, "OK\n", "")
    inherited = "<struc><orth>x</orth><gen>m</gen><struc><pos>proper noun</pos><struc><def>d</def></struc></struc></struc>"
    doc.write_text(inherited, encoding="utf-8")
    code, out, err = run(capsys, "effective", doc, "--path", "0.0", "--rules", rules)
    assert (code, err) == (0, "") and "gen : m" in out, out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", FIXTURES / "no_such.xml")
    assert code == 2
    assert err


def test_validate_malformed_xml(capsys, tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_bytes(b"<struc><orth>x</struc>")
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert "line" in err


# ---------------------------------------------------------------------------
# effective


GENDARME_LEAF_LISTING = """\
pron : ...
pos : noun
gen : mas
etym : 1790
time : modern
def : Militaire appartenant à un corps ...
orth : le gendarme
def : symbole de la force publique, de l'ordre.
ex : La peur du gendarme
"""


def test_effective_at_gendarme_leaf(capsys):
    code, out, err = run(capsys, "effective", FIXTURES / "gendarme.xml", "--path", "0.0.0")
    assert (code, err) == (0, "")
    assert out == GENDARME_LEAF_LISTING


def test_effective_renders_composites_bracketed(capsys):
    code, out, _ = run(capsys, "effective", FIXTURES / "gendarme.xml", "--path", "0.0")
    assert code == 0
    assert "brack : [ex : Brigade de gendarmes, xr : brigadier]" in out


def test_effective_defaults_to_root(capsys):
    code, out, _ = run(capsys, "effective", FIXTURES / "leaf.xml")
    assert (code, out) == (0, "orth : mono\n")


def test_effective_bad_path_is_semantic_failure(capsys):
    code, _, err = run(capsys, "effective", FIXTURES / "leaf.xml", "--path", "5")
    assert code == 1 and "invalid" in err
    code, _, err = run(capsys, "effective", FIXTURES / "leaf.xml", "--path", "a.b")
    assert code == 1 and "bad path" in err
    code, out, err = run(capsys, "effective", FIXTURES / "gendarme.xml", "--path", "1_0")
    assert (code, out) == (1, "") and "bad path '1_0'" in err


# ---------------------------------------------------------------------------
# traversals


def test_traversals_full_overdress(capsys):
    code, out, err = run(capsys, "traversals", FIXTURES / "overdress.xml", "--full")
    assert (code, err) == (0, "")
    assert out == (
        "0\n"
        "orth : overdress\n"
        "pos : verb\n"
        "pron : pron1\n"
        "def : To dress (oneself or another) too elaborately or finely\n"
        "\n"
        "1\n"
        "orth : overdress\n"
        "pos : noun\n"
        "pron : pron2\n"
        "def : A dress that may be worn over a jumper, blouse, etc.\n"
    )


def test_traversals_single_leaf(capsys):
    code, out, _ = run(capsys, "traversals", FIXTURES / "leaf.xml")
    assert code == 0
    assert out == "\north : mono\n"


def test_traversals_partial_counts_nodes(capsys):
    code, out, _ = run(capsys, "traversals", FIXTURES / "overdress.xml", "--partial")
    assert code == 0
    assert out.count("orth : overdress") == 3


def test_traversals_hint_on_unexpanded_alternatives(capsys):
    code, out, err = run(capsys, "traversals", FIXTURES / "pinna.xml", "--full")
    assert code == 1
    assert out == ""
    assert "expand" in err


def test_traversals_failing_partway_leaves_stdout_empty(capsys, tmp_path):
    # The third node in document order doubles pos; the first two are listable.
    doc = tmp_path / "doubled.xml"
    doc.write_text(
        "<struc><orth>a</orth><struc><pos>noun</pos></struc>"
        "<struc><pos>noun</pos><pos>verb</pos></struc></struc>",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "traversals", doc, "--partial")
    assert (code, out) == (1, "")
    assert "overwriting feature 'pos'" in err


def test_alternatives_are_reported_before_a_doubled_feature(capsys, tmp_path):
    # Node 0 doubles pos, node 1 carries alternatives: the operations that need
    # an expanded tree refuse the alternatives before folding anything, and
    # validate, which takes any tree, reports the doubled feature.
    doc = tmp_path / "both.xml"
    doc.write_text(
        "<struc><orth>a</orth><struc><pos>noun</pos><pos>verb</pos></struc>"
        "<struc><alt><pos>noun</pos></alt><alt><pos>verb</pos></alt></struc></struc>",
        encoding="utf-8",
    )
    for argv in (["table", doc, "--cols", "pos"], ["traversals", doc, "--full"], ["traversals", doc, "--partial"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "lexitree: node 1 still carries alternatives; expand them first (run: lexitree expand)\n"
    tree, _ = parse_entry(doc.read_bytes())
    registry = default_registry()
    for operation in (
        lambda: extract_table(tree, TableSpec(["pos"]), registry),
        lambda: materialize_inheritance(tree, registry),
        lambda: enumerate_traversals(tree),
        lambda: partial_traversals(tree),
    ):
        with pytest.raises(UnexpandedAlternatives) as caught:
            operation()
        assert caught.value.path == (1,)
    code, out, err = run(capsys, "validate", doc)
    assert (code, out) == (1, "")
    assert err == "0: overwriting feature 'pos' appears twice ('noun' vs 'verb')\n"


def test_alternatives_are_refused_before_any_node_is_folded(capsys, monkeypatch, tmp_path):
    # A 1,200-level chain with an alternative group at its deepest node only.
    depth = 1200
    doc = tmp_path / "deep_alt.xml"
    doc.write_text(
        "".join(f"<struc><def>d{i}</def>" for i in range(depth))
        + "<alt><pos>noun</pos></alt><alt><pos>verb</pos></alt>" + "</struc>" * depth,
        encoding="utf-8",
    )
    tree, _ = parse_entry(doc.read_bytes())
    for operation in (
        lambda registry: extract_table(tree, TableSpec(["def"]), registry),
        lambda registry: materialize_inheritance(tree, registry),
    ):
        registry = CountingRegistry(default_registry())
        with pytest.raises(UnexpandedAlternatives) as caught:
            operation(registry)
        assert caught.value.path == (0,) * (depth - 1)
        assert registry.calls == 0
    registry = CountingRegistry(default_registry())
    monkeypatch.setattr("lexitree.cli._load_registry", lambda _: registry)
    for which in ("--full", "--partial"):
        code, out, err = run(capsys, "traversals", doc, which)
        assert (code, out) == (1, "")
        assert err.endswith("still carries alternatives; expand them first (run: lexitree expand)\n")
    assert registry.calls == 0


def test_traversals_after_expansion_one_block_per_leaf(capsys, tmp_path):
    code, expanded, _ = run(capsys, "expand", FIXTURES / "pinna.xml")
    assert code == 0
    doc = tmp_path / "pinna_expanded.xml"
    doc.write_text(expanded, encoding="utf-8")
    code, out, _ = run(capsys, "traversals", doc, "--full")
    assert code == 0
    blocks = out.rstrip("\n").split("\n\n")
    assert len(blocks) == 2  # one per expanded alternative leaf
    assert blocks[0].startswith("0\n") and "plural : pinnae" in blocks[0]
    assert blocks[1].startswith("1\n") and "plural : pinnas" in blocks[1]


# ---------------------------------------------------------------------------
# expand / materialize


def test_expand_pinna_removes_alternatives(capsys):
    code, out, err = run(capsys, "expand", FIXTURES / "pinna.xml")
    assert (code, err) == (0, "")
    assert "<alt>" not in out
    tree, _ = parse_entry(fixture_bytes("pinna.xml"))
    assert out.encode() == serialize_entry(expand_alternatives(tree))


def test_expand_alt_free_is_canonical_reserialization(capsys):
    code, out, _ = run(capsys, "expand", FIXTURES / "overdress.xml")
    assert code == 0
    assert out.encode() == fixture_bytes("overdress.xml")


def test_expand_two_groups_gives_six_siblings(capsys):
    code, out, _ = run(capsys, "expand", FIXTURES / "two_alt_groups.xml")
    assert code == 0
    expanded, _ = parse_entry(out.encode())
    assert len(expanded.children) == 6


def unregistered_warnings(doc, *features):
    return "".join(f"{doc}: warning: feature '{f}' is not registered; treating it as loc\n" for f in features)


def test_materialize_overdress_matches_spelled_out_document(capsys):
    overdress = FIXTURES / "overdress.xml"
    code, out, err = run(capsys, "materialize", overdress, "--rules", FIXTURES / "orth_over.rules")
    assert (code, err) == (0, unregistered_warnings(overdress, "pos", "pron", "def"))
    produced, _ = parse_entry(out.encode())
    expected, _ = parse_entry(fixture_bytes("overdress_materialized.xml"))
    assert produced == expected


def test_materialize_leaf_unchanged(capsys):
    code, out, _ = run(capsys, "materialize", FIXTURES / "leaf.xml")
    assert code == 0
    assert out.encode() == fixture_bytes("leaf.xml")


def test_materialize_gendarme_agrees_with_library(capsys):
    code, out, _ = run(capsys, "materialize", FIXTURES / "gendarme.xml")
    assert code == 0
    tree, _ = parse_entry(fixture_bytes("gendarme.xml"))
    assert out.encode() == serialize_entry(materialize_inheritance(tree, parse_rules(default_rules_text())))


# ---------------------------------------------------------------------------
# table


def test_table_html_reproduces_published_rows(capsys):
    code, out, err = run(
        capsys, "table", FIXTURES / "overdress.xml", "--cols", "orth,pos,def", "--format", "html"
    )
    assert (code, err) == (0, "")
    assert out == (
        "<table>\n"
        "  <tr>\n"
        "    <th>orth</th>\n"
        "    <th>pos</th>\n"
        "    <th>def</th>\n"
        "  </tr>\n"
        "  <tr>\n"
        "    <td>overdress</td>\n"
        "    <td>verb</td>\n"
        "    <td>To dress (oneself or another) too elaborately or finely</td>\n"
        "  </tr>\n"
        "  <tr>\n"
        "    <td>overdress</td>\n"
        "    <td>noun</td>\n"
        "    <td>A dress that may be worn over a jumper, blouse, etc.</td>\n"
        "  </tr>\n"
        "</table>\n"
    )


def test_table_tsv_leaf(capsys):
    code, out, _ = run(capsys, "table", FIXTURES / "leaf.xml", "--cols", "orth", "--format", "tsv")
    assert code == 0
    assert out == "orth\nmono\n"


def test_table_joins_cumulative_values(capsys):
    code, out, _ = run(capsys, "table", FIXTURES / "gendarme.xml", "--cols", "orth,def")
    assert code == 0
    assert out == (
        "orth\tdef\n"
        "le gendarme\tMilitaire appartenant à un corps ...; "
        "symbole de la force publique, de l'ordre.\n"
    )


def test_table_empty_cols_rejected(capsys):
    code, _, err = run(capsys, "table", FIXTURES / "leaf.xml", "--cols", " , ")
    assert code == 1
    assert "--cols" in err


def test_table_rejects_unexpanded_alternatives(capsys):
    code, _, err = run(capsys, "table", FIXTURES / "pinna.xml", "--cols", "orth")
    assert code == 1
    assert "expand" in err


# ---------------------------------------------------------------------------
# rules resolution and diagnostics routing


def test_explicit_rules_override_default(capsys, tmp_path):
    rules = tmp_path / "local.rules"
    rules.write_text("class orth loc\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "effective", FIXTURES / "overdress.xml", "--path", "0", "--rules", rules
    )
    assert code == 0
    assert "orth" not in out  # orth declared local stays at the root


def test_env_rules_used_and_overridden(capsys, tmp_path, monkeypatch):
    env_rules = tmp_path / "env.rules"
    env_rules.write_text("class orth loc\n", encoding="utf-8")
    monkeypatch.setenv("LEXITREE_RULES", str(env_rules))
    code, out, _ = run(capsys, "effective", FIXTURES / "overdress.xml", "--path", "0")
    assert code == 0 and "orth" not in out

    explicit = tmp_path / "explicit.rules"
    explicit.write_text("class orth over\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "effective", FIXTURES / "overdress.xml", "--path", "0", "--rules", explicit
    )
    assert code == 0 and "orth : overdress" in out


def test_default_rules_file_equivalent_to_no_rules(capsys, tmp_path):
    copy = tmp_path / "default.rules"
    copy.write_text(default_rules_text(), encoding="utf-8")
    _, with_default, _ = run(capsys, "effective", FIXTURES / "gendarme.xml", "--path", "0.0.0")
    _, with_copy, _ = run(
        capsys, "effective", FIXTURES / "gendarme.xml", "--path", "0.0.0", "--rules", copy
    )
    assert with_default == with_copy


def test_bad_rules_file_is_semantic_failure(capsys, tmp_path):
    rules = tmp_path / "broken.rules"
    rules.write_text("nonsense directive\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", FIXTURES / "leaf.xml", "--rules", rules)
    assert code == 1
    assert "broken.rules" in err


@pytest.mark.parametrize("via_env", [False, True])
def test_missing_rules_file_is_bad_argument(capsys, monkeypatch, tmp_path, via_env):
    missing = tmp_path / "missing.rules"
    if via_env:
        monkeypatch.setenv("LEXITREE_RULES", str(missing))
        code, out, err = run(capsys, "validate", FIXTURES / "leaf.xml")
    else:
        code, out, err = run(capsys, "validate", FIXTURES / "leaf.xml", "--rules", missing)
    assert (code, out) == (1, "")
    assert err.startswith("lexitree: ") and "missing.rules" in err
    assert "Traceback" not in err
    if via_env:  # expand takes no rules, so it never reads LEXITREE_RULES
        assert run(capsys, "expand", FIXTURES / "leaf.xml")[::2] == (0, "")


@pytest.mark.parametrize("via_env", [False, True])
@pytest.mark.parametrize("data, line", [(b"\xffclass orth over\n", 1), (b"\xef\xbb\xbf# a\r\n\n# caf\xe9\n", 3)])
def test_a_rules_file_that_is_not_utf8_is_named_at_the_line_of_its_first_bad_byte(
        capsys, monkeypatch, tmp_path, via_env, data, line):
    rules = tmp_path / "bad.rules"
    rules.write_bytes(data)
    if via_env:
        monkeypatch.setenv("LEXITREE_RULES", str(rules))
        code, out, err = run(capsys, "validate", FIXTURES / "leaf.xml")
    else:
        code, out, err = run(capsys, "validate", FIXTURES / "leaf.xml", "--rules", rules)
    assert (code, out) == (1, "")
    assert err.startswith(f"lexitree: {rules}:{line}: not UTF-8 (") and err.count("\n") == 1


NO_SUCH = "lexitree: [Errno 2] No such file or directory: '{}'"


@pytest.mark.parametrize(
    "argv, code, first_line",
    [
        *(([command, "--rules", "{rules}", *extra], 1, NO_SUCH.format("{rules}"))  # the rules are read first
          for command, extra in [("validate", []), ("effective", []), ("traversals", []),
                                 ("materialize", []), ("table", ["--cols", "orth"])]),
        (["table", "--cols", " , "], 1, "lexitree: --cols must name at least one feature"),  # before the read
        (["table", "--cols", "Bad Name"], 1, "lexitree: invalid feature name 'Bad Name'"),
        (["effective", "--path", "x"], 2, NO_SUCH.format("{input}")),  # the read comes before the path
    ],
)
def test_checks_run_in_order_on_a_missing_input(capsys, tmp_path, argv, code, first_line):
    names = {"input": tmp_path / "no_such.xml", "rules": tmp_path / "missing.rules"}
    command, *rest = [a.format(**names) for a in argv]
    got, out, err = run(capsys, command, names["input"], *rest)
    assert (got, out, err.splitlines()[0]) == (code, "", first_line.format(**names))


def test_parse_warnings_go_to_stderr_payload_to_stdout(capsys, tmp_path):
    doc = tmp_path / "extra.xml"
    doc.write_bytes(b"<struc><orth>x</orth><sensenum>1</sensenum></struc>")
    code, out, err = run(capsys, "effective", doc, "--path", "")
    assert code == 0
    assert "warning" in err and "sensenum" in err
    assert "warning" not in out


def test_bad_usage_is_exit_one(capsys):
    code, _, err = run(capsys, "table", FIXTURES / "leaf.xml")  # --cols missing
    assert code == 1 and err
    code, _, err = run(capsys, "frobnicate", FIXTURES / "leaf.xml")
    assert code == 1 and err


@pytest.mark.parametrize("command", ["expand", "materialize"])
def test_expansion_above_the_bound_is_refused(capsys, tmp_path, command):
    # 18 nested two-way groups: 1.2 KB that would expand to 524,287 nodes.
    levels = "".join(f"<struc><alt><orth>a{i}</orth></alt><alt><orth>b{i}</orth></alt>" for i in range(18))
    doc = tmp_path / "nested.xml"
    doc.write_text(levels + "</struc>" * 18, encoding="utf-8")
    code, out, err = run(capsys, command, doc)
    assert (code, out) == (1, "")
    assert err.startswith("lexitree: the expansion would have at least ")


@pytest.mark.parametrize("command", ["expand", "materialize"])
def test_a_kept_unknown_element_is_written_and_reads_back_with_its_warning(capsys, tmp_path, command):
    # The lenient parser keeps <sensenum> and <foo>, one in a brack, as features, so the writer writes
    # them: no parsed document reaches a writer refusal.
    kept = ["unknown element <sensenum> kept as a feature", "unknown element <foo> kept as a feature"]
    source = FIXTURES / "kept_unknown.xml"
    code, out, err = run(capsys, command, source)
    assert code == 0 and re.findall("unknown element .*", err) == kept
    tree, _ = parse_entry(source.read_bytes())
    if command == "materialize":
        tree = materialize_inheritance(tree, default_registry())
    doc = tmp_path / f"{command}.xml"
    doc.write_text(out, encoding="utf-8")
    assert parse_entry(doc.read_bytes()) == (tree, [ParseDiagnostic("warning", 5, 5, kept[0]),
                                                  ParseDiagnostic("warning", 7, 7, kept[1])])
    code, out, err = run(capsys, "validate", doc)
    assert (code, out) == (0, "OK\n") and re.findall("unknown element .*", err) == kept


# 1,000 leaves after the root: a listing or table of them takes several writes
MANY_LEAVES = "<struc><orth>x</orth>" + "".join(f"<struc><def>{'d' * 80}{i}</def></struc>" for i in range(1000))


class CountingStdout(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv", [["traversals", "--full"], ["traversals", "--partial"], ["table", "--cols", "orth,def"]])
def test_a_conflict_after_several_chunks_of_listing_leaves_stdout_empty(capsys, tmp_path, argv):
    command, *options = argv
    valid, doubled = tmp_path / "valid.xml", tmp_path / "doubled.xml"
    valid.write_text(MANY_LEAVES + "</struc>", encoding="utf-8")
    doubled.write_text(MANY_LEAVES + "<struc><pos>noun</pos><pos>verb</pos></struc></struc>", encoding="utf-8")
    stdout = CountingStdout()
    with contextlib.redirect_stdout(stdout):
        assert main([command, str(valid), *options]) == 0
    assert stdout.writes > 1
    code, out, err = run(capsys, command, doubled, *options)
    assert (code, out) == (1, "")
    assert err == "lexitree: overwriting feature 'pos' already set at this node ('noun' vs 'verb')\n"


def subprocess_env(**extra: str) -> dict[str, str]:
    """The environment of a `python -m lexitree` run on this checkout's source, with the shipped rules."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in ("LEXITREE_RULES", "PYTHONUNBUFFERED")}
    env.update(PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])), **extra)
    return env


@pytest.mark.parametrize(("invocation", "positions"), [
    (["traversals"], (21, 18)), (["traversals", "--partial"], (21, 18)),
    (["table", "--cols", "orth,pron"], (2, 2)), (["table", "--cols", "orth,pron", "--format", "html"], (30, 30)),
], ids=["traversals", "traversals-partial", "table", "table-html"])
def test_a_value_stdout_cannot_encode_leaves_stdout_empty(tmp_path, invocation, positions):
    # The value is in the last leaf, after several writes' worth of output that latin-1 carries, or in the
    # first. The error's position is counted within the value's block or table line.
    env = subprocess_env(PYTHONIOENCODING="latin-1")
    command, *options = invocation
    doc = tmp_path / "entry.xml"
    argv = [command, str(doc), *options]
    for leaf, position in zip(("last", "first"), positions):
        for value, carried in (("é", True), ("ʒ", False)):
            pron = f"<struc><pron>{value}</pron></struc>"
            text = MANY_LEAVES + pron if leaf == "last" else MANY_LEAVES.replace("</orth>", "</orth>" + pron, 1)
            doc.write_text(text + "</struc>", encoding="utf-8")
            proc = subprocess.run([sys.executable, "-m", "lexitree", *argv], capture_output=True, env=env)
            if carried:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(argv) == 0
                assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.getvalue().encode("latin-1"), b"")
            else:
                assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (1, b"", (
                    f"lexitree: 'latin-1' codec can't encode character '\\u0292' in position {position}: "
                    "ordinal not in range(256)\n")), leaf


class RecordingSink(io.RawIOBase):
    """A raw stream that keeps each write it is handed."""

    def __init__(self):
        super().__init__()
        self.writes: list[bytes] = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


# a root with 20 cumulative defs over 2,000 leaves: each listing is about a megabyte
WIDE = ("<struc><orth>x</orth>" + "".join(f"<def>{'d' * 16}{j}</def>" for j in range(20))
        + "".join(f"<struc><orth>leaf {i}</orth></struc>" for i in range(2000)) + "</struc>")


@pytest.mark.parametrize("argv", [
    ["traversals"], ["traversals", "--partial"], ["table", "--cols", "orth,def"], ["expand"], ["materialize"],
], ids=["traversals", "traversals-partial", "table", "expand", "materialize"])
def test_stdouts_buffer_writes_each_command_in_pieces(capsys, tmp_path, argv):
    # stdout as a process has it: text over an 8 KB buffer over the descriptor
    doc = tmp_path / "wide.xml"
    doc.write_text(WIDE, encoding="utf-8")
    command, *options = argv
    sink = RecordingSink()
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8", newline="\n")):
        assert main([command, str(doc), *options]) == 0
    output = b"".join(sink.writes)
    assert run(capsys, command, doc, *options) == (0, output.decode("utf-8"), "")
    assert max(map(len, sink.writes)) <= len(output) / 4


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_one_with_stderr_empty(tmp_path, unbuffered):
    # As `lexitree ... | head` leaves it: no traceback, and no "Exception ignored" at interpreter exit.
    env = subprocess_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    lexitree = [sys.executable, "-m", "lexitree"]
    for command in ("validate", "effective"):
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the command starts
        try:
            proc = subprocess.run([*lexitree, command, str(FIXTURES / "gendarme.xml")],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b""), command
    # more than a pipe holds (each command writes at least 1 MB), so the reader closes it mid-output
    doc = tmp_path / "big.xml"
    doc.write_text("<struc><orth>x</orth>" + "".join(f"<struc><def>{'d' * 250}{i}</def></struc>" for i in range(5000))
                   + "</struc>", encoding="utf-8")
    for argv in (["traversals"], ["expand"], ["materialize"], ["table", "--cols", "def"]):
        command, *options = argv
        with subprocess.Popen([*lexitree, command, str(doc), *options],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert len(proc.stdout.read(3)) == 3
            proc.stdout.close()
            assert (proc.stderr.read(), proc.wait()) == (b"", 1), argv


EVERY_COMMAND = [["validate"], ["effective"], ["traversals"], ["expand"], ["materialize"], ["table", "--cols", "orth,pos"]]


@pytest.mark.skipif(os.name != "posix", reason="closes stdout with a POSIX shell's >&-")
def test_a_command_started_with_stdout_closed_exits_one_with_stderr_empty():
    # Python then sets sys.stdout to None: the output has nowhere to go, as with a pipe closed before the start.
    for command, *options in EVERY_COMMAND:
        argv = [sys.executable, "-m", "lexitree", command, str(FIXTURES / "gendarme.xml"), *options]
        proc = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *argv], capture_output=True, env=subprocess_env())
        assert (proc.returncode, proc.stderr) == (1, b""), command


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device that refuses every write")
def test_a_full_stdout_exits_one_naming_the_error():
    for command, *options in EVERY_COMMAND:
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "lexitree", command, str(FIXTURES / "gendarme.xml"), *options],
                                  stdout=full, stderr=subprocess.PIPE, env=subprocess_env())
        assert (proc.returncode, proc.stderr.decode()) == (
            1, f"lexitree: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"), command


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count open descriptors")
def test_a_closed_stdout_leaks_no_descriptor_in_process():
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stdout, contextlib.redirect_stdout(stdout):
            assert main(["expand", str(FIXTURES / "gendarme.xml")]) == 1
    assert len(os.listdir("/proc/self/fd")) == before


def test_deep_chain_runs_every_tree_walk(capsys, tmp_path):
    # Deeper than the interpreter's recursion limit. Odd levels set gen under
    # pos=noun; even levels turn pos to verb, which blocks the inherited gen.
    depth = 1200
    levels = "".join(
        f"<struc><pos>noun</pos><gen>m</gen><ex>e{i}</ex>" if i % 2 else f"<struc><pos>verb</pos><ex>e{i}</ex>"
        for i in range(depth)
    )
    doc = tmp_path / "deep.xml"
    doc.write_text(f"<struc><orth>deep</orth><def>d</def>{levels}{'</struc>' * (depth + 1)}", encoding="utf-8")
    tree, _ = parse_entry(doc.read_bytes())
    chain = []
    for i in reversed(range(depth)):
        props = [P("pos", "noun"), P("gen", "m")] if i % 2 else [P("pos", "verb")]
        chain = [Node(props + [P("ex", f"e{i}")], children=chain)]
    expected = Node([P("orth", "deep"), P("def", "d")], children=chain)
    assert tree == expected
    registry = default_registry()
    assert check_consistency(tree, registry) == []
    leaf = materialize_inheritance(tree, registry)
    for _ in range(depth):
        (leaf,) = leaf.children
    assert [str(p.feature) for p in leaf.properties] == ["orth", "def", "pos", "gen", "ex"]
    assert extract_table(tree, TableSpec(["orth", "pos", "gen"]), registry) == [("deep", "noun", "m")]

    def pad(level):  # lines are indented by their depth, up to 64 levels
        return "  " * min(level, 64)

    lines = ['<?xml version="1.0" encoding="utf-8"?>', "<dict>", "  <struc>", "    <orth>deep</orth>", "    <def>d</def>"]
    for i in range(depth):
        lines.append(f"{pad(i + 2)}<struc>")
        inner = ["<pos>noun</pos>", "<gen>m</gen>"] if i % 2 else ["<pos>verb</pos>"]
        lines += [f"{pad(i + 3)}{element}" for element in [*inner, f"<ex>e{i}</ex>"]]
    lines += [f"{pad(level)}</struc>" for level in range(depth + 1, 0, -1)] + ["</dict>"]
    canonical = "\n".join(lines) + "\n"
    assert serialize_entry(tree) == canonical.encode()
    assert expand_alternatives(tree) == tree
    code, out, _ = run(capsys, "validate", doc)
    assert (code, out) == (0, "OK\n")
    code, out, _ = run(capsys, "traversals", doc, "--full")
    assert code == 0
    assert out.splitlines()[1:] == ["orth : deep", "def : d", "pos : noun", "gen : m", "ex : e1199"]
    code, out, _ = run(capsys, "expand", doc)
    assert (code, out) == (0, canonical)
    code, out, _ = run(capsys, "materialize", doc)
    assert code == 0
    assert out.encode() == serialize_entry(materialize_inheritance(tree, registry))
    assert parse_entry(out.encode())[0] == materialize_inheritance(tree, registry)
    deepest = pad(depth + 2)
    assert out.splitlines()[-depth - 7 : -depth - 2] == [  # the deepest node, before its closing tags
        f"{deepest}<orth>deep</orth>", f"{deepest}<def>d</def>", f"{deepest}<pos>noun</pos>", f"{deepest}<gen>m</gen>",
        f"{deepest}<ex>e1199</ex>",
    ]
    # the same chain with an alternative group at its deepest node, which the walks that need none refuse
    alternatives = tmp_path / "deep_alt.xml"
    alternatives.write_text(
        f"<struc><orth>deep</orth><def>d</def>{levels}<alt><def>a</def></alt><alt><def>b</def></alt>"
        f"{'</struc>' * (depth + 1)}", encoding="utf-8",
    )
    refusal = f"lexitree: node {'.'.join(['0'] * depth)} still carries alternatives; expand them first"
    for argv in (["traversals"], ["traversals", "--partial"], ["table", "--cols", "def"]):
        code, out, err = run(capsys, argv[0], alternatives, *argv[1:])
        assert (code, out, err) == (1, "", f"{refusal} (run: lexitree expand)\n"), argv


def test_repeated_main_calls_leak_no_state(capsys, monkeypatch, tmp_path):
    """Each `main` call in one process prints what the same argv prints run
    alone with `python -m lexitree`, whatever calls came before it."""
    local = tmp_path / "local.rules"
    local.write_text(default_rules_text().replace("class orth over", "class orth loc"), encoding="utf-8")
    overdress = str(FIXTURES / "overdress.xml")
    effective = ["effective", overdress, "--path", "0"]
    orth_only = ["materialize", overdress, "--rules", str(FIXTURES / "orth_over.rules")]  # warns of pos, pron, def
    calls = [  # (argv, LEXITREE_RULES), in order
        (orth_only, None),
        (["table", overdress, "--cols", "orth", "--format", "html"], None),
        (["table", overdress, "--cols", "orth"], None),
        (["traversals", overdress, "--partial"], None),
        (["traversals", overdress], None),
        (["table", overdress], None),
        (["validate", overdress], None),
        ([*effective, "--rules", str(local)], None),
        (effective, None),
        (effective, str(local)),
        (effective, None),
        (orth_only, None),
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    results = []
    for argv, env_rules in calls:
        env = {k: v for k, v in os.environ.items() if k != "LEXITREE_RULES"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if env_rules:
            env["LEXITREE_RULES"] = env_rules
            monkeypatch.setenv("LEXITREE_RULES", env_rules)
        else:
            monkeypatch.delenv("LEXITREE_RULES", raising=False)
        alone = subprocess.run([sys.executable, "-m", "lexitree", *argv], capture_output=True, env=env)
        code, out, err = run(capsys, *argv)
        assert (code, out.encode(), err.encode()) == (alone.returncode, alone.stdout, alone.stderr), argv
        results.append((code, out))
    first_orth_only, html, tsv, partial, full, usage, valid, local_arg, default, local_env, unset, orth_only = results
    assert first_orth_only == orth_only and orth_only[0] == 0
    assert html[1].startswith("<table>") and tsv[1] == "orth\noverdress\noverdress\n"
    assert full == run(capsys, "traversals", overdress, "--full")[:2] != partial
    assert (usage[0], valid) == (1, (0, "OK\n"))
    orth_local = "pos : verb\npron : pron1\ndef : To dress (oneself or another) too elaborately or finely\n"
    assert local_arg == local_env == (0, orth_local)
    assert default == unset != local_arg and "orth : overdress" in default[1]
    assert _build_parser() is _build_parser()


def test_each_command_taking_rules_warns_of_unregistered_features(capsys):
    # pinna's `plural` sits in alternatives only, which validate and effective never fold
    pinna = FIXTURES / "pinna.xml"
    warning = unregistered_warnings(pinna, "plural")
    commands = {"validate": 0, "effective": 0, "traversals": 1, "materialize": 0, "table": 1}
    for command, expected_code in commands.items():
        extra = ["--cols", "orth"] if command == "table" else []
        for _ in range(2):
            code, _, err = run(capsys, command, pinna, *extra)
            assert code == expected_code and err.startswith(warning) and err.count("not registered") == 1, command
    assert run(capsys, "expand", pinna)[::2] == (0, "")


def test_unregistered_feature_warnings_follow_the_parse_diagnostics(capsys, tmp_path):
    doc = tmp_path / "unknown.xml"
    doc.write_bytes(b"<struc><zzz>x</zzz><orth>o</orth><yyy>y</yyy></struc>")
    code, out, err = run(capsys, "validate", doc)
    assert (code, out) == (0, "OK\n")
    assert err == (
        f"{doc}: warning: line 1, column 8: unknown element <zzz> kept as a feature\n"
        f"{doc}: warning: line 1, column 34: unknown element <yyy> kept as a feature\n"
        + unregistered_warnings(doc, "zzz", "yyy")
    )


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lexitree", "validate", str(FIXTURES / "gendarme.xml")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "OK\n"


def test_a_command_imports_no_dataclasses_inspect_or_logging():
    # A structural stand-in for process start-up time, which no wall-clock
    # test could pin: these modules, with what they import, made up about half
    # of importing lexitree.cli. -S keeps out what site-packages' .pth files import.
    overdress = FIXTURES / "overdress.xml"
    code = (
        "import sys\n"
        "from lexitree.cli import main\n"
        f"assert main(['validate', {str(FIXTURES / 'gendarme.xml')!r}]) == 0\n"
        # the rules classify orth alone, so the command warns of three features
        f"assert main(['validate', {str(overdress)!r}, '--rules', {str(FIXTURES / 'orth_over.rules')!r}]) == 0\n"
        "print(sorted({'dataclasses', 'inspect', 'logging'} & set(sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    warnings = unregistered_warnings(overdress, "pos", "pron", "def")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "OK\nOK\n[]\n", warnings)


def test_module_entry_point_runs_from_a_zipped_package(tmp_path):
    # the shipped rules must be found through the loader of a zip import too
    archive = tmp_path / "lexitree.zip"
    with zipfile.ZipFile(archive, "w") as zipped:
        for path in (Path(__file__).resolve().parents[1] / "src" / "lexitree").iterdir():
            if path.is_file():
                zipped.write(path, f"lexitree/{path.name}")
    env = {k: v for k, v in os.environ.items() if k != "LEXITREE_RULES"}
    env["PYTHONPATH"] = str(archive)
    proc = subprocess.run(
        [sys.executable, "-m", "lexitree", "validate", str(FIXTURES / "gendarme.xml")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "OK\n", "")


def test_effective_on_random_documents_matches_oracle(capsys, tmp_path):
    import random

    from oracle import oracle_effective_set
    from treegen import all_paths, random_registry, random_tree

    from lexitree.model import format_value
    from lexitree.rules import default_registry

    rng = random.Random(7341)
    for case in range(10):
        tree = random_tree(rng, random_registry(rng, with_rules=False), for_xml=True)
        doc = tmp_path / f"random{case}.xml"
        doc.write_bytes(serialize_entry(tree))
        registry = default_registry()
        for path in all_paths(tree):
            code, out, _ = run(capsys, "effective", doc, "--path", ".".join(map(str, path)))
            assert code == 0
            expected = "".join(
                f"{str(p.feature)} : {format_value(p.value)}\n"
                for p, _ in oracle_effective_set(tree, path, registry)
            )
            assert out == expected


@given(branching_xml_tree_with_rules())
@settings(max_examples=40, deadline=None)
def test_each_walk_block_is_the_effective_set_of_its_node(tree_and_registry):
    # The walk hands a parent's state on to its last child and copies it for
    # the others; every listed block and table row must still be the node's own set.
    tree, registry = tree_and_registry
    with tempfile.TemporaryDirectory() as tmp:
        doc, rules = Path(tmp) / "entry.xml", Path(tmp) / "entry.rules"
        doc.write_bytes(serialize_entry(tree))
        rules.write_text(rules_text(registry), encoding="utf-8")

        def cli(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert main([*argv, str(doc), "--rules", str(rules)]) == 0
            return out.getvalue()

        headers = [".".join(map(str, path)) for path in partial_traversals(tree)]
        expected = "\n".join(f"{header}\n{cli('effective', '--path', header)}" for header in headers)
        assert cli("traversals", "--partial") == expected
    columns = sorted({str(p.feature) for _, node in iter_nodes(tree) for p in node.properties})
    rows = extract_table(tree, TableSpec(columns), registry)
    expected = []
    for path in enumerate_traversals(tree):
        entries = effective_set(tree, path, registry).entries
        expected.append(tuple("; ".join(format_value(p.value) for p in entries if p.feature == c) for c in columns))
    assert rows == expected
