import re
from pathlib import Path

import pytest

from lexitree.model import DependencyRule, FeatureClass, FeatureName
from lexitree.rules import RulesError, default_registry, default_rules_text, load_rules, parse_rules


def test_parse_classes_and_dependency():
    registry = parse_rules(
        """
        # comment
        class pos over
        class def cum

        class ex loc
        dep gen pos n
        """
    )
    assert registry.classify("pos") is FeatureClass.OVERWRITING
    assert registry.classify("def") is FeatureClass.CUMULATIVE
    assert registry.classify("ex") is FeatureClass.LOCAL
    assert registry.rules == (DependencyRule("gen", "pos", "n"),)


def test_dep_value_may_contain_spaces():
    registry = parse_rules("class pos over\ndep gen pos proper noun")
    assert registry.rules[0].required_value == "proper noun"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("klass pos over", "unknown directive"),
        ("class pos", "expected: class"),
        ("class pos over extra", "expected: class"),
        ("class pos over a b", "expected: class"),
        ("class pos overwriting", "unknown class"),
        ("class pos over\nclass pos cum", "already classified"),
        ("dep gen pos n", "earlier in the file"),
        ("class pos cum\ndep gen pos n", "earlier in the file"),
        ("class pos over\ndep gen pos", "expected: dep"),
        ("class Bad! cum", "test.rules:1: invalid feature name 'Bad!'"),
        ("class POS over\nclass pos cum", "test.rules:2: feature 'pos' already classified"),
        ("class pos over\ndep Bad! pos noun", "test.rules:2: invalid feature name 'Bad!'"),
    ],
)
def test_rules_errors_carry_line_and_reason(text, fragment):
    with pytest.raises(RulesError) as err:
        parse_rules(text, source="test.rules")
    assert "test.rules:" in str(err.value)
    assert fragment in str(err.value)


# Characters str.splitlines breaks lines at, besides LF, CRLF and CR.
_OTHER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", _OTHER_LINE_BREAKS)
def test_lines_break_only_at_lf_crlf_and_cr(char):
    registry = parse_rules(f"class pos over\r\nclass gen over\rdep gen pos no{char}un\n")
    assert registry.rules == (DependencyRule("gen", "pos", f"no{char}un"),)
    with pytest.raises(RulesError, match=r"^test.rules:3: unknown directive 'klass'$"):
        parse_rules(f"class pos over\n# a comment{char}more comment\nklass x\n", source="test.rules")


@pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u3000", *_OTHER_LINE_BREAKS])
def test_fields_are_trimmed_and_split_at_spaces_and_tabs_only(space):
    registry = parse_rules(f"\tclass pos\t over \nclass gen over\ndep gen pos {space}noun{space} \t\n")
    assert registry.rules == (DependencyRule("gen", "pos", f"{space}noun{space}"),)
    with pytest.raises(RulesError, match="^test.rules:1: unknown directive"):
        parse_rules(f"class{space}pos over", source="test.rules")


def test_rules_feature_names_fold_case():
    registry = parse_rules("class Pos over\nclass DEF cum\ndep Gen POS noun")
    assert registry.classify("pos") is FeatureClass.OVERWRITING
    assert registry.classify("def") is FeatureClass.CUMULATIVE
    assert registry.rules == (DependencyRule("gen", "pos", "noun"),)


def test_load_rules_reads_a_file(tmp_path):
    path = tmp_path / "my.rules"
    path.write_text("class orth over\n", encoding="utf-8")
    registry = load_rules(path)
    assert registry.classify("orth") is FeatureClass.OVERWRITING


def test_load_rules_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.rules"
    path.write_bytes(b"\xef\xbb\xbfclass orth over\n")
    assert load_rules(path).classes == {"orth": FeatureClass.OVERWRITING}


def test_readme_rules_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"### Rules files\n\n```\n(.*?)```", readme, re.DOTALL)
    registry = parse_rules(block, "README.md")
    assert registry.classes == {"orth": FeatureClass.OVERWRITING, "pos": FeatureClass.OVERWRITING,
                                "def": FeatureClass.CUMULATIVE}
    assert registry.rules == (DependencyRule("gen", "pos", "noun"),)


def test_default_registry_shipped_classifications():
    registry = default_registry()
    expected = {
        "orth": FeatureClass.OVERWRITING,
        "etym": FeatureClass.OVERWRITING,
        "pos": FeatureClass.OVERWRITING,
        "gen": FeatureClass.OVERWRITING,
        "pron": FeatureClass.OVERWRITING,
        "def": FeatureClass.CUMULATIVE,
        "domain": FeatureClass.CUMULATIVE,
        "time": FeatureClass.CUMULATIVE,
        "ex": FeatureClass.LOCAL,
        "xr": FeatureClass.LOCAL,
        "brack": FeatureClass.LOCAL,
    }
    assert {str(k): v for k, v in registry.classes.items()} == expected
    assert registry.rules == (DependencyRule("gen", "pos", "noun"),)


def test_default_registry_is_fresh_per_call():
    shipped = parse_rules(default_rules_text(), "<default>")
    first = default_registry()
    assert first is not default_registry()
    assert (first.classes, first.rules) == (shipped.classes, shipped.rules)
    first.classes[FeatureName("orth")] = FeatureClass.LOCAL
    first.classes[FeatureName("zzz")] = FeatureClass.CUMULATIVE
    assert (first.classify("orth"), first.classify("ZZZ")) == (FeatureClass.LOCAL, FeatureClass.CUMULATIVE)
    second = default_registry()
    assert (second.classes, second.rules) == (shipped.classes, shipped.rules)
    assert (second.classify("orth"), second.classify("zzz")) == (FeatureClass.OVERWRITING, FeatureClass.LOCAL)
