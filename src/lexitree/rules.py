"""Plain-text rules files describing a feature class registry.

Grammar, one directive per line:

    class <feature> <cum|over|loc>
    dep <dependent> <governor> <required-value>

Lines break at LF, CRLF or CR, and fields at runs of spaces and tabs. Blank
lines and lines starting with `#` are ignored. A `dep` governor must have
been declared `over` on an earlier line; the required value is the rest of
the line, held as `model.normalize_text` gives it: its runs of spaces and
tabs are one space, as in a parsed value. Feature names fold case. The class
words are the values of `FeatureClass`.
"""

from __future__ import annotations

import functools
import os
import re
from pathlib import Path

from .model import DependencyRule, FeatureClass, FeatureClassRegistry, FeatureName, LexitreeError

class RulesError(LexitreeError):
    def __init__(self, source: str, line_number: int, message: str):
        self.source = source
        self.line_number = line_number
        super().__init__(f"{source}:{line_number}: {message}")


def parse_rules(text: str, source: str = "<rules>") -> FeatureClassRegistry:
    classes: dict[FeatureName, FeatureClass] = {}
    rules: list[DependencyRule] = []
    for number, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        line = raw.strip(" \t")  # the XML whitespace a line can hold
        if not line or line.startswith("#"):
            continue
        fields = re.split("[ \t]+", line, maxsplit=3)  # a dep value is the rest of the line
        directive = fields[0]
        try:  # every refusal of a line, a bad feature name included, is reported at that line
            if directive == "class":
                if len(fields) != 3:
                    raise ValueError("expected: class <feature> <cum|over|loc>")
                _, name, word = fields
                if word not in {cls.value for cls in FeatureClass}:
                    raise ValueError(f"unknown class {word!r} (use cum, over, or loc)")
                feature = FeatureName(name)
                if feature in classes:
                    raise ValueError(f"feature {name!r} already classified")
                classes[feature] = FeatureClass(word)
            elif directive == "dep":
                if len(fields) != 4:
                    raise ValueError("expected: dep <dependent> <governor> <value>")
                _, dependent, governor, value = fields
                rule = DependencyRule(dependent, governor, value)
                if classes.get(rule.governor) is not FeatureClass.OVERWRITING:
                    raise ValueError(f"governor {governor!r} must be declared 'over' earlier in the file")
                rules.append(rule)
            else:
                raise ValueError(f"unknown directive {directive!r}")
        except ValueError as exc:
            raise RulesError(source, number, str(exc)) from exc
    return FeatureClassRegistry(classes, rules)


def load_rules(path: str | Path) -> FeatureClassRegistry:
    path = Path(path)
    try:  # a leading BOM is no text; other bytes that are not UTF-8 are refused at their line
        return parse_rules(path.read_bytes().decode("utf-8-sig"), source=str(path))
    except UnicodeDecodeError as exc:
        line = len((exc.object[:exc.start] + b".").splitlines())  # bytes split at LF, CRLF and CR only
        raise RulesError(str(path), line, f"not UTF-8 ({exc.reason})") from exc


def default_rules_text() -> str:
    # as pkgutil.get_data reads, so a zipped package works; importlib.resources imports inspect on 3.12+
    return __spec__.loader.get_data(os.path.join(os.path.dirname(__file__), "default.rules")).decode("utf-8")


@functools.cache
def default_registry() -> FeatureClassRegistry:
    """The shipped classifications: orth/etym/pos/gen/pron overwrite, def/domain/time
    accumulate, ex/xr/brack stay local, and gen is licensed only under pos=noun.
    The shipped file is parsed once per process, and every call returns that one registry."""
    return parse_rules(default_rules_text(), source="<default>")
