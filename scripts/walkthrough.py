#!/usr/bin/env python3
"""Walk the bundled entries through the whole pipeline and print each stage:
parse, validation, traversal listings, alternative expansion, inheritance
materialization, and table extraction.

Usage: python scripts/walkthrough.py
"""

from pathlib import Path

from lexitree import (
    check_consistency,
    default_registry,
    effective_set,
    enumerate_traversals,
    expand_alternatives,
    extract_table,
    format_path,
    format_value,
    materialize_inheritance,
    parse_entry,
    render_table,
    serialize_entry,
    TableSpec,
)

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def show_effective(tree, path, registry):
    print(f"--- effective set at {format_path(path)}")
    for prop in effective_set(tree, path, registry).entries:
        print(f"{str(prop.feature)} : {format_value(prop.value)}")


def main():
    registry = default_registry()

    banner("gendarme: root-to-leaf trace")
    gendarme, _ = parse_entry((FIXTURES / "gendarme.xml").read_bytes())
    print(f"consistency violations: {len(check_consistency(gendarme, registry))}")
    for path in [(), (0,), (0, 0), (0, 0, 0)]:
        show_effective(gendarme, path, registry)

    banner("overdress: full traversals and the word/pos/meaning table")
    overdress, _ = parse_entry((FIXTURES / "overdress.xml").read_bytes())
    for path in enumerate_traversals(overdress):
        show_effective(overdress, path, registry)
    spec = TableSpec(["orth", "pos", "def"], format="tsv")
    print("--- table")
    print(render_table(spec, extract_table(overdress, spec, registry)), end="")

    banner("pinna: alternative expansion")
    pinna, _ = parse_entry((FIXTURES / "pinna.xml").read_bytes())
    print(serialize_entry(expand_alternatives(pinna)).decode(), end="")

    banner("overdress: materialized inheritance")
    materialized = materialize_inheritance(overdress, registry)
    print(serialize_entry(materialized).decode(), end="")


if __name__ == "__main__":
    main()
