"""Naive reference implementation of feature propagation.

This replays the propagation rules step by step over a path using plain
lists and local helpers, with no shortcuts and no shared code with the
engine. Property tests and the acceptance sweep compare the engine's output
against this, entry for entry, order and contributor depth included.

`oracle_dependency_violations` replays `check_consistency`'s dependency
check from the same per-path replay, one path per node.

Expected trees are assumed valid (no doubled overwriting feature at a node);
build them with attach_property.
"""

import re
import unicodedata

from lexitree.model import Atomic, Composite, FeatureClass


def _canon(text):
    # NFC, each run of XML whitespace (and only XML whitespace) one space, the ends trimmed
    return re.sub("[ \t\n\r]+", " ", unicodedata.normalize("NFC", text)).strip(" ")


def _same_value(a, b):
    if isinstance(a, Atomic) and isinstance(b, Atomic):
        return _canon(a.text) == _canon(b.text)
    if isinstance(a, Composite) and type(a) is type(b):  # a bundle compares by ==, which tells classes apart
        if len(a.properties) != len(b.properties):
            return False
        for pa, pb in zip(a.properties, b.properties):
            if pa.feature != pb.feature:
                return False
            if pa.attrs != pb.attrs:
                return False
            if type(pa.value) is not type(pb.value):  # so do the values inside it
                return False
            if not _same_value(pa.value, pb.value):
                return False
        return True
    return False


def _same_entry(prop_a, prop_b):
    return (
        prop_a.feature == prop_b.feature
        and prop_a.attrs == prop_b.attrs
        and _same_value(prop_a.value, prop_b.value)
    )


def oracle_effective_set(root, path, registry):
    """Return [(property, depth), ...] holding at the endpoint of path."""
    nodes = [root]
    for index in path:
        nodes.append(nodes[-1].children[index])
    endpoint_depth = len(nodes) - 1

    held = []  # list of [property, depth]
    for depth, node in enumerate(nodes):
        for prop in node.properties:
            cls = registry.classify(prop.feature)
            if cls is FeatureClass.CUMULATIVE:
                duplicate = False
                for existing, _ in held:
                    if _same_entry(existing, prop):
                        duplicate = True
                if not duplicate:
                    held.append([prop, depth])
            elif cls is FeatureClass.OVERWRITING:
                previous = None
                for pair in held:
                    if pair[0].feature == prop.feature:
                        previous = pair
                if previous is not None and _same_entry(previous[0], prop):
                    continue
                if previous is not None:
                    held.remove(previous)
                held.append([prop, depth])
                for rule in registry.rules:
                    if rule.governor != prop.feature:
                        continue
                    new_value_matches = isinstance(prop.value, Atomic) and _canon(
                        prop.value.text
                    ) == _canon(rule.required_value)
                    if new_value_matches:
                        continue
                    survivors = []
                    for pair in held:
                        inherited_dependent = pair[0].feature == rule.dependent and pair[1] < depth
                        if not inherited_dependent:
                            survivors.append(pair)
                    held = survivors
            else:  # local
                if depth == endpoint_depth:
                    held.append([prop, depth])

    return [(prop, depth) for prop, depth in held]


def oracle_dependency_violations(root, registry):
    """Return [(path, dependent, governor, required value, governor's value), ...]
    for every property whose rule's governor holds another value at its node:
    nodes in document order, then rules in order, then properties in order."""
    found = []
    pending = [((), root)]
    while pending:
        path, node = pending.pop()
        held = oracle_effective_set(root, path, registry)
        for rule in registry.rules:
            governors = [prop for prop, _ in held if prop.feature == rule.governor]
            if not governors or _same_value(governors[0].value, Atomic(rule.required_value)):
                continue
            for prop in node.properties:
                if prop.feature == rule.dependent:
                    found.append((path, rule.dependent, rule.governor, rule.required_value, governors[0].value))
        for index in reversed(range(len(node.children))):
            pending.append((path + (index,), node.children[index]))
    return found
