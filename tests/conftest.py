from pathlib import Path

import pytest

from lexitree.model import AltGroup, Atomic, Composite, FeatureClassRegistry, Node, Property
from lexitree.rules import default_registry

FIXTURES = Path(__file__).parent / "fixtures"


def P(feature, value, **attrs):
    if isinstance(value, list):
        value = Composite([p for p in value])
    return Property(feature, value, tuple(attrs.items()))


class CountingRegistry(FeatureClassRegistry):
    """Classifies as `registry` does and counts its `classify` calls."""

    def __init__(self, registry):
        super().__init__(registry.classes, registry.rules, registry.default_class)
        object.__setattr__(self, "calls", 0)

    def classify(self, feature):
        object.__setattr__(self, "calls", self.calls + 1)
        return super().classify(feature)


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def overdress():
    """Headword at the root, one subtree per part of speech."""
    return Node(
        [P("orth", "overdress")],
        children=[
            Node([
                P("pos", "verb"),
                P("pron", "pron1"),
                P("def", "To dress (oneself or another) too elaborately or finely"),
            ]),
            Node([
                P("pos", "noun"),
                P("pron", "pron2"),
                P("def", "A dress that may be worn over a jumper, blouse, etc."),
            ]),
        ],
    )


@pytest.fixture
def gendarme():
    """Four levels: headword, grammatical block, main sense, subentry."""
    leaf = Node([
        P("orth", "le gendarme"),
        P("def", "symbole de la force publique, de l'ordre."),
        P("ex", "La peur du gendarme"),
    ])
    sense = Node(
        [
            P("etym", "1790"),
            P("time", "modern"),
            P("def", "Militaire appartenant à un corps ..."),
            P("xr", "Gendarmerie", type="see"),
            P("xr", "Marechaussée", type="see"),
            P("brack", [P("ex", "Brigade de gendarmes"), P("xr", "brigadier", type="see")]),
            P("ex", "Etre arrêté par les gendarmes."),
            P("ex", "Jouer au gendarme et au voleur."),
        ],
        children=[leaf],
    )
    grammatical = Node(
        [P("pos", "noun"), P("gen", "mas"), P("etym", "XV°; gendarmes; de gens, et arme")],
        children=[sense],
    )
    return Node([P("orth", "gendarme"), P("pron", "...")], children=[grammatical])


@pytest.fixture
def pinna():
    """Two plural forms given as alternatives under the headword."""
    alternatives = AltGroup([
        [P("plural", "pinnae"), P("pron", "pron2")],
        [P("plural", "pinnas")],
    ])
    return Node(
        [P("orth", "pinna"), P("pron", "pron1"), P("pos", "noun")],
        children=[Node(alt_groups=[alternatives])],
    )


@pytest.fixture
def disproof():
    return Node(
        [P("orth", "disproof"), P("pron", "dɪs'pru:f"), P("pos", "n")],
        children=[
            Node([P("def", "facts that disprove something")]),
            Node([P("def", "the act of disproving")]),
        ],
    )


def entries_as_tuples(eff):
    """(feature, rendered value, attrs, depth) rows for compact comparisons."""
    from lexitree.model import format_value

    return [
        (str(p.feature), format_value(p.value), p.attrs, d)
        for p, d in eff.items()
    ]


def fixture_bytes(name):
    return (FIXTURES / name).read_bytes()
