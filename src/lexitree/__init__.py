"""Dictionary-entry trees: feature propagation, XML encoding, transforms."""

from .model import (
    AltGroup,
    Atomic,
    Composite,
    DependencyRule,
    DependencyViolation,
    EffectiveFeatureSet,
    FeatureClass,
    FeatureClassRegistry,
    FeatureName,
    FeatureValue,
    LexitreeError,
    Node,
    NodePath,
    OverwriteConflict,
    OverwriteViolation,
    PathOutOfRange,
    Property,
    UnexpandedAlternatives,
    Violation,
    attach_property,
    check_consistency,
    effective_set,
    enumerate_traversals,
    format_path,
    format_value,
    partial_traversals,
    resolve_path,
    unregistered_features,
)
from .rules import RulesError, default_registry, load_rules, parse_rules
from .transform import (
    ExpansionTooLarge,
    TableSpec,
    expand_alternatives,
    extract_table,
    materialize_inheritance,
    render_table,
)
from .xmlio import (
    DEFAULT_PROFILE,
    EncodingProfile,
    MultipleRoots,
    ParseDiagnostic,
    ParseError,
    SerializeError,
    UnknownElement,
    UnknownFeature,
    XmlMalformed,
    parse_entry,
    serialize_entry,
)

__version__ = "0.1.0"
