"""Rule: the serialised field surface may only change with a schema bump.

Store keys and artifact hashes cover the *serialised form* of a run: the
``ExperimentConfig`` field set (``config_to_dict`` walks
``dataclasses.fields``, so every added field changes every key), the fault
event / flow record / snapshot field sets, the dict keys
``store/serialize.py`` writes, and the envelope keys ``run_key`` hashes.
Changing any of them while leaving ``STORE_SCHEMA_VERSION`` alone silently
invalidates every existing store: old artifacts either stop matching what a
re-run would produce or — worse — keep masquerading as valid cache hits for
configs that now mean something else.

This rule makes that contract reviewable: it fingerprints the whole
serialised surface (statically, from the ASTs on disk) and pins the
fingerprint to the schema version in :data:`_PINNED_FINGERPRINTS`.  Editing
the surface without bumping the version — or bumping the version without
re-pinning — is flagged on the ``STORE_SCHEMA_VERSION`` line itself.  The
intended workflow on a deliberate change:

1. bump ``STORE_SCHEMA_VERSION`` in ``repro/store/canonical.py`` (and say
   why in its version-history comment);
2. run the linter; the violation message reports the new fingerprint;
3. pin it here under the new version.
"""

import ast
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.lint.core import LintRule, ModuleContext, Violation, register

#: schema version -> fingerprint of the serialised field surface.  Every
#: entry is a deliberate decision: pin a new pair only after confirming the
#: surface change warrants (and received) a version bump.
_PINNED_FINGERPRINTS = {
    # v4: the fidelity axis (ExperimentConfig.fidelity) joined the config
    # field set, changing every serialised config and therefore every key.
    4: "2b473dfdecf6155f82ab0c2520215e401795b35c8513ba11722b3079846c7850",
    # v5: the ECN marking-threshold field left ExperimentConfig with the ECN
    # queue, changing every serialised config and therefore every key.
    5: "20e140f6997d67ffbf57db1886fe789a8c51657a664cddff6c3199501a82fcb5",
}

#: The dataclasses whose field sets make up the serialised surface, as
#: (path relative to canonical.py's parent, class name, label) triples.
_SURFACE_CLASSES: Tuple[Tuple[str, str, str], ...] = (
    ("../experiments/config.py", "ExperimentConfig", "config"),
    ("../net/faults.py", "FaultEvent", "fault_event"),
    ("../metrics/records.py", "FlowRecord", "flow_record"),
    ("../net/monitor.py", "NetworkSnapshot", "network_snapshot"),
    ("../net/monitor.py", "LayerLossStats", "layer_loss"),
)


def _parse(path: Path) -> Optional[ast.Module]:
    try:
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except (OSError, SyntaxError):
        return None


def _dataclass_field_names(tree: ast.Module, class_name: str) -> Optional[List[str]]:
    """The annotated field names of ``class_name``, sorted; None if absent."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return sorted(
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            )
    return None


def _string_dict_keys(tree: ast.Module) -> List[str]:
    """Every string key of every dict literal in ``tree``, sorted and unique."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
    return sorted(keys)


def _declared_schema_version(tree: ast.Module) -> Optional[Tuple[ast.AST, int]]:
    """The ``STORE_SCHEMA_VERSION = <int>`` assignment node and its value."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "STORE_SCHEMA_VERSION"
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)
                ):
                    return node, node.value.value
    return None


def surface_fingerprint(canonical_path: Path, canonical_tree: ast.Module) -> Tuple[Optional[str], List[str]]:
    """The serialised-surface fingerprint, plus any problems encountered.

    Returns ``(fingerprint, problems)``; the fingerprint is None when a
    surface file is missing or unparsable (each such file is named in
    ``problems``, so the check degrades to an explicit finding instead of
    silently passing).
    """
    base = canonical_path.parent
    surface: Dict[str, object] = {
        # run_key's envelope and workload_recipe's keys live in canonical.py
        # itself, which the driver already parsed.
        "canonical_keys": _string_dict_keys(canonical_tree),
    }
    problems: List[str] = []

    serialize_path = base / "serialize.py"
    serialize_tree = _parse(serialize_path)
    if serialize_tree is None:
        problems.append(str(serialize_path))
    else:
        surface["serialize_keys"] = _string_dict_keys(serialize_tree)

    for relative, class_name, label in _SURFACE_CLASSES:
        path = (base / relative).resolve()
        tree = _parse(path)
        names = _dataclass_field_names(tree, class_name) if tree is not None else None
        if names is None:
            problems.append(f"{path} ({class_name})")
        else:
            surface[label] = names

    if problems:
        return None, problems
    encoded = json.dumps(  # repro: allow[no-raw-json] -- hashed, never stored
        surface, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest(), []


@register
class SchemaVersionBump(LintRule):
    name = "schema-version-bump"
    description = (
        "the serialised field surface (config/fault/record/snapshot fields, "
        "serialize.py keys, run_key envelope) may only change together with "
        "a STORE_SCHEMA_VERSION bump pinned in rules_schema"
    )

    _SCOPE = "repro/store/canonical.py"

    def violations(self, ctx: ModuleContext) -> Iterator[Violation]:
        if ctx.package_path != self._SCOPE:
            return
        declared = _declared_schema_version(ctx.tree)
        if declared is None:
            # No literal version declared: a partial module (test fixture) is
            # out of scope, and deleting the constant from the real module
            # breaks imports long before lint runs.
            return
        anchor, version = declared
        fingerprint, problems = surface_fingerprint(ctx.path, ctx.tree)
        if fingerprint is None:
            for problem in problems:
                yield self.violation(
                    ctx,
                    anchor,
                    f"cannot fingerprint the serialised surface: {problem} is "
                    "missing or unparsable",
                )
            return
        pinned = _PINNED_FINGERPRINTS.get(version)
        if pinned is None:
            yield self.violation(
                ctx,
                anchor,
                f"STORE_SCHEMA_VERSION {version} has no pinned surface "
                f"fingerprint; after confirming the bump is deliberate, pin "
                f"{{{version}: \"{fingerprint}\"}} in "
                "repro/analysis/lint/rules_schema.py",
            )
        elif pinned != fingerprint:
            yield self.violation(
                ctx,
                anchor,
                f"the serialised field surface changed (fingerprint "
                f"{fingerprint}, pinned {pinned} for version {version}) without "
                "a STORE_SCHEMA_VERSION bump; old store artifacts would go "
                "stale silently — bump the version in canonical.py and pin the "
                "new fingerprint in rules_schema.py",
            )
