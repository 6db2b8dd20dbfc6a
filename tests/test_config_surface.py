"""Every ``OLFSConfig`` field is a knob some run actually turns.

A field that no code outside the tests ever sets to anything but its
default is a constant in disguise: it makes a reader wonder which rack
configurations are real.  This lint reads ``src/``, ``benchmarks/`` and
``bench/`` with :mod:`ast` and collects every value given to a field
through ``OLFSConfig(...)``, ``.scaled_for_tests(...)``,
``small_rack(config=...)`` or ``tests.conftest.make_ros(...)``:

* keywords, and the keys of a dict literal passed as ``config=`` or
  unpacked with ``**`` — a name bound to a dict literal in the module,
  or at the top level of any scanned module, resolves to it;
* a ``**`` argument that does not resolve counts every dict literal of
  its module whose keys are all keywords of that call;
* a literal value varies when it differs from the field's default, a
  non-literal value always varies.
"""

import ast
import dataclasses
from pathlib import Path

from repro.olfs.config import OLFSConfig

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "bench")

#: Fields that only tests or an example switch, kept because each gates
#: a behaviour the paper describes.
ALLOWED_CONSTANT = {
    "parity_discs_per_array": "§4.7: the 10+2 RAID-6 disc-array schema",
    "client_read_timeout": "§4.8: a client that times out a cold read",
    "update_in_place": "§4.6: the forced regenerating update",
}

FIELDS = {field.name: field for field in dataclasses.fields(OLFSConfig)}

#: Marker for a value the lint cannot evaluate.
VARIES = object()


def make_ros_fields() -> dict[str, str]:
    """``make_ros`` parameter -> the ``OLFSConfig`` field it feeds."""
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text())
    [make_ros] = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "make_ros"
    ]
    mapping = {}
    for call in ast.walk(make_ros):
        if isinstance(call, ast.Call) and callee(call) in (
            "OLFSConfig", "scaled_for_tests"
        ):
            for keyword in call.keywords:
                if isinstance(keyword.value, ast.Name):
                    mapping[keyword.value.id] = keyword.arg
    return mapping


def callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def literal(node: ast.AST):
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return VARIES


def dict_literals_by_name(nodes) -> dict[str, list[ast.Dict]]:
    """Name -> the dict literals assigned to it among ``nodes``."""
    bound: dict[str, list[ast.Dict]] = {}
    for node in nodes:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Dict)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            bound.setdefault(node.targets[0].id, []).append(node.value)
    return bound


def dict_items(node: ast.Dict):
    for key, value in zip(node.keys, node.values):
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            yield key.value, value


def scanned_modules():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def collect_values() -> dict[str, list]:
    """Field -> every value (or ``VARIES``) some scanned call gives it."""
    modules = list(scanned_modules())
    # module-level dicts, which other modules import by name
    everywhere: dict[str, list[ast.Dict]] = {}
    for _, tree in modules:
        for name, dicts in dict_literals_by_name(tree.body).items():
            everywhere.setdefault(name, []).extend(dicts)
    identity = {field: field for field in FIELDS}
    via_make_ros = make_ros_fields()
    values: dict[str, list] = {name: [] for name in FIELDS}

    for _, tree in modules:
        local = dict_literals_by_name(ast.walk(tree))
        module_dicts = [
            node for node in ast.walk(tree) if isinstance(node, ast.Dict)
        ]

        def resolve(node: ast.AST, keywords) -> list[ast.Dict]:
            """The dict literals ``node`` stands for."""
            if isinstance(node, ast.Dict):
                return [node]
            if isinstance(node, ast.Name):
                found = local.get(node.id) or everywhere.get(node.id)
                if found:
                    return found
            return [
                candidate for candidate in module_dicts
                if candidate.keys and all(
                    isinstance(key, ast.Constant) and key.value in keywords
                    for key in candidate.keys
                )
            ]

        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = callee(call)
            if name == "make_ros":
                keywords, given = via_make_ros, call.keywords
            elif name in ("OLFSConfig", "scaled_for_tests"):
                keywords, given = identity, call.keywords
            elif name == "small_rack":
                # only ``config=`` reaches OLFSConfig, as a dict
                keywords = identity
                given = [
                    ast.keyword(arg=None, value=keyword.value)
                    for keyword in call.keywords
                    if keyword.arg == "config"
                ]
            else:
                continue
            for keyword in given:
                if keyword.arg is None:
                    for found in resolve(keyword.value, keywords):
                        for key, value in dict_items(found):
                            if key in keywords:
                                values[keywords[key]].append(literal(value))
                elif keyword.arg in keywords:
                    values[keywords[keyword.arg]].append(
                        literal(keyword.value)
                    )
            if name == "scaled_for_tests" and call.args:
                values["bucket_capacity"].append(literal(call.args[0]))
    return values


def varies(field: str, seen: list) -> bool:
    default = FIELDS[field].default
    return any(value is VARIES or value != default for value in seen)


def test_every_olfs_config_field_is_varied_by_some_run():
    values = collect_values()
    constant = sorted(
        field for field in FIELDS
        if field not in ALLOWED_CONSTANT and not varies(field, values[field])
    )
    assert constant == [], (
        "OLFSConfig fields no run outside the tests sets to anything but "
        f"the default; make them module constants: {constant}"
    )


def test_allowed_constants_are_fields_no_run_varies():
    values = collect_values()
    assert set(ALLOWED_CONSTANT) <= set(FIELDS)
    stale = sorted(
        field for field in ALLOWED_CONSTANT if varies(field, values[field])
    )
    assert stale == [], f"varied now, drop from ALLOWED_CONSTANT: {stale}"


def test_the_lint_sees_the_overrides_the_runs_make():
    values = collect_values()
    # small_rack's own dict literal, unpacked with ** into OLFSConfig
    assert 3 in values["data_discs_per_array"]
    # CAMPAIGN_CONFIG, imported by name into small_rack(config=...)
    assert 2 in values["read_cache_images"]
    # dict literals forwarded through **kwargs into make_ros
    assert "file" in values["cache_granularity"]
    assert 4 in values["prefetch_siblings"]
    # a make_ros keyword renamed on its way to the field
    assert False in values["auto_burn"]
