"""Every knob is one some run actually turns.

A setting that no code outside the tests ever gives anything but its
default is a constant in disguise: it makes a reader wonder which rack
configurations are real, and state that nothing reads is a setting's
mirror image.  Four lints read ``src/``, ``benchmarks/`` and ``bench/``
with :mod:`ast`.

**OLFSConfig fields.**  Every value given to a field through
``OLFSConfig(...)``, ``.scaled_for_tests(...)``, ``small_rack(config=...)``
or ``tests.conftest.make_ros(...)`` is collected:

* keywords, and the keys of a dict literal passed as ``config=`` or
  unpacked with ``**`` — a name bound to a dict literal in the module,
  or at the top level of any scanned module, resolves to it;
* a ``**`` argument that does not resolve counts every dict literal of
  its module whose keys are all keywords of that call;
* a literal value varies when it differs from the field's default, a
  non-literal value always varies.

**Constructor keywords.**  Every parameter with a default of every
``def __init__`` in ``src/repro`` must be passed by some call.  Calls
are matched by class name (``Name(...)`` or ``module.Name(...)``; also
``cls(...)`` inside the class and ``super().__init__(...)`` inside a
subclass), and a class without its own ``__init__`` hands its calls to
the nearest base that has one.  A positional argument passes the
parameter in its place; ``*args`` passes them all.  ``**mapping``
passes the keys of a dict literal, or of a name bound to one or to
``dict(...)``; one that does not resolve passes them all.

A value that only forwards does not count by itself: a same-named
parameter of the enclosing def (``roller_count=roller_count``) passes
the keyword only when some caller passes that def's parameter, and the
def's own ``**kwargs`` passes only the keys its callers give.  Other
defs are matched by name the same way, and the whole is worked out to a
fixed point.  A def whose callers the lint cannot resolve (a pytest test
or fixture, a lambda, a name defined twice) counts as passing what it
forwards.  Dataclass fields are records, not constructors, and are not
scanned (``OLFSConfig`` has the lint above).  A test that needs another
value monkeypatches the module constant the class reads.

**Function keywords.**  The same calls must pass every defaulted
keyword of every other uniquely named module-level function and method
in ``src/repro``.  A campaign's flags count as calls:
``run_flags(parser, run, {...})`` passes ``run`` the dict's keys (a
``**`` entry resolves like any mapping), and ``run_kwargs(run, args,
**given)`` passes only ``given`` and the flags ``campaign_parser`` adds
(``seed``, ``flight_out``).

**Write-only state.**  Every ``self.<attribute>`` store and every
dataclass field in ``src/repro`` must be loaded by name somewhere in
the scanned code (``obj.name`` or ``getattr(obj, "name")``); ``+=`` on
it is a store.  A dataclass read whole (``asdict``) would need its
fields allowlisted.
"""

import ast
import dataclasses
import functools
import textwrap
from collections import defaultdict
from pathlib import Path

from repro.olfs.config import OLFSConfig

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "bench")

#: OLFSConfig fields that only tests or an example switch, kept because
#: each gates a behaviour the paper describes.
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


def name_of(node: ast.AST) -> str | None:
    """``Name`` -> ``Name``; ``module.Name`` -> ``Name``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def callee(call: ast.Call) -> str | None:
    return name_of(call.func)


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


@functools.cache
def scanned_modules() -> tuple:
    """``(path, tree)`` of every scanned module, parsed once."""
    return tuple(
        (path, ast.parse(path.read_text(), filename=str(path)))
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    )


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


# ----------------------------------------------------------------------
# Constructor keywords
# ----------------------------------------------------------------------
#: ``Class.keyword`` that no scanned call passes, and why each stays.
ALLOWED_UNPASSED = {
    "Volume.array": "[reach]: goes with the RAID data path, whose "
    "deletion waits for the benchmark's boundary to be re-pointed",
    "TelemetryAgent.flush_every": "tests/test_fleet_monitor.py flushes "
    "every tick or every second one and checks 0 is refused; every run "
    "flushes every FLUSH_EVERY samples",
    **{
        f"TimeSeriesStore.{knob}": "[paper-promises]: retention and shard "
        "eviction get a fleet-monitor leg that sets them"
        for knob in (
            "raw_retention_s", "rollups", "rollup_retention_s",
            "shard_points", "max_shards",
        )
    },
}


#: In a passed set: every keyword (an unresolved ``**`` argument).
ANY = "**"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def class_defs(trees) -> dict[str, list[ast.ClassDef]]:
    """Class name -> its definitions in ``trees`` (names may repeat)."""
    found: dict[str, list[ast.ClassDef]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                found.setdefault(node.name, []).append(node)
    return found


def repro_classes(modules) -> dict[str, list[ast.ClassDef]]:
    package = ROOT / "src" / "repro"
    return class_defs(
        tree for path, tree in modules if package in path.parents
    )


def own_init(node: ast.ClassDef):
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return item
    return None


def init_owners(classes) -> dict[str, list[str]]:
    """Class name -> the class names whose ``__init__`` a call runs."""
    def owners(name: str, seen: frozenset) -> list[str]:
        found = []
        for node in classes.get(name, ()):
            if own_init(node) is not None:
                found.append(name)
                continue
            for base in map(name_of, node.bases):
                if base in classes and base not in seen:
                    found += owners(base, seen | {base})
        return found

    return {name: owners(name, frozenset({name})) for name in classes}


def ordered_parameters(func) -> list[str]:
    """A def's parameters in call order (keyword-only ones last)."""
    args = func.args
    return [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]


def defaulted_parameters(func) -> set[str]:
    args = func.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    return set(positional[len(positional) - len(args.defaults):]) | {
        arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    }


def init_parameters(classes) -> dict[str, tuple[list[str], set[str]]]:
    """Class name -> (parameters in call order, those with a default)."""
    parameters = {}
    for name, nodes in classes.items():
        for node in nodes:
            init = own_init(node)
            if init is None:
                continue
            ordered = ordered_parameters(init)[1:]
            # a name defined twice: the union of both signatures
            known, known_defaulted = parameters.get(name, ([], set()))
            parameters[name] = (
                known or ordered, known_defaulted | defaulted_parameters(init)
            )
    return parameters


def called_class(call: ast.Call, enclosing: list[ast.ClassDef], classes):
    """The class name ``call`` constructs, or None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "cls" and enclosing:
        return enclosing[-1].name
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and callee(func.value) == "super"
        and enclosing
    ):
        # super().__init__: the bases of the class it is written in
        bases = [name_of(base) for base in enclosing[-1].bases]
        return next((base for base in bases if base in classes), None)
    name = callee(call)
    return name if name in classes else None


def function_defs(trees) -> dict[str, list[tuple[ast.AST, bool]]]:
    """Def name -> (def, whether a bound call skips its first
    parameter), for every def but ``__init__``."""
    found: dict[str, list] = {}

    def visit(node, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS) and child.name != "__init__":
                static = any(
                    name_of(d) == "staticmethod" for d in child.decorator_list
                )
                found.setdefault(child.name, []).append(
                    (child, in_class and not static)
                )
            visit(child, isinstance(child, ast.ClassDef))

    for tree in trees:
        visit(tree, False)
    return found


def runs_under_pytest(func) -> bool:
    """A test or fixture: pytest, not a call the lint sees, gives its
    arguments (``@pytest.mark.parametrize`` among them)."""
    return func.name.startswith("test") or any(
        "fixture" in ast.dump(d) or "parametrize" in ast.dump(d)
        for d in func.decorator_list
    )


#: What ``run_kwargs(run, args, **given)`` passes beyond ``given``: the
#: flags :func:`repro.report.campaign_parser` adds.  The flags
#: ``run_flags`` adds are counted at that call.
CAMPAIGN_FLAGS = ("seed", "flight_out")


def dict_entries(node: ast.AST, resolve=lambda name: None):
    """``(key, value)`` of a dict literal, a ``dict(...)`` call or a
    ``run_kwargs(...)`` call, or None for anything else.  ``resolve``
    gives the entries of a name a dict literal unpacks with ``**``."""
    if isinstance(node, ast.Dict):
        entries = []
        for key, value in zip(node.keys, node.values):
            if key is None:
                unpacked = (
                    resolve(value.id) if isinstance(value, ast.Name)
                    else dict_entries(value, resolve)
                )
                if unpacked is None:
                    return None
                entries += unpacked
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                entries.append((key.value, value))
        return entries
    if isinstance(node, ast.Call) and callee(node) == "run_kwargs":
        return [
            (keyword.arg, keyword.value) for keyword in node.keywords
            if keyword.arg
        ] + [(flag, ast.Constant(None)) for flag in CAMPAIGN_FLAGS]
    if (
        isinstance(node, ast.Call)
        and callee(node) == "dict"
        and not node.args
        and all(keyword.arg for keyword in node.keywords)
    ):
        return [(keyword.arg, keyword.value) for keyword in node.keywords]
    return None


def bound_dicts(nodes, name: str, resolve=lambda name: None):
    """The entries of every dict ``name`` is bound to among ``nodes``,
    or None when it is bound to anything else (or to nothing)."""
    entries = []
    for node in nodes:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == name
        ):
            found = dict_entries(node.value, resolve)
            if found is None:
                return None
            entries += found
    return entries or None


def passed_keywords(trees=None, classes=None) -> dict[str, set[str]]:
    """Class name (an ``__init__`` owner) -> the parameters calls pass.

    A value that only forwards — a same-named parameter of the def the
    call is written in, or that def's ``**kwargs`` — passes a keyword
    only as far as that def's own callers pass it, worked out to a fixed
    point.  Defs are keyed by class name (``__init__``) or ``name()``;
    a def whose callers the lint cannot resolve (a pytest test or
    fixture, a lambda, a name defined twice) counts as passing what it
    forwards.
    """
    if trees is None:
        modules = list(scanned_modules())
        trees = [tree for _, tree in modules]
        classes = repro_classes(modules)
    elif classes is None:
        classes = class_defs(trees)
    owners = init_owners(classes)
    parameters = init_parameters(classes)
    defs = function_defs(trees)
    inits = {
        init
        for nodes in classes.values()
        for init in map(own_init, nodes)
        if init is not None
    }

    def key_of(func, enclosing: list[ast.ClassDef]) -> str | None:
        """The def's key, or None when its callers cannot be resolved."""
        if not isinstance(func, FUNCTIONS) or runs_under_pytest(func):
            return None
        if func.name == "__init__":
            return enclosing[-1].name if func in inits else None
        return f"{func.name}()" if len(defs[func.name]) == 1 else None

    #: (target, keyword, None or the (def key, parameter) it forwards)
    edges: list[tuple[str, str, tuple[str, str] | None]] = []
    #: (target, def key, that def's named parameters): ``**kwargs``
    forwards: list[tuple[str, str, set[str]]] = []

    def forwarded(value, keyword, scopes):
        """``(def key, parameter)`` when ``value`` is the same-named
        parameter of an enclosing def that takes it with a default."""
        if not (isinstance(value, ast.Name) and value.id == keyword):
            return None
        for func, key in reversed(scopes[1:]):
            if keyword in ordered_parameters(func):
                if key is None or keyword not in defaulted_parameters(func):
                    return None
                return key, keyword
        return None

    def bound_in(scopes, name: str):
        """The entries of the dict ``name`` is bound to, looked up from
        the innermost scope out, or None."""
        def resolve(inner: str):
            return bound_in(scopes, inner)

        for func, _ in reversed(scopes[1:]):
            entries = bound_dicts(ast.walk(func), name, resolve)
            if entries is not None:
                return entries
        return bound_dicts(scopes[0][0].body, name, resolve)

    def mapping_entries(value, scopes):
        """The entries ``**value`` unpacks, or None."""
        if isinstance(value, ast.Name):
            return bound_in(scopes, value.id)
        return dict_entries(value, lambda name: bound_in(scopes, name))

    def pass_mapping(target, value, scopes) -> None:
        """``**value`` handed to ``target``."""
        if isinstance(value, ast.Name):
            for func, key in reversed(scopes[1:]):
                kwarg = func.args.kwarg
                if kwarg is not None and kwarg.arg == value.id:
                    if key is not None:
                        forwards.append(
                            (target, key, set(ordered_parameters(func)))
                        )
                        return
                    break
        entries = mapping_entries(value, scopes)
        if entries is None:
            edges.append((target, ANY, None))
            return
        for keyword, item in entries:
            edges.append((target, keyword, forwarded(item, keyword, scopes)))

    def pass_call(call, target, ordered, scopes) -> None:
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                edges.extend((target, name, None) for name in ordered)
            elif index < len(ordered):
                name = ordered[index]
                edges.append((target, name, forwarded(arg, name, scopes)))
        for keyword in call.keywords:
            if keyword.arg is None:
                pass_mapping(target, keyword.value, scopes)
            else:
                edges.append((
                    target,
                    keyword.arg,
                    forwarded(keyword.value, keyword.arg, scopes),
                ))

    def visit(node, enclosing, scopes) -> None:
        if isinstance(node, ast.ClassDef):
            enclosing = enclosing + [node]
        elif isinstance(node, (*FUNCTIONS, ast.Lambda)):
            scopes = scopes + [(node, key_of(node, enclosing))]
        if isinstance(node, ast.Call):
            name = called_class(node, enclosing, classes)
            if name:
                for owner in owners.get(name, ()):
                    pass_call(node, owner, parameters[owner][0], scopes)
            elif len(defs.get(callee(node), ())) == 1:
                [(func, bound)] = defs[callee(node)]
                ordered = ordered_parameters(func)[int(bound):]
                pass_call(node, f"{func.name}()", ordered, scopes)
            if callee(node) == "run_flags" and len(node.args) == 3:
                # run_flags(parser, run, flags): a flag per key of flags
                run = name_of(node.args[1])
                if len(defs.get(run, ())) == 1:
                    entries = mapping_entries(node.args[2], scopes)
                    for keyword, _ in entries or [(ANY, None)]:
                        edges.append((f"{run}()", keyword, None))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, scopes)

    for tree in trees:
        visit(tree, [], [(tree, None)])

    passed: dict[str, set[str]] = defaultdict(set)
    changed = True
    while changed:
        changed = False
        for target, keyword, via in edges:
            if keyword not in passed[target] and (
                via is None or {via[1], ANY} & passed[via[0]]
            ):
                passed[target].add(keyword)
                changed = True
        for target, key, named in forwards:
            new = passed[key] - named - passed[target]
            if new:
                passed[target] |= new
                changed = True
    return passed


def unpassed_keywords() -> list[str]:
    parameters = init_parameters(repro_classes(scanned_modules()))
    passed = passed_keywords()
    return sorted(
        f"{name}.{keyword}"
        for name, (_, defaulted) in parameters.items()
        if ANY not in passed[name]
        for keyword in defaulted - passed[name]
    )


def test_every_constructor_keyword_is_passed_by_some_caller():
    unpassed = [
        keyword for keyword in unpassed_keywords()
        if keyword not in ALLOWED_UNPASSED
    ]
    assert unpassed == [], (
        "__init__ keywords no call outside the tests passes; make each a "
        f"module constant or delete the behaviour it selects: {unpassed}"
    )


def test_allowed_unpassed_keywords_are_still_unpassed():
    stale = sorted(set(ALLOWED_UNPASSED) - set(unpassed_keywords()))
    assert stale == [], (
        f"passed now (or gone), drop from ALLOWED_UNPASSED: {stale}"
    )


def lint_source(source: str) -> dict[str, set[str]]:
    """``passed_keywords`` over one module of source code."""
    return passed_keywords([ast.parse(textwrap.dedent(source))])


def test_the_keyword_lint_sees_how_callers_pass():
    passed = passed_keywords()
    # a positional argument: DriveSet(engine, set_id)
    assert "set_id" in passed["DriveSet"]
    # a keyword argument: ArchivalWorkloadGenerator(..., root=...)
    assert "root" in passed["ArchivalWorkloadGenerator"]
    # a subclass without an __init__ hands its calls to the base's:
    # PositionSensor(name, probe) runs Sensor.__init__
    assert "probe" in passed["Sensor"]
    # serve/loadgen.py's ``rack_kwargs = dict(...)`` resolves to its keys,
    # and RackCluster's ``**rack_kwargs`` hands OLFS exactly those
    assert {"roller_count", "buffer_volume_capacity"} <= passed["RackCluster"]
    assert {"roller_count", "buffer_volume_capacity"} <= passed["OLFS"]
    assert ANY not in passed["OLFS"]

    # the parent tree's shape, on which OLFS forwarded knobs no run gives
    passed = lint_source('''
        class MechanicalSubsystem:
            def __init__(self, engine, roller_count=2, sets_per_roller=1):
                pass

        class OLFS:
            def __init__(self, config=None, engine=None, roller_count=2,
                         sets_per_roller=1, geometry=None):
                MechanicalSubsystem(
                    engine, roller_count=roller_count,
                    sets_per_roller=sets_per_roller,
                )

        class RackCluster:
            def __init__(self, rack_count=2, config=None, **rack_kwargs):
                OLFS(config=config, engine=object(), **rack_kwargs)

        def run_serve(config):
            rack_kwargs = dict(roller_count=1)
            RackCluster(rack_count=2, **rack_kwargs)
    ''')
    # a same-named pass-through counts only once a caller passes the
    # parameter it forwards: OLFS's callers never give sets_per_roller
    assert passed["MechanicalSubsystem"] == {"engine", "roller_count"}
    # ``**rack_kwargs`` passes only the keys RackCluster's callers give,
    # here the keys of a name bound to ``dict(...)``; ``config=config``
    # forwards a RackCluster keyword nobody passes
    assert passed["RackCluster"] == {"rack_count", "roller_count"}
    assert passed["OLFS"] == {"engine", "roller_count"}


def test_a_keyword_from_a_caller_the_lint_cannot_resolve_counts():
    passed = lint_source('''
        import pytest

        class Drive:
            def __init__(self, speed=1, curve=None, queue=0):
                pass

        @pytest.mark.parametrize("speed", [1, 2])
        def test_speed(speed):
            Drive(speed=speed)

        class A:
            def build(self, curve=None):
                Drive(curve=curve)

        class B:
            def build(self, curve=None):
                pass
    ''')
    # a pytest-parametrized argument, and a method name defined twice
    assert passed["Drive"] == {"speed", "curve"}


# ----------------------------------------------------------------------
# Function keywords
# ----------------------------------------------------------------------
#: ``function.keyword`` or ``Class.method.keyword`` that no scanned call
#: passes, and why each stays.
ALLOWED_UNPASSED_CALLS = {
    "PLCController.execute.lead": "tests/test_mechanics.py's stepped "
    "reference runs every instruction with lead=0.0",
    **{
        f"FaultInjector.inject.{keyword}": "the fault-by-hand API tests "
        "drive: the FaultSpec field a plan sets"
        for keyword in ("target", "duration", "detail")
    },
    "FlightRecorder.events.kind": "the filter tests read a journal "
    "through; runs dump it whole",
    "RecoveryManager.reconstruct_namespace.images": "§4.4 disaster path: "
    "tests hand it the images a disc scan collected",
    "RecordingCurve.burn_table.count": "tests pin the memoized table to "
    "segments() at a second segment count; every run burns 120",
    **{
        f"{name}.{keyword}": "[rates]: a §4.7 formula parameter the "
        "measured error rates will set"
        for name, keywords in {
            "stripes_per_disc": ("disc_capacity",),
            "array_error_rate": ("disc_capacity", "sector_error_rate"),
            "raid5_array_error_rate": ("disc_capacity", "sector_error_rate"),
            "raid6_array_error_rate": ("disc_capacity", "sector_error_rate"),
        }.items()
        for keyword in keywords
    },
    **{
        f"{name}.{keyword}": "§4.2's closed-form MV sizing: the paper's "
        "namespace by default, tests scale it"
        for name, keywords in {
            "mv_capacity_bytes": ("files", "directories", "versions_per_file"),
            "mv_fraction_of_capacity": (
                "data_capacity", "files", "directories",
            ),
        }.items()
        for keyword in keywords
    },
    **{
        f"{name}.{keyword}": "only tests turn it, and it feeds pinned "
        "report goldens"
        for name, keywords in {
            "run_fleet": ("k", "m"),
            "run_fleet_monitor": ("k", "m"),
            "run_serve": ("fleets", "scrub"),
        }.items()
        for keyword in keywords
    },
}


def repro_functions(modules):
    """``(qualified name, def)`` of every module-level function and
    method in ``src/repro`` but ``__init__``.  A def nested in a def is
    its enclosing def's business: a closure's defaults bind loop state
    (``def fire(event=wake)``), not settings."""
    package = ROOT / "src" / "repro"

    def visit(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, FUNCTIONS) and child.name != "__init__":
                yield f"{prefix}{child.name}", child

    for path, tree in modules:
        if package in path.parents:
            yield from visit(tree, "")


def unpassed_function_keywords() -> list[str]:
    """Every defaulted keyword of a uniquely named def in ``src/repro``
    that no scanned call passes."""
    modules = list(scanned_modules())
    trees = [tree for _, tree in modules]
    defs = function_defs(trees)
    passed = passed_keywords(trees, repro_classes(modules))
    found = []
    for qualified, func in repro_functions(modules):
        given = passed[f"{func.name}()"]
        if len(defs[func.name]) == 1 and ANY not in given:
            found += [
                f"{qualified}.{keyword}"
                for keyword in defaulted_parameters(func) - given
            ]
    return sorted(found)


def test_every_function_keyword_is_passed_by_some_caller():
    unpassed = [
        keyword for keyword in unpassed_function_keywords()
        if keyword not in ALLOWED_UNPASSED_CALLS
    ]
    assert unpassed == [], (
        "function keywords no call outside the tests passes; make each a "
        f"module constant or delete the behaviour it selects: {unpassed}"
    )


def test_allowed_unpassed_calls_are_still_unpassed():
    stale = sorted(
        set(ALLOWED_UNPASSED_CALLS) - set(unpassed_function_keywords())
    )
    assert stale == [], (
        f"passed now (or gone), drop from ALLOWED_UNPASSED_CALLS: {stale}"
    )


def test_the_function_lint_sees_campaign_flags():
    passed = lint_source('''
        GEOMETRY = {"sites": "failure-domain sites"}

        def run(seed=7, sites=3, duration_s=4.0, profile="iot",
                shards=1, flight_out=None):
            pass

        def register(sub):
            parser = campaign_parser(sub, "run", "a campaign", cmd, seed=7)
            run_flags(parser, run, {
                **GEOMETRY, "duration_s": "serving horizon",
            })

        def cmd(args):
            return run(**run_kwargs(run, args, flight_out=None))

        def cmd_sharded(args):
            kwargs = run_kwargs(run, args)
            return run(**{**kwargs, "shards": 4})
    ''')
    # run_flags: a flag per key, a ``**`` entry's keys included;
    # run_kwargs: its own keywords and the flags campaign_parser adds,
    # followed through a name and a dict that unpacks it
    assert passed["run()"] == {
        "seed", "sites", "duration_s", "shards", "flight_out"
    }


# ----------------------------------------------------------------------
# Write-only state
# ----------------------------------------------------------------------
#: ``Class.attribute`` that no scanned code loads, and why each stays.
ALLOWED_WRITE_ONLY = {
    "Process._error_observed": "[loud-failures] decides what reads it",
    **{
        name: "[reach]: goes with the RAID data path, whose deletion waits "
        "for the benchmark's boundary to be re-pointed"
        for name in ("Volume.array", "BlockDevice.reads", "BlockDevice.writes")
    },
    "Interrupt.cause": "the payload an interrupted process is handed",
    "SectorError.sector": "the payload of a media error",
    **{
        name: "a paper-spec figure, kept beside the ones the model reads"
        for name in (
            "DiscType.worm",
            "RollerGeometry.height_m",
            "RollerGeometry.diameter_mm",
            "RollerGeometry.separation_precision_mm",
            "MagazineLibraryModel.discs_per_magazine",
            "MagazineLibraryModel.robot_return_mean",
        )
    },
    "OpOutcome.latency_s": "what a client saw of one op; tests check it "
    "per op",
}


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        name_of(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def stored_attributes(trees) -> set[str]:
    """``Class.attribute`` of every ``self.<attribute>`` store (``=``,
    ``+=``, annotated) and every dataclass field in ``trees``."""
    found = set()

    def visit(node, owner: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
            if is_dataclass(node):
                found.update(
                    f"{owner}.{item.target.id}" for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and "ClassVar" not in ast.dump(item.annotation)
                )
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and owner is not None
        ):
            found.add(f"{owner}.{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for tree in trees:
        visit(tree, None)
    return found


def loaded_attributes(trees) -> set[str]:
    """Every name loaded as ``obj.<name>`` or ``getattr(obj, "<name>")``
    (``obj.name += 1`` stores; it does not count)."""
    found = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                found.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and callee(node) == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                found.add(node.args[1].value)
    return found


def write_only_state(trees=None, stored_in=None) -> list[str]:
    """``Class.attribute`` stored in ``src/repro`` (or ``stored_in``)
    whose name no scanned code loads."""
    if trees is None:
        modules = list(scanned_modules())
        trees = [tree for _, tree in modules]
        package = ROOT / "src" / "repro"
        stored_in = [tree for path, tree in modules if package in path.parents]
    loaded = loaded_attributes(trees)
    return sorted(
        name for name in stored_attributes(stored_in or trees)
        if name.split(".")[1] not in loaded
    )


def test_no_state_is_stored_that_nothing_reads():
    unread = [
        name for name in write_only_state() if name not in ALLOWED_WRITE_ONLY
    ]
    assert unread == [], (
        "attributes and dataclass fields no code outside the tests loads; "
        f"delete each store: {unread}"
    )


def test_allowed_write_only_state_is_still_unread():
    stale = sorted(set(ALLOWED_WRITE_ONLY) - set(write_only_state()))
    assert stale == [], (
        f"read now (or gone), drop from ALLOWED_WRITE_ONLY: {stale}"
    )


def test_the_state_lint_sees_stores_nothing_reads():
    source = textwrap.dedent('''
        from dataclasses import dataclass

        @dataclass
        class FetchResult:
            data: bytes
            mechanical: bool

        class Bucket:
            def __init__(self):
                self.closed = 0
                self.races = 0
                self.trace: list = []

            def close(self):
                self.closed += 1
                self.races += 1
                return FetchResult(b"", True).data

        def report(bucket):
            return getattr(bucket, "closed")
    ''')
    # ``+=`` is a store, not a read; a read by getattr counts
    assert write_only_state([ast.parse(source)]) == [
        "Bucket.races", "Bucket.trace", "FetchResult.mechanical",
    ]
