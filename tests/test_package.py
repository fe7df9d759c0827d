"""Package-wide structure: every top-level name and class member has a caller in
the package, every parameter default is overridden by one call and taken by
another, no two parameters of a function get the same expression from every
call, and one function writes the run manifest."""

import ast
import math
from itertools import combinations
from pathlib import Path

import lfisensor

ROOT = Path(__file__).resolve().parent.parent

#: Top-level names and class members (``Class.member``) that no module of the
#: package refers to, each with the reason it stays.
UNREFERENCED = {
    "process_cycle": "the per-cycle API for live callers; the benchmark drives it",
    "synthesize_cycle": "the per-cycle synthesis API, synthesize_block of one cycle",
    "baseline_measurement": "the paper's triangle baseline, compared in the acceptance tests",
    "save_working_point": "writes the flat config file that read_config_file reads",
    "propagate_noise": "the paper's two-ramp noise law, checked by criterion 6; a record's "
    "sigmas weigh all three selected ramps",
}

#: Parameters with a default (``function.parameter``) that no call in the
#: package passes, each with the reason the default stays.
UNPASSED = {
    "main.argv": "None parses sys.argv, as the console script needs; tests pass their own",
    "run_stream.state": "None starts a stream; a library caller may resume one, the CLI never",
}

#: Parameters with a default that every call in the package passes, each with
#: the file outside the tests whose call takes the default.
DEFAULTED_ELSEWHERE = {
    "calibrate.fft_bins": "perfbench/gen.py",
    "calibrate.offset": "perfbench/gen.py",
}


def _defined(node) -> list:
    """Names a top-level statement defines: a function, a class or a constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _referenced(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _members(node) -> list:
    """Methods and properties a class statement defines, special methods aside."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]


def _modules() -> list:
    root = Path(lfisensor.__file__).parent
    return [(path.name, ast.parse(path.read_text())) for path in sorted(root.glob("*.py"))]


def test_every_top_level_name_is_referenced_by_the_package():
    # A name that only tests call is a second code path kept in step by
    # hand: delete it, or list it above with its reason.  Re-exports in
    # __init__ and mentions in docstrings do not count as references; a
    # definition does not count as a reference to itself.  A class member
    # counts as referenced by any other statement or any other member of
    # its class that names it, whatever the object it is taken from.
    statements = [
        node for name, tree in _modules() if name != "__init__.py" for node in tree.body
    ]
    references = [_referenced(node) for node in statements]
    unreferenced = {
        name
        for i, node in enumerate(statements)
        for name in _defined(node)
        if not any(name in refs for j, refs in enumerate(references) if j != i)
    }
    for i, node in enumerate(statements):
        for member in _members(node):
            others = [refs for j, refs in enumerate(references) if j != i]
            others += [_referenced(m) for m in node.body if m is not member]
            if not any(member.name in refs for refs in others):
                unreferenced.add(f"{node.name}.{member.name}")
    assert unreferenced == set(UNREFERENCED)


def _functions(tree):
    """``(function, bound)`` of every function in ``tree``, at any depth; ``bound``
    is 1 for a method, whose ``self`` or ``cls`` no call argument fills, else 0."""
    for parent in ast.walk(tree):
        for fn in ast.iter_child_nodes(parent):
            if isinstance(fn, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                yield fn, int(isinstance(parent, ast.ClassDef) and not static)


def _defaults(tree):
    """``(function, parameter, position)`` of each parameter with a default of
    every function in ``tree``, at any depth.  The position is the index of
    the call argument that fills it, or None for a keyword-only parameter."""
    for fn, bound in _functions(tree):
        a = fn.args
        positional = [*a.posonlyargs, *a.args]
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield fn.name, arg.arg, i - bound
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None


def _calls(tree):
    """``(name, positional count, keyword names)`` of every call in ``tree``; a
    ``*args`` counts as any number of positional arguments and a ``**kwargs``
    as the keyword None, which stands for every keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            yield name, math.inf if starred else len(node.args), {k.arg for k in node.keywords}


def _passes(call, function, parameter, position) -> bool:
    name, n_positional, keywords = call
    return name == function and (
        parameter in keywords or None in keywords
        or (position is not None and n_positional > position))


def test_every_parameter_default_is_overridden_by_some_call_in_the_package():
    # A default that no caller overrides is a setting nobody sets: a
    # constant passed as a parameter, with branches for values that never
    # come.  Make it a constant, or list it above with its reason.  Calls
    # are matched by the function's name alone, whatever they are called on.
    trees = [tree for _, tree in _modules()]
    calls = [call for tree in trees for call in _calls(tree)]
    unpassed = {
        f"{function}.{parameter}"
        for tree in trees
        for function, parameter, position in _defaults(tree)
        if not any(_passes(call, function, parameter, position) for call in calls)
    }
    assert unpassed == set(UNPASSED)


def _takes_default(calls, function, parameter, position) -> bool:
    return any(call[0] == function and not _passes(call, function, parameter, position)
               for call in calls)


def test_every_parameter_default_is_taken_by_some_call_outside_the_tests():
    # A default that every call in the package overrides is a second call form
    # that only tests take.  Drop the default, or list above the file outside
    # the tests (the benchmark, say) whose call takes it.
    trees = [tree for _, tree in _modules()]
    calls = [call for tree in trees for call in _calls(tree)]
    always_passed = {
        f"{function}.{parameter}": (function, parameter, position)
        for tree in trees
        for function, parameter, position in _defaults(tree)
        if not _takes_default(calls, function, parameter, position)
    }
    assert set(always_passed) == set(DEFAULTED_ELSEWHERE)
    for name, path in DEFAULTED_ELSEWHERE.items():
        outside = list(_calls(ast.parse((ROOT / path).read_text())))
        assert _takes_default(outside, *always_passed[name]), f"{path} passes {name}"


def _shared_arguments(call, parameters) -> set:
    """Pairs of ``parameters`` (a function's positional ones, in call-argument
    order) to which ``call`` passes the same expression; none when a ``*args``
    or ``**kwargs`` hides which parameter gets what."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
            k.arg is None for k in call.keywords):
        return set()
    passed = [*zip(parameters, call.args), *((k.arg, k.value) for k in call.keywords)]
    return {frozenset((p, q)) for (p, x), (q, y) in combinations(passed, 2)
            if ast.dump(x) == ast.dump(y)}


def test_no_two_parameters_get_the_same_expression_from_every_call_in_the_package():
    # A parameter that every caller fills with what it passes to another is a
    # second name for it, and the function's branches for the two differing
    # never run: an output array that is always the input, say.  Drop one, or
    # let the function do what its callers do.  Calls are matched by the
    # function's name alone; a function that no call in the package names
    # passes.
    trees = [tree for _, tree in _modules()]
    calls = [(getattr(node.func, "id", None) or getattr(node.func, "attr", None), node)
             for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    shared = set()
    for tree in trees:
        for fn, bound in _functions(tree):
            parameters = [arg.arg for arg in [*fn.args.posonlyargs, *fn.args.args][bound:]]
            pairs = [_shared_arguments(call, parameters) for name, call in calls if name == fn.name]
            if pairs:
                shared |= {f"{fn.name}({', '.join(sorted(pair))})"
                           for pair in set.intersection(*pairs)}
    assert shared == set()


def test_main_alone_writes_the_run_manifest():
    # Each command returns what it read and wrote, and main records it: a
    # manifest field then has one place to go, and no command names itself.
    writers = [(name, _defined(node)) for name, tree in _modules() for node in tree.body
               if "_write_manifest" in _referenced(node)]
    assert writers == [("cli.py", ["main"])]


def test_errors_alone_names_max_work_bytes():
    # errors.check_work is the one refusal past the work-memory bound: a
    # module that compared against the constant itself would word its own.
    named = [name for name, tree in _modules()
             if "MAX_WORK_BYTES" in _referenced(tree)
             | {alias.name for alias in ast.walk(tree) if isinstance(alias, ast.alias)}]
    assert named == ["errors.py"]


def test_simulator_alone_builds_a_random_generator():
    # The seeding rule, one generator per cycle, default_rng((seed, cycle)),
    # has one home: a generator built anywhere else would seed its own
    # way, and a second call site could drift from the first.
    calls = [name for name, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and {"random", "default_rng"} & _referenced(node.func)]
    assert calls == ["simulator.py"]


#: Modules whose arithmetic makes a record's bytes, and the numpy names whose
#: result a BLAS kernel rounds.  Synthesis keeps its product: the float32
#: frame export hides its rounding.
RECORD_MODULES = ("spectral.py", "peaks.py", "pipeline.py", "solver.py")
BLAS_NAMES = {"dot", "matmul", "tensordot", "inner", "linalg"}


def test_no_matrix_product_on_the_processing_path():
    # A BLAS kernel picks its own blocking and FMA use per CPU, so a product
    # on this path would let a record's bytes differ between machines (and
    # with the height of a stack); fixed-order numpy reductions do not.
    found = []
    for name, tree in _modules():
        if name not in RECORD_MODULES:
            continue
        for node in ast.walk(tree):
            op = getattr(node, "op", None)
            called = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(op, ast.MatMult) or called in BLAS_NAMES:
                found.append(f"{name}:{node.lineno}")
    assert found == []
