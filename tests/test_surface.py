"""Every public function and method of the package is reached by a command.

A fixed set of CLI calls, run under a profiler, covers every command and
option, JSON and text output, at most 9 and more than 9 points, uniform
and mixed input.  What those calls leave unreached must be exactly the
allow-list below; anything else belongs in the tests (``references.py``)
or nowhere.
"""

import contextlib
import functools
import importlib
import inspect
import io
import pkgutil
import sys

import fatpoints
from fatpoints import cli

ARGVS = [
    ("alpha", "--mults", "3,2,2", "--json"),
    ("alpha", "--uniform", "12:3"),
    ("tau", "--mults", "5,4,3,3,2,2,1,1,1,1,1"),
    ("tau", "--uniform", "16:2", "--json"),
    ("beta", "--mults", "2,2", "--json"),
    ("beta", "--uniform", "9:2"),
    ("psi", "--mults", "5,4,3,3"),
    ("psi", "--uniform", "20:3", "--json"),
    ("hilb", "--mults", "2,2", "--window", "0:4"),
    ("hilb", "--uniform", "12:2", "--json"),
    ("res", "--mults", "3,3,3,3,3", "--json"),
    ("res", "--mults", "4,4,4,4,4,4,4,1"),
    ("decomp", "--mults", "2,2", "--t", "2"),
    ("decomp", "--mults", "3,3,2", "--t", "5", "--json"),
    ("bounds", "--uniform", "12:3", "--json"),
    ("bounds", "--mults", "9,8,7,7,7"),
    ("bounds", "--mults", "3,3,2,2,1", "--r", "3", "--d", "1", "--j", "1",
     "--weights", "3,1,1,1", "--json"),
    ("bounds", "--uniform", "22:3", "--r", "19", "--d", "4"),
    ("oracle", "--mults", "3,3,2", "--window", "0:8", "--json"),
    ("oracle", "--mults", "2,2", "--t", "3", "--nu", "--seed", "7", "--prime", "101"),
    ("oracle", "--uniform", "10:1"),
]

ALLOWED_UNREACHED = {
    # perfbench/fpbench/tracer.py names these in SPAN_FUNCTIONS; they go
    # when the benchmark's span list is next changed (ROADMAP item 2).
    "hilbert.expected_dim",
    "oracle.actual_hilbert",
    "oracle.actual_nu",
    "oracle.nullspace_mod_p",
    # Wired into `res` for quasi-uniform input by ROADMAP item 8.
    "resolution.classical_nu_bounds",
    "resolution.quasi_uniform_resolution",
}


def _public_code() -> dict:
    # Code object -> dotted name, for every public module-level function and
    # every public or dunder method (properties included) written in the
    # package's own source; dataclass-generated methods have no source there.
    names = {}
    for info in pkgutil.iter_modules(fatpoints.__path__):
        module = importlib.import_module(f"fatpoints.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                names[inspect.unwrap(obj).__code__] = f"{info.name}.{name}"
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and not attr.endswith("__"):
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, functools.cached_property):
                        member = member.func
                    if inspect.isfunction(member) and \
                            member.__code__.co_filename == module.__file__:
                        names[member.__code__] = f"{info.name}.{name}.{attr}"
    return names


def test_every_public_name_is_reached_or_allowed():
    public = _public_code()
    reached = set()
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: event == "call" and reached.add(frame.f_code))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(list(argv)) for argv in ARGVS]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(ARGVS)
    assert {name for code, name in public.items() if code not in reached} == ALLOWED_UNREACHED
