"""Reachability: every function that src/ defines is entered by some
recorded argv, or is named below with the reason it is not.

Every argv of tests/contract.json and one argv per benchmark op kind run
through cli.main in process under sys.setprofile, with every cache of the
package cleared first, so that a function a cache would skip is still
entered.  A function that no argv enters is either an allowlisted one or
code that no command reaches: record an argv that reaches it, or delete it.
"""
import ast
import importlib
import os
import pathlib
import sys

import lambdatower
from record_contract import ARGVS, run

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SRC = pathlib.Path(lambdatower.__path__[0])
MODULES = sorted(path.stem for path in SRC.glob("*.py")
                 if path.stem != "__init__")

# Never entered by a command, each for its reason.
_ORACLE = "a lift oracle that only the tests and the benchmark tracer call"
UNENTERED = {
    "covers.lift_word": _ORACLE,
    "covers.enumerate_lifts": _ORACLE,
    "covers.component_loop_path": _ORACLE,
    "covers.evaluate_character": _ORACLE,
    "covers._letters": "the mismatch rows of verify_lift_behaviour, which "
                       "only a tower that fails its audit reaches",
    "cyclo.CyclotomicNumber.coeffs": "read only by the benchmark tracer's "
                                     "cyclo.inverse.degree_max probe",
    "seifert.omega_signature": "the one-root signature, which the tracer "
                               "wraps and the tests take as the reference "
                               "of sigma_many's sweep",
    "seifert._matrix_of": "called only by omega_signature",
}


def _defined() -> set:
    """module.function and module.Class.method for every function defined
    at the top level of a module of src/ or in the body of its classes."""
    out = set()
    for name in MODULES:
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.add(f"{name}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                out |= {f"{name}.{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef)}
    return out


def _kind(argv) -> tuple:
    """The op kind of a benchmark argv: its command and subcommand."""
    if argv[0] in ("tower", "reproduce"):
        return tuple(argv[:2])
    return (argv[0],)


def _argvs() -> list:
    """The contract's argvs, then the first argv of each op kind of every
    benchmark workload."""
    argvs, kinds = list(ARGVS), set()
    for name in workloads.WORKLOADS:
        for argv in workloads.universe(name):
            if _kind(argv) not in kinds:
                kinds.add(_kind(argv))
                argvs.append(argv)
    return argvs


def _clear_caches() -> None:
    for name in MODULES:
        module = importlib.import_module(f"lambdatower.{name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _entered(argvs) -> set:
    """module.qualname of every src/ function that running argvs enters."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    _clear_caches()
    try:
        for argv in argvs:
            # Python unsets a profile function that raises, as this one does
            # when an argv nests past the recursion limit
            sys.setprofile(profile)
            run(argv)
    finally:
        sys.setprofile(None)
    root = str(SRC) + os.sep
    return {f"{pathlib.Path(code.co_filename).stem}.{code.co_qualname}"
            for code in codes if code.co_filename.startswith(root)}


def test_every_function_is_entered_or_allowlisted():
    argvs = _argvs()
    assert len(argvs) == len(ARGVS) + 10
    assert _defined() - _entered(argvs) == set(UNENTERED)


def test_reach_check_sees_an_unentered_function():
    entered = _entered([["arf", "--knot", "trefoil"]])
    assert {"cli._cmd_arf", "seifert.arf"} <= entered
    assert "cli._cmd_sig" not in entered and "cli._cmd_arf" in _defined()
