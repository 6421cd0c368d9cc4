"""The stage block kernel's module boundary: the stepper and the stability
analysis both use it, and it uses neither."""

import ast
import inspect
import sys

import symparc.integrator as integrator
import symparc.kernel as kernel
import symparc.stability as stability


def _imports(module):
    """(module, name) for every name the module's source imports; name is
    None for a plain ``import module``."""
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)


def test_kernel_imports_only_numpy_the_standard_library_and_tableaux():
    imported = set()
    for module, name in _imports(kernel):
        # "from symparc import x" imports the module symparc.x
        imported.add(f"{module}.{name}" if module == "symparc" else module)
    assert "symparc.tableaux" in imported
    for module in imported:
        top = module.split(".")[0]
        assert module == "symparc.tableaux" or top == "numpy" or top in sys.stdlib_module_names, module


def test_stability_takes_no_private_name_from_integrator():
    private = [name for module, name in _imports(stability)
               if module == "symparc.integrator" and (name or "").startswith("_")]
    assert private == []


def test_integrator_binds_the_kernels_factorization():
    # the fold calls lu_factor through integrator's binding, which is the
    # one that bench/tracing.py wraps and tests patch
    assert integrator.lu_factor is kernel.lu_factor
