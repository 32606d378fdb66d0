"""What of the package only the cyclic garbage collector would free.

Reference counting frees an object the moment its last reference goes,
unless the object sits in a reference cycle; then it lives until the cyclic
collector happens to run. A self-referring closure over an array is such a
cycle: every call would keep its buffers past the return.
"""

from __future__ import annotations

import contextlib
import gc
import types

import numpy as np


def _is_package_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) and (obj.__module__ or "").split(".")[0] == "banditsgd"


def _cell_contents(cell):
    try:
        return cell.cell_contents
    except ValueError:  # an empty cell
        return None


def package_objects(objects) -> list[str]:
    """Describe the package's functions, the cells they close over, and cells
    that hold an ndarray or a package function, among ``objects``.

    The collector does not track ndarrays themselves; a cycle keeps one alive
    through a container it tracks, such as a cell. Anything else, such as a
    standard-library cycle, is left out.
    """
    functions = [obj for obj in objects if _is_package_function(obj)]
    closed_over = {id(cell) for function in functions for cell in function.__closure__ or ()}
    found = [f"function {function.__module__}.{function.__qualname__}" for function in functions]
    for obj in objects:
        if isinstance(obj, types.CellType):
            contents = _cell_contents(obj)
            if id(obj) in closed_over or isinstance(contents, np.ndarray) or _is_package_function(contents):
                found.append(f"cell holding {type(contents).__name__}")
    return found


@contextlib.contextmanager
def cyclic_package_garbage():
    """Run the block with the cyclic collector off, then collect what it left
    in cycles and append the package's part of it (see ``package_objects``)
    to the yielded list. The collector's state is restored on exit."""
    gc.collect()
    enabled, debug, saved = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    found: list[str] = []
    gc.disable()
    try:
        yield found
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        gc.collect()
        found.extend(package_objects(gc.garbage[saved:]))
    finally:
        del gc.garbage[saved:]
        gc.set_debug(debug)
        if enabled:
            gc.enable()
