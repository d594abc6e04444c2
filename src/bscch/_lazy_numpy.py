"""Register numpy submodules bscch never uses as lazy modules.

Importing scipy.sparse reads every public attribute of numpy, which would
execute these (f2py pulls in charset_normalizer, testing pulls in unittest).
A LazyLoader module runs on its first attribute access instead, which
bscch never makes.
"""

import importlib.util
import sys

import numpy

for _name in ("f2py", "testing", "ma", "polynomial"):
    _full = f"numpy.{_name}"  # a module imported first is kept; a missing one skipped
    if _full in sys.modules or (_spec := importlib.util.find_spec(_full)) is None:
        continue
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    setattr(numpy, _name, _module)  # else numpy.__getattr__ re-imports it and recurses
