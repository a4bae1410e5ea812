import importlib
import pkgutil

import kgcavity


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted breaks `import *`
    missing = []
    for info in pkgutil.iter_modules(kgcavity.__path__):
        mod = importlib.import_module("kgcavity." + info.name)
        missing += ["%s.%s" % (info.name, name)
                    for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
