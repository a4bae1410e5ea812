import importlib
import os
import pkgutil
import subprocess
import sys

import kgcavity


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted breaks `import *`
    missing = []
    for info in pkgutil.iter_modules(kgcavity.__path__):
        mod = importlib.import_module("kgcavity." + info.name)
        missing += ["%s.%s" % (info.name, name)
                    for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_cli_import_loads_no_scipy():
    # scipy is imported only where tabulated data or the oracle need it, so
    # the bump and eigenmode runs never pay for it
    code = ("import sys, kgcavity.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(kgcavity.__path__[0]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
