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


NO_MA_CHILD = """
import sys, tempfile
from kgcavity import experiment
vals = {"boundary.profile": "sinusoidal", "boundary.alpha": "0.5",
        "boundary.beta": "0.05", "boundary.period": "1.0",
        "mass.values": "0.0, 0.3", "data.family": "bump",
        "data.center": "0.25", "data.width": "0.1", "data.amplitude": "1.0",
        "data.direction": "right", "grid.resolution": "64",
        "grid.horizon_periods": "6", "analysis.rotation_iterations": "2000",
        "fit.burn_in_windows": "1", "scan.parameter": "boundary.beta",
        "scan.values": "0.0:0.05:2", "output.dir": tempfile.mkdtemp(),
        "seed": "3"}
cfg = experiment.ExperimentConfig(vals)
experiment.run_experiment(cfg)
experiment.scan(cfg)
experiment.run_verify(cfg)
print(sorted(m for m in ("numpy.ma", "numpy.polynomial") if m in sys.modules))
"""


def test_cli_bodies_load_no_numpy_ma_or_polynomial():
    # np.unique imports numpy.ma on its first call (numpy 2.4), 9-12 ms and
    # 1.7 MB inside every run, and numpy.polynomial (for leggauss) costs
    # 0.8 MB; a child process, since pytest may load both
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(kgcavity.__path__[0]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", NO_MA_CHILD], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
