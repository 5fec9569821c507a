import os
import subprocess
import sys

import dickesim

IMPORT_ALL_MODULES = """
import importlib, pkgutil, sys
import dickesim
for module in pkgutil.iter_modules(dickesim.__path__):
    importlib.import_module("dickesim." + module.name)
from dickesim.dicke_states import dicke
from dickesim.protocols import maximal_singlet_fraction, pair_channel, qss_run, telecloning_report
maximal_singlet_fraction(pair_channel(dicke(6, 3), 0, 1))
telecloning_report(dicke(6, 3))
qss_run(dicke(6, 3), 1000)
print(",".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_every_public_name_resolves():
    for name in dickesim.__all__:
        assert getattr(dickesim, name) is not None, name


def test_importing_every_module_leaves_scipy_out():
    # the package runs on numpy alone: neither importing its modules nor
    # computing singlet fractions or secret-sharing rounds loads scipy
    src = os.path.dirname(os.path.dirname(dickesim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL_MODULES],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
