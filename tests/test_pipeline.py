import os
import subprocess
import sys
from pathlib import Path

import qubitcc


def test_library_import_leaves_out_cli():
    # a fresh interpreter, so modules imported by other tests cannot hide a leak
    src = str(Path(qubitcc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    check = ("import sys, qubitcc; "
             "print(sorted({'click', 'qubitcc.cli'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", check], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
