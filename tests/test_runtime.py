"""The runtime needs numpy only: scipy serves the tests as an oracle."""

import os
import subprocess
import sys
from pathlib import Path

import cubicwkb

SRC = str(Path(cubicwkb.__file__).resolve().parents[1])

BLOCK_SCIPY = '''
import importlib.abc, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
'''


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)


def test_cli_runs_with_scipy_blocked(tmp_path):
    out = tmp_path / "classify.json"
    code = BLOCK_SCIPY + f'''
import cubicwkb.cli
from cubicwkb.bsb import real_orbit_constants

real_orbit_constants()
for argv in (["verify", "--a", "0.4", "--b", "-0.3"],
             ["poles", "--nmax", "2", "--mmax", "2"],
             ["classify", "--a", "0", "--b", "0", "--json", {str(out)!r}]):
    code = cubicwkb.cli.main(argv)
    assert code == 0, (argv, code)
'''
    done = run_python(code)
    assert done.returncode == 0, done.stderr
    assert out.stat().st_size > 0


def test_import_loads_no_scipy():
    done = run_python(
        "import sys\nimport cubicwkb.cli\n"
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
