"""The known-answer tests that hold across x86 hosts, rerun as other x86 hosts.

Each case reruns the platform-stable known answers (the raw stream and
uniforms, the ``decode_heatmaps`` and ``pckh`` digests, the run-config
digests) in a child process under one environment setting that makes this
host's libraries pick what another x86 host would:

- ``NPY_DISABLE_CPU_FEATURES`` makes numpy pass over SIMD kernels at import:
  numpy on an AVX2-only x86, and numpy on an x86 without AVX2;
- ``GLIBC_TUNABLES`` hides AVX2, FMA and AVX-512F from glibc, whose libm
  then takes its baseline x86-64 code paths;
- ``OPENBLAS_CORETYPE`` makes OpenBLAS run the kernels of a Haswell or a
  Sandy Bridge core.

The scene and target digests of ``tests/test_data.py`` are not in the set:
they go through float64 ``exp``, whose AVX-512 kernel and libm differ by
1 ULP, so they are this host's answers only.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import spt

KNOWN_ANSWERS = [
    "tests/test_rng.py",
    "tests/test_evaluation.py::TestDecode::test_known_answer_digest",
    "tests/test_evaluation.py::TestPckh::test_known_answer_digest",
    "tests/test_cli.py::TestRunConfig::test_digest_known_answers",
]

AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

# id: the environment setting of one emulated host
SETTINGS = {
    "avx2": {"NPY_DISABLE_CPU_FEATURES": AVX512},
    "no_avx2": {"NPY_DISABLE_CPU_FEATURES": AVX512 + " X86_V3"},
    "glibc_baseline": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"},
    "openblas_haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas_sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the settings emulate other x86-64 hosts")
@pytest.mark.parametrize("setting", SETTINGS.values(), ids=SETTINGS)
def test_known_answers_hold_on_other_x86_hosts(setting):
    root = Path(__file__).parents[1]
    env = {**os.environ, **setting, "PYTHONPATH": str(Path(spt.__file__).parents[1])}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        pytest.skip(f"numpy refuses {setting}: " + " ".join(probe.stderr.split())[-200:])
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          *KNOWN_ANSWERS], cwd=root, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-2000:]
