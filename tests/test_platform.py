"""The known-answer tests that hold across x86 hosts, rerun as other x86 hosts.

numpy picks its SIMD kernels at import from the CPU it finds, and
``NPY_DISABLE_CPU_FEATURES`` makes it pass over some of them.  Each case reruns
the platform-stable known answers (the raw stream and uniforms, the
``decode_heatmaps`` and ``pckh`` digests, the run-config digests) in a child
process under one such setting: numpy on an AVX2-only x86, and numpy on an x86
without AVX2.  The scene and target digests of ``tests/test_data.py`` are not
in the set: they go through float64 ``exp``, whose AVX-512 kernel and libm
differ by 1 ULP, so they are this host's answers only.
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


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the settings emulate other x86-64 hosts")
@pytest.mark.parametrize("disabled", [AVX512, AVX512 + " X86_V3"], ids=["avx2", "no_avx2"])
def test_known_answers_hold_on_other_x86_hosts(disabled):
    root = Path(__file__).parents[1]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled,
           "PYTHONPATH": str(Path(spt.__file__).parents[1])}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={disabled!r}: "
                    + " ".join(probe.stderr.split())[-200:])
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          *KNOWN_ANSWERS], cwd=root, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-2000:]
