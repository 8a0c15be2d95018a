"""Every golden case gives the committed files again (see regenerate_golden.py).

Almost every output compares bit for bit. Two parts compare to RTOL instead,
because their last bits follow the BLAS kernel and numpy's SIMD level. This
was measured by running every case under OPENBLAS_CORETYPE SkylakeX (the
kernel the files were made with), Haswell, Sandybridge and Prescott, and
Haswell with numpy's AVX-512 paths off:
- local_bo rows moved by up to 1.3e-9 relative. Its finite-difference
  gradient (h = 1e-6 x range) amplifies the last-bit differences.
- criterion 7's sweep.csv moved at omega 0.1-0.3, by up to 3.9e-8 relative.
  A low-inertia swarm collapses, so a last-bit difference in the surface can
  pick a different one of nearly equal particles.
Everything else, every pso_bo output at the default omega included, was
bit-identical under all five settings.
"""

import json
import re

import pytest

from regenerate_golden import CASES, GOLDEN, run_case

RTOL = 1e-6
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def split_tolerant(case, name, text) -> tuple[str, str]:
    """(the part of an output file that must match exactly, the part whose
    numbers compare to RTOL)."""
    if case == "criterion7_sweep" or name.startswith("trace_local_bo_"):
        return "", text
    if name == "report.json":
        data = json.loads(text)
        local = [m for m in data["methods"] if m["kind"] == "local_bo"]
        data["methods"] = [m for m in data["methods"] if m["kind"] != "local_bo"]
        return json.dumps(data, sort_keys=True), json.dumps(local, sort_keys=True)
    lines = text.splitlines()
    return ("\n".join(s for s in lines if not s.startswith("local_bo,")),
            "\n".join(s for s in lines if s.startswith("local_bo,")))


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(tmp_path, case):
    run_case(case, tmp_path / case)
    want_dir = GOLDEN / case
    names = sorted(p.name for p in want_dir.iterdir())
    assert sorted(p.name for p in (tmp_path / case).iterdir()) == names
    for name in names:
        (got, got_tol), (want, want_tol) = (
            split_tolerant(case, name, (d / name).read_text(encoding="utf-8"))
            for d in (tmp_path / case, want_dir))
        assert got == want, f"{case}/{name} differs"
        # the same text around numbers that agree to RTOL
        assert _NUMBER.sub("#", got_tol) == _NUMBER.sub("#", want_tol), f"{case}/{name} differs"
        assert ([float(v) for v in _NUMBER.findall(got_tol)]
                == pytest.approx([float(v) for v in _NUMBER.findall(want_tol)], rel=RTOL)), \
            f"{case}/{name} moved beyond RTOL"
