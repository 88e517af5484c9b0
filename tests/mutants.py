"""Mutant catalogue: one-line faults of src/ and the tier-1 tests that catch them.

Each mutant is (name, file under src/twoscale, old text, new text, what it
models).  Run from the repository root:

    python tests/mutants.py [name ...]

The checkout is copied to a temporary directory once; each mutant is
written into that copy alone, tier-1 runs there without the tests in
SET_ASIDE (a pinned hash catches any change, right or wrong, so it says
nothing about which property a mutant breaks), and the copy's file is put
back.  The
script prints the failing tests of each mutant and exits 1 if a mutant
that must be caught survives, 2 if the unmutated copy fails.  The
checkout itself is only read.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    ("fast_lag_plus1", "solver.py",
     "yk, ytau = y[i], y[i - lag]", "yk, ytau = y[i], y[i - lag + 1]",
     "the coupled fast equation reads its delayed state one step too recent"),
    ("noise_wrong_column_m2", "solver.py",
     "inc = inc + s[..., j] * dw[..., j: j + 1]", "inc = inc + s[..., j] * dw[..., :1]",
     "every noise component after the first reuses the first column of dW"),
    ("aux_reads_live_x", "solver.py",
     "xseg = xt[kb: kb + ts + 1]", "xseg = x[kb: kb + ts + 1]",
     "the block-frozen pass freezes its own slow path instead of the true one"),
    ("frozen_reads_lag0", "solver.py",
     "(chi, path[i], path[k])", "(chi, path[i], path[i])",
     "the frozen fast equation reads its current state as the delayed one"),
    ("fast_noise_scale", "solver.py",
     "dw2 * (epsilon ** -0.5)", "dw2 * (epsilon ** -0.45)",
     "the fast noise is scaled by eps^-0.45, not eps^-1/2"),
    ("aux_no_fast_reset", "solver.py",
     "y[i] = yt[i]", "pass",
     "the auxiliary fast process is never restarted from the true one"),
    ("aux_sigma1_live_x", "solver.py",
     "(sx := sigma1(xseg))", "(sx := sigma1(x[k: i + 1]))",
     "the block-frozen pass's slow noise reads its own live slow window, not the frozen one"),
    ("mixing_unsynced", "frozen.py",
     "yb = simulate_frozen(spec, zeta, eta_prime, grid, dw2)",
     "yb = simulate_frozen(spec, zeta, eta_prime, grid, dw2[::-1])",
     "the eta_prime batch runs on time-reversed increments: the pair is not synchronous"),
    ("estimator_no_burn_in", "frozen.py",
     "fast = y[k_burn: k_burn + k_len + ts + 1]", "fast = y[0: k_len + ts + 1]",
     "the time average of b1 starts at t = 0, not after the burn-in"),
    ("b1_window_stale", "solver.py",
     "b1(xseg, y[k: i + 1])", "b1(xseg, y[max(k - 1, 0): max(k - 1, 0) + ts + 1])",
     "the slow drift sees the fast window of the previous step"),
    ("gain_reads_a12", "systems.py",
     "return self.c1 / (self.c2 - self.c3)", "return self.a12 / (self.c2 - self.c3)",
     "the benchmark's stationary gain reads a12 for c1; right wherever a12 = c1"),
    ("bench_s1_reads_s2", "systems.py",
     "s1_mat = np.array([[params.s1]])", "s1_mat = np.array([[params.s2]])",
     "the benchmark's slow noise scale reads s2 for s1; right wherever s1 = s2"),
    ("bench_b1_reads_c1", "systems.py",
     "return a11 * chi[-1] + a12 * phi[-1]", "return a11 * chi[-1] + c1 * phi[-1]",
     "the benchmark's slow drift reads c1 for a12; right wherever a12 = c1"),
    ("averaged_on_w2", "harness.py",
     'c.grid, dw1, c.extra["row"], paths)', 'c.grid, c.noise(paths, W2), c.extra["row"], paths)',
     "converge's averaged pass reads the W2 stream, not the coupled run's W1 increments"),
    ("source_skips_budget", "averaging.py",
     "_budget(spec.tau, burn_in, horizon, replicas, h)  # a bad budget fails here, not in a call",
     "pass",
     "the estimator drift source takes any budget and fails only at its first drift call"),
    ("box_muller_shift12", "noise.py",
     "u1 = ((raw[0::2] >> np.uint64(11))", "u1 = ((raw[0::2] >> np.uint64(12))",
     "u1 keeps 52 random bits, so it lies in (0, 1/2] and every deviate is too large"),
    ("box_muller_one_word", "noise.py",
     "u1 = ((raw[0::2] >>", "u1 = ((raw[1::2] >>",
     "u1 reads the raw words u2 reads, so the two uniforms of a deviate are one"),
]

# Mutants that no test is yet expected to catch, with the reason.
MAY_SURVIVE = {
    "noise_wrong_column_m2": "no test has an exact oracle for m >= 2 noise (ROADMAP item 10)",
}

# Tests that pin recorded bytes or hashes rather than a property, and the
# catalogue's own check that each old text is still in src/.  Each entry
# deselects every test whose node id starts with it.
SET_ASIDE = [
    "tests/test_golden.py::test_golden_report_hash",
    "tests/test_golden.py::test_golden_hash_with_uneven_path_chunks",
    "tests/test_golden.py::test_bench_workload_hash",
    "tests/test_averaging.py::test_estimated_drift_bytes_are_pinned",
    "tests/test_mutants.py",
]


def _failures(copy: Path) -> list[str] | None:
    """Node ids of the tier-1 tests that fail in copy, or None if pytest could not run."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", *(f"--deselect={t}" for t in SET_ASIDE)]
    out = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    if out.returncode not in (0, 1):
        print(out.stdout[-2000:], out.stderr[-2000:], sep="\n")
        return None
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", out.stdout, flags=re.M)


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="twoscale-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis"))
        clean = _failures(copy)
        if clean != []:
            print(f"the unmutated copy fails: {clean}")
            return 2
        survived = []
        for name, fname, old, new, models in chosen:
            path = copy / "src" / "twoscale" / fname
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: old text occurs {text.count(old)} times in {fname}")
                return 2
            path.write_text(text.replace(old, new))
            try:
                failed = _failures(copy)
            finally:
                path.write_text(text)
            print(f"{name} ({models}): ", end="")
            if failed is None:
                print("pytest did not run")
                return 2
            if not failed:
                print("SURVIVED" + (f" (allowed: {MAY_SURVIVE[name]})"
                                    if name in MAY_SURVIVE else ""))
                if name not in MAY_SURVIVE:
                    survived.append(name)
                continue
            print(f"{len(failed)} failing")
            for test in failed:
                print(f"    {test}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
