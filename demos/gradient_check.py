"""Finite-difference audit of the hand-written backpropagation.

Every layer kind (circular conv, attention, bottleneck, layer norm,
dense, softmax/mse heads) is exercised inside two tiny composed
networks, one per task head.  Central differences at h=1e-6 in float64
against the analytic gradients; the worst relative error is reported
per network, and the script exits 1 if either check fails.

Run: python3 demos/gradient_check.py
"""

import sys
import time

from circscatter import training

t0 = time.time()
reports = training.grad_check_all(seed=0, tolerance=1e-4)
elapsed = time.time() - t0

for name, rep in reports.items():
    verdict = "PASS" if rep.passed else "FAIL"
    print(f"{name:>14}: {len(rep.entries)} parameter groups checked, "
          f"max relative error {rep.max_rel_error:.3e}  [{verdict}]")

print(f"\ntotal {elapsed:.1f} s; tolerance 1e-4")
print("the same routine backs the `circscatter gradcheck` CLI command")
sys.exit(0 if all(rep.passed for rep in reports.values()) else 1)
