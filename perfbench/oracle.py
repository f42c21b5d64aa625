"""Exact discrete optimum by a backward Riccati recursion.

The discrete problem is a finite-horizon discrete-time LQR (Anderson & Moore,
*Optimal Control: Linear Quadratic Methods*, 1990):

    y_{n+1} = A y_n + B v_n,   n = 0..N
    J = sum_{n=0..N} (y_n' Q y_n + v_n' R v_n) / 2 + y_{N+1}' Q_f y_{N+1} / 2

with Q = k1*dt*h, R = k0*dt and Q_f = k2*h (scalar multiples of the identity),
so J_opt(y0) = y0' P_0 y0 / 2.  A and B are read from one step of the
program's ``solve_state`` and cross-checked against the stencil its docstring
documents.  P_0 costs about 2 s at H = 100 and 20 s at H = 200 on a 2-vCPU
x86 VM, so it is cached under ``.perfbench_cache/`` in the checkout, keyed
by a digest of A, B, the weights and the stage count.

Regenerate the cache with::

    python3 perfbench/oracle.py [WORKLOAD ...]
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".perfbench_cache"
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from adrcontrol import (  # noqa: E402
    CGConfig,
    ControlField,
    DiscreteProblem,
    PhysicalConfig,
    cg_solve,
    control_indices,
    solve_state,
    stable_step_count,
)

# solve_state against the A, B march and against the documented stencil.
REPRODUCTION_TOL = 1e-12


def step_matrices(problem):
    """A and B of one explicit step, read from ``solve_state``.

    A one-step problem (T = dt, N = 1) still marches to level N + 1 = 2, so
    the single step is column 1 of ``.interior``; ``.terminal`` would be the
    second step and give A^2.
    """
    g = problem.grid
    one = DiscreteProblem.create(replace(problem.phys, T=g.dt), 1, g.H, g.M)
    zero_control = ControlField.zeros(one.grid)
    A = np.empty((g.H + 1, g.H + 1))
    for j in range(g.H + 1):
        e = np.zeros(g.H + 1)
        e[j] = 1.0
        A[:, j] = solve_state(one, e, zero_control).interior[:, 1]
    B = np.empty((g.H + 1, g.M + 1))
    zero_state = np.zeros(g.H + 1)
    for k in range(g.M + 1):
        v = np.zeros((g.M + 1, 2))
        v[k, 0] = 1.0
        B[:, k] = solve_state(one, zero_state, ControlField(v)).interior[:, 1]
    return A, B


def documented_step_matrices(problem):
    """A and B assembled from the scheme written in ``solvers``' docstring.

    Upwind advection (y[j+1] - y[j])/h, ghost nodes y[-1] = y[0] + (h/mu)*v_0
    and y[H+1] = y[H] + (h/mu)*v_M, interior sources dt*v_k/h at node j_k.
    """
    g, p = problem.grid, problem.phys
    H, h, dt, mu, eps = g.H, g.h, g.dt, p.mu, p.eps
    lower = dt * mu / h**2
    upper = dt * (mu / h**2 - eps / h)
    A = np.diag(np.full(H + 1, 1.0 + dt * (1.0 - 2.0 * mu / h**2 + eps / h)))
    A += np.diag(np.full(H, lower), -1) + np.diag(np.full(H, upper), 1)
    # Ghost y[-1] = y[0] folds the missing left neighbour into the diagonal;
    # at j = H the ghost y[H+1] = y[H] cancels the advection difference too.
    A[0, 0] += lower
    A[H, H] += upper
    B = np.zeros((H + 1, g.M + 1))
    for k, j in enumerate(control_indices(g)):
        B[j, k] = dt / h
    B[H, g.M] -= dt * eps / mu
    return A, B


def weights(problem):
    g, p = problem.grid, problem.phys
    return p.k1 * g.dt * g.h, p.k0 * g.dt, p.k2 * g.h


def riccati_p0(A, B, q, r, qf, stages):
    """Value matrix P_0 of the LQR with Q = q*I, R = r*I, Q_f = qf*I."""
    P = qf * np.eye(A.shape[0])
    R = r * np.eye(B.shape[1])
    for _ in range(stages):
        PA = P @ A
        PB = P @ B
        K = np.linalg.solve(R + B.T @ PB, PB.T @ A)
        P = A.T @ (PA - PB @ K)
        P = 0.5 * (P + P.T)
        P[np.diag_indices_from(P)] += q
    return P


def check_step_matrices(problem, A, B, steps=20, seed=0):
    """Failures of A and B against solve_state and the documented stencil."""
    failures = []
    doc_A, doc_B = documented_step_matrices(problem)
    scale = max(np.abs(A).max(), np.abs(B).max())
    err = max(np.abs(A - doc_A).max(), np.abs(B - doc_B).max()) / scale
    if not err <= REPRODUCTION_TOL:
        failures.append(f"solve_state step differs from the documented stencil by {err:.2e}")

    g = problem.grid
    short = DiscreteProblem.create(replace(problem.phys, T=steps * g.dt), steps, g.H, g.M)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(g.H + 1)
    v = rng.standard_normal((g.M + 1, steps + 1))
    march = solve_state(short, y, ControlField(v)).interior
    ref = [y]
    for n in range(steps + 1):
        ref.append(A @ ref[-1] + B @ v[:, n])
    ref = np.stack(ref, axis=1)
    err = np.abs(march - ref).max() / np.abs(ref).max()
    if not err <= REPRODUCTION_TOL:
        failures.append(f"A, B march differs from solve_state by {err:.2e} over {steps} steps")
    return failures


def cache_key(A, B, q, r, qf, stages):
    digest = hashlib.sha256()
    for arr in (A, B, np.array([q, r, qf, stages], dtype=float)):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:24]


class Oracle:
    """J_opt for one (physics, grid, M).

    With a ``cache_dir``, P_0 is loaded from it or computed and stored there.
    """

    def __init__(self, problem, cache_dir=None, refresh=False):
        self.problem = problem
        self.A, self.B = step_matrices(problem)
        q, r, qf = weights(problem)
        stages = problem.grid.N + 1
        if cache_dir is None:
            self.P0 = riccati_p0(self.A, self.B, q, r, qf, stages)
            return
        path = Path(cache_dir) / f"p0-{cache_key(self.A, self.B, q, r, qf, stages)}.npy"
        if path.exists() and not refresh:
            self.P0 = np.load(path)
            return
        self.P0 = riccati_p0(self.A, self.B, q, r, qf, stages)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            np.save(fh, self.P0)
        os.replace(tmp, path)

    def j_opt(self, y0):
        y0 = np.asarray(y0, dtype=float)
        return 0.5 * float(y0 @ self.P0 @ y0)

    def check(self):
        return check_step_matrices(self.problem, self.A, self.B)


def self_check():
    """Failures of the oracle on a small symmetric (eps = 0) problem.

    With eps = 0 the program's adjoint is the exact transpose, so CG at a
    tight tolerance must reach J_opt; A and B must reproduce solve_state.
    """
    H, M, tol = 10, 2, 1e-10
    phys = PhysicalConfig(eps=0.0)
    problem = DiscreteProblem.create(phys, stable_step_count(phys, H), H, M)
    oracle = Oracle(problem)
    failures = oracle.check()
    x = np.linspace(0.0, 1.0, H + 1)
    y0 = np.sin(np.pi * x) + x * (1.0 - x)
    _, report = cg_solve(problem, y0, CGConfig(tol=tol))
    j_cg, j_opt = report.cost_history[-1].total, oracle.j_opt(y0)
    gap = (j_cg - j_opt) / j_opt
    if not abs(gap) <= 1e-9:
        failures.append(f"CG at tol={tol:g} ends {gap:.2e} relative from the Riccati optimum")
    return failures


def main(argv):
    from workloads import WORKLOADS, cases

    names = argv or list(WORKLOADS)
    for name in names:
        seen = set()
        for case in cases(WORKLOADS[name], seed=0):
            g = case.problem.grid
            if (g.H, g.N, g.M) in seen:
                continue
            seen.add((g.H, g.N, g.M))
            oracle = Oracle(case.problem, cache_dir=CACHE_DIR, refresh=True)
            failures = oracle.check()
            print(f"{name}: H={g.H} N={g.N} M={g.M} cached; "
                  f"{'; '.join(failures) if failures else 'A, B reproduce solve_state'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
