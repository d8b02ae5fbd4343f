"""Output checks computed apart from graphtopo.

Every check takes the outputs a command wrote and returns a list of
failures; an empty list means the outputs are correct. Each check either
recomputes the result independently (numpy, scipy.sparse.csgraph,
networkx) or tests a property the method's solution must have. The
tolerances follow each method's stopping rule. Nothing here imports
graphtopo.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path


def _scale(*arrays) -> float:
    return max([1.0] + [float(np.max(np.abs(a))) for a in arrays if np.size(a)])


def _shape(name: str, a: np.ndarray, shape: tuple) -> list[str]:
    if a.shape != shape:
        return [f"{name}: shape {a.shape}, expected {shape}"]
    return []


def _close(name: str, got, want, tol: float) -> list[str]:
    gap = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not gap <= tol:
        return [f"{name}: off by {gap:.3e} (tolerance {tol:.3e})"]
    return []


def weights_from_json(data: dict, directed: bool = False) -> np.ndarray:
    """Dense weights from graph JSON {"n": n, "edges": [[i, j, w], ...]}."""
    n = int(data["n"])
    w = np.zeros((n, n))
    for i, j, weight in data["edges"]:
        w[int(i), int(j)] = weight
        if not directed:
            w[int(j), int(i)] = weight
    return w


def combinatorial_laplacian(w: np.ndarray) -> np.ndarray:
    return np.diag(w.sum(axis=1)) - w


def _check_laplacian(name: str, l: np.ndarray, n: int) -> list[str]:
    """Symmetric, non-positive off-diagonal, zero row sums, trace n."""
    bad = _shape(name, l, (n, n))
    if bad:
        return bad
    scale = _scale(l)
    off = l - np.diag(np.diag(l))
    bad += _close(f"{name} symmetry", l, l.T, 1e-12 * scale)
    if np.max(off) > 1e-12 * scale:
        bad.append(f"{name}: positive off-diagonal entry {np.max(off):.3e}")
    bad += _close(f"{name} row sums", l.sum(axis=1), 0.0, 1e-9 * scale * n)
    bad += _close(f"{name} trace", np.trace(l), n, 1e-9 * n)
    return bad


def _check_weights_of(name: str, w: np.ndarray, l: np.ndarray) -> list[str]:
    """W is the clipped, negated off-diagonal part of L."""
    want = -(l - np.diag(np.diag(l)))
    want = np.maximum((want + want.T) / 2.0, 0.0)
    return _shape(name, w, l.shape) or _close(name, w, want, 1e-12 * _scale(want))


# ---------------------------------------------------------------- learn

def check_signal(x: np.ndarray, w: np.ndarray, h, seed: int, p: int) -> list[str]:
    """Every column equals h(L_N) eps with eps drawn from
    default_rng(SeedSequence((seed, column))), L_N the normalised Laplacian."""
    n = w.shape[0]
    bad = _shape("signal", x, (n, p))
    if bad:
        return bad
    inv_sqrt = 1.0 / np.sqrt(w.sum(axis=1))
    ln = np.eye(n) - inv_sqrt[:, None] * w * inv_sqrt[None, :]
    filt = sum(c * np.linalg.matrix_power(ln, m) for m, c in enumerate(h))
    eps = np.column_stack([
        np.random.default_rng(np.random.SeedSequence((seed, col))).standard_normal(n)
        for col in range(p)])
    want = filt @ eps
    return _close("signal", x, want, 1e-12 * _scale(want))


def check_glasso(r: np.ndarray, q: np.ndarray, rho: float) -> list[str]:
    """Duality certificate for min -logdet Q + tr(RQ) + rho tr(Q)
    + (rho/2) sum_{i != j} |Q_ij|, the penalty graphtopo's glasso solves:
    V = Q^-1 has V_ii = R_ii + rho, |V_ij - R_ij| <= rho/2 off the
    diagonal, and the duality gap is small next to n."""
    n = r.shape[0]
    bad = _shape("precision", q, (n, n))
    if bad:
        return bad
    scale = _scale(q)
    bad += _close("precision symmetry", q, q.T, 1e-10 * scale)
    q = (q + q.T) / 2.0
    if np.linalg.eigvalsh(q)[0] <= 0.0:
        return bad + ["precision is not positive definite"]
    v = np.linalg.inv(q)
    off = ~np.eye(n, dtype=bool)
    bad += _close("diagonal of Q^-1", np.diag(v), np.diag(r) + rho, 1e-6 * _scale(r))
    excess = float(np.max(np.abs(v - r)[off])) - rho / 2.0
    if excess > 1e-4 * rho / 2.0:
        bad.append(f"off-diagonal of Q^-1 leaves the rho/2 box by {excess:.3e}")
    gap = float(rho / 2.0 * np.sum(np.abs(q[off])) - np.sum((v - r)[off] * q[off]))
    if not abs(gap) <= 1e-3 * n:
        bad.append(f"duality gap {gap:.3e} exceeds {1e-3 * n:.3e}")
    return bad


def lasso_rows_reference(x: np.ndarray, rho: float, max_sweeps: int = 50_000) -> np.ndarray:
    """Neighbourhood lasso of every row of x on the others, by coordinate
    descent on the Gram matrix S = X X'.

    Row i minimises ||x_i - sum_k b_ik x_k||^2 + rho sum_k |b_ik| (b_ii = 0).
    All rows are swept together; the loop stops once every KKT condition
    holds to 1e-9 rho.
    """
    s = x @ x.T
    n = s.shape[0]
    b = np.zeros((n, n))
    off = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        for j in range(n):
            t = s[:, j] - b @ s[:, j] + b[:, j] * s[j, j]
            b[:, j] = np.sign(t) * np.maximum(np.abs(t) - rho / 2.0, 0.0) / s[j, j]
            b[j, j] = 0.0
        grad = 2.0 * (b @ s - s)
        viol = np.where(b != 0.0, np.abs(grad + rho * np.sign(b)),
                        np.maximum(np.abs(grad) - rho, 0.0))
        if np.max(viol[off]) <= 1e-9 * rho:
            return b
    raise RuntimeError("lasso reference did not reach its KKT tolerance")


def symmetrize_clamped(b: np.ndarray) -> np.ndarray:
    """W_ij = sqrt(b_ij b_ji), or 0 where either coefficient is negative."""
    neg = (b < 0) | (b.T < 0)
    w = np.where(neg, 0.0, np.sqrt(np.abs(b * b.T)))
    np.fill_diagonal(w, 0.0)
    return w


def check_regress(w: np.ndarray, l: np.ndarray, w_ref: np.ndarray) -> list[str]:
    """W matches the symmetrised lasso reference; L = D - W."""
    n = w_ref.shape[0]
    bad = _shape("weights", w, (n, n)) + _shape("laplacian", l, (n, n))
    if bad:
        return bad
    bad += _close("weights vs lasso reference", w, w_ref, 1e-4 * float(np.max(w_ref)))
    bad += _close("laplacian vs D - W", l, combinatorial_laplacian(w), 1e-12 * _scale(l))
    return bad


def check_polyfit(r: np.ndarray, l: np.ndarray, w: np.ndarray, eigenvalues) -> list[str]:
    """L commutes with R, has trace n, and its eigenvalues along R's
    ascending eigenvectors are non-negative, non-decreasing and those the
    report lists."""
    n = r.shape[0]
    lam = np.asarray(eigenvalues, dtype=float)
    bad = _shape("laplacian", l, (n, n)) + _shape("eigenvalues", lam, (n,))
    if bad:
        return bad
    bad += _close("laplacian symmetry", l, l.T, 1e-12 * _scale(l))
    bad += _close("L R - R L", l @ r - r @ l, 0.0, 1e-10 * n * _scale(l) * _scale(r))
    bad += _close("trace", np.trace(l), n, 1e-9 * n)
    _, u = np.linalg.eigh(r)
    along = np.diag(u.T @ l @ u)
    if np.min(along) < -1e-9 * n:
        bad.append(f"negative eigenvalue {np.min(along):.3e}")
    if np.min(np.diff(along)) < -1e-9 * n:
        bad.append("eigenvalues decrease along R's ascending eigenvectors")
    bad += _close("reported eigenvalues", lam, along, 1e-8 * n)
    return bad + _check_weights_of("weights", w, l)


def check_smooth(l: np.ndarray, w: np.ndarray, objective_trace) -> list[str]:
    """L is a valid Laplacian with trace n, W = -offdiag(L), and the
    objective trace never increases."""
    trace = np.asarray(objective_trace, dtype=float)
    bad = _check_laplacian("laplacian", l, l.shape[0]) + _check_weights_of("weights", w, l)
    if trace.size == 0:
        return bad + ["objective trace is empty"]
    if np.any(np.diff(trace) > 1e-12 * np.abs(trace[:-1])):
        bad.append(f"objective increases by {np.max(np.diff(trace)):.3e}")
    return bad


# ---------------------------------------------------------------- metro

def betweenness_reference(w: np.ndarray) -> np.ndarray:
    import networkx as nx
    g = nx.from_numpy_array((w > 0).astype(int))
    scores = nx.betweenness_centrality(g, normalized=False)
    return np.array([scores[v] for v in range(w.shape[0])])


def _hop_distances(adj: np.ndarray) -> np.ndarray:
    return shortest_path(csr_matrix(adj), directed=False, unweighted=True)


def vitality_reference(w: np.ndarray) -> np.ndarray:
    """Wiener index of the graph minus that of each vertex-deleted graph;
    +inf where the deletion disconnects pairs that were reachable."""
    adj = w > 0
    n = adj.shape[0]
    base = _hop_distances(adj)
    finite = np.isfinite(base)
    np.fill_diagonal(finite, False)
    base_sum = base[finite].sum() / 2.0
    base_pairs = np.count_nonzero(finite) // 2
    out = np.zeros(n)
    for v in range(n):
        keep = np.delete(np.arange(n), v)
        d = _hop_distances(adj[np.ix_(keep, keep)])
        reach = np.isfinite(d)
        np.fill_diagonal(reach, False)
        if np.count_nonzero(reach) // 2 < base_pairs - np.count_nonzero(finite[v]):
            out[v] = np.inf
        else:
            out[v] = base_sum - d[reach].sum() / 2.0
    return out


def check_centrality(c: np.ndarray, b_ref: np.ndarray, v_ref: np.ndarray) -> list[str]:
    """Column 0 is betweenness, column 1 closeness vitality."""
    n = b_ref.size
    bad = _shape("centrality", c, (n, 2))
    if bad:
        return bad
    bad += _close("betweenness", c[:, 0], b_ref, 1e-9 * _scale(b_ref))
    v = c[:, 1]
    if not np.array_equal(np.isinf(v), np.isinf(v_ref)):
        return bad + ["closeness vitality is infinite at other vertices than the reference"]
    if np.any(np.isinf(v) & (v < 0)):
        bad.append("closeness vitality is -inf")
    fin = np.isfinite(v_ref)
    return bad + _close("closeness vitality", v[fin], v_ref[fin], 1e-9 * _scale(v_ref[fin]))


def check_population(w: np.ndarray, q: np.ndarray, k: float, phi: np.ndarray) -> list[str]:
    """L phi = -q / k for a balanced q, and min phi = 0."""
    n = w.shape[0]
    bad = _shape("population", phi, (n,))
    if bad:
        return bad
    resid = combinatorial_laplacian(w) @ phi + q / k
    bad += _close("L phi + q/k", resid, 0.0, 1e-9 * _scale(q / k, phi) * n)
    if float(np.min(phi)) != 0.0:
        bad.append(f"min population is {np.min(phi)!r}, not 0")
    return bad


# ---------------------------------------------------------------- solve

def check_swiss_roll(w: np.ndarray, coords: np.ndarray, seed: int, tau: float) -> list[str]:
    """Coordinates and weights rebuilt from the documented construction:
    u ~ U[-1, 1], v ~ U[pi, 4 pi] from default_rng(seed), unrolled-surface
    distances and W = exp(-r^2 / tau^2)."""
    n = w.shape[0]
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, n)
    v = rng.uniform(np.pi, 4.0 * np.pi, n)
    scale = 1.0 / (4.0 * np.pi)
    want = np.column_stack([scale * v * np.cos(v), u, scale * v * np.sin(v)])
    arc = scale * (0.5 * v * np.sqrt(v * v + 1.0) + 0.5 * np.arcsinh(v))
    r2 = (arc[:, None] - arc[None, :]) ** 2 + (u[:, None] - u[None, :]) ** 2
    w_want = np.exp(-r2 / tau ** 2)
    np.fill_diagonal(w_want, 0.0)
    bad = _shape("coords", coords, (n, 3))
    if bad:
        return bad
    return _close("coords", coords, want, 1e-12) + _close("weights", w, w_want, 1e-12)


def _pinned(name: str, x: np.ndarray, pins: np.ndarray) -> list[str]:
    idx = pins[:, 0].astype(int)
    return _close(f"{name} at pinned vertices", x[idx], pins[:, 1], 1e-12)


def _free_rows(n: int, pins: np.ndarray) -> np.ndarray:
    return np.setdiff1d(np.arange(n), pins[:, 0].astype(int))


def check_circuit(w: np.ndarray, pins: np.ndarray, currents: np.ndarray,
                  x: np.ndarray) -> list[str]:
    """Pins hold and the free rows of L x equal the injected currents."""
    n = w.shape[0]
    bad = _shape("potentials", x, (n,))
    if bad:
        return bad
    free = _free_rows(n, pins)
    lx = combinatorial_laplacian(w) @ x
    return _pinned("potentials", x, pins) + _close(
        "free rows of L x", lx[free], currents[free], 1e-9 * _scale(currents, lx, x))


def check_absorb(w: np.ndarray, pins: np.ndarray, x: np.ndarray) -> list[str]:
    """A harmonic extension of the pins whose values lie in [0, 1]."""
    bad = check_circuit(w, pins, np.zeros(w.shape[0]), x)
    if not bad and (np.min(x) < -1e-12 or np.max(x) > 1.0 + 1e-12):
        bad.append("absorbing probability outside [0, 1]")
    return bad


def _hitting_reference(w: np.ndarray, target: int) -> np.ndarray:
    n = w.shape[0]
    p = w / w.sum(axis=1, keepdims=True)
    keep = np.delete(np.arange(n), target)
    h = np.zeros(n)
    h[keep] = np.linalg.solve(np.eye(n - 1) - p[np.ix_(keep, keep)], np.ones(n - 1))
    return h


def check_hitting(w: np.ndarray, target: int, h: np.ndarray) -> list[str]:
    """h_t = 0 and h_i = 1 + sum_j P_ij h_j elsewhere."""
    n = w.shape[0]
    bad = _shape("hitting times", h, (n,))
    if bad:
        return bad
    p = w / w.sum(axis=1, keepdims=True)
    resid = h - 1.0 - p @ h
    resid[target] = h[target]
    return _close("hitting-time equations", resid, 0.0, 1e-9 * _scale(h))


def check_commute(w: np.ndarray, m: int, n: int, out: np.ndarray) -> list[str]:
    """Resistance (e_m - e_n)' L^+ (e_m - e_n) and commute time
    vol(G) R = h(m -> n) + h(n -> m)."""
    bad = _shape("resistance and commute time", out, (2,))
    if bad:
        return bad
    e = np.zeros(w.shape[0])
    e[m], e[n] = 1.0, -1.0
    resistance = float(e @ np.linalg.pinv(combinatorial_laplacian(w)) @ e)
    round_trip = _hitting_reference(w, n)[m] + _hitting_reference(w, m)[n]
    bad += _close("effective resistance", out[0], resistance, 1e-9 * resistance)
    bad += _close("commute time vs vol * R", out[1], w.sum() * resistance,
                  1e-9 * out[1])
    return bad + _close("commute time vs hitting round trip", out[1], round_trip,
                        1e-7 * round_trip)


def check_pagerank(links: np.ndarray, damping, tol: float, x: np.ndarray) -> list[str]:
    """The damped fixed point x = t + s W_N x holds to the bound the
    stopping rule max|x_new - x| < tol implies: s ||W_N||_inf tol."""
    n = links.shape[0]
    bad = _shape("scores", x, (n,))
    if bad:
        return bad
    teleport, scale = damping
    w_n = links.T / links.sum(axis=1)[None, :]
    bound = scale * float(np.max(np.abs(w_n).sum(axis=1))) * tol
    return bad + _close("damped fixed point", x, teleport + scale * (w_n @ x), bound)


def check_propagate(w: np.ndarray, labels: np.ndarray, x: np.ndarray) -> list[str]:
    """Labels hold, and each unlabelled value is the weighted mean of its
    neighbours to within the solver's 1e-10 step tolerance."""
    n = w.shape[0]
    bad = _shape("labels", x, (n,))
    if bad:
        return bad
    free = _free_rows(n, labels)
    mean = (w / w.sum(axis=1, keepdims=True)) @ x
    return _pinned("labels", x, labels) + _close("fixed point", x[free], mean[free], 1e-9)


def check_denoise(w: np.ndarray, k: int, reference: int, x: np.ndarray) -> list[str]:
    """x[reference] = 0 and the reduced L x has at most k nonzeros."""
    n = w.shape[0]
    bad = _shape("denoised", x, (n,))
    if bad:
        return bad
    if x[reference] != 0.0:
        bad.append(f"reference value {x[reference]!r} is not 0")
    keep = np.delete(np.arange(n), reference)
    lx = combinatorial_laplacian(w)[np.ix_(keep, keep)] @ x[keep]
    sources = int(np.count_nonzero(np.abs(lx) > 1e-8 * _scale(lx)))
    if sources > k:
        bad.append(f"{sources} sources in the reduced L x, expected at most {k}")
    return bad


def kron_sum_reference(dims) -> np.ndarray:
    """Kronecker-sum adjacency of path graphs, axis 0 varying fastest."""
    n = int(np.prod(dims))
    a = np.zeros((n, n))
    for j, d in enumerate(dims):
        path = np.eye(d, k=1) + np.eye(d, k=-1)
        before = int(np.prod(dims[:j]))
        a += np.kron(np.eye(n // (before * d)), np.kron(path, np.eye(before)))
    return a


def check_gdft(dims, u: np.ndarray, lam: np.ndarray) -> list[str]:
    """U is orthonormal, lambda ascends, and U diag(lambda) U' is the
    lattice adjacency."""
    n = int(np.prod(dims))
    bad = _shape("eigenvectors", u, (n, n)) + _shape("eigenvalues", lam, (n,))
    if bad:
        return bad
    if np.any(np.diff(lam) < 0):
        bad.append("eigenvalues are not ascending")
    bad += _close("U'U - I", u.T @ u, np.eye(n), 1e-10)
    return bad + _close("U diag(lambda) U'", (u * lam) @ u.T, kron_sum_reference(dims), 1e-10)


def check_allocation(weights: np.ndarray, leaves, scheme: str, cuts: int,
                     n: int) -> list[str]:
    """Weights are non-negative, sum to 1 and are constant within each of
    the cuts + 1 leaves; AS1 gives each leaf 2^-depth, AS2 1/(cuts + 1)."""
    bad = _shape("weights", weights, (n,))
    if bad:
        return bad
    members = sorted(v for leaf in leaves for v in leaf)
    if members != list(range(n)) or len(leaves) != cuts + 1:
        return ["leaves do not partition the assets into cuts + 1 parts"]
    if np.min(weights) < 0.0:
        bad.append("negative weight")
    bad += _close("weight sum", weights.sum(), 1.0, 1e-12)
    for leaf in leaves:
        share = weights[leaf]
        if np.ptp(share) > 1e-15:
            bad.append(f"weights vary within leaf {leaf[:3]}...")
        total = float(share.sum())
        if scheme == "AS1":
            depth = -np.log2(total) if total > 0 else np.inf
            if not (np.isfinite(depth) and depth >= 1
                    and abs(depth - round(depth)) < 1e-9):
                bad.append(f"leaf total {total!r} is not 2^-depth")
        elif abs(total - 1.0 / (cuts + 1)) > 1e-12:
            bad.append(f"leaf total {total!r} is not 1/(cuts + 1)")
    return bad


def check_verify(stdout: str, names) -> list[str]:
    """One `ok <name>` line per check and nothing else."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    want = [f"ok {name}" for name in names]
    if lines != want:
        return [f"verify printed {lines!r}, expected {want!r}"]
    return []
