"""Shared test oracles: independent evaluators that never touch the library's
own implementation of the quantity they check."""

import itertools
import json
import math
from decimal import Decimal, getcontext
from functools import lru_cache
from pathlib import Path

import numpy as np

from iupm import DilutionLevelData, MultiDilutionAssay

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def load_subjects():
    doc = json.loads((DATA_DIR / "subjects_qvoa.json").read_text())
    return doc["subjects"]


def subject_assay(record) -> MultiDilutionAssay:
    """QVOA-only assay (no sequencing columns) for one subject record."""
    levels = tuple(
        DilutionLevelData(u=u, M=M, M_N=M - MP, m=0, Y=(), q=0.0)
        for u, M, MP in zip(record["u"], record["M"], record["MP"])
    )
    return MultiDilutionAssay(levels, 0)


def simulate_wells(rng, M, lam):
    """Independent perfect-assay well generator (Bernoulli per lineage)."""
    lam = np.asarray(lam, dtype=float)
    Z = rng.random((M, lam.size)) < (1.0 - np.exp(-lam))
    W = Z.any(axis=1)
    return W.astype(int), Z.astype(int)


def random_level(rng, n=None, M=None, u=1.0, lam_scale=1.0, require_detected=False):
    """A valid dilution-level summary drawn by simulating wells directly."""
    while True:
        n_ = int(rng.integers(1, 5)) if n is None else n
        M_ = int(rng.integers(6, 40)) if M is None else M
        lam = rng.uniform(0.05, 0.6, n_) * lam_scale
        W, Z = simulate_wells(rng, M_, u * lam)
        pos = np.flatnonzero(W)
        q = float(rng.choice([0.5, 0.75, 1.0]))
        m = round(q * pos.size)
        R = np.zeros(M_, dtype=int)
        if m > 0:
            R[rng.choice(pos, size=m, replace=False)] = 1
        Y = (Z * R[:, None]).sum(axis=0)
        level = DilutionLevelData(
            u=u, M=M_, M_N=int(M_ - pos.size), m=int(m), Y=tuple(int(y) for y in Y), q=q
        )
        if not require_detected or (np.all(Y >= 1) and level.M > level.M_N + level.m):
            return level


def random_regular_assay(rng, D=1, n=3, M=24):
    """An assay with every lineage detected and at least one negative well."""
    while True:
        us = sorted(rng.choice([0.25, 0.5, 1.0, 2.0, 2.5], size=D, replace=False))
        levels = [random_level(rng, n=n, M=M, u=float(u)) for u in us]
        pooled = np.sum([lv.y_array() for lv in levels], axis=0)
        some_negative = any(lv.M_N > 0 for lv in levels)
        if np.all(pooled >= 1) and some_negative:
            return MultiDilutionAssay(tuple(levels), n)


def decimal_log_likelihood(lam, level, digits=50) -> float:
    """High-precision direct evaluation of the summarized log-likelihood."""
    getcontext().prec = digits
    one = Decimal(1)
    total = Decimal(0)
    lam_dec = [Decimal(repr(float(v))) for v in np.atleast_1d(lam)]
    seq_neg = level.M_N + level.m
    for lam_i, y in zip(lam_dec, level.Y):
        p_neg = (-lam_i).exp()
        if y > 0:
            total += Decimal(y) * (one - p_neg).ln()
        total -= lam_i * Decimal(seq_neg - y)
    unseq = level.M - seq_neg
    if unseq > 0:
        lam_total = sum(lam_dec, Decimal(0))
        total += Decimal(unseq) * (one - (-lam_total).exp()).ln()
    return float(total)


def _reference_log1mexp_arr(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < math.log(2.0)
    with np.errstate(divide="ignore"):
        out[small] = np.log(-np.expm1(-x[small]))
        big = ~small
        out[big] = np.log1p(-np.exp(-x[big]))
    return out


def _reference_log1mexp(x):
    if x < math.log(2.0):
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


def reference_log_likelihood(lam, level) -> float:
    """The Poisson level log-likelihood as first written, rebuilding every
    per-level constant on each call: the oracle the cached-constant kernel
    must match bit for bit."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    Y = np.asarray(level.Y, dtype=float)
    if np.any(lam < 0):
        return -math.inf
    seq_neg = level.M_N + level.m
    unseq = level.M - seq_neg
    pos = Y > 0
    if np.any(pos & (lam == 0.0)):
        return -math.inf
    total = -float(lam @ (seq_neg - Y))
    if np.any(pos):
        total += float(Y[pos] @ _reference_log1mexp_arr(lam[pos]))
    if unseq > 0:
        lam_total = float(lam.sum())
        if lam_total <= 0.0:
            return -math.inf
        total += unseq * _reference_log1mexp(lam_total)
    return total


def reference_gradient(lam, level) -> np.ndarray:
    """The Poisson level gradient as first written (see reference_log_likelihood)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    Y = np.asarray(level.Y, dtype=float)
    seq_neg = level.M_N + level.m
    unseq = level.M - seq_neg
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.expm1(lam)
        lead = np.where(Y > 0, Y / t, 0.0)
    out = lead - (seq_neg - Y)
    if unseq != 0:
        lam_total = float(lam.sum())
        with np.errstate(divide="ignore", over="ignore"):
            out = out + unseq / np.expm1(lam_total)
    return out


@lru_cache(maxsize=1)
def _reference_log_binom_row(M: int) -> np.ndarray:
    lg = np.fromiter(map(math.lgamma, range(1, M + 2)), dtype=float, count=M + 1)
    row = (lg[M] - lg) - lg[::-1]
    row.flags.writeable = False
    return row


def reference_binomial_sums(Lambda: float, M: int, q: float) -> tuple[float, float, float, float]:
    """The expected-information sums as first vectorized, over every count
    k = 0..M: the oracle the windowed ``_binomial_sums`` must match bit for
    bit."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if Lambda <= 0.0 or q == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    k = np.arange(M + 1, dtype=float)
    pos = M - k
    log_w = _reference_log_binom_row(M) + k * -Lambda
    log_w += pos * _reference_log1mexp(Lambda)
    w = np.exp(log_w, out=log_w)
    seq = np.rint(q * pos)
    Em = float(w @ seq)
    s = math.exp(-Lambda)
    p = -math.expm1(-Lambda)
    r = s / p
    dEm = float((w * seq) @ (pos * r - k))
    return Em, Em / p, dEm, (dEm - r * Em) / p


def reference_binomial_weights(Lambda: float, M: int) -> np.ndarray:
    """The Binomial(M, e^-Lambda) weights of every count, as
    ``reference_binomial_sums`` computes them."""
    k = np.arange(M + 1, dtype=float)
    log_w = _reference_log_binom_row(M) + k * -Lambda
    log_w += (M - k) * _reference_log1mexp(Lambda)
    return np.exp(log_w, out=log_w)


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        e = np.zeros(x.size)
        e[i] = step
        out[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return out


def fd_hessian_of_gradient(g, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        step = h * max(1.0, abs(x[i]))
        e = np.zeros(n)
        e[i] = step
        H[:, i] = (np.asarray(g(x + e)) - np.asarray(g(x - e))) / (2.0 * step)
    return (H + H.T) / 2.0


def enumerate_expectations(lam, M, q):
    """Exact E(m) and E(Y_i) by enumerating all well configurations and all
    equally likely sequencing subsets.  Feasible for small M and n."""
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    p = 1.0 - np.exp(-lam)
    e_m = 0.0
    e_y = np.zeros(n)
    for config in itertools.product(range(2**n), repeat=M):
        rows = np.array([[(c >> i) & 1 for i in range(n)] for c in config])
        prob = float(np.prod(np.where(rows == 1, p, 1.0 - p)))
        if prob == 0.0:
            continue
        W = rows.any(axis=1)
        pos = np.flatnonzero(W)
        m = round(q * pos.size)
        e_m += prob * m
        if m == 0:
            continue
        subsets = list(itertools.combinations(pos, m))
        for subset in subsets:
            e_y += (prob / len(subsets)) * rows[list(subset)].sum(axis=0)
    return e_m, e_y


def brute_force_joint_prob(lam, w_star, z_star, rates) -> float:
    """2^n enumeration of the imperfect-assay joint well probability."""
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    total = 0.0
    for zs in itertools.product((0, 1), repeat=n):
        w = 1 if sum(zs) >= 1 else 0
        if w == 1:
            pw = rates.sens_qvoa if w_star == 1 else 1.0 - rates.sens_qvoa
        else:
            pw = 1.0 - rates.spec_qvoa if w_star == 1 else rates.spec_qvoa
        prob = pw
        for i, z in enumerate(zs):
            if z == 1:
                pz = rates.sens_udsa if z_star[i] == 1 else 1.0 - rates.sens_udsa
                prob *= pz * (1.0 - math.exp(-lam[i]))
            else:
                pz = 1.0 - rates.spec_udsa if z_star[i] == 1 else rates.spec_udsa
                prob *= pz * math.exp(-lam[i])
        total += prob
    return total


def direct_nb_log_likelihood(tau, gamma, assay) -> float:
    """Straightforward evaluation of the overdispersed likelihood from its
    zero-probability definition, written independently of the library."""
    tau = np.asarray(tau, dtype=float)
    total = 0.0
    for lv in assay.levels:
        lam = lv.u * tau
        if gamma == 0.0:
            p0 = np.exp(-lam)
        else:
            p0 = (gamma * lam + 1.0) ** (-1.0 / gamma)
        for y, p in zip(lv.Y, p0):
            if y > 0:
                total += y * math.log(1.0 - p)
            total += (lv.M_N + lv.m - y) * math.log(p)
        unseq = lv.M - lv.M_N - lv.m
        if unseq > 0:
            total += unseq * math.log(1.0 - float(np.prod(p0)))
    return total


def myers_mle_bisect(levels, lo=1e-10, hi=200.0) -> float:
    """Root of the one-parameter score by bisection (no sequencing data)."""
    def score(T):
        return sum(lv.u * ((lv.M - lv.M_N) / math.expm1(lv.u * T) - lv.M_N) for lv in levels)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if score(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
