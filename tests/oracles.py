"""Independent reference implementations used to check the library.

Everything here is written directly against numpy, with no imports from
the package under test, so the two evaluation paths share no code.
"""

import math

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def ketbra(i, j, dim=2):
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def dag(a):
    return a.conj().T


def tr(a):
    return complex(np.trace(a))


def fnorm2(a):
    return float(np.sum(np.abs(a) ** 2))


def sqrtm_psd(h):
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dag(v)


def center(k, rho):
    return k - tr(rho @ k) * np.eye(k.shape[0])


def absvar(rho, k):
    k0 = center(k, rho)
    return tr(rho @ dag(k0) @ k0).real


def symvar(rho, k):
    return 0.5 * (absvar(rho, k) + absvar(rho, dag(k)))


def skew_info(s, k):
    return 0.5 * fnorm2(s @ k - k @ s)


def anti_info(s, k):
    return 0.5 * fnorm2(s @ k + k @ s)


def channel_measures(rho, ops):
    s = sqrtm_psd(rho)
    v = sum(symvar(rho, op) for op in ops)
    it = sum(skew_info(s, center(op, rho)) for op in ops)
    jt = sum(anti_info(s, center(op, rho)) for op in ops)
    u = float(np.sqrt(max(it * jt, 0.0)))
    return v, it, jt, u


def u_of_operator(rho, k):
    s = sqrtm_psd(rho)
    k0 = center(k, rho)
    return float(np.sqrt(max(skew_info(s, k0) * anti_info(s, k0), 0.0)))


def pad(es, fs, dim):
    n = max(len(es), len(fs))
    zero = np.zeros((dim, dim), dtype=complex)
    return (list(es) + [zero] * (n - len(es)),
            list(fs) + [zero] * (n - len(fs)), n)


def thm1(rho, es, fs):
    es, fs, n = pad(es, fs, rho.shape[0])
    e0 = [center(e, rho) for e in es]
    f0 = [center(f, rho) for f in fs]
    c = sum(tr(rho @ (e @ f - f @ e)) for e in es for f in fs)
    a = sum(tr(rho @ (e @ f + f @ e)) for e in e0 for f in f0)
    pref = 1.0 / (4.0 * n * n)
    return max(pref * abs(c) ** 2, pref * abs(a) ** 2)


def thm2(rho, es, fs):
    es, fs, n = pad(es, fs, rho.shape[0])
    e0 = [center(e, rho) for e in es]
    f0 = [center(f, rho) for f in fs]

    def sym_comm(x, y):
        return 0.5 * ((x @ y - y @ x) + (dag(x) @ dag(y) - dag(y) @ dag(x)))

    def sym_anti(x, y):
        return 0.5 * ((x @ y + y @ x) + (dag(x) @ dag(y) + dag(y) @ dag(x)))

    sa = sum(tr(rho @ sym_anti(e, f)) for e in e0 for f in f0)
    sc = sum(tr(rho @ sym_comm(e, f)) for e in e0 for f in f0)
    return (abs(sa) ** 2 + abs(sc) ** 2) / (4.0 * n * n)


def lb13(rho, es, fs):
    return 0.25 * sum(abs(tr((f @ dag(e) - dag(e) @ f) @ rho)) ** 2
                      for e in es for f in fs)


def lb14(rho, es, fs):
    es, fs, _ = pad(es, fs, rho.shape[0])
    s = sqrtm_psd(rho)
    a = [tr(dag(s @ f - f @ s) @ (s @ e - e @ s)) for e, f in zip(es, fs)]
    b = [tr(dag(s @ f + f @ s) @ (s @ e + e @ s)) - 4 * tr(rho @ dag(f)) * tr(rho @ e)
         for e, f in zip(es, fs)]
    return 0.5 * sum(abs(ai * bj) for ai in a for bj in b)


def thm4(rho, es, fs):
    es, fs, _ = pad(es, fs, rho.shape[0])
    s = sqrtm_psd(rho)
    f_term = sum(abs(tr(dag(s @ fi - fi @ s) @ (s @ fj + fj @ s))) ** 2
                 for fi in fs for fj in fs)
    e_comm = sum(fnorm2(s @ e - e @ s) for e in es)
    e_anti = sum(fnorm2(s @ e + e @ s) - 4 * abs(tr(rho @ e)) ** 2 for e in es)
    return 0.25 * (f_term + e_comm * e_anti)


def fine_grained(rho, es, fs, t=0):
    s = sqrtm_psd(rho)
    e0 = [center(e, rho) for e in es]
    f0 = [center(f, rho) for f in fs]

    def gap(x, y):
        u, w = x[:, t], y[:, t]
        return 0.25 * (np.vdot(u, u).real * np.vdot(w, w).real
                       - abs(np.vdot(u, w)) ** 2)

    i1 = sum(skew_info(s, e) * anti_info(s, f) - gap(s @ e - e @ s, s @ f + f @ s)
             for e in e0 for f in f0)
    i1t = sum(skew_info(s, f) * anti_info(s, e) - gap(s @ f - f @ s, s @ e + e @ s)
              for e in e0 for f in f0)
    i0 = (sum(skew_info(s, e) for e in e0) * sum(anti_info(s, f) for f in f0))
    i0t = (sum(skew_info(s, f) for f in f0) * sum(anti_info(s, e) for e in e0))
    return i1, i1t, i0, i0t


def thm3(rho, es, fs, t=0):
    i1, i1t, _, _ = fine_grained(rho, es, fs, t)
    return float(np.sqrt(max(i1 * i1t, 0.0)))


# -- example objects, transcribed independently of the package ---------------

def werner_matrix(theta):
    a = theta / 3.0
    b = (3.0 - 2.0 * theta) / 6.0
    c = (4.0 * theta - 3.0) / 6.0
    return np.array([
        [a, 0, 0, 0],
        [0, b, c, 0],
        [0, c, b, 0],
        [0, 0, 0, a],
    ], dtype=complex)


def rho_theta_matrix(theta):
    c = (2.0 * theta - 1.0) / 4.0
    return np.array([
        [0.25, c, 0, 0],
        [c, 0.25, 0, 0],
        [0, 0, 0.25, c],
        [0, 0, c, 0.25],
    ], dtype=complex)


def e_kraus(p):
    r = np.sqrt(1.0 - p)
    return [np.diag([1.0, r, 1.0, r]).astype(complex),
            np.diag([0.0, np.sqrt(p), 0.0, np.sqrt(p)]).astype(complex)]


def f_kraus(q):
    r = np.sqrt(1.0 - q)
    f2 = np.zeros((4, 4), dtype=complex)
    f2[1, 0] = np.sqrt(q)
    f2[3, 2] = np.sqrt(q)
    return [np.diag([r, 1.0, r, 1.0]).astype(complex), f2]


def closed_forms(example_id, p, q):
    """(thm3, lb, lb1, lb2) closed forms at one point, as printed, in Python floats:
    math.sqrt and ** (libm pow) on each value, no guard on the root argument."""
    rp, rq = math.sqrt(1.0 - p), math.sqrt(1.0 - q)
    if example_id == "werner":
        root_arg = ((10.0 * rp + 5.0 * p - 10.0)
                    * (40.0 * (rq - 1.0) + 4.0 * q * (1.0 + 4.0 * rq) - 3.0 * q ** 2))
        return (math.sqrt(max(0.0, root_arg)) / 72.0, 0.0,
                5.0 / 72.0 * (rp - 1.0) ** 2 * (rq - 1.0) ** 2,
                5.0 / 144.0 * ((rp - 1.0) ** 2 + p) ** 2)
    root_arg = ((2.0 * rp + p - 2.0)
                * (1800.0 * (rq - 1.0) + 60.0 * q * (14.0 + rq) - q ** 2))
    return (math.sqrt(max(0.0, root_arg)) / 128.0, q / 8.0 * (1.0 - rp),
            1.0 / 8.0 * (1.0 - rp) * (1.0 - rq + math.sqrt(p * q)) ** 2,
            1.0 / 16.0 * ((1.0 - rp) ** 4 + p ** 2
                          + 2.0 * abs(p * (p - 2.0 + 2.0 * rp) + q * (q - 2.0 + 2.0 * rq))))


# -- random draws for oracle-side property sweeps ----------------------------

def rand_rho(rng, dim, rank=None):
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ dag(g)
    m = m / np.trace(m).real
    return 0.5 * (m + dag(m))


def rand_kraus(rng, dim, count):
    g = rng.standard_normal((dim * count, dim)) + 1j * rng.standard_normal((dim * count, dim))
    q, _ = np.linalg.qr(g)
    return [q[i * dim:(i + 1) * dim, :] for i in range(count)]


def rand_op(rng, dim, hermitian=False):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + dag(m)) if hermitian else m


def random_triples(seed, count=50):
    """Seeded (full-rank state, Kraus list, Kraus list) draws.

    The first draw has the d = 16, N = 16 shape of the large benchmark
    workload; the rest draw d in [2, 16] and the two Kraus counts
    independently in [1, 16], so most pair lists of unequal length.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        dim, n_e, n_f = (16, 16, 16) if k == 0 else (
            int(x) for x in (rng.integers(2, 17), rng.integers(1, 17), rng.integers(1, 17)))
        yield rand_rho(rng, dim), rand_kraus(rng, dim, n_e), rand_kraus(rng, dim, n_f)


# -- the SplitMix64 stream, one scalar at a time ------------------------------

def splitmix_u64s(seed, count):
    """The first ``count`` SplitMix64 outputs of ``seed``, one update step at a time."""
    mask = (1 << 64) - 1
    state = seed & mask
    outputs = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        outputs.append(z ^ (z >> 31))
    return outputs


def splitmix_complex_matrix(seed, rows, cols):
    """Row-major standard complex normals straight from the documented equations:
    SplitMix64 outputs, top 53 bits to (0, 1], Box-Muller per entry (real first)."""
    mask = (1 << 64) - 1
    state = seed & mask

    def uniform():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        return ((z >> 11) + 1) * 2.0 ** -53

    entries = []
    for _ in range(rows * cols):
        u1 = uniform()
        u2 = uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        entries.append(complex(r * math.cos(2.0 * math.pi * u2),
                               r * math.sin(2.0 * math.pi * u2)))
    return np.array(entries, dtype=complex).reshape(rows, cols)


def measure_bits(measures, cell=()):
    """The bit patterns of a report's side measures, phi's five fields then psi's: a pair
    report's floats, or a family's or zip's arrays broadcast together, at ``cell``."""
    fields = np.broadcast_arrays(*(v for m in measures for v in vars(m).values()))
    return np.array([f[cell] for f in fields], dtype=float).view(np.uint64).tolist()
