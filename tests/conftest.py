"""Shared deterministic generators and small independent oracles."""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

# ``qxor gallery chsh`` as written by a version that still stored episodes
CHSH_EPISODES = Path(__file__).resolve().parent / "data" / "chsh_episodes.json"
# the qxor-tensor/1 file of tensor_from_kernel(chsh().G, 2, 2)
CHSH_TENSOR = CHSH_EPISODES.with_name("chsh_tensor.json")


def chsh_episodes_payload() -> dict:
    """A fresh copy of the ``qxor/1`` payload in :data:`CHSH_EPISODES`."""
    return json.loads(CHSH_EPISODES.read_text())


def episode_payload(G, episodes) -> dict:
    """A ``qxor/1`` payload of the 2 x 2 game ``G`` listing the
    ``(p, c, rho)`` triples ``episodes``, in the format earlier versions
    wrote."""
    G = np.asarray(G, dtype=complex)
    return {"schema": "qxor/1", "n": 2, "m": 2, "G_re": G.real.tolist(),
            "G_im": G.imag.tolist(),
            "episodes": [{"p": p, "c": c, "rho_re": np.real(rho).tolist(),
                          "rho_im": np.imag(rho).tolist()} for p, c, rho in episodes]}


def spectral_episodes(G) -> list:
    """``G`` as ``(p, c, rho)`` triples: each eigenprojection weighted by the
    modulus of its eigenvalue, plus two cancelling maximally mixed states
    that carry the missing weight ``1 - ||G||_1``."""
    w, u = np.linalg.eigh(G)
    episodes = [(abs(float(x)), 1 if x > 0 else -1, np.outer(v, v.conj()))
                for x, v in zip(w, u.T) if abs(x) > 1e-14]
    pad = 1.0 - sum(p for p, _, _ in episodes)
    mixed = np.eye(w.size) / w.size
    return episodes + [(pad / 2, 1, mixed), (pad / 2, -1, mixed)]


def rng_for(*key) -> np.random.Generator:
    ints = [zlib.crc32(str(k).encode()) for k in key]
    return np.random.default_rng(np.random.SeedSequence(ints))


def gue(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_herm_contraction(n: int, rng: np.random.Generator) -> np.ndarray:
    h = gue(n, rng)
    return h / max(1.0, np.linalg.norm(h, 2))


def swap_matrix(n: int) -> np.ndarray:
    s = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for k in range(n):
            s[i * n + k, k * n + i] = 1.0
    return s


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e
