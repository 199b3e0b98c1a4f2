import math

import numpy as np
import pytest

from conftest import (
    chsh_episodes_payload,
    episode_payload,
    gue,
    matrix_unit,
    random_herm_contraction,
    rng_for,
    spectral_episodes,
    swap_matrix,
)
from qxor.budget import SolverBudget, normalize_schedule
from qxor.cli import game_from_payload
from qxor.config import ValidationError
from qxor.factor import tensor_from_kernel
from qxor.games import (
    EntangledStrategy,
    OwcStrategy,
    ProductStrategy,
    QuantumXorGame,
    associated_map,
    bias_of,
    chsh,
    diagonal_game,
    hadamard_game,
    hadamard_matrix,
    mab_tensor,
    product_state_game,
    random_game,
    swap_game,
)
from qxor.linalg import trace_norm
from qxor.maps import Space


def random_density(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_owc(n, m, d, rng):
    blocks = []
    for _ in range(2 * d):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        blocks.append(x @ x.conj().T + 0.05 * np.eye(n))
    s = sum(blocks)
    w, u = np.linalg.eigh(s)
    s_inv_half = (u * (1 / np.sqrt(w))) @ u.conj().T
    blocks = [s_inv_half @ b @ s_inv_half for b in blocks]
    obs = np.stack([random_herm_contraction(m, rng) for _ in range(d)])
    return OwcStrategy(d, np.stack(blocks[:d]), np.stack(blocks[d:]), obs)


def test_diagonal_game_puts_the_coefficients_on_the_diagonal():
    g = diagonal_game([[0.25, 0.0], [0.0, -0.25]])
    assert (g.n, g.m) == (2, 2)
    np.testing.assert_array_equal(g.G, np.diag([0.25, 0.0, 0.0, -0.25]))


@pytest.mark.parametrize("M", [[[1, 0], [0]], [["a"]], [0.25, 0.25]],
                         ids=["ragged", "not-a-number", "1-d"])
def test_diagonal_game_refuses_what_is_no_real_matrix(M):
    with pytest.raises(ValidationError, match="2-d real coefficient matrix"):
        diagonal_game(M)


@pytest.mark.parametrize("M", [np.array([[0.25j, 0.25]]), [[0.25j, 0.25]]],
                         ids=["array", "list"])
def test_diagonal_game_refuses_a_complex_coefficient(M):
    # an array once lost its imaginary part with only a ComplexWarning
    with pytest.raises(ValidationError, match="2-d real coefficient matrix"):
        diagonal_game(M)


# A qxor/1 file written by an earlier version may list the game's episodes
# (p, c, rho): signed weighted states with sum c p rho = G. The reader
# checks them against G and drops them.

def test_from_episodes_single():
    rng = rng_for("ep-single")
    rho = random_density(4, rng)
    g = game_from_payload(episode_payload(rho, [(1.0, 1, rho)]))
    assert np.abs(g.G - rho).max() < 1e-12


def test_from_episodes_two_orthogonal_pure_states():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    phi = np.zeros(4, dtype=complex)
    phi[3] = 1.0
    expected = (np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())) / 2
    g = game_from_payload(episode_payload(expected, [
        (0.5, 1, np.outer(psi, psi.conj())),
        (0.5, -1, np.outer(phi, phi.conj())),
    ]))
    assert np.abs(g.G - expected).max() < 1e-14
    assert trace_norm(g.G) == pytest.approx(1.0, abs=1e-12)


def test_from_episodes_random_reconstruction():
    rng = rng_for("ep-recon")
    eps = []
    probs = rng.dirichlet(np.ones(4))
    for x in range(4):
        eps.append((float(probs[x]), 1 if x % 2 == 0 else -1, random_density(4, rng)))
    direct = sum(c * p * rho for p, c, rho in eps)
    g = game_from_payload(episode_payload(direct, eps))
    assert np.abs(g.G - direct).max() < 1e-12
    with pytest.raises(ValidationError, match="do not reproduce the game operator"):
        game_from_payload(episode_payload(direct + 1e-9 * np.eye(4), eps))


def test_from_episodes_rejects_bad_probabilities():
    rng = rng_for("ep-bad")
    rho = random_density(4, rng)
    with pytest.raises(ValidationError, match="sum to 0.700000000000000, not 1"):
        game_from_payload(episode_payload(0.7 * rho, [(0.7, 1, rho)]))


@pytest.mark.parametrize("G, episodes, shape", [
    # a 3 x 3 state would fail to broadcast against the 4 x 4 operator
    (np.eye(4) / 4, [(1.0, 1, np.eye(3) / 3)], "3 x 3"),
    # a 1 x 1 state would broadcast and pass the reconstruction check
    (np.ones((4, 4)) / 4, [(5 / 8, 1, [[1]]), (3 / 8, -1, [[1]])], "1 x 1"),
    (np.eye(4) / 4, [(0.5, 1, np.eye(3) / 3), (0.5, 1, np.eye(4) / 4)], "3 x 3"),
], ids=["game-3x3", "game-1x1", "from-episodes-3x3"])
def test_an_episode_state_of_the_wrong_shape_is_refused(G, episodes, shape):
    with pytest.raises(ValidationError, match=f"episode state must be 4 x 4, got {shape}"):
        game_from_payload(episode_payload(G, episodes))


@pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
def test_episode_rejects_non_finite_probability(p):
    payload = chsh_episodes_payload()
    payload["episodes"][0]["p"] = p
    with pytest.raises(ValidationError, match="finite"):
        game_from_payload(payload)


def test_episode_round_trip_random_games():
    for trial in range(100):
        g = random_game(2, 2, seed=trial)
        rebuilt = game_from_payload(episode_payload(g.G, spectral_episodes(g.G)))
        assert np.abs(rebuilt.G - g.G).max() < 1e-10


def test_associated_map_swap_is_transpose():
    t = associated_map(swap_matrix(3), 3, 3)
    for i in range(3):
        for j in range(3):
            e = matrix_unit(3, i, j)
            assert np.abs(t.apply(e) - e.T).max() < 1e-13


def test_associated_map_maximally_entangled_is_identity():
    g = sum(np.kron(matrix_unit(2, i, j), matrix_unit(2, i, j)) for i in range(2) for j in range(2))
    t = associated_map(g, 2, 2)
    rng = rng_for("amap-id")
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.abs(t.apply(x) - x).max() < 1e-13


def test_associated_map_product_kernel():
    rng = rng_for("amap-prod")
    p = gue(2, rng)
    q = gue(3, rng)
    t = associated_map(np.kron(p, q), 2, 3)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.abs(t.apply(x) - np.trace(p @ x.T) * q).max() < 1e-12


def test_associated_map_basis_reconstruction():
    g = random_game(2, 3, seed=7)
    t = associated_map(g)
    rebuilt = np.zeros_like(np.asarray(g.G))
    for i in range(2):
        for j in range(2):
            d = t.apply(matrix_unit(2, i, j))
            for k in range(3):
                for l in range(3):
                    rebuilt[i * 3 + k, j * 3 + l] = d[k, l]
    assert np.abs(rebuilt - g.G).max() < 1e-12


def test_bias_product_state_identity_observables():
    rng = rng_for("bias-prod")
    g = product_state_game(random_density(2, rng), random_density(3, rng))
    s = ProductStrategy(np.eye(2), np.eye(3))
    assert bias_of(g, s) == pytest.approx(1.0, abs=1e-10)


def test_bias_swap_identity_observables():
    for n in (2, 3):
        g = swap_game(n)
        s = ProductStrategy(np.eye(n), np.eye(n))
        assert bias_of(g, s) == pytest.approx(1.0 / n, abs=1e-12)


def test_bias_owc_matches_episode_form():
    rng = rng_for("bias-owc-episodes")
    g = random_game(2, 2, seed=11)
    s = random_owc(2, 2, 2, rng)
    direct = bias_of(g, s)
    # the operational bias: the referee draws episode (p, c, rho) of the
    # spectral decomposition of G and scores the players' correlation by c
    episode_form = 0.0
    for p, c, rho in spectral_episodes(g.G):
        corr = 0.0
        for k in range(s.d):
            corr += np.trace(np.kron(s.alice_observables[k], s.observables[k]) @ rho).real
        episode_form += p * c * corr
    assert direct == pytest.approx(episode_form, abs=1e-10)


def test_bias_owc_d1_equals_product():
    rng = rng_for("bias-owc-d1")
    g = random_game(2, 3, seed=3)
    a = random_herm_contraction(2, rng)
    b = random_herm_contraction(3, rng)
    prod = bias_of(g, ProductStrategy(a, b))
    owc = OwcStrategy(
        1,
        np.stack([(np.eye(2) + a) / 2]),
        np.stack([(np.eye(2) - a) / 2]),
        np.stack([b]),
    )
    assert bias_of(g, owc) == pytest.approx(prod, abs=1e-14)


def test_bias_entangled_trivial_ancilla_reduces_to_product():
    rng = rng_for("bias-ent-triv")
    g = random_game(2, 2, seed=5)
    a = random_herm_contraction(2, rng)
    b = random_herm_contraction(2, rng)
    prod = bias_of(g, ProductStrategy(a, b))
    ent = EntangledStrategy(2, 2, 1, 1, np.array([1.0]), a, b)
    assert bias_of(g, ent) == pytest.approx(prod, abs=1e-12)


def test_bias_bounded_by_trace_norm_over_all_variants():
    count = 0
    for trial in range(170):
        rng = rng_for("bias-bound", trial)
        g = random_game(2, 2, seed=1000 + trial)
        tn = trace_norm(g.G)
        s_p = ProductStrategy(random_herm_contraction(2, rng), random_herm_contraction(2, rng))
        assert abs(bias_of(g, s_p)) <= tn + 1e-9
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        s_e = EntangledStrategy(
            2, 2, 2, 2, np.kron(psi[:2] / np.linalg.norm(psi[:2]), psi[2:] / np.linalg.norm(psi[2:])),
            random_herm_contraction(4, rng), random_herm_contraction(4, rng),
        )
        assert abs(bias_of(g, s_e)) <= tn + 1e-9
        s_o = random_owc(2, 2, 2, rng)
        assert abs(bias_of(g, s_o)) <= tn + 1e-9
        count += 3
    assert count >= 500


def test_gallery_swap_trace_norm():
    assert trace_norm(swap_game(2).G) == pytest.approx(1.0, abs=1e-12)
    assert trace_norm(swap_game(3).G) == pytest.approx(1.0, abs=1e-12)
    for n in (1, 2, 3, 4):  # the loop-built swap of conftest is the reference
        np.testing.assert_array_equal(swap_game(n).G, swap_matrix(n) / n**2)


def test_gallery_chsh_diagonal():
    g = chsh()
    assert np.abs(np.asarray(g.G) - np.diag([0.25, 0.25, 0.25, -0.25])).max() < 1e-15
    assert trace_norm(g.G) == pytest.approx(1.0, abs=1e-12)


def test_gallery_mab_unit_pair():
    e11 = matrix_unit(2, 0, 0)
    g = QuantumXorGame(2, 2, mab_tensor(e11, e11))
    assert np.abs(g.G - np.kron(e11, e11)).max() < 1e-15
    assert trace_norm(g.G) == pytest.approx(1.0, abs=1e-12)


def test_mab_tensor_basis_action():
    rng = rng_for("mab-basis")
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    t = associated_map(mab_tensor(a, b), 3, 3)
    for i in range(3):
        for j in range(3):
            e = matrix_unit(3, i, j)
            assert np.abs(t.apply(e) - a @ e @ b).max() < 1e-12


def test_mab_tensor_trace_norm_is_s2_product():
    rng = rng_for("mab-tn")
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    tn = trace_norm(mab_tensor(a, b))
    assert tn == pytest.approx(np.linalg.norm(a, "fro") * np.linalg.norm(b, "fro"), rel=1e-12)


def test_mab_game_rejects_large_factors():
    with pytest.raises(ValidationError):
        QuantumXorGame(2, 2, mab_tensor(2 * np.eye(2), np.eye(2)))


def test_diagonal_game_rejects_oversized_mass():
    with pytest.raises(ValidationError):
        diagonal_game([[0.8, 0.4], [0.0, 0.0]])


def test_hadamard_game_orders():
    for n in (1, 2, 4):
        g = hadamard_game(n)
        assert trace_norm(g.G) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        hadamard_game(3)
    h = hadamard_matrix(4)
    assert np.abs(h @ h.T - 4 * np.eye(4)).max() == 0


def test_random_game_determinism_and_normalization():
    g1 = random_game(2, 3, seed=42)
    g2 = random_game(2, 3, seed=42)
    assert np.array_equal(g1.G, g2.G)
    assert trace_norm(g1.G) == pytest.approx(1.0, abs=1e-12)
    g_scalar = random_game(1, 1, seed=0)
    assert abs(abs(g_scalar.G[0, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", ["x", -1, 1.5], ids=["string", "negative", "float"])
def test_random_game_refuses_a_seed_numpy_does_not_take(seed):
    with pytest.raises(ValidationError, match="seed"):
        random_game(2, 2, seed=seed)


def test_random_game_takes_a_seed_sequence_or_a_generator():
    # the two seed kinds qxor hierarchy and the benchmark pass
    g = random_game(2, 2, seed=np.random.SeedSequence([7, 0]))
    h = random_game(2, 2, seed=np.random.default_rng(np.random.SeedSequence([7, 0])))
    assert np.array_equal(g.G, h.G)


def test_owc_strategy_validation():
    rng = rng_for("owc-valid")
    # instrument blocks that do not sum to the identity
    bad = np.stack([np.eye(2, dtype=complex) * 0.3])
    with pytest.raises(ValidationError):
        OwcStrategy(1, bad, bad, np.stack([np.eye(2, dtype=complex)]))
    # a block with a clearly negative eigenvalue
    neg = np.stack([np.diag([1.0, -0.5]).astype(complex)])
    rest = np.stack([np.eye(2, dtype=complex) - neg[0]])
    with pytest.raises(ValidationError):
        OwcStrategy(1, neg, rest, np.stack([np.eye(2, dtype=complex)]))


def test_entangled_strategy_validation():
    with pytest.raises(ValidationError):
        EntangledStrategy(2, 2, 1, 1, np.array([0.5]), np.eye(2), np.eye(2))
    with pytest.raises(ValidationError):
        EntangledStrategy(2, 2, 2, 2, np.eye(4)[0], np.eye(4) * 2, np.eye(4))


def test_product_strategy_rejects_expansion():
    with pytest.raises(ValidationError):
        ProductStrategy(1.5 * np.eye(2), np.eye(2))


def test_episode_validation():
    payload = chsh_episodes_payload()
    payload["episodes"][0]["c"] = 2
    with pytest.raises(ValidationError, match="sign must be"):
        game_from_payload(payload)
    payload = chsh_episodes_payload()
    payload["episodes"][0]["rho_re"] = np.eye(4).tolist()  # trace four, not one
    with pytest.raises(ValidationError, match="unit trace, got 4.0"):
        game_from_payload(payload)


def test_game_rejects_oversized_trace_norm():
    with pytest.raises(ValidationError):
        QuantumXorGame(2, 2, np.eye(4))


@pytest.mark.parametrize("n, m", [(-1, -1), (0, 2), (2, 0)])
def test_game_rejects_non_positive_register_dimensions(n, m):
    # (-1) * (-1) = 1 would pass the shape check on a 1 x 1 operator
    with pytest.raises(ValidationError, match="register dimensions must be positive"):
        QuantumXorGame(n, m, np.zeros((abs(n * m),) * 2))


_G4, _I2 = random_game(2, 2, seed=1).G, np.eye(2)

# every constructor that takes a count, as a function of that one count, and
# the count that makes it valid
COUNTED = {
    "budget-restarts": (lambda v: SolverBudget(restarts=v, max_sweeps=1), 1),
    "budget-sweeps": (lambda v: SolverBudget(restarts=1, max_sweeps=v), 1),
    "schedule-entry": (lambda v: normalize_schedule([v], "message"), 1),
    "game-n": (lambda v: QuantumXorGame(v, 2, _G4), 2),
    "game-m": (lambda v: QuantumXorGame(2, v, _G4), 2),
    "random-game-n": (lambda v: random_game(v, 2, seed=1), 2),
    "random-game-m": (lambda v: random_game(2, v, seed=1), 2),
    "space-dim": (lambda v: Space("matrix", v), 2),
    "entangled-n": (lambda v: EntangledStrategy(v, 2, 1, 1, [1], _I2, _I2), 2),
    "entangled-m": (lambda v: EntangledStrategy(2, v, 1, 1, [1], _I2, _I2), 2),
    "entangled-dA": (lambda v: EntangledStrategy(2, 2, v, 1, [1], _I2, _I2), 1),
    "entangled-dB": (lambda v: EntangledStrategy(2, 2, 1, v, [1], _I2, _I2), 1),
    "owc-d": (lambda v: OwcStrategy(v, _I2[None], 0 * _I2[None], _I2[None]), 1),
    "swap-game-n": (swap_game, 2),
    "hadamard-game-n": (hadamard_game, 2),
    "tensor-from-kernel-n": (lambda v: tensor_from_kernel(_G4, v, 2), 2),
    "tensor-from-kernel-m": (lambda v: tensor_from_kernel(_G4, 2, v), 2),
}


@pytest.mark.parametrize("value", [2.0, True, np.bool_(True), 0, 10**400],
                         ids=["float", "bool", "numpy-bool", "zero", "huge"])
@pytest.mark.parametrize("make", [m for m, _ in COUNTED.values()], ids=list(COUNTED))
def test_a_count_that_is_not_a_positive_integer_is_refused(make, value):
    # a float or bool count would otherwise reach range() or a reshape in a
    # solver, and one beyond int64 numpy's "maximum allowed dimension" error
    with pytest.raises(ValidationError):
        make(value)


@pytest.mark.parametrize("make, valid", list(COUNTED.values()), ids=list(COUNTED))
def test_a_numpy_integer_count_is_accepted(make, valid):
    make(np.int64(valid))


def test_game_rejects_non_hermitian():
    g = np.zeros((4, 4), dtype=complex)
    g[0, 1] = 0.3
    with pytest.raises(ValidationError):
        QuantumXorGame(2, 2, g)


@pytest.mark.parametrize("psi", [[math.nan], [complex(math.inf, 0)]], ids=["nan", "inf"])
def test_a_non_finite_shared_state_is_refused(psi):
    # a NaN state once passed the unit-norm test, and bias_of returned nan
    with pytest.raises(ValidationError, match="finite"):
        EntangledStrategy(2, 2, 1, 1, psi, np.eye(2), np.eye(2))


def test_bias_of_never_returns_a_non_finite_value():
    s = EntangledStrategy(2, 2, 1, 1, [1.0], np.eye(2), np.eye(2))
    assert bias_of(chsh(), s) == 0.5
    object.__setattr__(s, "psi", np.array([math.nan + 0j]))  # past the constructor
    with pytest.raises(ValidationError, match="bias came out non-finite"):
        bias_of(chsh(), s)
