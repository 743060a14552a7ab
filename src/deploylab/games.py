"""Game representations, payoff evaluation, and equilibrium predicates.

Strategies are numpy probability vectors on a finite pure-strategy set.
Payoffs are evaluated either through an explicit matrix or a bounded
continuous operator supplied as a callback.
"""

import itertools
import json
import logging

import numpy as np

log = logging.getLogger(__name__)

SIMPLEX_TOL = 1e-12
DEFAULT_TOL = 1e-9


def validate_mixed(x, tol=SIMPLEX_TOL):
    """Check that x is a probability vector; return it as a float array."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("mixed strategy must be a vector")
    if (x < -tol).any():
        raise ValueError("mixed strategy has negative weights")
    if abs(x.sum() - 1.0) > max(tol, len(x) * SIMPLEX_TOL):
        raise ValueError("mixed strategy weights do not sum to 1")
    return x


class PayoffOperator:
    """Evaluator X -> CX; either an n x n matrix or a continuous callback.

    The `bounds` attribute optionally declares a payoff range; several
    convergence guarantees require payoffs in [0, 1].
    """

    def __init__(self, kind, dimension, matrix=None, func=None, bounds=None):
        if kind not in ("linear-matrix", "nonlinear-callback"):
            raise ValueError("unknown operator kind %r" % (kind,))
        self.kind = kind
        self.dimension = int(dimension)
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=float)
        self.func = func
        self.bounds = bounds
        if kind == "linear-matrix":
            if self.matrix is None or self.matrix.shape != (dimension, dimension):
                raise ValueError("linear operator needs an n x n matrix")
        elif func is None:
            raise ValueError("nonlinear operator needs a callback")

    @classmethod
    def from_matrix(cls, C, bounds=None):
        C = np.asarray(C, dtype=float)
        if bounds is None and C.size and C.min() >= 0.0 and C.max() <= 1.0:
            bounds = (0.0, 1.0)
        return cls("linear-matrix", C.shape[0], matrix=C, bounds=bounds)

    @classmethod
    def from_callback(cls, func, dimension, bounds=None):
        return cls("nonlinear-callback", dimension, func=func, bounds=bounds)

    def __call__(self, x):
        return payoff_vector(self, x)


def as_operator(op):
    """Coerce a matrix or operator into a PayoffOperator."""
    if isinstance(op, PayoffOperator):
        return op
    return PayoffOperator.from_matrix(op)


def payoff_vector(op, x):
    """The payoff vector CX at a mixed strategy x."""
    op = as_operator(op)
    x = np.asarray(x, dtype=float)
    if len(x) != op.dimension:
        raise ValueError("strategy dimension %d does not match operator dimension %d"
                         % (len(x), op.dimension))
    if op.kind == "linear-matrix":
        return op.matrix @ x
    out = np.asarray(op.func(x), dtype=float)
    if out.shape != (op.dimension,):
        raise ValueError("nonlinear callback returned wrong arity")
    return out


def carrier(x, tol=0.0):
    """Indices with weight above tol (the support of x)."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    x = np.asarray(x, dtype=float)
    return set(np.nonzero(x > tol)[0].tolist())


def is_interior(x, tol=0.0):
    return len(carrier(x, tol)) == len(x)


def best_response_set(op, x, tol=DEFAULT_TOL):
    """Pure strategies within tol of the best payoff against x."""
    p = payoff_vector(op, x)
    return set(np.nonzero(p >= p.max() - tol)[0].tolist())


def is_equalizer(op, x, tol=DEFAULT_TOL):
    """True iff the payoff vector at x is constant within tol."""
    p = payoff_vector(op, x)
    return p.max() - p.min() <= tol


def _check_finite(*tables):
    if not all(np.isfinite(t).all() for t in tables):
        raise ValueError("payoffs must be finite numbers")


class BimatrixGame:
    """Two-player game (A, B): A holds row payoffs, B column payoffs."""

    def __init__(self, A, B):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.ndim != 2 or A.shape != B.shape:
            raise ValueError("payoff matrices must be 2-D and of identical "
                             "shape")
        if A.size == 0:
            raise ValueError("every player needs at least one strategy")
        _check_finite(A, B)
        self.A = A
        self.B = B

    @property
    def shape(self):
        return self.A.shape

    @classmethod
    def symmetric(cls, C):
        """The symmetric game (C, C^T)."""
        C = np.asarray(C, dtype=float)
        return cls(C, C.T)

    def is_symmetric(self):
        return self.A.shape[0] == self.A.shape[1] and \
            np.allclose(self.B, self.A.T, atol=0.0, rtol=0)


def is_approx_equilibrium(game, profile, eps=DEFAULT_TOL, mode="bimatrix",
                          support_tol=0.0):
    """Approximate-equilibrium predicates.

    mode='symmetric': game is an operator/matrix C, profile a single
      strategy y; requires (y - E_i) . Cy >= -eps for every i.
    mode='bimatrix': game is a BimatrixGame, profile a pair (p, q);
      requires both players' deviation gains to be at most eps.
    mode='well-supported': every pure strategy with weight > support_tol
      earns within eps of the best pure payoff against the opponent.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if mode == "symmetric":
        y = np.asarray(profile, dtype=float)
        p = payoff_vector(as_operator(game), y)
        return float(y @ p) >= p.max() - eps
    if not isinstance(game, BimatrixGame):
        raise TypeError("bimatrix modes need a BimatrixGame")
    p, q = profile
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m, n = game.shape
    if len(p) != m or len(q) != n:
        raise ValueError("profile dimensions do not match the game")
    row_pay = game.A @ q       # payoff of each row against q
    col_pay = game.B.T @ p     # payoff of each column against p
    if mode == "bimatrix":
        return (float(p @ row_pay) >= row_pay.max() - eps and
                float(q @ col_pay) >= col_pay.max() - eps)
    if mode == "well-supported":
        rows_ok = np.all((p <= support_tol) | (row_pay >= row_pay.max() - eps))
        cols_ok = np.all((q <= support_tol) | (col_pay >= col_pay.max() - eps))
        return bool(rows_ok and cols_ok)
    raise ValueError("unknown mode %r" % (mode,))


def _equalization_system(M, support_rows, support_cols):
    """Equation matrix forcing equal payoffs on a support.

    With k supported strategies for the solving player, the system is

        / m_11 ... m_1k  -1 \\  / x_1 \\     / 0 \\
        | ...           ... |  | ... |  =  |...|
        | m_k1 ... m_kk  -1 |  | x_k |     | 0 |
        \\ 1    ... 1     0 /   \\  v  /     \\ 1 /

    where m_ij are the opponent-facing payoffs restricted to the support.
    """
    k = len(support_rows)
    sub = M[np.ix_(support_rows, support_cols)]
    eqs = np.zeros((k + 1, k + 1))
    eqs[:k, :k] = sub
    eqs[:k, -1] = -1.0
    eqs[-1, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    return eqs, rhs


def support_enumeration_equilibria(game, eps=DEFAULT_TOL):
    """All Nash equilibria of a small bimatrix game, by support enumeration.

    Solves the payoff-equalization linear system for every equal-size
    support pair and keeps solutions that pass is_approx_equilibrium.
    Singular systems (degenerate supports) are skipped with a debug
    diagnostic; equilibrium continua of degenerate games are therefore
    not enumerated.
    """
    m, n = game.shape
    found = []
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                # q equalizes the row payoffs A, p equalizes the columns B
                eqs_q, rhs = _equalization_system(game.A, rows, cols)
                eqs_p, _ = _equalization_system(game.B.T, cols, rows)
                try:
                    sol_q = np.linalg.solve(eqs_q, rhs)
                    sol_p = np.linalg.solve(eqs_p, rhs)
                except np.linalg.LinAlgError:
                    log.debug("singular support pair %s/%s skipped", rows, cols)
                    continue
                if (sol_q[:k] < -eps).any() or (sol_p[:k] < -eps).any():
                    continue
                q = np.zeros(n)
                q[list(cols)] = np.clip(sol_q[:k], 0.0, None)
                p = np.zeros(m)
                p[list(rows)] = np.clip(sol_p[:k], 0.0, None)
                if q.sum() <= 0 or p.sum() <= 0:
                    continue
                q /= q.sum()
                p /= p.sum()
                if not is_approx_equilibrium(game, (p, q), eps, "bimatrix"):
                    continue
                if any(np.allclose(p, p2, atol=1e-8) and np.allclose(q, q2, atol=1e-8)
                       for p2, q2 in found):
                    continue
                found.append((p, q))
    return found


class StrategicGame:
    """N-player finite game with a dense payoff table.

    The table has shape strategy_counts + (player_count,): entry
    table[s][i] is player i's payoff at pure profile s.  Profiles are
    index tuples; the flat profile id is their mixed-radix encoding.
    """

    def __init__(self, strategy_counts, table):
        self.strategy_counts = tuple(int(c) for c in strategy_counts)
        self.player_count = len(self.strategy_counts)
        if min(self.strategy_counts, default=0) < 1:
            raise ValueError("every player needs at least one strategy")
        table = np.asarray(table, dtype=float)
        want = self.strategy_counts + (self.player_count,)
        flat = (self.profile_count, self.player_count)
        if table.shape == flat:
            table = table.reshape(want)
        elif table.shape != want:
            raise ValueError("payoff table has shape %s; expected %s or %s"
                             % (table.shape, want, flat))
        _check_finite(table)
        self.table = table

    @classmethod
    def from_function(cls, strategy_counts, payoff_func):
        """Build the dense table from u(profile) -> payoff vector."""
        counts = tuple(int(c) for c in strategy_counts)
        table = np.zeros(counts + (len(counts),))
        for s in itertools.product(*[range(c) for c in counts]):
            table[s] = payoff_func(s)
        return cls(counts, table)

    @property
    def profile_count(self):
        return int(np.prod(self.strategy_counts))

    def payoffs(self, profile):
        return self.table[tuple(profile)]

    def payoff(self, profile, player):
        return float(self.table[tuple(profile)][player])

    def profiles(self):
        return itertools.product(*[range(c) for c in self.strategy_counts])

    def encode(self, profile):
        """Profile id; a wrong length or strategy raises ValueError."""
        try:
            return int(np.ravel_multi_index(tuple(profile),
                                            self.strategy_counts))
        except ValueError:
            raise ValueError("profile %s is not in a game with strategy "
                             "counts %s" % (tuple(profile),
                                            self.strategy_counts)) from None

    def decode(self, idx):
        out = []
        for c in reversed(self.strategy_counts):
            out.append(idx % c)
            idx //= c
        return tuple(reversed(out))

    def deviations(self, profile):
        """Yield (player, new_strategy, new_profile) unilateral deviations."""
        profile = tuple(profile)
        for i, c in enumerate(self.strategy_counts):
            for t in range(c):
                if t != profile[i]:
                    yield i, t, profile[:i] + (t,) + profile[i + 1:]

    @classmethod
    def from_bimatrix(cls, game):
        m, n = game.shape
        table = np.stack([game.A, game.B], axis=-1)
        return cls((m, n), table)


def reduced_game(game, coalition, anchor):
    """The reduced game on a coalition, outsiders frozen at the anchor."""
    coalition = sorted(set(coalition))
    if not coalition or len(coalition) >= game.player_count:
        raise ValueError("coalition must be a nonempty proper subset of players")
    anchor = tuple(anchor)
    counts = tuple(game.strategy_counts[j] for j in coalition)

    def u(sub_profile):
        full = list(anchor)
        for j, s in zip(coalition, sub_profile):
            full[j] = s
        pay = game.payoffs(tuple(full))
        return [pay[j] for j in coalition]

    return StrategicGame.from_function(counts, u)


def game_to_dict(game):
    """JSON-ready dict for a game (see load_game for the format)."""
    if isinstance(game, BimatrixGame):
        if game.is_symmetric():
            return {"kind": "symmetric", "A": game.A.tolist()}
        return {"kind": "bimatrix", "A": game.A.tolist(), "B": game.B.tolist()}
    if isinstance(game, StrategicGame):
        flat = game.table.reshape(-1, game.player_count)
        return {"kind": "strategic",
                "strategy_counts": list(game.strategy_counts),
                "payoffs": flat.tolist()}
    raise TypeError("unsupported game type %r" % type(game))


_GAME_KEYS = {"bimatrix": ("A", "B"), "symmetric": ("A",),
              "strategic": ("strategy_counts", "payoffs")}


def game_from_dict(data):
    """A game from its dict form (see load_game); ValueError if malformed."""
    if not isinstance(data, dict):
        raise ValueError("a game must be a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _GAME_KEYS:
        raise ValueError("unknown game kind %r" % (kind,))
    for key in _GAME_KEYS[kind]:
        if key not in data:
            raise ValueError("%s game is missing the key %r" % (kind, key))
    try:
        if kind == "strategic":
            game = StrategicGame(data["strategy_counts"], data["payoffs"])
        elif kind == "bimatrix":
            game = BimatrixGame(data["A"], data["B"])
        else:
            game = BimatrixGame.symmetric(data["A"])
    except (TypeError, OverflowError) as exc:
        raise ValueError("malformed %s game: %s" % (kind, exc)) from None
    return game


def load_game(path):
    """Read a game from a JSON file.

    Formats: {"kind": "bimatrix", "A": [[...]], "B": [[...]]},
    {"kind": "symmetric", "A": [[...]]}, or {"kind": "strategic",
    "strategy_counts": [...], "payoffs": [[u_0, u_1, ...], ...]} with
    payoffs flat in row-major profile order.
    """
    with open(path) as fh:
        return game_from_dict(json.load(fh))


def save_game(game, path):
    with open(path, "w") as fh:
        json.dump(game_to_dict(game), fh, indent=2)
