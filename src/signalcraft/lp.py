"""The known-valuation ordering LP and its solve contract.

An optimal public scheme in the known-valuation setting needs at most n(n-1)
signals: one signal pair(i, j) per ordered bidder pair, meaning bidder i ends
up with the top posterior value and j with the second.  Over weighted value
profiles the revenue of such a scheme is linear in the table phi(profile,
pair), so the optimum is one linear program.  The exact optimal public scheme
solves it on the prior masses; the sampled signaler solves it on an empirical
distribution with its ordering constraints slackened.  Both call
``solve_ordering_lp``, and every cold solve here goes through
``_OrderingLp.solve``, which takes one of two routes:

- an LP of at most NATIVE_MAX_COLUMNS phi columns (50 profiles at n = 3),
  with positive finite weights, finite values and a finite slack >= 0, goes
  first to ``simplex``, a dense primal simplex in numpy;
- every other LP, and every LP whose native point is refused or whose
  simplex reaches NATIVE_MAX_PIVOTS, goes to the HiGHS backend shipped with
  scipy (``linprog``), solved once more at HIGHS_RETRY_TOL when its point is
  refused.

On both routes a point is kept only when ``_OrderingLp.certify`` passes it
with the route's own ordering-row duals: the residual check and the
duality-gap test.

The sampled scheme solves the same LP thousands of times with drifting
weights.  The face of one optimum (``optimal_face``) carries a dual
certificate that proves or refutes its point's optimality for new weights,
also for weights that leave some profiles at 0, which it certifies on the
profiles of positive weight alone: the signaler certifies its draws against
the face at the prior masses and then against a fixed family of faces
behind it, which share the prior face's ``_OrderingLp``, and solves cold
when no face is certified.

scipy is imported on the first HiGHS solve, not with this module, so that
commands which solve no LP, or only LPs within NATIVE_MAX_COLUMNS, start
without it: the sampled signaler at the formula sample count on instances of
up to 50 states at n = 3 is one of them.
``linprog`` and ``simplex`` below are the module-level names of the two
routes; wrap or replace them to observe or stub one route, or wrap
``_OrderingLp.solve`` to count cold solves on both.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import ValidationError

FEAS_TOL = 1e-7
# phi columns (profiles x pairs) up to which a solve tries the native
# simplex: the largest size measured at which it beats HiGHS at every n.
# Formula-K draws (eps 0.2) on U[0,1] values and Dirichlet(1) masses; ms per
# certified solve, native / HiGHS, medians of 8 draws (2-core VM, numpy 2.4,
# scipy 1.17), with the profiles in brackets:
#
#   columns   n = 2               n = 3               n = 4
#   120       0.9 / 3.6  (60)     0.9 / 2.7  (20)     1.1 / 3.0  (10)
#   240       2.3 / 4.1  (120)    1.9 / 3.3  (40)     1.9 / 3.6  (20)
#   300       3.3 / 4.3  (150)    2.6 / 3.5  (50)     2.2 / 3.7  (25)
#   360       4.1 / 3.4  (180)    3.6 / 4.0  (60)     2.6 / 4.3  (30)
#   420       5.8 / 3.6  (210)    4.4 / 4.4  (70)     3.4 / 4.7  (35)
#   480       7.1 / 3.7  (240)    5.2 / 4.7  (80)     4.7 / 5.1  (40)
#
# At n = 2 the simplex pivots 2-8 times, but its basis has a row per
# profile, so inverting it dominates and it loses from 360 columns.  At
# n = 3 its pivots grow with the profiles (22 at 120 columns, 68 at 300, 104
# at 480) and it ties at 420.  300 columns hold every formula-K draw on 50
# profiles at n = 3.
NATIVE_MAX_COLUMNS = 300
NATIVE_MAX_PIVOTS = 1_000  # a native solve that reaches this goes to HiGHS
HIGHS_RETRY_TOL = 1e-10  # HiGHS feasibility tolerances of the re-solve of a refused point
BLAND_AFTER = 50  # degenerate pivots after which the simplex prices by Bland's rule
_PRICE_TOL = 1e-11  # a column enters below this reduced cost; the gap test allows 1e-9
_PIVOT_TOL = 1e-9  # smallest pivot element the ratio test accepts


class SolverFailure(RuntimeError):
    """The backend returned no optimal solution, or one that ``certify``
    refuses."""


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def signal_space(n: int) -> tuple[tuple[int, int], ...]:
    """All ordered bidder pairs (i, j), i != j; size n(n-1)."""
    if n < 2:
        raise ValidationError(f"need at least 2 bidders, got {n}")
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


def solve_ordering_lp(values, weights, slack: float) -> tuple[np.ndarray, float]:
    """Solve the ordering LP over weighted value profiles.

    ``values`` is profiles x bidders and ``weights`` has one entry per
    profile.  Variables phi(s, pair(i,j)) lie in [0, 1] and each profile's row
    sums to 1.  The objective is the expected second value
    sum w_s * phi(s, (i,j)) * v_sj.  For every signal, bidder i beats j and j
    beats every other k in weighted expectation, up to ``slack``.

    Returns (phi, objective): phi is profiles x pairs in ``signal_space``
    order, clipped at 0.  Raises SolverFailure unless the solve is optimal,
    phi meets every row sum and ordering row within FEAS_TOL, and the
    objective lies within 1e-9 of the dual bound of the solve's duals.
    """
    phi, objective, _ = _OrderingLp(values).solve(np.asarray(weights, dtype=float), slack)
    return phi, objective


def optimal_face(values, weights, slack: float, lp: _OrderingLp | None = None) -> _Face:
    """The optimal face of a cold solve of the ordering LP, whose
    ``certify`` proves or refutes its point's optimality for other weights
    on the same value profiles.  The LP is solved on the profiles of
    positive weight; the others carry no face column, so a face point with
    weight on them is never certified.  ``lp`` is the ``_OrderingLp`` of
    ``values`` that the face keeps, so that faces on the same profiles can
    share one; it is built when None."""
    values = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    support = np.flatnonzero(w)
    phi, _, z = _OrderingLp(values[support]).solve(w[support], slack)
    x = np.zeros((len(w), phi.shape[1]))
    x[support] = w[support, None] * phi
    return _Face(_OrderingLp(values) if lp is None else lp, x, z, slack)


@functools.cache
def _ordering_rows(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ordering rows of the n-bidder LP as (pair index, a, b) arrays: for
    each pair (i, j) its top row (i, j), then its second-vs-rest rows (j, k).
    Row r asks bidder a to beat bidder b on the row's pair, up to the slack."""
    rows = [
        (p, a, b)
        for p, (i, j) in enumerate(signal_space(n))
        for a, b in [(i, j)] + [(j, k) for k in range(n) if k not in (i, j)]
    ]
    cols = tuple(np.array(col) for col in zip(*rows))
    for col in cols:
        col.setflags(write=False)  # shared by every caller
    return cols


class _OrderingLp:
    """The ordering LP on fixed value profiles, any weights.

    In joint-mass form, x(s, p) = w_s * phi(s, p), the LP reads: minimise
    c.x with c(s, p) = -v(s, j), subject to sum_p x(s, p) = w_s, every
    ordering row sum_s -(v(s, a) - v(s, b)) * x(s, p) <= slack, and x >= 0.
    Only the right-hand side w depends on the weights.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        n = values.shape[1]
        self.row_pair, a, b = _ordering_rows(n)
        self.gain = values[:, [j for _, j in signal_space(n)]]  # -c
        self.diffs = values[:, a] - values[:, b]

    def order_rows(self, x: np.ndarray, states=slice(None)) -> np.ndarray:
        """Left-hand side of every ordering row at joint mass x, given on
        ``states`` (every profile by default) and 0 on the others."""
        return -(self.diffs[states] * x[:, self.row_pair]).sum(axis=0)

    def residuals(self, w, phi, slack: float, states=slice(None)) -> tuple[float, float]:
        """How far phi misses a row sum of 1, and how far its worst ordering
        row exceeds the slack, in the LP on ``states`` (every profile by
        default), with w and phi given on those states."""
        row_gap = float(np.abs(phi.sum(axis=1) - 1.0).max())
        return row_gap, float(self.order_rows(w[:, None] * phi, states).max()) - slack

    def prices(self, z: np.ndarray) -> np.ndarray:
        """The profile prices y_s = min_p (c - A_ub^T z)(s, p) of ordering-row
        duals z <= 0.  They make (y, z) dual-feasible whatever the weights,
        so w.y + slack * sum(z) bounds every feasible c.x from below."""
        reduced = -self.gain.copy()
        np.add.at(reduced.T, self.row_pair, (self.diffs * z).T)
        return reduced.min(axis=1)

    def certify(self, w, phi, y, slack_price: float, slack: float, states=slice(None)):
        """(phi clipped at 0, objective) for weights w, both given on
        ``states`` (every profile by default), or None unless phi is
        nonnegative, passes the residual check in the LP on those states, and
        its objective lies within 1e-9 of the dual bound w.y + slack_price,
        with the prices y of those states."""
        if not phi.min() >= -FEAS_TOL:  # written so that NaN fails too
            return None
        phi = np.clip(phi, 0.0, None)
        objective = float((w[:, None] * phi * self.gain[states]).sum())
        certified = (
            max(self.residuals(w, phi, slack, states)) <= FEAS_TOL
            and -objective <= w @ y + slack_price + 1e-9
        )
        return (phi, objective) if certified else None

    def solve(self, w, slack: float) -> tuple[np.ndarray, float, np.ndarray]:
        """A cold solve in phi form: (phi, objective, ordering-row duals),
        whose point ``certify`` has passed with those duals.

        An LP of at most NATIVE_MAX_COLUMNS phi columns, with positive finite
        weights, finite values and a finite slack >= 0, tries ``simplex``
        first, and keeps its point when ``certify`` passes it with the
        simplex's own duals.  Every other LP, a refused point and a simplex
        that reaches its pivot cap are solved by HiGHS."""
        if (
            self.gain.size <= NATIVE_MAX_COLUMNS
            and 0.0 <= slack < math.inf
            and (w > 0).all()
            and np.isfinite(w).all()
            and np.isfinite(self.gain).all()  # every bidder is second in some pair
        ):
            solved = simplex(self, w, slack)
            if solved is not None:
                x, z = solved
                found = self.certify(w, x / w[:, None], self.prices(z), slack * z.sum(), slack)
                if found is not None:
                    return (*found, z)
        return self._solve_highs(w, slack)

    def _solve_highs(self, w, slack: float) -> tuple[np.ndarray, float, np.ndarray]:
        """``solve`` by HiGHS, whose point is kept when ``certify`` passes it
        with HiGHS's own ordering-row duals.  A refused point is solved once
        more at feasibility tolerances of HIGHS_RETRY_TOL; raises
        SolverFailure unless a solve is optimal and its point is kept."""
        from scipy.sparse import csr_matrix

        num_states, num_pairs = self.gain.shape
        num_rows = len(self.row_pair)
        num_vars = num_states * num_pairs
        # state-major columns s * num_pairs + p; each ordering row touches
        # its pair's column in every state
        a_ub = csr_matrix(
            (
                -(w[:, None] * self.diffs).T.ravel(),
                (self.row_pair[:, None] + num_pairs * np.arange(num_states)).ravel(),
                num_states * np.arange(num_rows + 1),
            ),
            shape=(num_rows, num_vars),
        )
        a_eq = csr_matrix(
            (np.ones(num_vars), np.arange(num_vars), num_pairs * np.arange(num_states + 1)),
            shape=(num_states, num_vars),
        )
        retry = {
            "primal_feasibility_tolerance": HIGHS_RETRY_TOL,
            "dual_feasibility_tolerance": HIGHS_RETRY_TOL,
        }
        for options in (None, retry):
            res = linprog(
                -(w[:, None] * self.gain).ravel(),
                A_ub=a_ub,
                b_ub=np.full(num_rows, float(slack)),
                A_eq=a_eq,
                b_eq=np.ones(num_states),
                # phi <= 1 follows from the row sums, but HiGHS needs about
                # twice the iterations without it
                bounds=(0.0, 1.0),
                method="highs",
                options=options,
            )
            if res.status != 0:
                raise SolverFailure(f"ordering LP: solver status {res.status}: {res.message}")
            phi = res.x.reshape(num_states, num_pairs)
            z = np.minimum(res.ineqlin.marginals, 0.0)
            y, slack_price = self.prices(z), slack * z.sum()
            found = self.certify(w, phi, y, slack_price, slack)
            if found is not None:
                return (*found, z)
        least, phi = phi.min(), np.clip(phi, 0.0, None)
        row_gap, order_gap = self.residuals(w, phi, slack)
        shortfall = -float((w[:, None] * phi * self.gain).sum()) - (w @ y + slack_price)
        raise SolverFailure(
            f"ordering LP: HiGHS point refused at tolerance {HIGHS_RETRY_TOL:g}: its least "
            f"entry is {least:.3g}, it misses a row sum by {row_gap:.3g} and an ordering "
            f"row by {order_gap:.3g}, and its objective lies {shortfall:.3g} below its "
            "dual bound"
        )


def simplex(lp: _OrderingLp, w, slack: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The LP of ``lp`` for positive weights w and a slack >= 0 by a dense
    revised primal simplex in joint-mass form: (x, z), the optimal joint
    mass (profiles x pairs) and its ordering-row duals z <= 0, or None when
    it reaches NATIVE_MAX_PIVOTS or a singular basis.

    The columns are x(s, p), state-major, then one slack per ordering row.
    The start is the no-information basis, feasible for any slack >= 0:
    every profile on the pair whose rows the weighted mean values meet best
    (the pair of the two highest means), and every ordering row slack.  A
    pivot enters the column of least reduced cost (Dantzig) and the row of
    least ratio, the largest pivot among ties.  After BLAND_AFTER degenerate
    pivots it enters the first improving column and leaves the tied row of
    lowest column index instead, so that it cannot cycle (Bland 1977, Math.
    Oper. Res. 2(2)).  x and z are read from a fresh inverse of the final
    basis.
    """
    num_states, num_pairs = lp.gain.shape
    num_rows = len(lp.row_pair)
    num_cols = num_states * num_pairs
    size = num_states + num_rows
    a = np.zeros((size, num_cols + num_rows))
    a[np.repeat(np.arange(num_states), num_pairs), np.arange(num_cols)] = 1.0
    pair_cols = lp.row_pair[:, None] + num_pairs * np.arange(num_states)
    a[num_states + np.arange(num_rows)[:, None], pair_cols] = -lp.diffs.T
    a[num_states:, num_cols:] = np.eye(num_rows)
    b = np.concatenate([w, np.full(num_rows, float(slack))])
    c = np.concatenate([-lp.gain.ravel(), np.zeros(num_rows)])

    start = (w @ lp.diffs).reshape(num_pairs, -1).min(axis=1).argmax()
    basis = np.concatenate(
        [num_pairs * np.arange(num_states) + start, num_cols + np.arange(num_rows)]
    )
    degenerate = 0
    try:
        binv = np.linalg.inv(a[:, basis])
        x_b = np.maximum(binv @ b, 0.0)  # a tie of two means may round below 0
        for _ in range(NATIVE_MAX_PIVOTS):
            y = c[basis] @ binv
            reduced = c - y @ a
            entering = np.flatnonzero(reduced < -_PRICE_TOL)
            if not entering.size:
                binv = np.linalg.inv(a[:, basis])
                x = np.zeros(len(c))
                x[basis] = binv @ b
                z = np.minimum(c[basis] @ binv, 0.0)[num_states:]
                return x[:num_cols].reshape(num_states, num_pairs), z
            bland = degenerate >= BLAND_AFTER
            q = entering[0] if bland else entering[reduced[entering].argmin()]
            u = binv @ a[:, q]
            rows = np.flatnonzero(u > _PIVOT_TOL)
            if not rows.size:  # unbounded, which a bounded LP is not
                return None
            ratios = x_b[rows] / u[rows]
            ties = rows[ratios <= ratios.min() + 1e-12]
            r = ties[basis[ties].argmin()] if bland else ties[u[ties].argmax()]
            step = x_b[r] / u[r]
            degenerate += step <= 1e-12
            x_b = np.maximum(x_b - step * u, 0.0)
            x_b[r] = step
            binv[r] /= u[r]
            u[r] = 0.0
            binv -= np.outer(u, binv[r])
            basis[r] = q
    except np.linalg.LinAlgError:
        pass
    return None


class _Face:
    """An optimal face of one ordering LP, with a certificate for new weights.

    It holds the columns that carried mass at a cold optimum x, the ordering
    rows tight there (a tight row stays in the face even when its dual is 0),
    and the ordering-row duals z <= 0 of that solve, whose profile prices
    (``_OrderingLp.prices``) bound every feasible c.x from below.

    The face's point for weights w puts all of w_s on the column of a
    profile with one face column.  Only the columns of split profiles are
    solved for, by the pseudo-inverse of their row sums and the tight rows
    (the tight rows net of the fixed columns), so the face costs memory
    linear in the number of profiles.  This is the minimum-norm solution of
    the whole face system whenever that system is consistent.
    """

    def __init__(self, lp: _OrderingLp, x: np.ndarray, z: np.ndarray, slack: float):
        self.lp, self.slack, self.shape = lp, slack, x.shape
        cols = np.flatnonzero(x.ravel() > 0)
        states, pairs = np.divmod(cols, x.shape[1])
        per_state = np.bincount(states, minlength=x.shape[0])
        fixed = per_state[states] == 1
        tight = np.flatnonzero(lp.order_rows(x) >= slack - FEAS_TOL)

        def tight_rows(s, p):
            """Coefficients of columns (s, p) in the tight ordering rows."""
            return -lp.diffs[s][:, tight].T * (lp.row_pair[tight, None] == p)

        self.fixed_cols, self.fixed_states = cols[fixed], states[fixed]
        self.fixed_rows = tight_rows(states[fixed], pairs[fixed])
        self.split_cols, self.split_states = cols[~fixed], np.flatnonzero(per_state > 1)
        # the split system: split row sums w, then the tight rows held at
        # the slack less what the fixed columns put on them
        system = np.vstack([
            states[~fixed] == self.split_states[:, None],
            tight_rows(states[~fixed], pairs[~fixed]),
        ])
        pinv = np.linalg.pinv(system)
        self.from_w = pinv[:, : len(self.split_states)]
        self.from_rows = pinv[:, len(self.split_states) :]
        z = np.minimum(z, 0.0)
        self.y = lp.prices(z)
        self.slack_price = slack * z.sum()

    def point(self, w) -> np.ndarray:
        """The face's joint mass x for weights w."""
        x = np.zeros(self.shape)
        fixed_w = w[self.fixed_states]
        x.flat[self.fixed_cols] = fixed_w
        x.flat[self.split_cols] = self.from_w @ w[self.split_states] + self.from_rows @ (
            self.slack - self.fixed_rows @ fixed_w
        )
        return x

    def certify(self, w):
        """(phi, objective) of the face's point for weights w, or None when
        the certificate does not prove it optimal.

        Weights may be 0: the point is certified on the profiles of positive
        weight alone, in the LP on those profiles, and phi has one row for
        each of them in order.  That LP is the LP on every profile with the
        others at weight 0, so the restriction of (y, z) to it is still
        dual-feasible and the duality-gap test stays exact."""
        support = np.flatnonzero(w)
        x, w = self.point(w)[support], w[support]
        return self.lp.certify(
            w, x / w[:, None], self.y[support], self.slack_price, self.slack, support
        )
