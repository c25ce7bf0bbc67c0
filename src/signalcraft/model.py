"""Domain types, validation, and instance generators.

Two problem settings share one vocabulary:

* Known-valuation (KVS): the auctioneer knows the full value vector at each
  state of nature.  States are explicit ``(id, mass, values)`` triples.
* Bayesian-valuation (BVS): the state is a bitvector of per-bidder targeting
  flags; a targeted bidder draws his value from a ``high`` distribution and an
  untargeted one from a ``low`` distribution, via an i.i.d. private type.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

MASS_TOL = 1e-9


class ValidationError(ValueError):
    """Raised when an instance or scheme fails its invariants."""


# ---------------------------------------------------------------------------
# Known-valuation instances
# ---------------------------------------------------------------------------


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class KvsState:
    id: str
    mass: float
    values: tuple[float, ...]


@dataclass(frozen=True)
class KvsInstance:
    """Explicit known-valuation problem.

    ``value_scale`` records the normalization unit: values are expected to lie
    in ``[0, value_scale]``.  Generators whose natural values exceed 1 keep the
    raw numbers and record the scale factor here, so additive guarantees that
    assume values in [0, 1] can be restated on the recorded scale.
    """

    n: int
    states: tuple[KvsState, ...]
    value_scale: float = 1.0

    def validate(self) -> list[str]:
        problems = []
        if self.n < 1:
            problems.append(f"bidder count must be positive, got {self.n}")
        if self.value_scale <= 0:
            problems.append(f"value_scale must be positive, got {self.value_scale}")
        ids = [s.id for s in self.states]
        if len(set(ids)) != len(ids):
            problems.append("state ids are not unique")
        total = 0.0
        for s in self.states:
            total += s.mass
            if not (math.isfinite(s.mass) and s.mass >= 0):
                problems.append(
                    f"state {s.id}: mass {s.mass} is not a finite non-negative number"
                )
            if len(s.values) != self.n:
                problems.append(
                    f"state {s.id}: expected {self.n} values, got {len(s.values)}"
                )
            for i, v in enumerate(s.values):
                if not (-MASS_TOL <= v <= self.value_scale + MASS_TOL):
                    problems.append(
                        f"state {s.id}: value v_{i+1}={v} outside [0, {self.value_scale}]"
                    )
        if abs(total - 1.0) > MASS_TOL:
            problems.append(f"masses sum to {total}")
        return problems

    @cached_property
    def masses(self) -> np.ndarray:
        """Prior masses in state order; read-only, built once per instance."""
        return _frozen(np.array([s.mass for s in self.states]))

    @cached_property
    def value_matrix(self) -> np.ndarray:
        """States-by-bidders value matrix; read-only, built once per instance."""
        return _frozen(np.array([s.values for s in self.states]))

    @cached_property
    def prior_faces(self) -> dict:
        """Optimal faces of the slackened ordering LP at the prior masses,
        keyed by slack; the sampled signaler fills it on first use."""
        return {}

    @cached_property
    def face_families(self) -> dict:
        """Fixed families of optimal faces tried after the prior face, keyed
        by (slack, K); the sampled signaler fills it on first use."""
        return {}

    @cached_property
    def state_index(self) -> dict[str, int]:
        """State id -> position in ``states`` (the first one, if ids repeat)."""
        index: dict[str, int] = {}
        for k, s in enumerate(self.states):
            index.setdefault(s.id, k)
        return index

    def to_json_dict(self) -> dict:
        d = {
            "kind": "kvs",
            "n": self.n,
            "states": [
                {"id": s.id, "mass": s.mass, "values": list(s.values)}
                for s in self.states
            ],
        }
        if self.value_scale != 1.0:
            d["value_scale"] = self.value_scale
        return d


# ---------------------------------------------------------------------------
# Value distributions
# ---------------------------------------------------------------------------

_FAMILIES = ("point", "uniform", "exponential", "bernoulli")


@dataclass(frozen=True)
class ValueDistribution:
    """A nonnegative value distribution from a small closed-form catalog.

    Families: ``point(c)``, ``uniform(a, b)``, ``exponential(rate)`` and
    ``bernoulli(value, p)`` (value with probability p, else 0).  The first
    three satisfy the monotone-hazard-rate condition (``has_mhr``); bernoulli
    does not and is exempt from MHR-based checks.
    """

    family: str
    params: tuple[float, ...]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(c: float) -> "ValueDistribution":
        return ValueDistribution("point", (float(c),))

    @staticmethod
    def uniform(a: float, b: float) -> "ValueDistribution":
        return ValueDistribution("uniform", (float(a), float(b)))

    @staticmethod
    def exponential(rate: float) -> "ValueDistribution":
        return ValueDistribution("exponential", (float(rate),))

    @staticmethod
    def bernoulli(value: float, p: float) -> "ValueDistribution":
        return ValueDistribution("bernoulli", (float(value), float(p)))

    # -- invariants ---------------------------------------------------------

    def validate(self) -> list[str]:
        problems = []
        if self.family not in _FAMILIES:
            return [f"unknown family {self.family!r}"]
        if self.family == "point":
            (c,) = self.params
            if c < 0:
                problems.append(f"point mass at {c} < 0")
        elif self.family == "uniform":
            a, b = self.params
            if a < 0:
                problems.append(f"uniform lower end {a} < 0")
            if b <= a:
                problems.append(f"uniform needs a < b, got [{a}, {b}]")
        elif self.family == "exponential":
            (rate,) = self.params
            if rate <= 0:
                problems.append(f"exponential rate {rate} must be positive")
        elif self.family == "bernoulli":
            v, p = self.params
            if v < 0:
                problems.append(f"bernoulli value {v} < 0")
            if not (0 <= p <= 1):
                problems.append(f"bernoulli probability {p} outside [0, 1]")
        return problems

    @property
    def has_mhr(self) -> bool:
        """Monotone hazard rate; the discrete bernoulli family is excluded."""
        return self.family in ("point", "uniform", "exponential")

    # -- distribution functions ---------------------------------------------

    def mean(self) -> float:
        if self.family == "point":
            return self.params[0]
        if self.family == "uniform":
            a, b = self.params
            return 0.5 * (a + b)
        if self.family == "exponential":
            return 1.0 / self.params[0]
        v, p = self.params
        return v * p

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "point":
            (c,) = self.params
            return (x >= c).astype(float)
        if self.family == "uniform":
            a, b = self.params
            return np.clip((x - a) / (b - a), 0.0, 1.0)
        if self.family == "exponential":
            (rate,) = self.params
            return np.where(x >= 0, 1.0 - np.exp(-rate * np.maximum(x, 0.0)), 0.0)
        v, p = self.params
        # jumps at 0 (mass 1-p) and at v (mass p); handles v == 0 as a point
        if v == 0:
            return (x >= 0).astype(float)
        return np.where(x >= v, 1.0, np.where(x >= 0, 1.0 - p, 0.0))

    def ppf(self, u):
        """Inverse CDF; the coupling device that turns a uniform type draw
        into a value draw."""
        u = np.asarray(u, dtype=float)
        if self.family == "point":
            return np.full_like(u, self.params[0])
        if self.family == "uniform":
            a, b = self.params
            return a + (b - a) * u
        if self.family == "exponential":
            (rate,) = self.params
            return -np.log1p(-np.clip(u, 0.0, 1.0 - 1e-16)) / rate
        v, p = self.params
        return np.where(u > 1.0 - p, v, 0.0)

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        return self.ppf(rng.random(size))

    def upper_cutoff(self, tail: float = 1e-9) -> float:
        """Quantile 1 - tail; finite truncation point for quadrature."""
        if self.family == "point":
            return self.params[0]
        if self.family == "uniform":
            return self.params[1]
        if self.family == "exponential":
            return -math.log(tail) / self.params[0]
        return self.params[0]

    def to_json_dict(self) -> dict:
        if len(self.params) == 1:
            return {self.family: self.params[0]}
        return {self.family: list(self.params)}


# ---------------------------------------------------------------------------
# Feature priors over {0,1}^n
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IidPrior:
    """Each bidder is targeted independently with probability eps."""

    n: int
    eps: float

    def pmf(self, bits: tuple[int, ...]) -> float:
        k = sum(bits)
        return self.eps**k * (1.0 - self.eps) ** (self.n - k)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        shape = (self.n,) if size is None else (size, self.n)
        return (rng.random(shape) < self.eps).astype(np.int8)

    def marginals(self) -> np.ndarray:
        return np.full(self.n, self.eps)

    def validate(self) -> list[str]:
        if not (0 <= self.eps <= 1):
            return [f"iid targeting probability {self.eps} outside [0, 1]"]
        return []

    def to_json_value(self):
        return {"iid": self.eps}


@dataclass(frozen=True)
class ExplicitPrior:
    """Finite-support prior given as (bitvector, mass) pairs."""

    n: int
    entries: tuple[tuple[tuple[int, ...], float], ...]

    def pmf(self, bits: tuple[int, ...]) -> float:
        for b, m in self.entries:
            if b == tuple(bits):
                return m
        return 0.0

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        masses = np.array([m for _, m in self.entries])
        states = np.array([b for b, _ in self.entries], dtype=np.int8)
        idx = rng.choice(len(self.entries), size=size, p=masses / masses.sum())
        return states[idx]

    def marginals(self) -> np.ndarray:
        out = np.zeros(self.n)
        for b, m in self.entries:
            out += m * np.asarray(b)
        return out

    def validate(self) -> list[str]:
        problems = []
        total = 0.0
        seen = set()
        for b, m in self.entries:
            total += m
            if len(b) != self.n or any(x not in (0, 1) for x in b):
                problems.append(f"bad bitvector {b}")
            if not (math.isfinite(m) and m >= 0):
                problems.append(
                    f"state {b}: mass {m} is not a finite non-negative number"
                )
            if b in seen:
                problems.append(f"duplicate bitvector {b}")
            seen.add(b)
        if abs(total - 1.0) > MASS_TOL:
            problems.append(f"masses sum to {total}")
        return problems

    def to_json_value(self):
        return {
            "explicit": [
                {"bits": "".join(map(str, b)), "mass": m} for b, m in self.entries
            ]
        }


FeaturePrior = IidPrior | ExplicitPrior


@dataclass(frozen=True)
class BvsInstance:
    """Bayesian-valuation problem: feature prior plus high/low distributions."""

    n: int
    prior: FeaturePrior
    high: ValueDistribution
    low: ValueDistribution

    def validate(self) -> list[str]:
        problems = []
        if self.n < 1:
            problems.append(f"bidder count must be positive, got {self.n}")
        if getattr(self.prior, "n", self.n) != self.n:
            problems.append("prior dimension disagrees with bidder count")
        problems += self.prior.validate()
        problems += [f"high: {p}" for p in self.high.validate()]
        problems += [f"low: {p}" for p in self.low.validate()]
        if not problems and self.high.mean() <= self.low.mean():
            problems.append(
                "mean ordering violated: E[high]="
                f"{self.high.mean()} <= E[low]={self.low.mean()}"
            )
        return problems

    def tail_masses(self) -> np.ndarray:
        """Prior mass of each one-hot state (exactly one targeted bidder)."""
        out = np.zeros(self.n)
        for i in range(self.n):
            bits = tuple(1 if j == i else 0 for j in range(self.n))
            out[i] = self.prior.pmf(bits)
        return out

    def to_json_dict(self) -> dict:
        return {
            "kind": "bvs",
            "n": self.n,
            "prior": self.prior.to_json_value(),
            "high": self.high.to_json_dict(),
            "low": self.low.to_json_dict(),
        }


def validate(instance: KvsInstance | BvsInstance) -> list[str]:
    """Report violated invariants; empty iff the instance is well-formed."""
    return instance.validate()


# ---------------------------------------------------------------------------
# Signals and public schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signal:
    """A signal payload.

    ``pair(i, j)`` announces the intended top-two bidders, ``revealed_state``
    discloses the state, ``pooled_pair`` discloses a two-state set, and
    ``opaque`` is an uninterpreted label.
    """

    kind: str
    payload: tuple

    @staticmethod
    def pair(i: int, j: int) -> "Signal":
        if i == j:
            raise ValidationError(f"pair signal needs distinct bidders, got ({i},{i})")
        return Signal("pair", (i, j))

    @staticmethod
    def revealed(state) -> "Signal":
        return Signal("revealed_state", (state,))

    @staticmethod
    def pooled(state_a, state_b) -> "Signal":
        if state_a == state_b:
            raise ValidationError("pooled_pair needs two distinct tail states")
        return Signal("pooled_pair", (state_a, state_b))

    @staticmethod
    def opaque(index: int) -> "Signal":
        return Signal("opaque", (index,))

    @property
    def label(self) -> str:
        if self.kind == "pair":
            i, j = self.payload
            return f"top{i+1}_second{j+1}"
        if self.kind == "revealed_state":
            (s,) = self.payload
            if isinstance(s, tuple):
                return "state_" + "".join(map(str, s))
            return f"state_{s}"
        if self.kind == "pooled_pair":
            a, b = self.payload
            fmt = lambda s: "".join(map(str, s)) if isinstance(s, tuple) else str(s)
            return f"pool_{fmt(a)}_{fmt(b)}"
        (i,) = self.payload
        return f"sig_{i}"


@dataclass(frozen=True)
class PublicScheme:
    """A public signaling scheme, explicit or procedural.

    Explicit schemes carry the full randomized table ``phi[state_id][signal]``.
    Procedural kinds (full_information, no_information, tail_pooling) are
    expanded on demand by the code that runs them.
    """

    kind: str
    table: Mapping[str, Mapping[Signal, float]] | None = None
    pooling: object | None = None  # PoolingScheme for tail_pooling

    @staticmethod
    def explicit(table: Mapping[str, Mapping[Signal, float]]) -> "PublicScheme":
        return PublicScheme("explicit", table=dict(table))

    @staticmethod
    def full_information() -> "PublicScheme":
        return PublicScheme("full_information")

    @staticmethod
    def no_information() -> "PublicScheme":
        return PublicScheme("no_information")

    @staticmethod
    def tail_pooling(pooling) -> "PublicScheme":
        return PublicScheme("tail_pooling", pooling=pooling)

    def validate(self) -> list[str]:
        if self.kind != "explicit":
            return []
        problems = []
        for state_id, row in self.table.items():
            total = 0.0
            for sig, prob in row.items():
                total += prob
                if prob < -MASS_TOL:
                    problems.append(
                        f"state {state_id}: phi({sig.label}) = {prob} is negative"
                    )
            if abs(total - 1.0) > MASS_TOL:
                problems.append(f"state {state_id}: row sums to {total}")
        return problems

    def signals(self) -> list[Signal]:
        seen: dict[Signal, None] = {}
        for row in self.table.values():
            for sig in row:
                seen.setdefault(sig)
        return list(seen)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def make_example1() -> KvsInstance:
    """Two bidders, two equally likely profiles (1,2) and (7,7).

    The profile where both bidders agree makes an uninformed bidder suffer the
    winner's curse.  Values exceed 1, so the normalization unit is recorded.
    """
    states = (
        KvsState("low", 0.5, (1.0, 2.0)),
        KvsState("high", 0.5, (7.0, 7.0)),
    )
    return KvsInstance(n=2, states=states, value_scale=7.0)


def make_example3(eps: float) -> KvsInstance:
    """Three bidders, two profiles; private signaling beats public by ~1/(3eps).

    State A (mass 1-eps) has values (2eps, eps, 1); state B (mass eps) has
    values (1, 1-eps, eps).  Requires 0 < eps < 1/3.
    """
    if not (0 < eps < 1 / 3):
        raise ValidationError(f"eps must lie in (0, 1/3), got {eps}")
    states = (
        KvsState("A", 1.0 - eps, (2 * eps, eps, 1.0)),
        KvsState("B", eps, (1.0, 1.0 - eps, eps)),
    )
    return KvsInstance(n=3, states=states)


def make_theorem2_instance(n: int, eps: float) -> BvsInstance:
    """Symmetric separation instance: bernoulli(1, 1/sqrt(n)) high vs point-0 low,
    i.i.d. targeting flags with probability eps."""
    if n < 4:
        raise ValidationError(f"n must be at least 4, got {n}")
    if not (0 < eps < 1 / 3):
        raise ValidationError(f"eps must lie in (0, 1/3), got {eps}")
    return BvsInstance(
        n=n,
        prior=IidPrior(n=n, eps=eps),
        high=ValueDistribution.bernoulli(1.0, 1.0 / math.sqrt(n)),
        low=ValueDistribution.point(0.0),
    )


def make_example2(n: int) -> BvsInstance:
    """One uniformly drawn bidder has value U[0,1]; everyone else values 0."""
    if n < 2 or n % 2 != 0:
        raise ValidationError(f"n must be an even integer >= 2, got {n}")
    entries = []
    for i in range(n):
        bits = tuple(1 if j == i else 0 for j in range(n))
        entries.append((bits, 1.0 / n))
    return BvsInstance(
        n=n,
        prior=ExplicitPrior(n=n, entries=tuple(entries)),
        high=ValueDistribution.uniform(0.0, 1.0),
        low=ValueDistribution.point(0.0),
    )


# ---------------------------------------------------------------------------
# JSON instance schema
# ---------------------------------------------------------------------------

_DIST_KEYS = {"point": 1, "uniform": 2, "exponential": 1, "bernoulli": 2}


def _dist_from_json(obj, where: str) -> ValueDistribution:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValidationError(f"{where}: expected a one-key distribution object")
    (family, params), = obj.items()
    if family not in _DIST_KEYS:
        raise ValidationError(f"{where}: unknown distribution family {family!r}")
    arity = _DIST_KEYS[family]
    if arity == 1:
        if not isinstance(params, (int, float)):
            raise ValidationError(f"{where}: {family} takes a single number")
        dist = ValueDistribution(family, (float(params),))
    else:
        if not (isinstance(params, list) and len(params) == arity):
            raise ValidationError(f"{where}: {family} takes a list of {arity} numbers")
        dist = ValueDistribution(family, tuple(float(x) for x in params))
    problems = dist.validate()
    if problems:
        raise ValidationError(f"{where}: " + "; ".join(problems))
    return dist


def instance_from_json_dict(data: dict) -> KvsInstance | BvsInstance:
    """Parse the instance schema; an unknown, missing or malformed field
    raises ValidationError."""
    try:
        return _parse_instance(data)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed instance field: {e!r}") from None


def _bidder_count(raw) -> int:
    # bool is an int subclass; a JSON true must not read as one bidder
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValidationError(f"n must be an integer, got {raw!r}")
    return raw


def _parse_instance(data) -> KvsInstance | BvsInstance:
    if not isinstance(data, dict):
        raise ValidationError("instance document must be a JSON object")
    kind = data.get("kind")
    if kind == "kvs":
        allowed = {"kind", "n", "states", "value_scale"}
        unknown = set(data) - allowed
        if unknown:
            raise ValidationError(f"unknown fields: {sorted(unknown)}")
        states = []
        for k, s in enumerate(data.get("states", [])):
            if not isinstance(s, dict):
                raise ValidationError(f"states[{k}]: expected an object")
            extra = set(s) - {"id", "mass", "values"}
            if extra:
                raise ValidationError(f"states[{k}]: unknown fields {sorted(extra)}")
            try:
                states.append(
                    KvsState(str(s["id"]), float(s["mass"]), tuple(map(float, s["values"])))
                )
            except KeyError as e:
                raise ValidationError(f"states[{k}]: missing field {e}") from None
        inst = KvsInstance(
            n=_bidder_count(data["n"]),
            states=tuple(states),
            value_scale=float(data.get("value_scale", 1.0)),
        )
    elif kind == "bvs":
        allowed = {"kind", "n", "prior", "high", "low"}
        unknown = set(data) - allowed
        if unknown:
            raise ValidationError(f"unknown fields: {sorted(unknown)}")
        n = _bidder_count(data["n"])
        pr = data.get("prior")
        if not isinstance(pr, dict) or len(pr) != 1:
            raise ValidationError("prior: expected a one-key object")
        (pkind, pval), = pr.items()
        if pkind == "iid":
            prior: FeaturePrior = IidPrior(n=n, eps=float(pval))
        elif pkind == "explicit":
            entries = []
            for k, e in enumerate(pval):
                extra = set(e) - {"bits", "mass"}
                if extra:
                    raise ValidationError(f"prior[{k}]: unknown fields {sorted(extra)}")
                bits = tuple(int(c) for c in str(e["bits"]))
                entries.append((bits, float(e["mass"])))
            prior = ExplicitPrior(n=n, entries=tuple(entries))
        else:
            raise ValidationError(f"prior: unknown prior kind {pkind!r}")
        inst = BvsInstance(
            n=n,
            prior=prior,
            high=_dist_from_json(data["high"], "high"),
            low=_dist_from_json(data["low"], "low"),
        )
    else:
        raise ValidationError(f"kind must be 'kvs' or 'bvs', got {kind!r}")
    problems = inst.validate()
    if problems:
        raise ValidationError("; ".join(problems))
    return inst


def load_instance(path) -> KvsInstance | BvsInstance:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise ValidationError(f"malformed JSON: {e}") from None
    return instance_from_json_dict(data)


def save_instance(instance: KvsInstance | BvsInstance, path) -> None:
    with open(path, "w") as f:
        json.dump(instance.to_json_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
