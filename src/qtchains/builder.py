"""Assembly of the deficit-indexed chain collection.

Chains of deficit at most 5 come from an unseeded, deterministic segment
search whose result is frozen in data/base_collection.json; larger
deficits are attached in pairs grown from pole templates, each new chain
tiled from antipodal images, bridge classes, and the staged vectors of
its own template base.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from math import comb
from pathlib import Path
from typing import Iterator

from .dyck import (
    Vector,
    area,
    class_from_partition,
    dinv,
    enumerate_deficit,
    format_vector,
    parse_vector,
    partition_from_class,
    qdv_from_partition,
    reduce,
)
from .flagpole import is_flagpole, is_generalized_flagpole, phi, psi_inv, template_match
from .partitions import Partition, format_partition, parse_partition, partitions_of
from .steps import is_nu1_initial, nu1_partition
from .tails import (
    TailTwoSummary,
    coverage_bound,
    locate_in_tail,
    s_vectors,
    tail_elements,
    ti,
    ti_dinv,
    ti2,
)
from .verify import Chain, CheckResult, check_pair, opposite_bruteforce


BASE_K_MAX = 5  # the base collection is searched through this deficit; extend_all builds above it

Assignment = tuple[dict[Partition, Chain], dict[Partition, Partition]]  # chains and their pairing
Segment = tuple[int, tuple[Vector, ...]]  # a maximal first-order segment: start dinv, classes


@dataclass
class ChainCollection:
    """Chains keyed by deficit partition, with the size-preserving pairing."""

    chains: dict[Partition, Chain]
    pairing: dict[Partition, Partition]
    k_max: int

    def chain(self, mu: Partition) -> Chain:
        return self.chains[tuple(mu)]

    def partner(self, mu: Partition) -> Partition:
        return self.pairing[tuple(mu)]

    def members(self) -> list[Partition]:
        return sorted(self.chains, key=lambda p: (sum(p), p))

    def pairs(self) -> list[tuple[Partition, Partition]]:
        """Each chain pair once, the self-paired ones as (mu, mu)."""
        return [(mu, self.pairing[mu]) for mu in self.members() if mu <= self.pairing[mu]]


# ------------------------------------------------------------------- search

def _tilings(segments: list[Segment], lo: int, hi: int, table: dict) -> list[tuple[int, ...]]:
    """The segment-index tuples that tile dinvs lo..hi-1, in the order a backward
    depth-first search from hi meets them; table memoizes (lo, hi)."""
    if (lo, hi) not in table:
        table[lo, hi] = [()] if hi == lo else [
            t + (i,)
            for i, (s, seg) in enumerate(segments)
            if s + len(seg) == hi and s >= lo
            for t in _tilings(segments, lo, s, table)
        ]
    return table[lo, hi]


def _matchings(pool: list[Partition]) -> Iterator[dict[Partition, Partition]]:
    """Every involution of pool: the head self-paired first, then with each later partner."""
    if not pool:
        yield {}
        return
    for other in pool:
        for m in _matchings([x for x in pool[1:] if x != other]):
            yield {pool[0]: other, other: pool[0], **m}


def _exact_covers(options: list[list[tuple[int, ...]]], free: frozenset[int]) -> Iterator[tuple]:
    """One tiling from each option list, together using each index of free once."""
    if not options:
        if not free:
            yield ()
        return
    for t in options[0]:
        if free.issuperset(t):
            for rest in _exact_covers(options[1:], free.difference(t)):
                yield (t,) + rest


def chain_candidates(k: int) -> Iterator[Assignment]:
    """Every deficit-k assignment of chains and pairing whose chains tile the classes.

    Pairings come self images first, then partners in increasing order;
    within one, tilings in (start, vector) segment order."""
    mus = list(partitions_of(k))[::-1]
    base = {mu: ti(mu) for mu in mus}
    target = {mu: ti_dinv(mu) for mu in mus}
    horizon = max(target.values())

    bases = set(base.values())
    universe = enumerate_deficit(k, horizon)
    segments: list[Segment] = []
    for c in universe:
        if c in bases or not is_nu1_initial(c):
            continue
        seg = [c]
        p = nu1_partition(partition_from_class(c))
        while p is not None:
            seg.append(class_from_partition(p))
            p = nu1_partition(p)
            if len(seg) > 2 * horizon + 4:
                raise RuntimeError(f"segment from {c} does not stop")
        segments.append((dinv(c), tuple(seg)))
    segments.sort()

    seen = [e for _, seg in segments for e in seg]
    for mu in mus:
        seen.extend(tail_elements(mu, horizon - target[mu] + 1))
    if sorted(seen) != sorted(universe):
        raise RuntimeError(f"segments do not tile the deficit-{k} classes")

    table: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for pairing in _matchings(mus):
        options = [_tilings(segments, len(pairing[mu]), target[mu], table) for mu in mus]
        for choice in _exact_covers(options, frozenset(range(len(segments)))):
            yield {
                mu: Chain(mu, len(pairing[mu]), [segments[i][1][0] for i in tiles] + [base[mu]])
                for mu, tiles in zip(mus, choice)
            }, pairing


def assignment_passes(assignment: Assignment, k: int) -> bool:
    """Every chain pair of a deficit-k assignment passes check_pair."""
    chains, pairing = assignment
    pairs = [(chain, chains[pairing[mu]]) for mu, chain in chains.items() if mu <= pairing[mu]]
    return all(r.ok for chain, partner in pairs for _, r in check_pair(chain, partner, k))


def search_chains(k: int) -> Assignment:
    """The first of chain_candidates(k) whose chain pairs pass every check."""
    for assignment in chain_candidates(k):
        if assignment_passes(assignment, k):
            return assignment
    raise RuntimeError(f"no consistent chain assignment at deficit {k}")


def search_base_collection() -> ChainCollection:
    """Search deficits 0 through BASE_K_MAX, each from nothing."""
    chains: dict[Partition, Chain] = {}
    pairing: dict[Partition, Partition] = {}
    for k in range(BASE_K_MAX + 1):
        got, pair_k = search_chains(k)
        chains.update(got)
        pairing.update(pair_k)
    return ChainCollection(chains, pairing, BASE_K_MAX)


# ------------------------------------------------------------- serialization

_FORMAT = 1
_RECORD_TYPES = {"mu": str, "partner": str, "start": int, "generators": list}


def _certificate(rec: dict) -> str:
    blob = json.dumps({key: rec[key] for key in _RECORD_TYPES}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def collection_payload(coll: ChainCollection) -> dict:
    records = []
    for mu in coll.members():
        chain = coll.chains[mu]
        rec = {
            "mu": format_partition(mu),
            "partner": format_partition(coll.pairing[mu]),
            "start": chain.start_dinv,
            "generators": [format_vector(g) for g in chain.generators],
        }
        rec["certificate"] = _certificate(rec)
        records.append(rec)
    return {"format": _FORMAT, "k_max": coll.k_max, "chains": records}


def save_collection(coll: ChainCollection, path: str | Path) -> None:
    Path(path).write_text(json.dumps(collection_payload(coll), indent=1) + "\n")


def load_collection(path: str | Path) -> ChainCollection:
    """Read a stored collection; a malformed or inconsistent file raises ValueError."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError("a collection file holds one JSON object")
    if payload.get("format") != _FORMAT:
        raise ValueError(f"unsupported collection format {payload.get('format')!r}")
    if not isinstance(payload.get("chains"), list) or type(payload.get("k_max")) is not int:
        raise ValueError("a collection needs a list of chains and an integer k_max")
    chains: dict[Partition, Chain] = {}
    pairing: dict[Partition, Partition] = {}
    for rec in payload["chains"]:
        if not (
            isinstance(rec, dict)
            and all(type(rec.get(key)) is kind for key, kind in _RECORD_TYPES.items())
            and all(type(g) is str for g in rec["generators"])
        ):
            raise ValueError(f"malformed record {json.dumps(rec)[:60]}")
        if rec.get("certificate") != _certificate(rec):
            raise ValueError(f"corrupt record for {rec['mu']}")
        mu = parse_partition(rec["mu"])
        if mu in chains:
            raise ValueError(f"repeated record for {rec['mu']}")
        if sum(mu) > payload["k_max"]:
            raise ValueError(f"{rec['mu']} has deficit {sum(mu)}, above k_max {payload['k_max']}")
        chains[mu] = Chain(mu, rec["start"], [parse_vector(g) for g in rec["generators"]])
        pairing[mu] = parse_partition(rec["partner"])
    for mu, star in pairing.items():
        if star not in chains or pairing[star] != mu:
            raise ValueError(f"pairing is not an involution at {format_partition(mu)}")
    return ChainCollection(chains, pairing, payload["k_max"])


def _data_path() -> Path:
    return Path(str(resources.files("qtchains").joinpath("data").joinpath("base_collection.json")))


def seed_base_collection(force_search: bool = False) -> ChainCollection:
    """The deficit <= 5 collection, from the frozen file or a fresh search."""
    path = _data_path()
    if not force_search and path.is_file():
        return load_collection(path)
    return search_base_collection()


# --------------------------------------------------------------- validation

def validate_collection(coll: ChainCollection, opposite_n: int = 0) -> list[tuple[str, CheckResult]]:
    """Run every structural check; rows are (context, result)."""
    rows: list[tuple[str, CheckResult]] = []
    for mu, star in coll.pairs():
        chain, partner = coll.chains[mu], coll.chains[star]
        rows += check_pair(chain, partner, sum(mu))
        if opposite_n:
            name = format_partition(mu)
            try:
                rows += [(name, r) for r in opposite_bruteforce(chain, partner, opposite_n)]
            except RuntimeError as e:
                rows.append((name, CheckResult("opposite", False, str(e))))
    by_k: dict[int, dict[Partition, Chain]] = {}
    for mu in coll.members():
        by_k.setdefault(sum(mu), {})[mu] = coll.chains[mu]
    for k, group in sorted(by_k.items()):
        clash = _first_clash(group, coverage_bound(k) + 10)
        rows.append((f"deficit {k}", CheckResult("disjoint", not clash, clash)))
    return rows


def _first_clash(chains: dict[Partition, Chain], d_hi: int) -> str:
    """The first class two chains share up to dinv d_hi, or the first walk error; "" if none."""
    owner: dict[Vector, Partition] = {}
    for mu, chain in chains.items():
        try:
            els = chain.elements_upto(d_hi)
        except RuntimeError as e:
            return str(e)
        for c in els:
            if owner.setdefault(c, mu) != mu:
                return f"{format_vector(c)} in {format_partition(owner[c])} and {format_partition(mu)}"
    return ""


# ---------------------------------------------------------------- extension

@dataclass(frozen=True)
class BuildContext:
    """Template data for one new chain pair."""

    mu: Partition
    mu_star: Partition
    lam: Partition
    lam_star: Partition
    stages: TailTwoSummary
    stages_star: TailTwoSummary

    def swapped(self) -> BuildContext:
        """The same pair seen from the partner's side."""
        return BuildContext(
            self.mu_star, self.mu, self.lam_star, self.lam, self.stages_star, self.stages
        )


def build_context(coll: ChainCollection, mu: Partition) -> BuildContext:
    """Resolve the partner and stage data for a template-based pair."""
    mu = tuple(mu)
    v = ti2(mu)
    match = template_match(v)
    if match is None:
        raise ValueError(f"{format_partition(mu)} has no template base")
    lam = match[0]
    lam_star = coll.pairing.get(lam)
    if lam_star is None:
        raise ValueError(f"no chain pair for the flag type {format_partition(lam)}")
    mu_star = psi_inv(lam_star, len(v), area(v) % 2)
    v_star = ti2(mu_star)
    k = sum(mu)
    if len(v_star) != len(v) or sum(mu_star) != k:
        raise RuntimeError(f"partner data of {format_partition(mu)} is inconsistent")
    budget = comb(len(v), 2) - k
    if dinv(v) + area(v) != budget or dinv(v_star) + area(v_star) != budget:
        raise RuntimeError(f"stat identity fails for {format_partition(mu)}")
    return BuildContext(mu, mu_star, lam, lam_star, s_vectors(v), s_vectors(v_star))


def _stage_source(s_vec: Vector) -> Partition:
    """Deficit label of the orbit holding the trimmed stage vector."""
    if s_vec[0] != 0 or s_vec[-1] != 1:
        raise ValueError(f"stage vector {format_vector(s_vec)} is not 0...1")
    loc = locate_in_tail(reduce(s_vec[1:-1]))
    if loc is None:
        raise RuntimeError(f"trimmed stage {format_vector(s_vec)} is in no orbit")
    return loc.mu


def needed_partitions(ctx: BuildContext) -> set[Partition]:
    """Smaller deficit labels whose chains the assembly consults."""
    need = {ctx.lam, ctx.lam_star}
    for stages in (ctx.stages, ctx.stages_star):
        for s_vec in stages.s_vectors[1:]:
            need.add(_stage_source(s_vec))
    return need


def _lifted_element(chain: Chain, d: int, length: int) -> Vector:
    """The chain element at dinv d, re-expressed at length - 2 and lifted by 0,0."""
    z = qdv_from_partition(partition_from_class(chain.element(d)), length - 2)
    if min(z) < 0:
        raise RuntimeError("class does not fit at the requested length")
    return (0, 0) + tuple(x + 1 for x in z)


def bridge_vector(coll: ChainCollection, lam: Partition, i: int, length: int) -> Vector:
    """Deficit-|lam| chain element at dinv i-1, re-expressed at the given length."""
    return _lifted_element(coll.chains[tuple(lam)], i - 1, length)


def antipode(coll: ChainCollection, s_vec: Vector) -> Vector:
    """Area-dinv mirror of a stage vector, through the partner of its orbit label."""
    rho = _stage_source(s_vec)
    return _lifted_element(coll.chains[coll.pairing[rho]], sum(s_vec) - 1, len(s_vec))


def _assemble(coll: ChainCollection, ctx: BuildContext) -> Chain:
    """The chain of ctx.mu: partner antipodes, then bridges, then its own stages."""
    stages, stages_star = ctx.stages, ctx.stages_star
    gens = [antipode(coll, s_vec) for s_vec in stages_star.s_vectors[:0:-1]]
    for i in range(area(stages_star.v), dinv(stages.v) - 1, 2):
        gens.append(bridge_vector(coll, ctx.lam, i, len(stages.v)))
    gens.extend(stages.s_vectors)
    return Chain(ctx.mu, len(ctx.mu_star), gens)


def build_flagpole_pair(coll: ChainCollection, ctx: BuildContext) -> dict[Partition, Chain]:
    """Assemble the chain pair that ctx resolved, keyed by partition."""
    sides = [ctx] if ctx.mu_star == ctx.mu else [ctx, ctx.swapped()]
    return {side.mu: _assemble(coll, side) for side in sides}


def extend_all(coll: ChainCollection, k_max: int, mode: str = "flagpole") -> ChainCollection:
    """Grow the collection deficit by deficit through template-based pairs.

    Mode "flagpole" uses the closed eligibility test; "generalized" the
    length test against the current pairing.  Every assembled pair is
    checked before it is kept; a failing pair raises.

    The construction starts at deficit BASE_K_MAX + 1 and needs the whole
    base collection below it, so extending a collection whose k_max is
    under BASE_K_MAX raises ValueError.
    """
    if mode not in ("flagpole", "generalized"):
        raise ValueError(f"unknown mode {mode!r}")
    if k_max > coll.k_max and coll.k_max < BASE_K_MAX:
        raise ValueError(
            f"extend_all needs a collection through deficit {BASE_K_MAX}, "
            f"this one stops at {coll.k_max}"
        )
    chains = dict(coll.chains)
    pairing = dict(coll.pairing)
    for k in range(coll.k_max + 1, k_max + 1):
        cur = ChainCollection(chains, pairing, k - 1)
        for mu in list(partitions_of(k))[::-1]:
            if mu in chains:
                continue
            if mode == "flagpole":
                if not is_flagpole(mu):
                    continue
            elif not is_generalized_flagpole(mu, pairing):
                continue
            # either test passing means the base of mu is a template
            if phi(mu)[0] not in pairing:
                continue
            ctx = build_context(cur, mu)
            if not needed_partitions(ctx) <= set(chains):
                continue
            built = build_flagpole_pair(cur, ctx)
            bad = [r for _, r in check_pair(built[ctx.mu], built[ctx.mu_star], k) if not r.ok]
            if bad:
                raise RuntimeError(
                    f"assembled pair for {format_partition(mu)} fails "
                    f"{bad[0].clause}: {bad[0].witness}"
                )
            chains.update(built)
            pairing[ctx.mu] = ctx.mu_star
            pairing[ctx.mu_star] = ctx.mu
    return ChainCollection(chains, pairing, k_max)
