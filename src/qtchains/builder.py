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
from collections import Counter
from importlib import resources
from math import comb
from pathlib import Path
from typing import Iterator, NamedTuple

from .dyck import (
    Vector,
    area,
    class_from_partition,
    dinv,
    enumerate_deficit,
    format_vector,
    parse_vectors,
    partition_dinv,
    partition_from_class,
    qdv_from_partition,
)
from .flagpole import is_flagpole, is_generalized_flagpole, phi, psi_inv
from .partitions import (
    Partition, count_partitions_max, format_partition, parse_partition, partitions_of
)
from .steps import nd1_partition, nu1_partition
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
from .verify import (
    Chain, ChainCheck, CheckResult, check_chain, check_pair, opposite_bruteforce, pair_rows
)


BASE_K_MAX = 5  # the base collection is searched through this deficit; extend_all builds above it
SEARCH_NODE_MAX = 7_000  # tilings one search_chains call may place; about 3 s cold

Segment = tuple[int, tuple[Vector, ...]]  # a maximal first-order segment: start dinv, classes


class ChainCollection:
    """Chains keyed by deficit partition, with the size-preserving pairing."""

    def __init__(
        self, chains: dict[Partition, Chain], pairing: dict[Partition, Partition], k_max: int
    ):
        self.chains = chains
        self.pairing = pairing
        self.k_max = k_max

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

def _search_setup(
    k: int,
) -> tuple[list[Partition], dict[Partition, Vector], dict[Partition, int], list[Segment]]:
    """The deficit-k partitions in search order, their base vectors and base dinvs,
    and the maximal first-order segments below the base orbits, sorted.

    Raises RuntimeError unless the segments and the base orbits tile the
    deficit-k classes through the largest base dinv."""
    mus = list(partitions_of(k))[::-1]
    base = {mu: ti(mu) for mu in mus}
    target = {mu: ti_dinv(mu) for mu in mus}
    horizon = max(target.values())

    bases = set(base.values())
    universe = enumerate_deficit(k, horizon)
    segments: list[Segment] = []
    for c in universe:
        p = partition_from_class(c)
        if c in bases or nd1_partition(p) is not None:
            continue
        seg = [c]
        p = nu1_partition(p)
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
    return mus, base, target, segments


class _Search:
    """Per-call state of search_chains: the segments, the indices of the
    segments ending at each dinv, the one-chain verdict of each tiling
    checked, and the number of tilings placed."""

    def __init__(self, k: int):
        self.k = k
        self.mus, self.base, self.target, self.segments = _search_setup(k)
        self.ending: dict[int, list[int]] = {}
        for i, (s, seg) in enumerate(self.segments):
            self.ending.setdefault(s + len(seg), []).append(i)
        self.passes: dict[tuple[Partition, int, tuple[int, ...]], bool] = {}
        self.placed = 0

    def tilings(self, lo: int, hi: int, free: frozenset[int]) -> Iterator[tuple[int, ...]]:
        """The tilings of dinvs lo..hi-1 by free segments, in the order a
        backward depth-first search from hi meets them."""
        if hi == lo:
            yield ()
            return
        for i in self.ending.get(hi, ()):
            s = self.segments[i][0]
            if s >= lo and i in free:
                for t in self.tilings(lo, s, free):
                    yield t + (i,)

    def chains(
        self, mu: Partition, start: int, free: frozenset[int]
    ) -> Iterator[tuple[ChainCheck, frozenset[int]]]:
        """Each chain of mu from start on free segments whose one-chain rows
        pass, checked, with the segments it leaves free.

        A tiling that failed once is skipped on its cached verdict; one that
        passed is walked and checked again, since no Chain is kept."""
        for tiles in self.tilings(start, self.target[mu], free):
            self.placed += 1
            if self.placed > SEARCH_NODE_MAX:
                raise RuntimeError(
                    f"search at deficit {self.k} found no assignment within "
                    f"SEARCH_NODE_MAX = {SEARCH_NODE_MAX} placed tilings"
                )
            key = (mu, start, tiles)
            if self.passes.get(key) is False:
                continue
            gens = [self.segments[i][1][0] for i in tiles] + [self.base[mu]]
            checked = check_chain(Chain(mu, start, gens))
            self.passes[key] = checked.ok
            if checked.ok:
                yield checked, free.difference(tiles)

    def assignments(
        self, todo: list[Partition], free: frozenset[int]
    ) -> Iterator[tuple[dict[Partition, Chain], dict[Partition, Partition]]]:
        """Every way, in search order, to pair off todo and fix its chains on
        exactly the free segments with every pair passing: chains and pairing."""
        if not todo:
            if not free:
                yield {}, {}
            return
        mu = todo[0]
        for star in todo:
            rest = [p for p in todo[1:] if p != star]
            for ours, left in self.chains(mu, len(star), free):
                partners = [(ours, left)] if star == mu else self.chains(star, len(mu), left)
                for theirs, after in partners:
                    if all(r.ok for _, r in pair_rows(ours, theirs, self.k)):
                        for chains, pairing in self.assignments(rest, after):
                            yield (
                                {mu: ours.chain, star: theirs.chain, **chains},
                                {mu: star, star: mu, **pairing},
                            )


def search_chains(k: int) -> ChainCollection:
    """The first deficit-k collection, in search order, whose chain pairs pass every check.

    The walk takes the first partition not yet fixed and gives it each free
    partner, itself first and then the others in search order.  For each
    partner it tries the partition's tilings and then the partner's, in order
    on the segments still free.  A tiling whose chain fails a row it decides
    alone (check_chain) is dropped at once, since every pair holding it would
    fail; the pair rows run as soon as both chains are fixed, and a failing
    pair skips every assignment that holds it.  More than SEARCH_NODE_MAX
    placed tilings raise RuntimeError.
    """
    search = _Search(k)
    everything = frozenset(range(len(search.segments)))
    for chains, pairing in search.assignments(search.mus, everything):
        return ChainCollection(chains, pairing, k)
    raise RuntimeError(f"no consistent chain assignment at deficit {k}")


def search_base_collection() -> ChainCollection:
    """The union of the searches at deficits 0 through BASE_K_MAX, each from nothing."""
    found = [search_chains(k) for k in range(BASE_K_MAX + 1)]
    chains = {mu: c for f in found for mu, c in f.chains.items()}
    return ChainCollection(chains, {mu: f.pairing[mu] for f in found for mu in f.chains}, BASE_K_MAX)


# ------------------------------------------------------------- serialization

_FORMAT = 1
_RECORD_TYPES = {"mu": str, "partner": str, "start": int, "generators": list}
_CERTIFICATE_JSON = json.JSONEncoder(sort_keys=True)  # json.dumps(..., sort_keys=True), built once


def _certificate(rec: dict) -> str:
    blob = _CERTIFICATE_JSON.encode({key: rec[key] for key in _RECORD_TYPES})
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
    """Write the payload as indented JSON, streamed to the file, and a final newline."""
    with open(path, "w") as f:
        json.dump(collection_payload(coll), f, indent=1)
        f.write("\n")


def load_collection(path: str | Path) -> ChainCollection:
    """Read a stored collection; a malformed or inconsistent file raises ValueError."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError("a collection file holds one JSON object")
    if payload.get("format") != _FORMAT:
        raise ValueError(f"unsupported collection format {payload.get('format')!r}")
    if not isinstance(payload.get("chains"), list) or type(payload.get("k_max")) is not int:
        raise ValueError("a collection needs a list of chains and an integer k_max")
    if payload["k_max"] < 0:
        raise ValueError(f"k_max {payload['k_max']} is negative")
    chains: dict[Partition, Chain] = {}
    pairing: dict[Partition, Partition] = {}
    words: dict[str, Partition] = {}  # each partition word parsed once; partners repeat the mus

    def partition(word: str) -> Partition:
        if word not in words:
            words[word] = parse_partition(word)
        return words[word]

    for rec in payload["chains"]:
        if not (
            isinstance(rec, dict)
            and all(type(rec.get(key)) is kind for key, kind in _RECORD_TYPES.items())
            and all(type(g) is str for g in rec["generators"])
        ):
            raise ValueError(f"malformed record {json.dumps(rec)[:60]}")
        if rec.get("certificate") != _certificate(rec):
            raise ValueError(f"corrupt record for {rec['mu']}")
        mu = partition(rec["mu"])
        if mu in chains:
            raise ValueError(f"repeated record for {rec['mu']}")
        if sum(mu) > payload["k_max"]:
            raise ValueError(f"{rec['mu']} has deficit {sum(mu)}, above k_max {payload['k_max']}")
        if rec["start"] < 0:
            raise ValueError(f"{rec['mu']} has start {rec['start']}, below the least dinv 0")
        star = partition(rec["partner"])
        if sum(star) != sum(mu):
            raise ValueError(f"pairing changes size: {rec['mu']} is paired with {rec['partner']}")
        chains[mu] = Chain(mu, rec["start"], parse_vectors(rec["generators"]))
        pairing[mu] = star
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
    """Run every structural check; rows are (context, result).

    The pair rows come in coll.pairs() order and the disjoint rows, one per
    deficit, after them.  The checks run one deficit at a time on fresh
    walks of that deficit's chains, dropped before the next deficit, so
    memory holds one deficit's walks and coll's own chains are never
    walked.  A partner of another size (which load_collection rejects)
    gets a fresh walk of its own.
    """
    rows: list[tuple[str, CheckResult]] = []
    disjoint: list[tuple[str, CheckResult]] = []
    by_k: dict[int, list[Partition]] = {k: [] for k in range(min(coll.k_max, BASE_K_MAX) + 1)}
    for mu in coll.members():
        by_k.setdefault(sum(mu), []).append(mu)

    def fresh(mu: Partition) -> Chain:
        c = coll.chains[mu]
        return Chain(c.mu, c.start_dinv, c.generators)

    for k, mus in sorted(by_k.items()):
        group = {mu: fresh(mu) for mu in mus}
        checked: set[Partition] = set()
        clean = True
        for mu in mus:
            star = coll.pairing[mu]
            if star < mu:
                continue
            chain = group[mu]
            partner = group[star] if star in group else fresh(star)
            pair = check_pair(chain, partner, k)
            rows += pair
            checked |= {mu, star}
            clean = clean and all(r.ok for _, r in pair)
            if opposite_n:
                name = format_partition(mu)
                try:
                    rows += [(name, r) for r in opposite_bruteforce(chain, partner, opposite_n)]
                except RuntimeError as e:
                    rows.append((name, CheckResult("opposite", False, str(e))))
        fault = _disjoint_fault(group, k, clean and checked == group.keys())
        disjoint.append((f"deficit {k}", CheckResult("disjoint", not fault, fault)))
    return rows + disjoint


def _disjoint_fault(chains: dict[Partition, Chain], k: int, clean: bool) -> str:
    """The first class two deficit-k chains share up to dinv d_hi, or the first walk
    error; then, at a base deficit, the first dinv where the chains miss a class; "" if none.

    The deficit-k classes at dinv d number count_partitions_max(k, d), so
    for k <= BASE_K_MAX the chains must be a disjoint union of all of them.
    Classes are keyed and counted by their partitions.

    clean says that every chain passed check_pair with a partner among
    chains.  Then d_hi is the larger of k and the largest base dinv of the
    chains, and the witness is the one a walk to coverage_bound(k) + 10
    finds: past its base dinv a passing chain is the nu1-orbit of its base
    class and nd1_partition inverts nu1_partition, so two chains that
    share a class above d_hi share one at d_hi, and each walk meets its
    classes in dinv order.  Above d_hi each chain holds one class per dinv
    and count_partitions_max(k, d) is p(k) for d >= k, so each count above
    d_hi is the count at d_hi.  Other groups walk to coverage_bound(k) + 10.
    """
    if clean:
        d_hi = max([k, *(ti_dinv(chain.mu) for chain in chains.values())])
    else:
        d_hi = coverage_bound(k) + 10
    owner: dict[Partition, Partition] = {}
    for mu, chain in chains.items():
        try:
            parts = chain.partitions_upto(d_hi)
        except RuntimeError as e:
            return str(e)
        for p in parts:
            if owner.setdefault(p, mu) != mu:
                c = format_vector(class_from_partition(p))
                return f"{c} in {format_partition(owner[p])} and {format_partition(mu)}"
    if k <= BASE_K_MAX:
        held = Counter(map(partition_dinv, owner))
        for d in range(d_hi + 1):
            if held[d] != count_partitions_max(k, d):
                return f"chains hold {held[d]} of the {count_partitions_max(k, d)} classes at dinv {d}"
    return ""


# ---------------------------------------------------------------- extension

class Side(NamedTuple):
    """One side of a template-based pair: mu, its flag type lam, the stages
    of its extended orbit, and sources[j], the deficit label of the orbit
    holding the trimmed stage vector stages.s_vectors[j + 1], located once."""

    mu: Partition
    lam: Partition
    stages: TailTwoSummary
    sources: tuple[Partition, ...]


def build_context(coll: ChainCollection, mu: Partition) -> tuple[Side, Side]:
    """The two sides of mu's template-based pair: mu's, then its partner's.

    A self-paired mu has one side, derived once and returned twice."""
    mu = tuple(mu)
    match = phi(mu)
    if match is None:
        raise ValueError(f"{format_partition(mu)} has no template base")
    lam = match[0]
    lam_star = coll.pairing.get(lam)
    if lam_star is None:
        raise ValueError(f"no chain pair for the flag type {format_partition(lam)}")
    v = ti2(mu)
    mu_star = psi_inv(lam_star, len(v), area(v) % 2)
    v_star = ti2(mu_star)
    if len(v_star) != len(v) or sum(mu_star) != sum(mu):
        raise RuntimeError(f"partner data of {format_partition(mu)} is inconsistent")
    ours = _side(mu, lam, v, mu)
    return (ours, ours) if mu_star == mu else (ours, _side(mu_star, lam_star, v_star, mu))


def _side(mu: Partition, lam: Partition, v: Vector, pair: Partition) -> Side:
    """The side of mu, with flag type lam and v = ti2(mu), in the pair resolved for pair."""
    if dinv(v) + area(v) != comb(len(v), 2) - sum(mu):
        raise RuntimeError(f"stat identity fails for {format_partition(pair)}")
    stages = s_vectors(v)
    return Side(mu, lam, stages, tuple(map(_stage_source, stages.s_vectors[1:])))


def _stage_source(s_vec: Vector) -> Partition:
    """Deficit label of the orbit holding the trimmed stage vector."""
    if s_vec[0] != 0 or s_vec[-1] != 1:
        raise ValueError(f"stage vector {format_vector(s_vec)} is not 0...1")
    loc = locate_in_tail(s_vec[1:-1])
    if loc is None:
        raise RuntimeError(f"trimmed stage {format_vector(s_vec)} is in no orbit")
    return loc.mu


def needed_partitions(ctx: tuple[Side, Side]) -> set[Partition]:
    """Smaller deficit labels whose chains the assembly consults."""
    return {p for side in ctx for p in (side.lam, *side.sources)}


def _lifted_element(chain: Chain, d: int, length: int) -> Vector:
    """The chain element at dinv d, re-expressed at length - 2 and lifted by 0,0."""
    z = qdv_from_partition(chain.partition(d), length - 2)
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


def _assemble(coll: ChainCollection, side: Side, other: Side) -> Chain:
    """The chain of side.mu: the antipodes of other's stages, then bridges, then its own stages."""
    gens = [
        _lifted_element(coll.chains[coll.pairing[rho]], sum(s_vec) - 1, len(s_vec))
        for rho, s_vec in zip(other.sources[::-1], other.stages.s_vectors[:0:-1])
    ]
    for i in range(area(other.stages.v), dinv(side.stages.v) - 1, 2):
        gens.append(bridge_vector(coll, side.lam, i, len(side.stages.v)))
    gens.extend(side.stages.s_vectors)
    return Chain(side.mu, len(other.mu), gens)


def build_flagpole_pair(coll: ChainCollection, ctx: tuple[Side, Side]) -> dict[Partition, Chain]:
    """Assemble the chain pair that build_context resolved, keyed by partition.

    A self-paired side is assembled once."""
    ours, theirs = ctx
    sides = [ctx] if ours.mu == theirs.mu else [ctx, (theirs, ours)]
    return {side.mu: _assemble(coll, side, other) for side, other in sides}


def extend_all(coll: ChainCollection, k: int, mode: str = "flagpole") -> ChainCollection:
    """The chains of deficit at most k, grown deficit by deficit through template-based pairs.

    At or below coll.k_max this keeps only the chains of deficit at most k;
    the pairing preserves size, so the kept pairing is an involution.

    Mode "flagpole" uses the closed eligibility test; "generalized" the
    length test against the current pairing.  Every assembled pair is
    checked before it is kept, as chains that hold only their generators;
    a failing pair raises.

    The construction starts at deficit BASE_K_MAX + 1 and needs the whole
    base collection below it, so extending a collection whose k_max is
    under BASE_K_MAX raises ValueError.
    """
    if mode not in ("flagpole", "generalized"):
        raise ValueError(f"unknown mode {mode!r}")
    if k > coll.k_max and coll.k_max < BASE_K_MAX:
        raise ValueError(
            f"extend_all needs a collection through deficit {BASE_K_MAX}, "
            f"this one stops at {coll.k_max}"
        )
    chains = {mu: c for mu, c in coll.chains.items() if sum(mu) <= k}
    pairing = {mu: coll.pairing[mu] for mu in chains}
    for d in range(coll.k_max + 1, k + 1):
        cur = ChainCollection(chains, pairing, d - 1)
        for mu in list(partitions_of(d))[::-1]:
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
            ours, theirs = ctx = build_context(cur, mu)
            if not needed_partitions(ctx) <= chains.keys():
                continue
            built = build_flagpole_pair(cur, ctx)
            bad = [r for _, r in check_pair(built[ours.mu], built[theirs.mu], d) if not r.ok]
            if bad:
                raise RuntimeError(
                    f"assembled pair for {format_partition(mu)} fails "
                    f"{bad[0].clause}: {bad[0].witness}"
                )
            # keep generators only: later deficits walk just the prefixes they read
            chains.update({m: Chain(m, c.start_dinv, c.generators) for m, c in built.items()})
            pairing[ours.mu] = theirs.mu
            pairing[theirs.mu] = ours.mu
    return ChainCollection(chains, pairing, k)
