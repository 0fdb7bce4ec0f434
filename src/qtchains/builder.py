"""Assembly of the deficit-indexed chain collection.

Chains of deficit at most 5 come from a frozen segment search; larger
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
from .steps import is_nu1_initial, nu1
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


# ------------------------------------------------------------------ seeding

# chains printed with the source material; the rest of deficit <= 5 is
# pinned by the frozen search
_PRINTED = {
    "2": ("p:111", "p:221"),
    "3": ("p:1111", "p:222", "p:3321"),
    "21": ("p:3111", "p:3311"),
    "111": ("p:2111", "p:3211"),
    "31": ("p:2211", "p:44311"),
    "22": ("p:21^4", "p:3221"),
    "11111": ("v:0012332", "v:0012222", "v:0012211", "v:0011111"),
}

_PINNED_PAIRS = [
    ("0", "0"),
    ("1", "1"),
    ("2", "2"),
    ("3", "3"),
    ("21", "111"),
    ("4", "4"),
    ("31", "22"),
    ("5", "5"),
    ("11111", "11111"),
]


def _gen_vector(token: str) -> Vector:
    kind, _, body = token.partition(":")
    if kind == "p":
        return class_from_partition(parse_partition(body))
    if kind == "v":
        return reduce(parse_vector(body))
    raise ValueError(f"bad generator token {token!r}")


# ------------------------------------------------------------------- search

def search_chains(
    k: int,
    seeds: dict[Partition, tuple[Vector, ...]] | None = None,
    pins: dict[Partition, Partition] | None = None,
) -> tuple[dict[Partition, Chain], dict[Partition, Partition]]:
    """Find the deficit-k chains by tiling maximal first-order segments.

    Seeded chains are taken as given.  The pairing is completed over the
    unpinned partitions, self images first, then partners in increasing
    order; segment candidates are tried in (start, vector) order and the
    first assignment whose chains pass every structural check wins.
    """
    seeds = dict(seeds or {})
    pins = dict(pins or {})
    mus = list(partitions_of(k))[::-1]
    base = {mu: ti(mu) for mu in mus}
    target = {mu: ti_dinv(mu) for mu in mus}
    horizon = max(target.values())

    bases = set(base.values())
    universe = enumerate_deficit(k, horizon)
    segments: list[tuple[int, tuple[Vector, ...]]] = []
    for c in universe:
        if c in bases or not is_nu1_initial(c):
            continue
        seg = [c]
        while True:
            nxt = nu1(seg[-1])
            if nxt is None:
                break
            seg.append(nxt)
            if len(seg) > 2 * horizon + 4:
                raise RuntimeError(f"segment from {c} does not stop")
        segments.append((dinv(c), tuple(seg)))
    segments.sort(key=lambda s: (s[0], s[1]))

    seen = [e for _, seg in segments for e in seg]
    for mu in mus:
        seen.extend(tail_elements(mu, horizon - target[mu] + 1))
    if sorted(seen) != sorted(universe):
        raise RuntimeError(f"segments do not tile the deficit-{k} classes")

    by_initial = {seg[0]: i for i, (_, seg) in enumerate(segments)}
    by_end: dict[int, list[int]] = {}
    for i, (s, seg) in enumerate(segments):
        by_end.setdefault(s + len(seg) - 1, []).append(i)

    fixed_used: set[int] = set()
    seeded: dict[Partition, list[int]] = {}
    for mu, gens in seeds.items():
        if gens[-1] != base[mu]:
            raise ValueError(f"seed for {format_partition(mu)} does not end at its base")
        idxs = []
        for g in gens[:-1]:
            i = by_initial.get(g)
            if i is None or i in fixed_used:
                raise ValueError(f"seed segment {format_vector(g)} unavailable")
            fixed_used.add(i)
            idxs.append(i)
        seeded[mu] = idxs

    fixed_pairs: dict[Partition, Partition] = {}
    for p, q in pins.items():
        fixed_pairs[p] = q
        fixed_pairs[q] = p
    free = [mu for mu in mus if mu not in fixed_pairs]

    def matchings(pool: list[Partition]) -> Iterator[dict[Partition, Partition]]:
        if not pool:
            yield {}
            return
        head, rest = pool[0], pool[1:]
        for m in matchings(rest):
            yield {head: head, **m}
        for j, other in enumerate(rest):
            for m in matchings(rest[:j] + rest[j + 1:]):
                yield {head: other, other: head, **m}

    for extra in matchings(free):
        pairing = {**fixed_pairs, **extra}
        starts = {mu: len(pairing[mu]) for mu in mus}

        ok_seed = True
        for mu, idxs in seeded.items():
            expect = starts[mu]
            for i in idxs:
                s, seg = segments[i]
                if s != expect:
                    ok_seed = False
                    break
                expect = s + len(seg)
            if not ok_seed or expect != target[mu]:
                ok_seed = False
                break
        if not ok_seed:
            continue

        order = [mu for mu in mus if mu not in seeded]
        used = set(fixed_used)
        picks: dict[Partition, list[int]] = {}

        def fill(idx: int) -> Iterator[dict[Partition, list[int]]]:
            if idx == len(order):
                if len(used) == len(segments):
                    yield {mu: list(p) for mu, p in picks.items()}
                return
            mu = order[idx]
            lo = starts[mu]
            chosen: list[int] = []

            def back(cur: int) -> Iterator[dict[Partition, list[int]]]:
                if cur == lo:
                    picks[mu] = list(reversed(chosen))
                    yield from fill(idx + 1)
                    return
                if cur < lo:
                    return
                for i in by_end.get(cur - 1, []):
                    if i in used:
                        continue
                    used.add(i)
                    chosen.append(i)
                    yield from back(segments[i][0])
                    chosen.pop()
                    used.remove(i)

            yield from back(target[mu])

        for assignment in fill(0):
            chains = {}
            for mu in mus:
                idxs = seeded.get(mu, assignment.get(mu, []))
                gens = [segments[i][1][0] for i in idxs] + [base[mu]]
                chains[mu] = Chain(mu, starts[mu], gens)
            if _chains_pass(chains, pairing, k):
                return chains, pairing
    raise RuntimeError(f"no consistent chain assignment at deficit {k}")


def _chains_pass(chains: dict[Partition, Chain], pairing: dict[Partition, Partition], k: int) -> bool:
    for mu, chain in chains.items():
        if mu > pairing[mu]:
            continue
        if not all(r.ok for _, r in check_pair(chain, chains[pairing[mu]], k)):
            return False
    return True


def search_base_collection() -> ChainCollection:
    """Search deficits 0 through 5 from the printed seeds and pins."""
    chains: dict[Partition, Chain] = {}
    pairing: dict[Partition, Partition] = {}
    printed = {
        parse_partition(w): tuple(_gen_vector(t) for t in toks)
        for w, toks in _PRINTED.items()
    }
    pinned = [(parse_partition(p), parse_partition(q)) for p, q in _PINNED_PAIRS]
    for k in range(6):
        seeds = {mu: g for mu, g in printed.items() if sum(mu) == k}
        pins = {p: q for p, q in pinned if sum(p) == k}
        got, pair_k = search_chains(k, seeds, pins)
        chains.update(got)
        pairing.update(pair_k)
    return ChainCollection(chains, pairing, 5)


# ------------------------------------------------------------- serialization

_FORMAT = 1


def _certificate(rec: dict) -> str:
    blob = json.dumps(
        {key: rec[key] for key in ("mu", "partner", "start", "generators")},
        sort_keys=True,
    )
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


def load_collection(path: str | Path, revalidate: bool = False) -> ChainCollection:
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != _FORMAT:
        raise ValueError(f"unsupported collection format {payload.get('format')!r}")
    chains: dict[Partition, Chain] = {}
    pairing: dict[Partition, Partition] = {}
    for rec in payload["chains"]:
        if rec.get("certificate") != _certificate(rec):
            raise ValueError(f"corrupt record for {rec.get('mu')}")
        mu = parse_partition(rec["mu"])
        chains[mu] = Chain(mu, rec["start"], [parse_vector(g) for g in rec["generators"]])
        pairing[mu] = parse_partition(rec["partner"])
    for mu, star in pairing.items():
        if star not in chains or pairing[star] != mu:
            raise ValueError(f"pairing is not an involution at {format_partition(mu)}")
    coll = ChainCollection(chains, pairing, payload["k_max"])
    if revalidate:
        problems = [(c, r) for c, r in validate_collection(coll) if not r.ok]
        if problems:
            ctx, r = problems[0]
            raise RuntimeError(f"stored collection fails {ctx} {r.clause}: {r.witness}")
    return coll


def _data_path() -> Path:
    return Path(str(resources.files("qtchains").joinpath("data").joinpath("base_collection.json")))


def seed_base_collection(force_search: bool = False, revalidate: bool = False) -> ChainCollection:
    """The deficit <= 5 collection, from the frozen file or a fresh search."""
    path = _data_path()
    if not force_search and path.is_file():
        return load_collection(path, revalidate=revalidate)
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
    by_k: dict[int, list[Partition]] = {}
    for mu in coll.members():
        by_k.setdefault(sum(mu), []).append(mu)
    for k, group in sorted(by_k.items()):
        d_hi = coverage_bound(k) + 10
        owner: dict[Vector, Partition] = {}
        clash = ""
        for mu in group:
            try:
                els = coll.chains[mu].elements_upto(d_hi)
            except RuntimeError as e:
                clash = str(e)
                break
            for c in els:
                if c in owner and owner[c] != mu:
                    clash = (
                        f"{format_vector(c)} in {format_partition(owner[c])}"
                        f" and {format_partition(mu)}"
                    )
                    break
                owner[c] = mu
            if clash:
                break
        rows.append((f"deficit {k}", CheckResult("disjoint", not clash, clash)))
    return rows


def coverage_check(coll: ChainCollection, k: int, d_hi: int | None = None) -> CheckResult:
    """The deficit-k chains tile every class with dinv up to d_hi."""
    if d_hi is None:
        d_hi = coverage_bound(k) + 10
    have: list[Vector] = []
    for mu in coll.members():
        if sum(mu) == k:
            try:
                have.extend(coll.chains[mu].elements_upto(d_hi))
            except RuntimeError as e:
                return CheckResult(f"coverage-k{k}", False, str(e))
    want = enumerate_deficit(k, d_hi)
    ok = sorted(have) == sorted(want)
    witness = ""
    if not ok:
        missing = sorted(set(want) - set(have))
        surplus = sorted(set(have) - set(want))
        if missing:
            witness = f"missing {format_vector(missing[0])}"
        elif surplus:
            witness = f"unexpected {format_vector(surplus[0])}"
        else:
            witness = "duplicate classes"
    return CheckResult(f"coverage-k{k}", ok, witness)


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


def _double_lift(z: Vector) -> Vector:
    if min(z) < 0:
        raise RuntimeError("class does not fit at the requested length")
    return (0, 0) + tuple(x + 1 for x in z)


def bridge_vector(coll: ChainCollection, lam: Partition, i: int, length: int) -> Vector:
    """Deficit-|lam| chain element at dinv i-1, re-expressed at the given length."""
    gamma = coll.chains[tuple(lam)].element(i - 1)
    z = qdv_from_partition(partition_from_class(gamma), length - 2)
    return _double_lift(z)


def antipode(coll: ChainCollection, s_vec: Vector) -> Vector:
    """Area-dinv mirror of a stage vector, through the partner of its orbit label."""
    rho = _stage_source(s_vec)
    gamma = coll.chains[coll.pairing[rho]].element(sum(s_vec) - 1)
    z = qdv_from_partition(partition_from_class(gamma), len(s_vec) - 2)
    return _double_lift(z)


def _assemble(
    coll: ChainCollection,
    mu: Partition,
    mu_star: Partition,
    lam: Partition,
    stages: TailTwoSummary,
    stages_star: TailTwoSummary,
) -> Chain:
    length = len(stages.v)
    d_high = dinv(stages.v)
    a_partner = area(stages_star.v)
    gens: list[Vector] = []
    for j in range(len(stages_star.s_vectors) - 1, 0, -1):
        gens.append(antipode(coll, stages_star.s_vectors[j]))
    for i in range(a_partner, d_high - 1, 2):
        gens.append(bridge_vector(coll, lam, i, length))
    gens.extend(stages.s_vectors)
    return Chain(mu, len(mu_star), gens)


def build_flagpole_pair(coll: ChainCollection, ctx: BuildContext) -> dict[Partition, Chain]:
    """Assemble the chain pair that ctx resolved, keyed by partition."""
    built = {ctx.mu: _assemble(coll, ctx.mu, ctx.mu_star, ctx.lam, ctx.stages, ctx.stages_star)}
    if ctx.mu_star != ctx.mu:
        built[ctx.mu_star] = _assemble(
            coll, ctx.mu_star, ctx.mu, ctx.lam_star, ctx.stages_star, ctx.stages
        )
    return built


def extend_all(coll: ChainCollection, k_max: int, mode: str = "flagpole") -> ChainCollection:
    """Grow the collection deficit by deficit through template-based pairs.

    Mode "flagpole" uses the closed eligibility test; "generalized" the
    length test against the current pairing.  Every assembled pair is
    checked before it is kept; a failing pair raises.
    """
    if mode not in ("flagpole", "generalized"):
        raise ValueError(f"unknown mode {mode!r}")
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
            partner_chain = built.get(ctx.mu_star, built[ctx.mu])
            bad = [r for _, r in check_pair(built[ctx.mu], partner_chain, k) if not r.ok]
            if bad:
                raise RuntimeError(
                    f"assembled pair for {format_partition(mu)} fails "
                    f"{bad[0].clause}: {bad[0].witness}"
                )
            chains.update(built)
            pairing[ctx.mu] = ctx.mu_star
            pairing[ctx.mu_star] = ctx.mu
    return ChainCollection(chains, pairing, k_max)
