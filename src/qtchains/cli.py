"""Command line access to the chain machinery."""

from __future__ import annotations

import argparse
import sys
from functools import partial
from itertools import islice

from . import builder
from .dyck import (
    area,
    class_from_partition,
    defc,
    dinv,
    format_vector,
    mind,
    parse_vector,
    partition_dinv,
    partition_from_class,
)
from .flagpole import count_flagpole, count_flagpole_bruteforce, gflag_lower_bound, is_flagpole, phi
from .partitions import Partition, count_partitions, format_partition, parse_partition
from .poly import cat_n
from .tails import absorption_counts, plateau, s_vectors, staircase_runs, tail_classes, ti, ti2, ti_mind
from .verify import report_lines, share_pieces


# Stated budgets, each about 3 s in a cold process on a 2-vCPU host.
CATALAN_MAX = 24  # `catalan N` for the full polynomial
TAIL_COUNT_MAX = 40_000  # `tail --count`
TAIL_MU_MAX = 5_000  # |MU| for `tail MU`; a length plateau holds about |MU|^2 entries
TAIL_PLATEAU_MAX = 3_000  # `tail --plateau`; memory grows as its square
TAIL_ENTRIES_MAX = 7_000_000  # vector entries one `tail` run prints
BUILD_MAX = 24  # `build K`, and |MU| for `catalan N --mu MU`, which builds to |MU|
CATALAN_MU_N_MAX = 900  # N for `catalan N --mu MU`; the share has about N^2/2 terms
OPPOSITE_MAX = 150  # `verify --opposite N`, on a deficit-16 collection
STATS_LEN_MAX = 100_000  # reduced length of a `stats` word; output grows with it
TI2_MAX = 2_500  # |MU| for `ti2 MU`; slowest for a hook with a long leg


def _partition_arg(word: str) -> Partition:
    """Argument type for a partition word; a bad word is a usage error naming it."""
    try:
        return parse_partition(word)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {word!r}: {exc}") from None


def _count_arg(word: str, limit: int | None = None) -> int:
    """Argument type for a count or index: not negative, and at most limit."""
    try:
        n = int(word)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {word!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0: {word!r}")
    if limit is not None and n > limit:
        raise argparse.ArgumentTypeError(f"{n} is above the limit {limit}")
    return n


def _cmd_stats(args: argparse.Namespace) -> int:
    for word in args.vector:
        try:
            v = parse_vector(word)
            p = partition_from_class(v)
        except ValueError:
            try:
                p = parse_partition(word)
            except ValueError as exc:
                print(f"cannot parse {word}: {exc}", file=sys.stderr)
                return 1
            v = None
        if (n := mind(p)) > STATS_LEN_MAX:
            print(f"{word}: reduced length {n} is above the limit {STATS_LEN_MAX}", file=sys.stderr)
            return 1
        r = class_from_partition(p)
        v = r if v is None else v
        print(
            f"{word}: reduced {format_vector(r)} partition {format_partition(p)}"
            f" len {len(r)} area {area(v)} dinv {dinv(v)} defc {defc(v)}"
        )
    return 0


def _tail_entries(mu: Partition, count: int, j: int | None) -> int:
    """The vector entries `tail` prints, from the plateau lengths and sizes."""
    runs = staircase_runs(ti_mind(mu))
    if j is not None:
        ln, n = next(islice(runs, j, None))
        return n * ln
    entries = 0
    for ln, n in runs:
        if count <= 0:
            return entries
        n = min(n, count)
        entries += n * ln
        count -= n


def _cmd_tail(args: argparse.Namespace) -> int:
    if args.plateau is not None:
        rows = plateau(args.mu, args.plateau)
    else:
        rows = tail_classes(args.mu, args.count)
    for v in rows:
        # dinv uncached: the cache of dyck.dinv would keep every class printed
        print(f"{format_vector(v)} dinv {partition_dinv(partition_from_class(v))}")
    return 0


def _cmd_ti2(args: argparse.Namespace) -> int:
    t = ti(args.mu)
    t2 = ti2(args.mu)
    print(f"base {format_vector(t)} dinv {dinv(t)} len {len(t)}")
    print(f"extended {format_vector(t2)} dinv {dinv(t2)} len {len(t2)}")
    if t2 != t:
        try:
            summ = s_vectors(t2)
        except ValueError:
            return 0
        for j, (s, d) in enumerate(zip(summ.s_vectors, summ.dinvs)):
            print(f"stage {j}: {format_vector(s)} dinv {d}")
    return 0


def _cmd_flagpole(args: argparse.Namespace) -> int:
    stop = args.stop if args.stop is not None else args.start
    header = ["n", "count"]
    if args.brute:
        header.append("check")
    header += ["bound", "p(n)"]
    print(" ".join(header))
    for n in range(args.start, stop + 1):
        row = [str(n), str(count_flagpole(n))]
        if args.brute:
            row.append(str(count_flagpole_bruteforce(n)))
        row += [str(gflag_lower_bound(n)), str(count_partitions(n))]
        print(" ".join(row))
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    base = builder.seed_base_collection(force_search=args.force_search)
    coll = builder.extend_all(base, args.k, mode=args.mode)
    builder.save_collection(coll, args.out)
    print(f"built {len(coll.chains)} chains to deficit {coll.k_max} -> {args.out}")
    return 0


def _load(path: str):
    try:
        return builder.load_collection(path)
    except (OSError, ValueError) as exc:
        print(f"cannot load {path}: {exc}", file=sys.stderr)
        return None


def _cmd_verify(args: argparse.Namespace) -> int:
    coll = _load(args.path)
    if coll is None:
        return 1
    rows = builder.validate_collection(coll, opposite_n=args.opposite)
    fails = 0
    for ctx, r in rows:
        fails += not r.ok
        if args.verbose or not r.ok:
            print(f"{ctx}: {report_lines([r])[0]}")
    print(f"{len(rows) - fails}/{len(rows)} checks passed")
    return 1 if fails else 0


def _may_get_chain(mu: Partition) -> bool:
    """False when extend_all cannot give mu a chain, so `catalan --mu` skips the build.

    Above the base deficits only flagpole partitions get chains, and only
    when their flag type phi(mu)[0] has one, so the test recurses on the
    flag type down to the base deficits.
    """
    while sum(mu) > builder.BASE_K_MAX:
        if not is_flagpole(mu):
            return False
        mu = phi(mu)[0]
    return True


def _cmd_catalan(args: argparse.Namespace) -> int:
    if args.mu is None:
        print(cat_n(args.n))
        return 0
    mu = args.mu
    chain = None
    if _may_get_chain(mu):
        chain = builder.extend_all(builder.seed_base_collection(), sum(mu)).chains.get(mu)
    if chain is None:
        print(f"no chain stored for {format_partition(mu)}", file=sys.stderr)
        return 1
    sys.stdout.writelines(share_pieces(args.n, chain))
    print()
    return 0


def _cmd_absorb(args: argparse.Namespace) -> int:
    stop = args.stop if args.stop is not None else args.start
    print("k leftover2 leftover1 ratio")
    for k in range(args.start, stop + 1):
        second, first = absorption_counts(k)
        ratio = f"{second / first:.4f}" if first else "-"
        print(f"{k} {second} {first} {ratio}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    coll = _load(args.path)
    if coll is None:
        return 1
    for mu in coll.members():
        chain = coll.chains[mu]
        gens = " ".join(format_vector(g) for g in chain.generators)
        print(
            f"{format_partition(mu)} partner {format_partition(coll.pairing[mu])}"
            f" start {chain.start_dinv} generators {gens}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qtchains",
        description="Chain decompositions of deficit classes of Dyck vectors.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="statistics of one or more vectors")
    p.add_argument(
        "vector",
        nargs="+",
        help=f"a vector or partition word, of reduced length at most {STATS_LEN_MAX}",
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("tail", help="elements of the orbit indexed by a partition")
    p.add_argument(
        "mu",
        type=_partition_arg,
        help=f"a partition, |MU| at most {TAIL_MU_MAX}; "
        f"a run prints at most {TAIL_ENTRIES_MAX} vector entries",
    )
    p.add_argument(
        "--count",
        type=partial(_count_arg, limit=TAIL_COUNT_MAX),
        default=10,
        help=f"number of elements, at most {TAIL_COUNT_MAX}",
    )
    p.add_argument(
        "--plateau",
        type=partial(_count_arg, limit=TAIL_PLATEAU_MAX),
        default=None,
        metavar="J",
        help=f"list length plateau J instead, J at most {TAIL_PLATEAU_MAX}",
    )
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser("ti2", help="extended orbit base and its stage vectors")
    p.add_argument("mu", type=_partition_arg, help=f"a partition, |MU| at most {TI2_MAX}")
    p.set_defaults(func=_cmd_ti2)

    p = sub.add_parser("flagpole", help="counts of pole partitions by size")
    p.add_argument("start", type=_count_arg)
    p.add_argument("stop", type=_count_arg, nargs="?", default=None)
    p.add_argument("--brute", action="store_true", help="add the direct count column")
    p.set_defaults(func=_cmd_flagpole)

    p = sub.add_parser("build", help="build the chain collection up to a deficit")
    p.add_argument("k", type=partial(_count_arg, limit=BUILD_MAX), help=f"deficit, at most {BUILD_MAX}")
    p.add_argument("--out", default="chains.json")
    p.add_argument("--mode", choices=("flagpole", "generalized"), default="flagpole")
    p.add_argument("--force-search", action="store_true", help="rerun the base search, not its frozen file")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="validate a stored collection")
    p.add_argument("path")
    p.add_argument(
        "--opposite",
        type=partial(_count_arg, limit=OPPOSITE_MAX),
        default=0,
        metavar="N",
        help=f"also compare path sums up to N, at most {OPPOSITE_MAX}",
    )
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("catalan", help="the full path sum polynomial, or one chain's share")
    p.add_argument(
        "n",
        type=_count_arg,
        help=f"path length, at most {CATALAN_MAX} without --mu and {CATALAN_MU_N_MAX} with it",
    )
    p.add_argument("--mu", type=_partition_arg, default=None, help=f"|MU| at most {BUILD_MAX}")
    p.set_defaults(func=_cmd_catalan)

    p = sub.add_parser("absorb", help="orbit absorption counts below the coverage bound")
    p.add_argument("start", type=_count_arg)
    p.add_argument("stop", type=_count_arg, nargs="?", default=None)
    p.set_defaults(func=_cmd_absorb)

    p = sub.add_parser("export", help="readable dump of a stored collection")
    p.add_argument("path")
    p.set_defaults(func=_cmd_export)
    return ap


def run(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "stop", None) is not None and args.stop < args.start:
        ap.error(f"{args.command}: STOP {args.stop} is below START {args.start}")
    if args.command == "tail" and sum(args.mu) > TAIL_MU_MAX:
        ap.error(f"tail: |MU| {sum(args.mu)} is above the limit {TAIL_MU_MAX}")
    if args.command == "tail":
        entries = _tail_entries(args.mu, args.count, args.plateau)
        if entries > TAIL_ENTRIES_MAX:
            ap.error(f"tail: {entries} vector entries to print, above the limit {TAIL_ENTRIES_MAX}")
    if args.command == "ti2" and sum(args.mu) > TI2_MAX:
        ap.error(f"ti2: |MU| {sum(args.mu)} is above the limit {TI2_MAX}")
    if args.command == "catalan" and args.mu is None and args.n > CATALAN_MAX:
        ap.error(f"catalan: N {args.n} is above the limit {CATALAN_MAX} for the full polynomial")
    if args.command == "catalan" and args.mu is not None and sum(args.mu) > BUILD_MAX:
        ap.error(f"catalan: |MU| {sum(args.mu)} is above the limit {BUILD_MAX} for --mu")
    if args.command == "catalan" and args.mu is not None and args.n > CATALAN_MU_N_MAX:
        ap.error(f"catalan: N {args.n} is above the limit {CATALAN_MU_N_MAX} for --mu")
    return args.func(args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
