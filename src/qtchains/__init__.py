"""Chain decompositions of deficit classes for q,t-Catalan combinatorics."""

from .builder import (
    ChainCollection,
    antipode,
    build_flagpole_pair,
    extend_all,
    load_collection,
    save_collection,
    search_chains,
    seed_base_collection,
    validate_collection,
)
from .dyck import (
    area,
    class_from_partition,
    defc,
    dinv,
    mind,
    parse_vector,
    partition_from_class,
    qdv_from_partition,
    reduce,
)
from .flagpole import count_flagpole, is_flagpole, phi, phi_inv, psi, psi_inv
from .partitions import format_partition, parse_partition, partitions_of
from .poly import QtPolynomial, cat_n, deficit_slice
from .steps import nd, nd1, nd2, nu, nu1, nu2
from .tails import locate_in_tail, s_vectors, tail_elements, ti, ti2
from .verify import Chain, amh_vectors, cat_n_mu, opposite_bruteforce, share_text

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "ChainCollection",
    "QtPolynomial",
    "amh_vectors",
    "antipode",
    "area",
    "build_flagpole_pair",
    "cat_n",
    "cat_n_mu",
    "class_from_partition",
    "count_flagpole",
    "defc",
    "deficit_slice",
    "dinv",
    "extend_all",
    "format_partition",
    "is_flagpole",
    "load_collection",
    "locate_in_tail",
    "mind",
    "nd",
    "nd1",
    "nd2",
    "nu",
    "nu1",
    "nu2",
    "opposite_bruteforce",
    "parse_partition",
    "parse_vector",
    "partition_from_class",
    "partitions_of",
    "phi",
    "phi_inv",
    "psi",
    "psi_inv",
    "qdv_from_partition",
    "reduce",
    "s_vectors",
    "save_collection",
    "search_chains",
    "seed_base_collection",
    "share_text",
    "tail_elements",
    "ti",
    "ti2",
    "validate_collection",
]
