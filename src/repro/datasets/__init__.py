"""Database generators: synthetic analogues of the paper's test data.

The paper's experiments use the SISAP library sample databases, which are
not redistributable offline.  Every generator here is a seeded synthetic
analogue preserving the metric and the qualitative distance distribution
(see DESIGN.md §3 for the substitution rationale).
"""

from repro.datasets.dictionaries import (
    LANGUAGES,
    LanguageModel,
    synthetic_dictionary,
)
from repro.datasets.documents import topic_document_vectors
from repro.datasets.io import (
    load_permutations,
    load_strings,
    load_vectors,
    save_permutations,
    save_strings,
    save_vectors,
)
from repro.datasets.sequences import (
    genome_prefix_sequences,
    mutation_cascade_sequences,
)
from repro.datasets.sisap import DATABASE_NAMES, Database, load_database
from repro.datasets.vectors import (
    gaussian_vectors,
    latent_manifold_vectors,
    uniform_vectors,
)

__all__ = [
    "DATABASE_NAMES",
    "Database",
    "LANGUAGES",
    "LanguageModel",
    "gaussian_vectors",
    "genome_prefix_sequences",
    "latent_manifold_vectors",
    "load_database",
    "load_permutations",
    "load_strings",
    "load_vectors",
    "mutation_cascade_sequences",
    "save_permutations",
    "save_strings",
    "save_vectors",
    "synthetic_dictionary",
    "topic_document_vectors",
    "uniform_vectors",
]
