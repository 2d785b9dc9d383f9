"""Datasets: typed tabular schema, CSV IO, and the five paper datasets.

The paper evaluates on one synthetic dataset (fully specified in §III-A)
and four real datasets that are not redistributable/reachable offline.
Each real dataset is replaced by a seeded generator that preserves its
shape (rows, attribute counts, attribute kinds) and plants the structure
each experiment measures (each module's docstring says what and how):

=========  ======================================  ====  ===========  =======
name       stands in for                           rows  description  targets
=========  ======================================  ====  ===========  =======
synthetic  none: the paper's own (§III-A)           620            5        2
crime      UCI Communities and Crime (§I)          1994          122        1
mammals    European mammals, WorldClim (§III-B)    2220           67      124
socio      German socio-economics (§III-C)          412           13        5
water      Slovenian river water quality (§III-D)  1060           14       16
=========  ======================================  ====  ===========  =======
"""

from repro.datasets.schema import AttributeKind, Column, Dataset
from repro.datasets.synthetic import make_synthetic
from repro.datasets.crime import make_crime
from repro.datasets.mammals import make_mammals
from repro.datasets.socio import make_socio
from repro.datasets.water import make_water
from repro.datasets.registry import available_datasets, load_dataset
from repro.datasets.io import read_csv, write_csv
from repro.datasets.frame import from_dataframe, to_dataframe

__all__ = [
    "AttributeKind",
    "Column",
    "Dataset",
    "from_dataframe",
    "to_dataframe",
    "make_synthetic",
    "make_crime",
    "make_mammals",
    "make_socio",
    "make_water",
    "available_datasets",
    "load_dataset",
    "read_csv",
    "write_csv",
]
