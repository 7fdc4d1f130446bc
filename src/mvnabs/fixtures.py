"""Bundled example models used in tests, demos, and documentation.

``PL2`` is a two-entity model of the lysis-lysogeny switch in phage
lambda (CI Boolean, Cro ternary); ``APL2`` is its Boolean reduction.
``MTRP`` models the regulation of tryptophan biosynthesis in E. coli
(four entities, TrpExt is an external input); ``ATRP`` is its Boolean
reduction.  All are kept as DSL source, and each model and mapping is
parsed from it on first access and cached (``lru_cache``), so once per
process.
"""

from __future__ import annotations

from functools import lru_cache

from .abstraction import AbstractionMapping
from .model import Mvn
from .modelio import parse_mapping, parse_model

PL2_SOURCE = """\
mvn PL2
entity CI : 0..1
entity Cro : 0..2
neighbourhood CI = [CI, Cro]
neighbourhood Cro = [CI, Cro]
table CI:
  0 0 -> 1
  0 1 -> 0
  0 2 -> 0
  1 0 -> 1
  1 1 -> 0
  1 2 -> 0
table Cro:
  0 0 -> 1
  0 1 -> 2
  0 2 -> 1
  1 0 -> 0
  1 1 -> 0
  1 2 -> 1
"""

APL2_SOURCE = """\
mvn APL2
entity CI : 0..1
entity Cro : 0..1
neighbourhood CI = [CI, Cro]
neighbourhood Cro = [CI, Cro]
table CI:
  0 0 -> 1
  0 1 -> 0
  1 0 -> 1
  1 1 -> 0
table Cro:
  0 0 -> 1
  0 1 -> 1
  1 0 -> 0
  1 1 -> 0
"""

RHO_CRO_SOURCE = """\
CI: identity
Cro: 0->0, 1->1, 2->1
"""

MTRP_SOURCE = """\
mvn MTRP
entity TrpE : 0..1
entity TrpR : 0..1
entity TrpExt : 0..2
entity Trp : 0..2
neighbourhood TrpE = [Trp, TrpR]
neighbourhood TrpR = [Trp]
neighbourhood TrpExt = []
neighbourhood Trp = [TrpE, TrpExt, Trp]
table TrpE:
  0 0 -> 1
  0 1 -> 0
  1,2 0,1 -> 0
table TrpR:
  0,1 -> 0
  2 -> 1
table Trp:
  0 0 0,1 -> 0
  0 0 2 -> 1
  0 1 0,1,2 -> 1
  0 2 0 -> 1
  0 2 1,2 -> 2
  1 0,1 0,1,2 -> 1
  1 2 0 -> 1
  1 2 1,2 -> 2
"""

PHI_TRP_SOURCE = """\
TrpE: identity
TrpR: identity
TrpExt: 0->0, 1->1, 2->1
Trp: 0->0, 1->1, 2->1
"""

ATRP_SOURCE = """\
mvn ATRP
entity TrpE : 0..1
entity TrpR : 0..1
entity TrpExt : 0..1
entity Trp : 0..1
neighbourhood TrpE = [Trp, TrpR]
neighbourhood TrpR = [Trp]
neighbourhood TrpExt = []
neighbourhood Trp = [TrpE, TrpExt, Trp]
table TrpE:
  0 0 -> 1
  0 1 -> 0
  1 0,1 -> 0
table TrpR:
  0,1 -> 0
table Trp:
  0 0 0,1 -> 0
  0 1 0,1 -> 1
  1 0,1 0,1 -> 1
"""


@lru_cache(maxsize=None)
def pl2() -> Mvn:
    return parse_model(PL2_SOURCE)


@lru_cache(maxsize=None)
def apl2() -> Mvn:
    return parse_model(APL2_SOURCE)


@lru_cache(maxsize=None)
def rho_cro() -> AbstractionMapping:
    return parse_mapping(RHO_CRO_SOURCE, pl2())


@lru_cache(maxsize=None)
def mtrp() -> Mvn:
    return parse_model(MTRP_SOURCE)


@lru_cache(maxsize=None)
def phi_trp() -> AbstractionMapping:
    return parse_mapping(PHI_TRP_SOURCE, mtrp())


@lru_cache(maxsize=None)
def atrp() -> Mvn:
    return parse_model(ATRP_SOURCE)
