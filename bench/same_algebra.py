"""Library job: both presentations generate the same algebra on the B2 r=2 tower.

Runs `presentations_generate_same_algebra`, which closes the tower's
generators twice: once with the Cartan elements H_i and once with the 13
diagonal 0/1 weight projectors in their place, then compares the canonical
echelon bases.  No CLI command reaches this call, so the benchmark owns the
job.  Prints one JSON line and exits 1 when the two algebras differ.

    PYTHONPATH=src python3 bench/same_algebra.py
"""

import json
import sys

from schurkit import LieType, build_idempotents, tower_rep
from schurkit.presentation import presentations_generate_same_algebra


def main():
    rep = tower_rep(LieType("B", 2), 2)
    fam = build_idempotents(rep)
    same = presentations_generate_same_algebra(rep, fam)
    doc = {"family": "B", "rank": 2, "r": 2, "carrier_dim": rep.dim, "projectors": len(fam.table), "same_algebra": same}
    print(json.dumps(doc))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
