"""Recompute the frozen values of expected.json with the library.

    python3 bench/recompute.py

These values have no source outside the library, so they were frozen from
its output.  This prints each one beside the library's current result and
exits 1 if any differs: a difference means the library changed a result,
which needs an explanation before expected.json is edited.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from rootposets import census as cns  # noqa: E402
from rootposets import rootsys as rsys  # noqa: E402
from rootposets import weakorder as wo  # noqa: E402


def recompute():
    census = {}
    for key in workloads.FROZEN["census"]:
        label, family = key.split(" ", 1)
        census[key] = cns.count_family(rsys.build_from_label(label), family).count
    ctx = {}
    for _, step in workloads.CERTIFY_SETUP:
        step(ctx)
    certify = {}
    for key in workloads.FROZEN["certify"]:
        name, what = key.rsplit(" ", 1)
        members = ctx["families"][name]
        certify[key] = (len(members) if what == "size"
                        else wo.verify_lattice(members).cover_count)
    return {"census": census, "certify": certify}


def main():
    differ = 0
    for section, values in recompute().items():
        for key, value in values.items():
            frozen = workloads.FROZEN[section][key]
            mark = "" if value == frozen else "   <-- differs"
            differ += value != frozen
            print(f"{section:8s} {key:24s} frozen {frozen:>8} now {value:>8}{mark}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
