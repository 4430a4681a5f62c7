"""Write the output-check references in perfbench/reference/.

Run from the repository root, on the code whose outputs are the reference:

    python3 perfbench/make_reference.py [workload ...]

Each workload is run once, untraced, through the same call as run.py.  The
reference keeps the selected weights (h, M2, M1, C1, C2), the
``trajectory.csv`` columns l2, hm_rho_theta and radius_fit, and whether
the positivity certificate passed.
"""

import json
import os
import sys

import run


def main(argv):
    names = argv or list(run.WORKLOADS)
    os.makedirs(os.path.join(run.HERE, "reference"), exist_ok=True)
    for name in names:
        record = run.call(run.config_text(name, 0), trace=False)
        if "error" in record:
            print(f"{name}: {record['error']}", file=sys.stderr)
            return 1
        reference = run.reference_from(record)
        bad = run.check(record, reference)
        if bad:
            print(f"{name}: " + "; ".join(bad), file=sys.stderr)
            return 1
        with open(run.reference_path(name), "w") as fh:
            json.dump(reference, fh, indent=1)
            fh.write("\n")
        print(f"{name}: run_s {record['run_s']:.2f}, reference written")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
