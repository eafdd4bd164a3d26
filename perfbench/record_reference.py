"""Record the reference outputs that the benchmark's correctness gate uses.

Runs one pass of every workload for every input family and writes
``perfbench/reference.json``. Run it from the repository root only at a
commit whose outputs are trusted:

    python3 perfbench/record_reference.py
"""

import json
import os

from harness import HERE, limit_blas_threads, timed_setup, use_checkout_source

if __name__ == "__main__":
    limit_blas_threads()
    use_checkout_source()
    import workloads

    reference = {}
    for name in workloads.WORKLOADS:
        reference[name] = {}
        for family in range(workloads.N_FAMILIES):
            _, wl, inputs = timed_setup(name, family)
            outputs, _ = wl.run_pass(inputs)
            reference[name][str(family)] = outputs
            if "out" in inputs:
                os.remove(inputs["out"])
            print(name, family, flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
