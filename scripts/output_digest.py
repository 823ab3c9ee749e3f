"""Print one SHA-256 digest of the benchmark's outputs per workload.

For each workload of ``perfbench/workloads.py`` this runs the warm-up op and
the reference ops at each seed, flattens every output as the benchmark does
(the captured LRT statistics and p-values included) and hashes the float-hex
form of every number.  Two checkouts that print the same lines produced the
same outputs, bit for bit.  ``--dump PATH`` also writes the values that
were hashed as one JSON document, ``{workload: {op key: flattened
output}}``, so that two checkouts whose digests differ can be compared
within a tolerance.  It only reads ``perfbench/``.

    python3 scripts/output_digest.py                                   # seeds 0 1 3 7
    python3 scripts/output_digest.py --workload fit-large-m --seeds 0
    python3 scripts/output_digest.py --dump outputs.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # write no __pycache__ into perfbench/

import workloads  # noqa: E402  (after the path set-up: it imports iupm from src/)
from tracer import Tracer  # noqa: E402


def hexed(value):
    """A flattened output with every float written as float.hex()."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [hexed(v) for v in value]
    if isinstance(value, dict):
        return {key: hexed(v) for key, v in value.items()}
    return value


def digest(name: str, seeds: list[int]) -> tuple[str, dict]:
    """(the SHA-256 of the workload's outputs, those outputs keyed by op)."""
    wl = workloads.WORKLOADS[name]()
    sha = hashlib.sha256()
    outputs = {}
    with tempfile.TemporaryDirectory() as work_dir:
        wl.prepare(Path(work_dir))
        seen = set()
        for op in [wl.warmup()] + [op for seed in seeds for op in wl.reference_ops(seed)]:
            if op.key in seen:  # the warm-up and fixed/0 ops are the same at every seed
                continue
            seen.add(op.key)
            with Tracer("iupm", spans=wl.captures, keep_results=wl.captures) as tracer:
                out = op.run()
            flat = wl.flatten(out)
            if wl.captures:
                flat["captured"] = wl.flatten_captured(dict(tracer.results))
            sha.update(json.dumps([op.key, hexed(flat)]).encode())
            outputs[op.key] = flat
    return sha.hexdigest(), outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), action="append",
                        help="a workload to digest; repeat for several (default: all)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 3, 7])
    parser.add_argument("--dump", type=Path, metavar="PATH", help="also write the hashed values here as JSON")
    args = parser.parse_args(argv)
    dumped = {}
    for name in args.workload or workloads.WORKLOADS:
        sha, dumped[name] = digest(name, args.seeds)
        print(f"{name} {sha}", flush=True)
    if args.dump:
        args.dump.write_text(json.dumps(dumped, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
