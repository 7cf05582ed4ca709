"""Self-time breakdown of one operation per kind, against untraced latency.

    python3 bench/run.py --workload fock_twin --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload fock_twin --seed 1 --seconds 15 --trace 1
    python3 bench/breakdown.py fock_twin 1 [KIND ...]

Reads the two dumps under bench/out/. For the traced operation with the
median latency of each kind it prints the self time of every layer span
along its calls, the part no span covers (the benchmark's own glue), their
sum (the traced latency) and the untraced median latency of that kind. The
gap between the last two is the tracing overhead.
"""

import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main(workload: str, seed: str, *kinds: str) -> None:
    plain = json.loads((OUT / f"{workload}-seed{seed}-trace0.json").read_text())
    traced = json.loads((OUT / f"{workload}-seed{seed}-trace1.json").read_text())
    for kind, row in sorted(traced["breakdown"].items()):
        if kinds and kind not in kinds:
            continue
        layers = row["layers_self_ms"]
        print(f"{workload} {kind}: untraced p50 {plain['per_kind_p50_ms'][kind]:.3f} ms, "
              f"traced {row['traced_ms']:.3f} ms = layers {sum(layers.values()):.3f} "
              f"+ unspanned {row['root_self_ms']:.3f}")
        for name, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"    {name:36s} {ms:9.3f} ms")


if __name__ == "__main__":
    main(*sys.argv[1:])
