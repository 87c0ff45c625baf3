"""Digests of every decode and training run the benchmark's neural workloads
make, to check that a change leaves them bitwise the same.

    python3 tools/decode_fingerprint.py [--tiny] [--grids OUT.npz] [--against OTHER.npz]

Run from the root of a checkout; the package is imported from its `src/`
and the workloads from its `perfbench/`, which this script does not change.
Set-up is the benchmark's own, so the `neural-decode` checkpoint must still
decode its recorded probes. Every request of `neural-decode` seeds 1-3 and
`train` seeds 1-2 is decoded by greedy, standard and combined decoding.
Each line names a workload, seed and scheme and gives the sha256 of the
decodes' outputs, accepted sizes and model invocation counts, and the
sha256 of every grid they scored, in call order. For `train`, one more line
per seed gives the sha256 of the training losses and of the trained
parameters. Two checkouts decode alike when their lines match.

`--tiny` runs the benchmark smoke test's sizes. `--grids` saves each line's
grids, end to end, to an .npz file; `--against` reads such a file from
another checkout and prints the largest absolute difference between the two
runs' grids, which the digests cannot show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import env  # noqa: E402

env.prepare()

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

SEEDS = {"neural-decode": (1, 2, 3), "train": (1, 2)}


class Recorder:
    """Stands in for a scoring model and keeps the grid of every
    `score_grid` call."""

    def __init__(self, model):
        self.model = model
        self.grids = []

    def __getattr__(self, name):
        return getattr(self.model, name)

    def score_grid(self, input_tokens, prefix, candidates, k):
        scores = self.model.score_grid(input_tokens, prefix, candidates, k)
        self.grids.append(scores.grid)
        return scores


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def decodes(requests, scheme: str):
    """(digest of the decodes, every grid they scored, flattened end to end)."""
    results, grids = [], []
    for request in requests:
        recorder = Recorder(request.model)
        result, _ = wl.decode(request, scheme, recorder)
        results.append([list(result.output), list(result.accepted_sizes),
                        result.model_invocations])
        grids += [np.ascontiguousarray(g, dtype=np.float64).reshape(-1) for g in recorder.grids]
    return digest(json.dumps(results).encode()), np.concatenate(grids)


def fingerprint(name: str, sizes):
    """Yield (key, line, grids) per seed and scheme of workload `name`,
    with grids None on a training line."""
    for seed in SEEDS[name]:
        if name == "train":
            model, losses, _ = wl.train_once(seed, sizes)
            params = b"".join(p.encode() + model.params[p].tobytes() for p in sorted(model.params))
            key = f"{name} seed {seed} training"
            yield key, (f"{key} losses {digest(np.array(losses).tobytes())} "
                        f"params {digest(params)}"), None
            requests = wl.repeat_requests(model, seed + wl.HELD_OUT, sizes.requests)
        else:
            requests = wl.SETUPS[name](seed, sizes).requests
        for scheme in wl.SCHEMES:
            key = f"{name} seed {seed} {scheme}"
            decoded, grids = decodes(requests, scheme)
            yield key, f"{key} decodes {decoded} grids {digest(grids.tobytes())}", grids


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tiny", action="store_true", help="the smoke test's sizes")
    parser.add_argument("--grids", type=Path, help="save every line's grids to this .npz")
    parser.add_argument("--against", type=Path, help="compare grids with this saved .npz")
    args = parser.parse_args(argv)

    other = np.load(args.against) if args.against else None
    saved, moves = {}, []
    for name in SEEDS:
        for key, line, grids in fingerprint(name, wl.TINY if args.tiny else wl.SIZES[name]):
            print(line, flush=True)
            if grids is None:
                continue
            saved[key] = grids
            if other is not None:
                theirs = other[key] if key in other.files else None
                if theirs is None or theirs.shape != grids.shape:
                    moves.append((np.inf, key))
                else:
                    moves.append((float(np.max(np.abs(grids - theirs), initial=0.0)), key))
    if args.grids:
        np.savez(args.grids, **saved)
    if moves:
        move, key = max(moves)
        print(f"largest grid move against {args.against.name}: {move:.3g} ({key})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
