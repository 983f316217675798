"""Training worker for the eval_b256 workload.

    python3 benchmark/train_worker.py

Reads one JSON object of ``TrainConfig`` fields per line from stdin, runs
``vminet.training.train`` on it, and answers with one JSON line on stdout:
``{"checkpoint": path, "losses": [...], "seconds": s}``, or ``{"error": text}``
when vminet rejects the run. Ends at the end of its input.
"""

import json
import sys
import time

import run


def main() -> int:
    vm = run.import_vminet()
    for line in sys.stdin:
        try:
            cfg = vm.training.TrainConfig(**json.loads(line))
            tick = time.perf_counter()
            history = vm.training.train(cfg)
            reply = {"checkpoint": history.final_checkpoint,
                     "losses": [e.train_loss for e in history.epochs],
                     "seconds": time.perf_counter() - tick}
        except vm.errors as exc:
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
