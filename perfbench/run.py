"""ssnpath benchmark: time to a selected model, setup, memory and accuracy.

Run from the repository root:

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
fits each instance twice, untraced and then with layer wrappers installed,
and prints the per-layer metrics and the tracing overhead; spans go to
perfbench/out/. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The package is always imported from this checkout's src/.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_src():
    """Put this checkout's src/ first on sys.path; exit if the package is not there."""
    src = ROOT / "src"
    if not (src / "ssnpath" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ssnpath package under {src}")
    sys.path.insert(0, str(src))
    import ssnpath

    if Path(ssnpath.__file__).resolve().parent != src / "ssnpath":
        sys.exit(f"perfbench: ssnpath was imported from {ssnpath.__file__}, not {src}")


def main(argv=None):
    use_checkout_src()
    import bench
    from workloads import BY_NAME, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spans = None
    if args.trace:
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans_{args.workload}_{args.seed}.jsonl"
    wl = BY_NAME[args.workload]
    bench.run(wl, WORKLOADS.index(wl), args.seed, args.seconds, args.trace, spans_path=spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
