"""Time one cold start of a study: import wavext, parse the config, build the problem.

Run in a fresh interpreter, so that the imports (numpy, scipy, wavext) are
paid as a user pays them:

    python3 perfbench/setup_probe.py <src-dir> <config-file> <experiment>

Prints the elapsed seconds, measured from before ``import wavext``.
"""

import sys
import time


def main(src, config, experiment):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from wavext.cli import parse_config
    from wavext.problem import make_preset

    cfg = parse_config(config, experiment)
    make_preset(cfg.problem, cfg.psi or None)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(main(*sys.argv[1:4])))
