"""What a stream user pays before the first cycle, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD CALIBRATION_FILE

Imports lfisensor, loads the saved calibration and builds the pipeline
config and state of the stream workload.  The caller times the whole
process, interpreter start-up included.
"""

import sys

import common


def main(workload: str, cal_path: str) -> int:
    from lfisensor import PipelineState

    PipelineState.for_config(common.stream_config(workload, cal_path))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
