"""Time one set-up of a workload in a fresh interpreter and print it in seconds.

Set-up is what a user pays before the first frame: importing
``loopclose``, building the ``LoopDetector`` and processing the seed
frame, which builds the forest.  For the camera workload the seed frame
also goes through the image front end.  Generating the inputs is not
part of it; the seed frame is read from the file the benchmark wrote.

    python3 perfbench/setup_probe.py <src dir> <workload> <toy 0|1> <input seed> <out dir>
"""

import sys
import time
from pathlib import Path


def main() -> None:
    src, name, toy, input_seed, out_dir = sys.argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    start = time.perf_counter()
    sys.path.insert(0, src)
    from loopclose.detector import LoopDetector
    from loopclose.imgproc import read_features

    import workloads

    workload = workloads.WORKLOADS[name]
    size = workload.toy if toy == "1" else workload.full
    config = workloads.run_config(workload, size, int(input_seed), Path(out_dir))
    detector = LoopDetector(config.vocab_params(), config.detector_params())
    if workload.is_camera:
        features = workloads.front_end(config, workloads.seed_image(Path(out_dir)))
    else:
        features = read_features(Path(out_dir) / workloads.SEED_FEATURES)
    detector.on_frame(features)
    if detector.vocab is None:
        raise SystemExit("seed frame did not seed the vocabulary")
    print(f"{time.perf_counter() - start:.9f}")


if __name__ == "__main__":
    main()
