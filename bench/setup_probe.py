"""One set-up measurement, run in a fresh process by ``run.py``.

Times what every CLI invocation pays before it can work: importing
``meshperm`` and loading and validating the shipped catalog.  Prints one
JSON object.
"""
import json
import time


def main() -> None:
    t0 = time.perf_counter()
    from meshperm import catalog

    catalog.load_catalog()
    problems = catalog.validate_catalog()
    t1 = time.perf_counter()
    print(json.dumps({"setup_s": t1 - t0, "problems": problems}))


if __name__ == "__main__":
    main()
