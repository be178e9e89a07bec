"""Import tatelab and parse instance files, computing nothing.

    python3 perfbench/setup_probe.py INSTANCE.json ...

The benchmark times this whole process as its set-up cost.  It prints
where tatelab was imported from, so the benchmark can confirm that it
measures the checkout.
"""

import json
import sys

import tatelab


def main():
    for path in sys.argv[1:]:
        with open(path) as fh:
            doc = json.load(fh)
        if "tower" in doc:
            tatelab.build_layer_chain(doc["tower"])
        else:
            tatelab.parse_presentation(doc)
    print(tatelab.__file__)


if __name__ == "__main__":
    main()
