"""``python3 -m gevrey_evolve <command> ...``: the gevrey-evolve command line
(harness.main)."""

import sys

from .harness import main

sys.exit(main())
