#!/usr/bin/env python3
"""Reduce the demo ball bracket to the e(3) form across band limits.

Shows the spectral convergence of the curl-equation solve and the resulting
deviations of the transported structure from the target.

Usage: python scripts/reduction_demo.py [L ...]
"""

import json
import sys

from nonholo import BallParams, ball_system, reduction_report

limits = [int(v) for v in sys.argv[1:]] or [8, 16, 32]

params = ball_system(BallParams(A=(0.4, 0.5, 0.6), D=1.0)).s_spec

for L in limits:
    print(json.dumps(reduction_report(params, L=L, n_states=50, seed=0), sort_keys=True))
