"""Frame changes of the quantization versus the mapping-class matrices.

Re-expands the transformed-frame bases in the original one by quadrature
and compares with the twist diagonal and the discrete sine kernel, each
times its predicted phase: -exp(i pi/(2r+1)) for the twist, whose frame
is anchored by a chain of translations, and -1 for S, whose
vacuum-anchored construction lands on minus the sine kernel.  Nothing
is fitted: the printed deviation is from that phase times the matrix.
"""

import numpy as np

from skeinquant import QuantizationContext, modular_phase_check

for tau in (1j, 0.3 + 1.7j):
    print(f"\n== tau = {tau} ==")
    for r in (3, 4):
        ctx = QuantizationContext(r, tau)
        rep = modular_phase_check("T", ctx)
        d = np.diag(rep.measured)
        print(f"r={r} twist frame:   predicted phase {rep.global_phase:+.6f}, "
              f"max dev {rep.max_dev:.2e}")
        print(f"          measured diagonal: {np.round(d, 5)}")
        rep = modular_phase_check("S", ctx)
        print(f"r={r} S frame:       predicted phase {rep.global_phase:+.6f}, "
              f"max dev {rep.max_dev:.2e}")
