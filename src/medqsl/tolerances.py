"""Every numeric threshold of the package, by name; each value is absolute.

A name is shared only where the meaning is the same: two thresholds
that agree in value but answer different questions keep two names.
"""

# validation; a PSD matrix may dip slightly negative in floating point, and below its
# floor it is indefinite (open-system stepped states get a looser floor: each squaring
# of the exact map doubles its roundoff, some 4e-10 at 26 squarings)
HERM_TOL = 1e-10            # max entry of |M - M+|
TRACE_TOL = 1e-10           # |tr rho - 1|
PSD_FLOOR = -1e-10
LINDBLAD_EIG_FLOOR = -1e-6
STATIONARY_TOL = 1e-12      # min{mean, std} at most this: the state never moves

# measures
NEG_EIG_TOL = 1e-10         # partial-transpose eigenvalues in (-tol, 0) count as zero
ENTROPY_CUTOFF = 1e-15      # spectrum entries at or below it add no entropy
CLASSICAL_TOL = 1e-8        # off-diagonal block norm of a classically correlated state
SUPPORT_CUT = 1e-12         # fidelity: eigenvalues of the first state at or below it are
                            # its null space (roundoff of a validated state is some 1e-15)

# time grids and the scan-and-refine primitives
GRID_SLACK = 1e-9           # in steps: a span that is a multiple of the step keeps its end
REFINE_TOL = 1e-9           # bracket width at which golden section and bisection stop
PEAK_SLACK = 1e-4           # grid-local peaks this close below a level are refined
FIRST_MAX_SLACK = 1e-7      # a refined peak this close to (d-1)/2 counts as maximal
PHASE_MAX = 2.0 ** 49       # rad: the largest closed phase max|w| (T - start), whose ulp is 1/8

# sweep verdicts
ATTAIN_SLACK = 1e-6         # N reaches the level (d-1)/2 within this
EARLY_SLACK = 1e-3          # cmi: up to arccos(1/sqrt d) plus this counts as early
STAGE2_TIME_SLACK = 1e-6    # smi: a crossing this far before arccos(1/d) is a violation
CLOSED_RATE_TOL = 1e-6      # rate-zero: |dN/dT(0+)| without jumps (roundoff reads ~1e-16)
OPEN_RATE_TOL = 1e-8        # rate-zero: dN/dT(0+) with local jumps
EXCESS_TOL = 1e-10          # commuting-null: N above its T = 0 value
