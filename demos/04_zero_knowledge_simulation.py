"""Simulate proofs without the witness by reprogramming the oracle.

The simulator samples a private random table over (repetition, challenge)
cells, takes each proof challenge as its row's first zero cell, as the
prover grinds, builds the transcripts with the challenge-first sigma
simulator, and answers any valid query carrying its commitment prefix
from the table.
The resulting proof verifies under the programmed oracle, and the hybrid
experiments show each step of the bridge from the honest prover.
"""

import random

from fischlin import (
    FischlinParams,
    GroupParams,
    RecordingOracle,
    SigmaInstance,
    derive_seed,
    hybrid_experiment,
    keygen,
    protocol_for_challenge_space,
    reprogramming_advantage,
    simulate,
    verify,
)

group = GroupParams(p=1019, q=509, g=4)
params = FischlinParams(k=2, l=2, N=16, T=16)
protocol = protocol_for_challenge_space(group, 16)
instance = SigmaInstance(group, 80)  # x = 4^7, witness never used below

oracle = RecordingOracle(params, protocol, derive_seed(42))
out = simulate(params, protocol, instance, oracle, random.Random(42))
print(f"simulated challenges: {out.proof.c_vec}")
print(f"programmed points: {len(out.table.overrides)}")
print("verifies under programmed oracle:",
      verify(params, protocol, instance, out.proof, oracle))

# the same proof fails against an unprogrammed oracle: the magic is in
# the table, not the proof
plain = RecordingOracle(params, protocol, derive_seed(42))
print("verifies under plain oracle:",
      verify(params, protocol, instance, out.proof, plain))

# hybrid bridge: H0 honest prover, H1 honest responses with uniform
# challenges under a reprogrammed oracle, H1' each challenge the first
# zero cell of its row, H2 simulated responses (the simulator itself);
# H0, H1' and H2 give challenges of the same law
rng = random.Random(5)
inst, wit = keygen(group, rng)
for mode in ("H0", "H1", "H1'", "H2"):
    accepts, challenges = 0, []
    runs = 200
    for seed in range(runs):
        o = RecordingOracle(params, protocol, derive_seed(1000 + seed))
        try:
            s = hybrid_experiment(params, protocol, inst, wit, mode, o,
                                  random.Random(seed))
        except Exception:
            continue
        accepts += s.verdict
        challenges += s.proof.c_vec
    print(f"hybrid {mode:3s}: {accepts}/{runs} accepting, "
          f"mean challenge {sum(challenges) / len(challenges):.2f}")

# the adaptive-reprogramming price of the H0 -> H1 hop, as a function of
# the distinguisher's query budget and the per-round chance of guessing a
# fresh commitment (1/group-order for Schnorr). On the toy group that
# chance is 1/509 and the bound is vacuous; with a 256-bit group it bites
for order, label in ((509, "toy group"), (2 ** 255, "256-bit group")):
    for q in (2 ** 20, 2 ** 40):
        adv = reprogramming_advantage(q, [1 / order] * params.k)
        print(f"{label}, q = 2^{q.bit_length() - 1}: "
              f"reprogramming advantage <= {adv:.3e}")
