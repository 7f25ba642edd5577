"""Proof-of-work NIZK compiler for sigma protocols.

The prover grinds per-repetition challenges until an l-bit hash of
(commitments, repetition index, challenge, response) is all zeros. The
grinding trail recorded by the oracle enables witness extraction without
rewinding, a reprogramming simulator gives zero knowledge, and the bounds
engine evaluates the extraction-error chain in closed form. A small dense
statevector lab checks the oracle-register concentration facts the chain
rests on.
"""

from . import bounds, lab
from .extractor import ExperimentResult, ExtractionOutcome, Status, \
    attempts_per_repetition, extract, run_online_experiment
from .oracle import OracleInput, OracleTranscript, RecordingOracle, \
    ReprogramConflict, ReprogramTable, derive_seed, encode_input, ro_eval
from .sigma import CommitState, GroupParams, RepeatedSigma, Schnorr, \
    SigmaInstance, SigmaWitness, keygen, protocol_for_challenge_space, \
    restrict_and_repeat
from .simulator import HybridSample, SimOutput, first_zero_challenge, \
    hybrid_experiment, reprogramming_advantage, simulate
from .transform import Abort, CompletenessError, FischlinParams, Proof, \
    completeness_error, deserialize_proof, proof_to_json, \
    prove, serialize_proof, verify

__version__ = "0.1.0"

__all__ = [
    "Abort",
    "CommitState",
    "CompletenessError",
    "ExperimentResult",
    "ExtractionOutcome",
    "FischlinParams",
    "GroupParams",
    "HybridSample",
    "OracleInput",
    "OracleTranscript",
    "Proof",
    "RecordingOracle",
    "RepeatedSigma",
    "ReprogramConflict",
    "ReprogramTable",
    "Schnorr",
    "SigmaInstance",
    "SigmaWitness",
    "SimOutput",
    "Status",
    "attempts_per_repetition",
    "bounds",
    "completeness_error",
    "derive_seed",
    "deserialize_proof",
    "encode_input",
    "extract",
    "first_zero_challenge",
    "hybrid_experiment",
    "keygen",
    "lab",
    "proof_to_json",
    "protocol_for_challenge_space",
    "prove",
    "reprogramming_advantage",
    "restrict_and_repeat",
    "ro_eval",
    "run_online_experiment",
    "serialize_proof",
    "simulate",
    "verify",
]
