"""Linear Genetic Programming engine (paper Sec. 7).

Implements the dynamic page-based LGP of [13] with the recurrent extension
(RLGP) used by the paper:

* 2-address instruction format over 8 general-purpose registers and the
  2-D word inputs, function set ``+ - * /`` (protected division);
* page-based crossover (equal-size blocks), XOR mutation, instruction swap;
* steady-state tournaments of 4 (best two overwrite worst two);
* dynamic page size: doubled on fitness plateaus, reset after the maximum;
* Dynamic Subset Selection for fitness evaluation on large training sets;
* recurrent evaluation: registers persist across a document's word
  sequence and are read from the output register after the last word;
* one evaluation kernel (:mod:`repro.gp.engine`) that scores any program
  batch -- a served champion, a tournament, a population -- in one numpy
  pass, with a semantic fitness cache over effective-code fingerprints.
"""

from repro.gp.config import GpConfig
from repro.gp.dss import DynamicSubsetSelector
from repro.gp.dynamic_pages import DynamicPageController
from repro.gp.engine import FusedEngine, PackedPrograms, SemanticCache
from repro.gp.fitness import squash_output, sum_squared_error
from repro.gp.instructions import (
    Instruction,
    decode_instruction,
    disassemble,
    encode_instruction,
    random_instruction,
)
from repro.gp.program import Program
from repro.gp.recurrent import RecurrentEvaluator
from repro.gp.trainer import EvolutionResult, RlgpTrainer

__all__ = [
    "FusedEngine",
    "PackedPrograms",
    "SemanticCache",
    "GpConfig",
    "Instruction",
    "encode_instruction",
    "decode_instruction",
    "random_instruction",
    "disassemble",
    "Program",
    "RecurrentEvaluator",
    "DynamicSubsetSelector",
    "DynamicPageController",
    "squash_output",
    "sum_squared_error",
    "RlgpTrainer",
    "EvolutionResult",
]
