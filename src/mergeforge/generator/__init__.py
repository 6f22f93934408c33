from .extract import extract_program
from .policy import (
    BINDERS,
    DEFAULT_LITERAL_PALETTE,
    GeneratorPolicy,
    Production,
    UnderivableProgram,
    default_grammar,
    derivation_counts,
    sample_program,
)
from .prompt import PROMPT, PROMPT_ID
from .remote import EndpointConfig, GenerationSourceError, ProtocolError, remote_generate
from .schedule import temperature

__all__ = [
    "extract_program",
    "BINDERS",
    "DEFAULT_LITERAL_PALETTE",
    "GeneratorPolicy",
    "Production",
    "UnderivableProgram",
    "default_grammar",
    "derivation_counts",
    "sample_program",
    "PROMPT",
    "PROMPT_ID",
    "EndpointConfig",
    "GenerationSourceError",
    "ProtocolError",
    "remote_generate",
    "temperature",
]
