"""Test-only reference for instance files: the Fraction-based reader and writer.

These are ``read_instance`` and ``write_instance`` as they were before the
instance stored its agents as integer rows in units of epsilon, kept
verbatim as an exact oracle: the reader builds an ``AgentSpec`` and a
``Fraction`` per value and lets ``Instance`` check quantization, and the
writer formats every value from the agents' Fractions.
"""

import json
from fractions import Fraction

from unanimity.core import (
    AgentSpec,
    Instance,
    format_rational,
    parse_rational,
)


def write_instance(inst: Instance, path) -> None:
    """Serialize to the JSON instance format (conventionally *.instance.json)."""
    doc = {
        "m": inst.m,
        "inv_epsilon": inst.inv_epsilon,
        "agents": [
            {
                "u": [format_rational(u) for u in agent.utilities],
                "tau": format_rational(agent.threshold),
            }
            for agent in inst.agents
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_instance(path) -> Instance:
    """Parse and validate an instance file; raises ValueError with the
    offending agent index on any quantization or range violation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed instance file {path}: {exc}") from exc
    try:
        m, Q, agents = doc["m"], doc["inv_epsilon"], doc["agents"]
        # bool is an int subclass, and a string "u" would iterate its characters.
        if not (type(m) is int and type(Q) is int and isinstance(agents, list)
                and all(isinstance(a, dict) and isinstance(a["u"], list) for a in agents)):
            raise TypeError('want integer "m" and "inv_epsilon" and a list of {"u": [...], "tau"}')
        # A grid holds at most 1/epsilon + 1 values: parse each string once.
        # Only strings reach the cache (parse_rational rejects the rest); an
        # unhashable value is a TypeError.
        parsed: dict[str, Fraction] = {}

        def rational(text) -> Fraction:
            value = parsed.get(text)
            if value is None:
                value = parsed[text] = parse_rational(text)
            return value

        agents = [AgentSpec([rational(u) for u in a["u"]], rational(a["tau"]))
                  for a in agents]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance file {path}: {exc!r}") from exc
    if Q < 2:
        raise ValueError(f"malformed instance file {path}: inv_epsilon must be >= 2, got {Q}")
    return Instance(m, Fraction(1, Q), agents)
