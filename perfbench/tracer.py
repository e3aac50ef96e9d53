"""Outside-in tracing of the biomote layers for the benchmark.

Run as a child in place of ``python -m biomote.cli``::

    python3 perfbench/tracer.py SPANS.json <subcommand> [cli args ...]

It wraps the public functions of ``biomote.link``, ``fec``, ``phy`` and
``mac`` listed in :data:`TARGETS`, runs the CLI, and writes every span as
``[name, start_s, end_s, parent_index, attrs]`` to ``SPANS.json``.  Nothing
in ``src/`` changes: each wrapper replaces every module-level binding of
the original function in the loaded ``biomote`` modules, so names that
``cli`` and ``phy`` took with ``from ... import`` are traced too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np


def _size(args, kwargs, result):
    return {"bits": int(np.size(args[0]))}


def _codec_size(n: int, k: int, bits_per_symbol: int):
    """Information bits carried by a batch of length-``n`` words."""
    def attrs(args, kwargs, result):
        return {"info_bits": int(np.size(args[0])) // n * k * bits_per_symbol}
    return attrs


def _rs_decode(args, kwargs, result):
    failure = np.atleast_1d(result[2])
    return {"info_bits": int(failure.size) * 26 * 5,
            "blocks": int(failure.size), "failed": int(np.sum(failure))}


def _ber_monte_carlo(args, kwargs, result):
    cfg = args[0]
    return {"bits": result.bits_simulated,
            "overshoot_bits": max(0, result.bits_simulated - cfg.max_bits),
            "low_confidence": bool(result.low_confidence)}


def _aloha_simulate(args, kwargs, result):
    return {"reads": int(result[0]), "slots": int(result[1])}


def _cdma_simulate(args, kwargs, result):
    # the signature of the wrapped function, through ``__wrapped__``
    bound = inspect.signature(sys.modules["biomote.mac"].cdma_simulate).bind(
        *args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    bits = a["packet_bytes"] * 8
    return {"family": a["family"], "trials": a["trials"],
            "key": list(a.values()),
            # aggregate (bits x n @ n x L) plus despread (bits x L @ L x n)
            "despread_ops": a["trials"] * 2 * a["n_motes"] * a["code_len"] * bits}


#: (module, function, span attributes from (args, kwargs, result))
TARGETS = [
    ("link", "link_budget", None),
    ("link", "backscatter_sweep", None),
    ("fec", "hamming_encode", _codec_size(11, 11, 1)),
    ("fec", "hamming_decode", _codec_size(15, 11, 1)),
    ("fec", "rs_encode", _codec_size(26, 26, 5)),
    ("fec", "rs_decode", _rs_decode),
    ("phy", "modulate", _size),
    ("phy", "awgn", _size),
    ("phy", "demodulate", _size),
    ("phy", "ber_monte_carlo", _ber_monte_carlo),
    ("phy", "ber_vs_distance", None),
    ("mac", "aloha_simulate", _aloha_simulate),
    ("mac", "aloha_mean_successes", None),
    ("mac", "max_fully_read", None),
    ("mac", "scenario2_sweep", None),
    ("mac", "cdma_simulate", _cdma_simulate),
    ("mac", "compare_schemes", None),
]


class Tracer:
    """In-memory span recorder; a span's parent is the enclosing span."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = [name, start, end, parent, {}]
            if attrs is not None:
                self.spans[index][4] = attrs(args, kwargs, result)
            return result
        return traced


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind each of its module-level names."""
    importlib.import_module("biomote.cli")
    modules = [m for name, m in sys.modules.items()
               if name == "biomote" or name.startswith("biomote.")]
    for module_name, func_name, attrs in TARGETS:
        original = getattr(sys.modules[f"biomote.{module_name}"], func_name)
        wrapper = tracer.wrap(f"{module_name}.{func_name}", original, attrs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from biomote import cli

    code = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
