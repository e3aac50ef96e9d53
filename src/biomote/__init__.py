"""biomote: desk-scale simulator of a micro-implant ("biomote") talking to an
external reader over a magnetic-induction backscatter link.

Subsystems:

- :mod:`biomote.link`   inductive link budgets (coil impedances, coupling,
  round-trip backscatter power)
- :mod:`biomote.fec`    Hamming(15,11) and Reed-Solomon(31,26) codecs
- :mod:`biomote.phy`    ASK/BPSK Monte Carlo bit error rates over AWGN
- :mod:`biomote.mac`    multi-mote access: slotted ALOHA, CDMA, binary tree
- :mod:`biomote.cli`    reproducible CSV experiment runner
"""

__version__ = "0.1.0"
