"""The bit-serial Toeplitz hash: the test oracle for ``flow_hash``.

:func:`repro.net.rss.flow_hash` computes the RSS hash of a flow tuple
in closed form from per-byte tables.  This module keeps the hash as
the RSS contract states it, one key window per set input bit, so the
tests can check the tables, and the published test vectors, against
the definition.
"""

from repro.net.rss import TOEPLITZ_KEY


def toeplitz_hash(data, key=TOEPLITZ_KEY):
    """The Toeplitz hash over ``data`` (bytes), per the RSS contract.

    For every set bit of the input (MSB first) the hash XORs in the
    32-bit window of the key starting at that bit position.
    """
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    if len(data) * 8 > key_bits - 32:
        raise ValueError("input too long for a %d-bit key" % key_bits)
    result = 0
    for i in range(len(data) * 8):
        if data[i // 8] & (0x80 >> (i % 8)):
            result ^= (key_int >> (key_bits - 32 - i)) & 0xFFFFFFFF
    return result
