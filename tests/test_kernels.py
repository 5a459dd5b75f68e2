"""Term kernels: sign oracles."""

from qexterior import _kernels as K


def inversion_sign(a_bits, b_bits):
    """Independent sign oracle: count inversions of the concatenation."""
    seq = sorted(a_bits) + sorted(b_bits)
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def bits(mask):
    return [i for i in range(8) if mask >> i & 1]


class TestSignOracles:
    def test_wedge_sign_matches_inversion_count(self):
        for a in range(64):
            for b in range(64):
                if a & b:
                    continue
                assert K.wedge_sign(a, b) == inversion_sign(bits(a), bits(b))

    def test_front_sign_is_position_parity(self):
        for mask in range(1, 64):
            for i in bits(mask):
                pos = sorted(bits(mask)).index(i)  # 0-based position
                assert K.front_sign(mask, i) == (-1) ** pos

    def test_back_sign_relation(self):
        # back = (-1)^(k-1) * front on degree-k monomials
        for mask in range(1, 64):
            k = bin(mask).count("1")
            for i in bits(mask):
                assert K.back_sign(mask, i) == \
                    (-1) ** (k - 1) * K.front_sign(mask, i)
