package biases

import "math"

// exp2p is 2^a * (1 + sign * 2^b) — the notation the paper's tables use for
// probabilities like 2^-15.94786 (1 - 2^-4.894).
func exp2p(a float64, sign int, b float64) float64 {
	return math.Exp2(a) * (1 + float64(sign)*math.Exp2(b))
}

// PairBias is one row of Table 2: a biased pair of keystream byte values at
// two (1-indexed) positions. The table expresses probabilities as
// 2^BaseLog2 (1 + RelSign·2^RelLog2): the base is the probability expected
// from the single-byte marginals alone, and the second factor is the
// relative dependency bias q of §3.1.
type PairBias struct {
	A        int  // first position (1-indexed)
	X        byte // value at A
	B        int  // second position
	Y        byte // value at B
	BaseLog2 float64
	RelSign  int // +1 or -1
	RelLog2  float64
}

// P is the absolute pair probability.
func (b PairBias) P() float64 { return exp2p(b.BaseLog2, b.RelSign, b.RelLog2) }

// Base is the single-byte-expected probability 2^BaseLog2.
func (b PairBias) Base() float64 { return math.Exp2(b.BaseLog2) }

// RelativeBias is the signed dependency bias q.
func (b PairBias) RelativeBias() float64 {
	return float64(b.RelSign) * math.Exp2(b.RelLog2)
}

// ConsecutiveKeyLengthBiases are Table 2's consecutive rows, the family of
// eq. 2: Pr[Z_{16w-1} = Z_{16w} = 256-16w] for w = 1..7 (16-byte keys).
var ConsecutiveKeyLengthBiases = []PairBias{
	{15, 240, 16, 240, -15.94786, -1, -4.894},
	{31, 224, 32, 224, -15.96486, -1, -5.427},
	{47, 208, 48, 208, -15.97595, -1, -5.963},
	{63, 192, 64, 192, -15.98363, -1, -6.469},
	{79, 176, 80, 176, -15.99020, -1, -7.150},
	{95, 160, 96, 160, -15.99405, -1, -7.740},
	{111, 144, 112, 144, -15.99668, -1, -8.331},
}

// NonConsecutiveBiases are Table 2's non-consecutive rows.
var NonConsecutiveBiases = []PairBias{
	{3, 4, 5, 4, -16.00243, +1, -7.912},
	{3, 131, 131, 3, -15.99543, +1, -8.700},
	{3, 131, 131, 131, -15.99347, -1, -9.511},
	{4, 5, 6, 255, -15.99918, +1, -8.208},
	{14, 0, 16, 14, -15.99349, +1, -9.941},
	{15, 47, 17, 16, -16.00191, +1, -11.279},
	{15, 112, 32, 224, -15.96637, -1, -10.904},
	{15, 159, 32, 224, -15.96574, +1, -9.493},
	{16, 240, 31, 63, -15.95021, +1, -8.996},
	{16, 240, 32, 16, -15.94976, +1, -9.261},
	{16, 240, 33, 16, -15.94960, +1, -10.516},
	{16, 240, 40, 32, -15.94976, +1, -10.933},
	{16, 240, 48, 16, -15.94989, +1, -10.832},
	{16, 240, 48, 208, -15.92619, -1, -10.965},
	{16, 240, 64, 192, -15.93357, -1, -11.229},
}

// EqualityBias is one of the eq. 3–5 biases: Pr[Za = Zb] = 2^-8 (1 ± 2^q).
type EqualityBias struct {
	A, B int
	P    float64
}

// EqualityBiases lists eqs. 3, 4, 5.
var EqualityBiases = []EqualityBias{
	{1, 3, exp2p(-8, -1, -9.617)},
	{1, 4, exp2p(-8, +1, -8.590)},
	{2, 4, exp2p(-8, -1, -9.622)},
}

// Z1Z2Set identifies one of the six §3.3.2 bias families induced by the
// first two keystream bytes on the whole initial 256 bytes.
type Z1Z2Set int

// The six families. For a target position i (3 <= i <= 256), each family
// fixes a value of Z1 or Z2 and a value of Zi. Byte arithmetic is mod 256.
const (
	SetZ1_257mI_Zi0    Z1Z2Set = iota + 1 // Z1 = 257-i ∧ Zi = 0     (positive)
	SetZ1_257mI_ZiI                       // Z1 = 257-i ∧ Zi = i     (positive)
	SetZ1_257mI_Zi257m                    // Z1 = 257-i ∧ Zi = 257-i (negative)
	SetZ1_Im1_Zi1                         // Z1 = i-1   ∧ Zi = 1     (positive)
	SetZ2_0_Zi0                           // Z2 = 0     ∧ Zi = 0     (negative)
	SetZ2_0_ZiI                           // Z2 = 0     ∧ Zi = i     (negative)
)

// Cell returns the (a, x, b, y) pair cell of the family at target position
// i: positions are 1-indexed, a is 1 or 2, b = i.
func (s Z1Z2Set) Cell(i int) (a int, x byte, b int, y byte) {
	bi := byte(i)
	switch s {
	case SetZ1_257mI_Zi0:
		return 1, byte(257 - i), i, 0
	case SetZ1_257mI_ZiI:
		return 1, byte(257 - i), i, bi
	case SetZ1_257mI_Zi257m:
		return 1, byte(257 - i), i, byte(257 - i)
	case SetZ1_Im1_Zi1:
		return 1, byte(i - 1), i, 1
	case SetZ2_0_Zi0:
		return 2, 0, i, 0
	case SetZ2_0_ZiI:
		return 2, 0, i, bi
	}
	panic("biases: unknown Z1Z2Set")
}

// SingleByteKeyLengthBias describes the §3.3.3 single-byte biases beyond
// position 256: Z_{256+16k} is biased toward 32k for 1 <= k <= 7.
func SingleByteKeyLengthBias(k int) (pos int, value byte) {
	return 256 + 16*k, byte(32 * k)
}

// LongTermZeroPair is Sen Gupta's Pr[(Z_{256w}, Z_{256w+2}) = (0,0)] =
// 2^-16 (1 + 2^-8), and LongTerm128Pair the paper's new eq. 8 companion
// bias toward (128, 0) at the same positions.
var (
	LongTermZeroPair = exp2p(-16, +1, -8)
	LongTerm128Pair  = exp2p(-16, +1, -8)
)
