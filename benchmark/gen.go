package main

import (
	"encoding/binary"
	"math"
	"sort"

	"kvcsd/internal/sim"
)

// Input generators. Everything the program under test receives is a pure
// function of (seed, index, version), so any value read back can be checked
// by regenerating it instead of remembering it.

const (
	keyBytes = 16
	// energyOff is where synthetic values carry their float32 secondary-index
	// attribute (Exp(1)-distributed, like the VPIC energy field).
	energyOff = 0
)

// deviceSeed seeds every modelled device's own randomness (the random stripe
// offset of each zone cluster). It is a constant: the run's seed chooses the
// inputs, not the hardware. One draw of those offsets moves a workload's
// virtual latencies by up to 17 %, so letting it vary with the seed would
// bury every difference the benchmark is meant to show.
const deviceSeed = 1

// jitter shrinks a nominal input size by up to 1/64, as a function of the
// seed and a salt. Real inputs are never all the same size, and with sizes
// that vary a little no size-determined virtual time is the same for every
// seed.
func jitter(seed int64, salt, n int) int {
	return n - int(mix64(uint64(seed)*0x9E3779B1+uint64(salt))%uint64(n/64+1))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// keyPrefix is the first eight bytes of item i's key, big-endian.
func keyPrefix(seed int64, i int) uint64 { return mix64(uint64(seed)<<32 ^ uint64(i)) }

// genKey builds the 16-byte key of item i: a mixed 8-byte prefix (so range
// sharding by big-endian prefix spreads items over every shard and insertion
// order is not key order) followed by the index itself (so keys are unique).
func genKey(seed int64, i int) []byte {
	k := make([]byte, keyBytes)
	fillKey(k, seed, i)
	return k
}

// fillKey writes item i's key into k, for callers that reuse one buffer.
func fillKey(k []byte, seed int64, i int) {
	binary.BigEndian.PutUint64(k, keyPrefix(seed, i))
	binary.BigEndian.PutUint64(k[8:], uint64(i))
}

// genEnergy is item i's secondary attribute: Exp(1), so a selectivity s maps
// to the threshold -ln(s) exactly as in internal/vpic.
func genEnergy(seed int64, i int) float32 {
	u := float64(mix64(uint64(seed)*0x51AFD7ED558CCD+uint64(i))>>11) / (1 << 53)
	return float32(-math.Log(1 - u))
}

// genValue builds version ver of item i's value: the energy attribute, then
// n-4 bytes of hash output.
func genValue(seed int64, i, ver, n int) []byte {
	v := make([]byte, n)
	fillValue(v, seed, i, ver)
	return v
}

// fillValue writes version ver of item i's value over all of v.
func fillValue(v []byte, seed int64, i, ver int) {
	binary.LittleEndian.PutUint32(v[energyOff:], math.Float32bits(genEnergy(seed, i)))
	x := mix64(uint64(seed)) ^ uint64(i)<<20 ^ uint64(ver)
	for off := 4; off < len(v); off += 8 {
		x = mix64(x)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(v[off:], w[:])
	}
}

// sortedIndex returns item indices 0..n-1 ordered by key, the ground truth
// range scans are checked against.
func sortedIndex(seed int64, n int) []int {
	idx := make([]int, n)
	pre := make([]uint64, n)
	for i := range idx {
		idx[i] = i
		pre[i] = keyPrefix(seed, i)
	}
	sort.Slice(idx, func(a, b int) bool {
		if pre[idx[a]] != pre[idx[b]] {
			return pre[idx[a]] < pre[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

// zipf draws ranks 0..n-1 with P(rank) ∝ 1/(rank+1)^theta (Gray et al.'s
// generator, the one YCSB uses); rank r maps to item mix64(r) % n so hot items
// are scattered over the key space and therefore over index blocks.
type zipf struct {
	n                 int
	theta, alpha, eta float64
	zetan             float64
	rng               *sim.RNG
}

func newZipf(rng *sim.RNG, n int, theta float64) *zipf {
	z := &zipf{n: n, theta: theta, rng: rng}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func (z *zipf) next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return int(mix64(uint64(rank)) % uint64(z.n))
}
