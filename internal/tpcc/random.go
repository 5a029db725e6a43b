package tpcc

import "noftl/internal/sim"

// TPC-C random-input helpers (clause 2.1.6 of the specification): the
// non-uniform NURand distribution for customer and item selection, the
// syllable-based last-name generator and assorted string helpers.

const (
	cForCLast = 157 // the spec's run-time constant C for C_LAST
	cForCID   = 987
	cForOLIID = 5987
)

// rng wraps the deterministic generator with TPC-C helpers.
type rng struct {
	*sim.Rand
}

func newRNG(seed uint64) *rng { return &rng{sim.NewRand(seed)} }

// uniform returns a uniformly distributed value in [lo, hi].
func (r *rng) uniform(lo, hi int) int { return r.IntRange(lo, hi) }

// nuRand is the TPC-C non-uniform random function NURand(A, x, y).
func (r *rng) nuRand(a, c, x, y int) int {
	return (((r.uniform(0, a) | r.uniform(x, y)) + c) % (y - x + 1)) + x
}

// customerID draws a customer id in [1, customers].
func (r *rng) customerID(customers int) int {
	if customers <= 1 {
		return 1
	}
	a := 1023
	if customers <= 1024 {
		a = customers/2*2 - 1
		if a < 1 {
			a = 1
		}
	}
	return r.nuRand(a, cForCID, 1, customers)
}

// itemID draws an item id in [1, items] with the spec's skew.
func (r *rng) itemID(items int) int {
	if items <= 1 {
		return 1
	}
	a := 8191
	if items <= 8192 {
		a = items/2*2 - 1
		if a < 1 {
			a = 1
		}
	}
	return r.nuRand(a, cForOLIID, 1, items)
}

// lastNameSyllables are the ten syllables of clause 4.3.2.3.
var lastNameSyllables = []string{
	"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
}

// lastNames are the customer last names of the numbers 0 to 999, built once.
var lastNames = func() (names [1000]string) {
	for n := range names {
		names[n] = lastNameSyllables[n/100] + lastNameSyllables[n/10%10] + lastNameSyllables[n%10]
	}
	return names
}()

// lastName returns the customer last name for a number in [0, 999].
func lastName(num int) string { return lastNames[num%1000] }

// lastNameRun draws the last-name number used at run time (NURand 255).
func (r *rng) lastNameRun(customers int) string {
	limit := 999
	if customers < 1000 {
		limit = customers - 1
		if limit < 0 {
			limit = 0
		}
	}
	n := r.nuRand(255, cForCLast, 0, limit)
	return lastName(n)
}

// aString returns a pseudo-random alphanumeric string with a length in
// [lo, hi].
func (r *rng) aString(lo, hi int) string {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	n := r.uniform(lo, hi)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// nString returns a pseudo-random numeric string of exactly n digits.
func (r *rng) nString(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + r.Intn(10))
	}
	return string(b)
}

// zip returns a TPC-C zip code.
func (r *rng) zip() string { return r.nString(4) + "11111" }

// dataString returns the S_DATA/I_DATA field; 10 % of them contain the
// string "ORIGINAL".
func (r *rng) dataString() string {
	s := r.aString(26, 50)
	if r.Intn(10) == 0 {
		pos := r.Intn(len(s) - 8)
		s = s[:pos] + "ORIGINAL" + s[pos+8:]
	}
	return s
}
