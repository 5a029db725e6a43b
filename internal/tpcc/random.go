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

// fill draws n characters of set into a row's text field, cut to the field's
// width and NUL-padded as setText stores text, and returns n.  The generators
// below write with it and draw the same numbers whatever the field's width.
func (r *rng) fill(field []byte, n int, set string) int {
	for i := range n {
		if c := set[r.Intn(len(set))]; i < len(field) {
			field[i] = c
		}
	}
	clear(field[min(n, len(field)):])
	return n
}

// aText writes a pseudo-random alphanumeric string with a length in [lo, hi]
// and returns that length.
func (r *rng) aText(field []byte, lo, hi int) int {
	return r.fill(field, r.uniform(lo, hi), "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789")
}

// nText writes a pseudo-random numeric string of exactly n digits.
func (r *rng) nText(field []byte, n int) { r.fill(field, n, "0123456789") }

// zipText writes a TPC-C zip code: four random digits and "11111".
func (r *rng) zipText(field []byte) {
	r.nText(field, 4)
	copy(field[min(4, len(field)):], "11111")
}

// dataText writes the S_DATA/I_DATA field; 10 % of them contain the string
// "ORIGINAL".
func (r *rng) dataText(field []byte) {
	n := r.aText(field, 26, 50)
	if r.Intn(10) == 0 {
		copy(field[min(r.Intn(n-8), len(field)):], "ORIGINAL")
	}
}
