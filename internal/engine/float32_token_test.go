package engine

import (
	"errors"
	"math"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The float path's oracle is strconv.ParseFloat(tok, 32) behind JSON's
// number grammar: what bodyScanner.float32 did in two scans before it
// converted most tokens itself.

var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// scanFloat32Token runs the scanner's float path over tok alone. ok
// means it took the whole token as one number; slow that the value came
// from strconv.ParseFloat rather than the exact fast path.
func scanFloat32Token(tok []byte) (v float32, ok, slow bool, err error) {
	s := bodyScanner{b: tok}
	v, err = s.float32()
	return v, err == nil && s.i == len(tok), s.slow > 0, err
}

// checkFloat32Token is the differential contract of the float path: the
// scanner takes tok exactly when it is a JSON number in float32's range,
// with the 32 bits ParseFloat gives it, and refuses a number out of
// range with the message it always had.
func checkFloat32Token(t testing.TB, tok string) (ok, slow bool) {
	t.Helper()
	got, ok, slow, err := scanFloat32Token([]byte(tok))
	want, perr := strconv.ParseFloat(tok, 32)
	grammar := jsonNumber.MatchString(tok)
	if ok != (grammar && perr == nil) {
		t.Fatalf("%q: scanner took it: %v (%v); JSON number: %v, ParseFloat: %v", tok, ok, err, grammar, perr)
	}
	if ok && math.Float32bits(got) != math.Float32bits(float32(want)) {
		t.Fatalf("%q: scanner %08x (slow path: %v), ParseFloat %08x", tok, math.Float32bits(got), slow, math.Float32bits(float32(want)))
	}
	if err != nil && !errors.Is(err, ErrBadRequest) {
		t.Fatalf("%q: refusal does not wrap ErrBadRequest: %v", tok, err)
	}
	if grammar && perr != nil && !strings.HasSuffix(err.Error(), "request body offset 0: number overflows float32") {
		t.Fatalf("%q: out of range, refused with %q", tok, err)
	}
	return ok, slow
}

// float32TokenSeeds are the tokens where a hand-rolled conversion goes
// wrong first: signed zeros, saturating exponents, the edges of
// float32's range, and float32 rounding midpoints (the one place the
// fast path's second rounding could show) printed exactly and one
// float64 ulp to either side.
func float32TokenSeeds() []string {
	seeds := []string{
		"0", "-0", "-0.0", "0e0", "-0e-0", "0e400", "-0e400", "0.0e-400", "1e-400", "-1e-400", "1e400",
		"1", "-1.5", "0.1", "0.3", "123456.789", "1e22", "1e23", "1e-22", "1e-23", "9007199254740991e22",
		"9007199254740991", "9007199254740992", "9007199254740993", "1234567890123456", "12345678901234567890",
		"3.4028235e38", "3.4028236e38", "-3.4028236e38", "3.4028235677973366e38", "340282356779733661637539395458142568448",
		"1e38", "1e39", "1e308", "1e309",
		"1e-45", "1.4e-45", "7e-46", "7.1e-46", "1.1754942e-38", "1.1754944e-38", "1.17549435e-38", "5.877472e-39",
		"16777216", "16777217", "16777218", "16777219", "33554434", "8388608.5", "8388609.5", "4194304.25", "0.5000000298023224",
		"1.00000005960464477539", "1.000000059604644775390625", "1.0000000596046447753906250000000000001",
		"1e99999999999999999999", "1e-99999999999999999999", "-1E+99999999999999999999", "0e99999999999999999999",
		"1.5e220", "15e21", "1.5e22", "0.0000000000000000001e41", "10000000000000000000e-19", "1e0000000000000000000022",
		"0." + strings.Repeat("0", 30) + "1234567", "0." + strings.Repeat("0", 30) + "1e30",
		strings.Repeat("1234567890", 40), "0." + strings.Repeat("1234567890", 40), strings.Repeat("9", 400) + "e-400",
		"1" + strings.Repeat("0", 400) + "e-400", strings.Repeat("1234567890", 40) + "." + strings.Repeat("1234567890", 40) + "e-380",
		// Not numbers.
		"", "-", "+1", ".5", "1.", "01", "-01", "1e", "1e+", "1.e1", "1.5.5", "0x10", "1_000", "Inf", "NaN", "1e5x", "--1", "1f", "١",
	}
	for _, f := range []float32{1, 1.5, 3, 0.1, 1e-3, 123456.79, 8388608, 16777216, 1e10, 1e20, 6.5e-30, math.MaxFloat32 / 2} {
		mid := (float64(f) + float64(math.Nextafter32(f, float32(math.Inf(1))))) / 2
		for _, d := range []float64{math.Nextafter(mid, 0), mid, math.Nextafter(mid, math.Inf(1))} {
			seeds = append(seeds,
				strconv.FormatFloat(d, 'g', 15, 64), strconv.FormatFloat(d, 'g', 17, 64),
				strconv.FormatFloat(d, 'f', -1, 64), strconv.FormatFloat(-d, 'e', -1, 64))
		}
	}
	return seeds
}

// TestFloat32TokenPaths pins which tokens the exact path converts and
// which go to strconv, so a widened or narrowed gate shows as a test
// diff, and holds every seed to the contract.
func TestFloat32TokenPaths(t *testing.T) {
	for _, seed := range float32TokenSeeds() {
		checkFloat32Token(t, seed)
	}
	for tok, wantSlow := range map[string]bool{
		"0": false, "-0": false, "1": false, "-0.37268272": false, "1.2345678e-5": false, "0.0012345678": false,
		"1e22": false, "1e-22": false, "9007199254740991": false, "1234567.890123456e-3": false,
		"1e23": true, "1e-23": true, "9007199254740992": true, // off the exact-product range
		"16777217": true, "8388608.5": true, "4194304.25": true, // float32 midpoints
		"0e400": true, "1e-45": true, "3.4028235e38": true, "0.00000000000000000001": true,
	} {
		if ok, slow := checkFloat32Token(t, tok); !ok || slow != wantSlow {
			t.Errorf("%q: accepted %v on the slow path %v, want accepted on the slow path %v", tok, ok, slow, wantSlow)
		}
	}
}

// FuzzFloat32Token holds arbitrary tokens to checkFloat32Token. Leading
// whitespace and null are the caller's grammar (float32 steps over
// both), so tokens that start with either are left to
// FuzzRankRequestDecode.
func FuzzFloat32Token(f *testing.F) {
	for _, seed := range float32TokenSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		if strings.TrimLeft(tok, " \t\r\n") != tok || strings.HasPrefix(tok, "null") {
			t.Skip()
		}
		checkFloat32Token(t, tok)
	})
}

// TestFloat32BitPatternSweep formats float32 bit patterns the two ways
// a client can print them (shortest 'g', which is what encoding/json
// and most printers emit, and shortest 'f') and requires the scanner's
// bits to equal ParseFloat's. Tier-1 walks every 1021st pattern;
// FLOAT32_SWEEP_STRIDE=1 walks all 2^32 (EXPERIMENTS.md "Float parsing"
// records that run).
func TestFloat32BitPatternSweep(t *testing.T) {
	stride := uint64(1021)
	if raceEnabled || testing.Short() {
		stride *= 64
	}
	if env := os.Getenv("FLOAT32_SWEEP_STRIDE"); env != "" {
		var err error
		if stride, err = strconv.ParseUint(env, 10, 32); err != nil || stride == 0 {
			t.Fatalf("FLOAT32_SWEEP_STRIDE=%q: want a positive integer", env)
		}
	}
	var tokens, slow, mismatches atomic.Uint64
	workers := uint64(runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := uint64(0); w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			var nTok, nSlow uint64
			for bits := w * stride; bits < 1<<32; bits += workers * stride {
				f := math.Float32frombits(uint32(bits))
				if f != f || math.IsInf(float64(f), 0) {
					continue
				}
				for _, format := range []byte{'g', 'f'} {
					buf = strconv.AppendFloat(buf[:0], float64(f), format, -1, 32)
					got, ok, viaStrconv, err := scanFloat32Token(buf)
					want, perr := strconv.ParseFloat(string(buf), 32)
					if !ok || perr != nil || math.Float32bits(got) != math.Float32bits(float32(want)) || math.Float32bits(got) != uint32(bits) {
						if mismatches.Add(1) <= 10 {
							t.Errorf("%08x as %q: scanner %08x (ok %v, %v), ParseFloat %08x (%v)",
								bits, buf, math.Float32bits(got), ok, err, math.Float32bits(float32(want)), perr)
						}
					}
					nTok++
					if viaStrconv {
						nSlow++
					}
				}
			}
			tokens.Add(nTok)
			slow.Add(nSlow)
		}()
	}
	wg.Wait()
	n, s := tokens.Load(), slow.Load()
	t.Logf("stride %d: %d tokens, %d (%.3f%%) on the exact path, %d (%.3f%%) through strconv.ParseFloat, %d mismatches",
		stride, n, n-s, 100*float64(n-s)/float64(n), s, 100*float64(s)/float64(n), mismatches.Load())
}
