package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// The oracle is the path POST /rank took before RankDecoder: a strict
// encoding/json decode into RankRequest, then toRequest. Production
// code no longer runs it; the tests hold the decoder to it.

func oracleDecode(cfg model.Config, body []byte) (model.Request, error) {
	var rr RankRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rr); err != nil {
		return model.Request{}, err
	}
	return rr.toRequest(cfg)
}

// toRequest validates the JSON payload against the model config and
// builds a model.Request.
func (rr RankRequest) toRequest(cfg model.Config) (model.Request, error) {
	batch := 0
	if cfg.DenseIn > 0 {
		if len(rr.Dense) == 0 {
			return model.Request{}, errors.New("engine: model requires dense features")
		}
		batch = len(rr.Dense)
		for i, row := range rr.Dense {
			if len(row) != cfg.DenseIn {
				return model.Request{}, fmt.Errorf("engine: dense row %d has %d features, want %d", i, len(row), cfg.DenseIn)
			}
		}
	} else if len(rr.SparseIDs) > 0 && len(cfg.Tables) > 0 {
		if rr.SparseIDs[0] == nil || len(rr.SparseIDs[0])%cfg.Tables[0].Lookups != 0 {
			return model.Request{}, errors.New("engine: cannot infer batch from sparse IDs")
		}
		batch = len(rr.SparseIDs[0]) / cfg.Tables[0].Lookups
	}
	if batch <= 0 {
		return model.Request{}, errors.New("engine: empty request")
	}
	if len(rr.SparseIDs) != len(cfg.Tables) {
		return model.Request{}, fmt.Errorf("engine: %d sparse inputs, want %d", len(rr.SparseIDs), len(cfg.Tables))
	}
	req := model.Request{Batch: batch}
	if cfg.DenseIn > 0 {
		req.Dense = tensor.New(batch, cfg.DenseIn)
		for i, row := range rr.Dense {
			copy(req.Dense.Row(i), row)
		}
	}
	req.SparseIDs = rr.SparseIDs
	if err := model.ValidateRequest(cfg, req); err != nil {
		return model.Request{}, err
	}
	return req, nil
}

// decodeRequest is what the server does with a body: RankDecoder, the
// tensor wrap of the handler's ingest, then the admission validator.
func decodeRequest(d *RankDecoder, cfg model.Config, body []byte) (model.Request, error) {
	batch, dense, sparse, err := d.Decode(cfg, body)
	if err != nil {
		return model.Request{}, err
	}
	req := model.Request{Batch: batch, SparseIDs: sparse}
	if cfg.DenseIn > 0 {
		req.Dense = tensor.FromSlice(dense, batch, cfg.DenseIn)
	}
	return req, model.ValidateRequest(cfg, req)
}

// sameRequest reports whether two requests are equal bit for bit
// (float32 bits, so -0 ≠ +0 and a NaN equals itself).
func sameRequest(a, b model.Request) error {
	if a.Batch != b.Batch {
		return fmt.Errorf("batch %d vs %d", a.Batch, b.Batch)
	}
	if (a.Dense == nil) != (b.Dense == nil) {
		return fmt.Errorf("dense presence %v vs %v", a.Dense != nil, b.Dense != nil)
	}
	if a.Dense != nil {
		ad, bd := a.Dense.Data(), b.Dense.Data()
		if len(ad) != len(bd) {
			return fmt.Errorf("dense length %d vs %d", len(ad), len(bd))
		}
		for i := range ad {
			if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
				return fmt.Errorf("dense[%d] %x vs %x", i, math.Float32bits(ad[i]), math.Float32bits(bd[i]))
			}
		}
	}
	if len(a.SparseIDs) != len(b.SparseIDs) {
		return fmt.Errorf("%d tables vs %d", len(a.SparseIDs), len(b.SparseIDs))
	}
	for t := range a.SparseIDs {
		if len(a.SparseIDs[t]) != len(b.SparseIDs[t]) {
			return fmt.Errorf("table %d: %d IDs vs %d", t, len(a.SparseIDs[t]), len(b.SparseIDs[t]))
		}
		for i := range a.SparseIDs[t] {
			if a.SparseIDs[t][i] != b.SparseIDs[t][i] {
				return fmt.Errorf("table %d ID %d: %d vs %d", t, i, a.SparseIDs[t][i], b.SparseIDs[t][i])
			}
		}
	}
	return nil
}

// divergence names the documented class (DESIGN.md "HTTP ingest") that
// explains why RankDecoder refuses a body encoding/json accepted, or ""
// when none does. body must be one the oracle accepted: then its only
// strings are the top-level keys.
func divergence(body []byte) string {
	dec := json.NewDecoder(bytes.NewReader(body))
	seen := map[string]bool{}
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' || v == '[' {
				depth++
			} else {
				depth--
			}
		case string:
			if v != "dense" && v != "sparse_ids" {
				return "key not in exact case"
			}
			if seen[v] {
				return "duplicate key"
			}
			seen[v] = true
		}
		if depth == 0 {
			break
		}
	}
	object, rest := body[:dec.InputOffset()], body[dec.InputOffset():]
	if bytes.IndexByte(object, '\\') >= 0 {
		return "escaped key"
	}
	if len(bytes.TrimLeft(rest, " \t\r\n")) > 0 {
		return "data after the object"
	}
	return ""
}

var (
	fuzzDense = model.Config{
		Name:    "dense",
		DenseIn: 2,
		Tables:  []model.TableSpec{{Rows: 8, Dim: 4, Lookups: 2}},
	}
	fuzzSparse = model.Config{
		Name: "sparse",
		Tables: []model.TableSpec{
			{Rows: 8, Dim: 4, Lookups: 2},
			{Rows: 4, Dim: 4, Lookups: 1},
		},
	}
)

// checkAgainstOracle is the differential contract, shared by the table
// test and the fuzzer: what the decoder accepts the oracle accepts with
// the same bits, and what only the oracle accepts falls in a documented
// divergence class.
func checkAgainstOracle(t *testing.T, d *RankDecoder, cfg model.Config, body []byte) (accepted bool) {
	t.Helper()
	got, err := decodeRequest(d, cfg, body)
	want, oerr := oracleDecode(cfg, body)
	switch {
	case err == nil && oerr != nil:
		t.Fatalf("%s: decoder accepted what encoding/json refuses (%v)\nbody: %q", cfg.Name, oerr, body)
	case err == nil:
		if diff := sameRequest(got, want); diff != nil {
			t.Fatalf("%s: decoder and encoding/json disagree: %v\nbody: %q", cfg.Name, diff, body)
		}
	case oerr == nil:
		if divergence(body) == "" {
			t.Fatalf("%s: decoder refused (%v) what encoding/json accepts, outside every documented class\nbody: %q", cfg.Name, err, body)
		}
	}
	if err != nil && !errors.Is(err, ErrBadRequest) {
		t.Fatalf("%s: refusal does not wrap ErrBadRequest: %v", cfg.Name, err)
	}
	return err == nil
}

// decodeSeeds are bodies worth pinning by hand; the fuzzer starts from
// them too. ok is the decoder's verdict on fuzzDense and fuzzSparse.
var decodeSeeds = []struct {
	body          string
	dense, sparse bool
}{
	{`{"dense": [[1, 2]], "sparse_ids": [[0, 7]]}`, true, false},
	{`{"sparse_ids": [[0, 1, 2, 3], [3, 0]]}`, false, true},
	{`{"sparse_ids":[[0,7]],"dense":[[1,2]]}`, true, false}, // members in either order
	{`{"dense": [[1]], "sparse_ids": [[0, 8]]}`, false, false},
	{`{"dense": [[1,2,3]], "sparse_ids": [[0, 7]]}`, false, false}, // row wider than DenseIn
	{`{"dense": [[1,2],[3]], "sparse_ids": [[0,7,1,2]]}`, false, false},
	{`{"dense": [], "sparse_ids": []}`, false, false},
	{`{"sparse_ids": [[-1, 0]]}`, false, false},
	{`{"sparse_ids": [[0, 8]]}`, false, false}, // ID out of range
	{`{"unknown": 1}`, false, false},
	{`not json`, false, false},
	{``, false, false},
	{`null`, false, false},
	{`[]`, false, false},
	{`{}`, false, false},
	// Numbers: exponents, signed zero, subnormals, float32 overflow.
	{`{"dense": [[1e3, -1E-3]], "sparse_ids": [[0, 0]]}`, true, false},
	{`{"dense": [[1.5e+2, 0e0]], "sparse_ids": [[0, 0]]}`, true, false},
	{`{"dense": [[-0, -0.0]], "sparse_ids": [[0, 0]]}`, true, false},
	{`{"dense": [[1e-45, 1e-46]], "sparse_ids": [[0, 0]]}`, true, false},
	{`{"dense": [[3.4028235e38, -3.4028235e38]], "sparse_ids": [[0, 0]]}`, true, false},
	{`{"dense": [[3.4028236e38, 0]], "sparse_ids": [[0, 0]]}`, false, false},
	{`{"dense": [[1e308, -1e308]], "sparse_ids": [[0, 0]]}`, false, false},
	{`{"dense": [[1e999, 0]], "sparse_ids": [[0, 0]]}`, false, false},
	{`{"dense": [[0.1234567890123456789012345678901234567890, 16777217]], "sparse_ids": [[0, 0]]}`, true, false},
	{`{"dense": [[01, 2]], "sparse_ids": [[0, 0]]}`, false, false}, // leading zero
	{`{"dense": [[1., 2]], "sparse_ids": [[0, 0]]}`, false, false},
	{`{"dense": [[.5, 2]], "sparse_ids": [[0, 0]]}`, false, false},
	{`{"dense": [[+1, 2]], "sparse_ids": [[0, 0]]}`, false, false},
	{`{"dense": [[1e, 2]], "sparse_ids": [[0, 0]]}`, false, false},
	{`{"dense": [[-, 2]], "sparse_ids": [[0, 0]]}`, false, false},
	{`{"dense": [[0x10, 2]], "sparse_ids": [[0, 0]]}`, false, false},
	{`{"dense": [[NaN, Infinity]], "sparse_ids": [[0, 0]]}`, false, false},
	{`{"dense": [["1", 2]], "sparse_ids": [[0, 0]]}`, false, false},
	{`{"dense": [[true, 2]], "sparse_ids": [[0, 0]]}`, false, false},
	// Integers: no fractions or exponents, exact base 10, overflow.
	{`{"dense": [[1, 2]], "sparse_ids": [[1.0, 0]]}`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[1e0, 0]]}`, false, false},
	{`{"sparse_ids": [[1e3, 0], [0]]}`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[-0, 07]]}`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[-0, 7]]}`, true, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[9223372036854775807, 0]]}`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[9223372036854775808, 0]]}`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[-9223372036854775808, 0]]}`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[99999999999999999999999, 0]]}`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[9999999999999999999, 0]]}`, false, false},  // 19 digits, past MaxInt64
	{`{"dense": [[1, 2]], "sparse_ids": [[18446744073709551616, 0]]}`, false, false}, // 2^64: wraps a uint64 to 0
	{`{"dense": [[1, 2]], "sparse_ids": [[18446744073709551623, 0]]}`, false, false}, // wraps to 7
	{`{"dense": [[1, 2]], "sparse_ids": [[-18446744073709551617, 0]]}`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[184467440737095516167, 0]]}`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[99999999999999999999999.5, 0]]}`, false, false},
	// Compact ID lists long enough for idRun, and each shape inside one
	// that it hands back to the scalar step.
	{`{"sparse_ids":[[0,1,2,3,4,5,6,7,7,6,5,4,3,2,1,0],[3,2,1,0,0,1,2,3]]}`, false, true},
	{`{"dense":[[1,2],[3,4],[5,6],[7,8]],"sparse_ids":[[7,6,5,4,3,2,1,0]]}`, true, false},
	{`{"sparse_ids":[[9999999,10000000,1234567,12345678],[0,1]]}`, false, false},
	{`{"sparse_ids":[[0,1,2,3,4,5,6,07],[0,1,2,3]]}`, false, false},
	{`{"sparse_ids":[[0,1,2,3, 4,5,6,7],[0,1,2,3]]}`, false, true},
	{`{"sparse_ids":[[0,1,2,3 ,4,5,6,7],[0,1,2,3]]}`, false, true},
	{`{"sparse_ids":[[0,1,2,null,4,5,6,7],[0,1,2,3]]}`, false, true},
	{`{"sparse_ids":[[0,1,2,-3,4,5,6,7],[0,1,2,3]]}`, false, false},
	{`{"sparse_ids":[[0,1,2,-0,4,5,6,7],[0,1,2,3]]}`, false, true},
	{`{"sparse_ids":[[0,1,2,3.0,4,5,6,7],[0,1,2,3]]}`, false, false},
	{`{"sparse_ids":[[0,1,2,3e0,4,5,6,7],[0,1,2,3]]}`, false, false},
	{`{"sparse_ids":[[0,1,2,3E0,4,5,6,7],[0,1,2,3]]}`, false, false},
	{`{"sparse_ids":[[0,1,2,3:4,5,6,7],[0,1,2,3]]}`, false, false},
	{`{"sparse_ids":[[0,1,2,3/4,5,6,7],[0,1,2,3]]}`, false, false},
	{"{\"sparse_ids\":[[0,1,2,3\x80,4,5,6,7],[0,1,2,3]]}", false, false},
	{`{"sparse_ids":[[0,1,2,3,4,5,6,7,],[0,1,2,3]]}`, false, false},
	{`{"sparse_ids":[[0,1,2,3,4,5,6,7],[0,1,2,3]]}      `, false, true},
	// null where encoding/json takes it: a member, a row, an element.
	{`{"dense": null, "sparse_ids": [[0, 1], [3]]}`, false, true},
	{`{"dense": [[1, 2]], "sparse_ids": null}`, false, false},
	{`{"dense": [null], "sparse_ids": [[0, 1]]}`, false, false},
	{`{"dense": [[null, 2]], "sparse_ids": [[null, 1]]}`, true, false},
	{`{"sparse_ids": [null, [3]]}`, false, false},
	{`{"sparse_ids": [[0, 1], null]}`, false, false},
	{`{"dense": [[1, nul]], "sparse_ids": [[0, 1]]}`, false, false},
	// A model without a dense path ignores well-formed dense rows.
	{`{"dense": [[1, 2, 3], []], "sparse_ids": [[0, 1], [3]]}`, false, true},
	{`{"dense": [[1e999]], "sparse_ids": [[0, 1], [3]]}`, false, false},
	// Too many tables, too few.
	{`{"sparse_ids": [[0, 1], [3], [0]]}`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[0, 1], [3]]}`, false, true},
	{`{"sparse_ids": [[0, 1]]}`, false, false},
	{`{"sparse_ids": [[0, 1, 2], [3]]}`, false, false},
	// Whitespace in every position; only JSON's four bytes count.
	{" \t\r\n{ \"dense\" \n:\t[ [ 1 , 2 ] ] ,\r\"sparse_ids\" : [ [ 0 , 7 ] ] } \n", true, false},
	{"{\"dense\":[[1,2]],\"sparse_ids\":[[0,\v7]]}", false, false},
	{"\ufeff{\"dense\":[[1,2]],\"sparse_ids\":[[0,7]]}", false, false},
	// Structure.
	{`{"dense": [[1, 2]], "sparse_ids": [[0, 7]],}`, false, false},
	{`{"dense": [[1, 2],], "sparse_ids": [[0, 7]]}`, false, false},
	{`{"dense": [[1, 2,]], "sparse_ids": [[0, 7]]}`, false, false},
	{`{"dense": [[1, 2]] "sparse_ids": [[0, 7]]}`, false, false},
	{`{"dense": [[1 2]], "sparse_ids": [[0, 7]]}`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[0, 7]]`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[0, 7]`, false, false},
	{`{"dense": [[[1, 2]]], "sparse_ids": [[0, 7]]}`, false, false},
	{`{"dense": [1, 2], "sparse_ids": [[0, 7]]}`, false, false},
	{`{"dense": {"0": [1, 2]}, "sparse_ids": [[0, 7]]}`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [0, 7]}`, false, false},
	{`{"dense" [[1, 2]], "sparse_ids": [[0, 7]]}`, false, false},
	{`{dense: [[1, 2]], "sparse_ids": [[0, 7]]}`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[0, 7]], "": 0}`, false, false},
	// The documented divergences: encoding/json takes all of these.
	{`{"Dense": [[1, 2]], "SPARSE_IDS": [[0, 7]]}`, false, false},
	{`{"dense": [[1, 2]], "ſparſe_idſ": [[0, 7]]}`, false, false},
	{`{"d\u0065nse": [[1, 2]], "sparse_ids": [[0, 7]]}`, false, false},
	{`{"dense": [[9, 9]], "dense": [[1, 2]], "sparse_ids": [[0, 7]]}`, false, false},
	{`{"sparse_ids": [[3, 3]], "dense": [[1, 2]], "sparse_ids": [[0, 7]]}`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[0, 7]]} x`, false, false},
	{`{"dense": [[1, 2]], "sparse_ids": [[0, 7]]}{"dense": [[1, 2]], "sparse_ids": [[0, 7]]}`, false, false},
	{"{\"dense\": [[1, 2]], \"sparse_ids\": [[0, 7]]}\x00", false, false},
}

// TestDecodeAgainstOracle pins the decoder's verdict on every seed and
// holds each to the differential contract.
func TestDecodeAgainstOracle(t *testing.T) {
	var d RankDecoder
	for _, seed := range decodeSeeds {
		body := []byte(seed.body)
		if got := checkAgainstOracle(t, &d, fuzzDense, body); got != seed.dense {
			t.Errorf("dense model: accepted=%v, want %v\nbody: %q", got, seed.dense, body)
		}
		if got := checkAgainstOracle(t, &d, fuzzSparse, body); got != seed.sparse {
			t.Errorf("sparse model: accepted=%v, want %v\nbody: %q", got, seed.sparse, body)
		}
	}
}

// TestDecodeDivergenceClasses: each documented class is real (the
// oracle accepts, the decoder refuses) and the classifier names it.
func TestDecodeDivergenceClasses(t *testing.T) {
	cases := map[string]string{
		`{"Dense": [[1, 2]], "sparse_ids": [[0, 7]]}`:                    "key not in exact case",
		`{"d\u0065nse": [[1, 2]], "sparse_ids": [[0, 7]]}`:               "escaped key",
		`{"dense": [[9, 9]], "dense": [[1, 2]], "sparse_ids": [[0, 7]]}`: "duplicate key",
		`{"dense": [[1, 2]], "sparse_ids": [[0, 7]]} trailing`:           "data after the object",
	}
	var d RankDecoder
	for body, class := range cases {
		if _, err := oracleDecode(fuzzDense, []byte(body)); err != nil {
			t.Errorf("oracle refuses %q: %v", body, err)
		}
		if _, err := decodeRequest(&d, fuzzDense, []byte(body)); err == nil {
			t.Errorf("decoder accepts %q", body)
		}
		if got := divergence([]byte(body)); got != class {
			t.Errorf("divergence(%q) = %q, want %q", body, got, class)
		}
	}
}

// TestDecodeRandomRequests round-trips marshalled requests of real
// model shapes through the decoder, bit for bit, reusing one decoder so
// a stale buffer from a larger request would show.
func TestDecodeRandomRequests(t *testing.T) {
	var d RankDecoder
	rng := stats.NewRNG(9)
	for _, cfg := range []model.Config{
		model.RMC1Small().Scaled(500), model.RMC3Small().Scaled(500), fuzzSparse,
	} {
		for _, batch := range []int{5, 1, 3} {
			req := model.NewRandomRequest(cfg, batch, rng)
			body := marshalRequest(t, req)
			got, err := decodeRequest(&d, cfg, body)
			if err != nil {
				t.Fatalf("%s batch %d: %v", cfg.Name, batch, err)
			}
			if diff := sameRequest(got, req); diff != nil {
				t.Fatalf("%s batch %d: %v", cfg.Name, batch, diff)
			}
		}
	}
}

// marshalRequest is the client side: RankRequest through encoding/json.
func marshalRequest(t testing.TB, req model.Request) []byte {
	t.Helper()
	rr := RankRequest{SparseIDs: req.SparseIDs}
	if req.Dense != nil {
		for b := 0; b < req.Batch; b++ {
			rr.Dense = append(rr.Dense, req.Dense.Row(b))
		}
	}
	body, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDecodeHostileBodies: bodies built to exhaust a parser fail fast.
// Ten megabytes of '[' neither recurse nor buffer, and a body cannot
// grow the decoder's buffers past the row width or table count the
// model admits.
func TestDecodeHostileBodies(t *testing.T) {
	var d RankDecoder
	for name, body := range map[string][]byte{
		"brackets":        bytes.Repeat([]byte("["), 10<<20),
		"nested in dense": append([]byte(`{"dense":`), bytes.Repeat([]byte("["), 10<<20)...),
		"wide row":        []byte(`{"dense":[[` + strings.Repeat("1,", 5<<20) + `1]]}`),
		"many tables":     []byte(`{"sparse_ids":[` + strings.Repeat("[0],", 2<<20) + `[0]]}`),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := d.Decode(fuzzDense, body)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: %v, want ErrBadRequest", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: refusing a %d-byte body allocated %d bytes", name, len(body), grew)
		}
		if cap(d.dense) > 64 || cap(d.ids) > 64 {
			t.Errorf("%s: decoder buffers grew to %d floats, %d IDs", name, cap(d.dense), cap(d.ids))
		}
	}
}

// TestDecodeHostileLongNumbers: 8 MiB of 40-digit numbers, every one
// off the exact path and through strconv's, decodes in bounded time.
// (Apart from TestDecodeHostileBodies because this body is accepted.)
func TestDecodeHostileLongNumbers(t *testing.T) {
	const row = "[0.1234567890123456789012345678901234567890,-12345678901234567890123456789012345678.90]"
	rows := maxBodyBytes/(len(row)+1) - 1
	body := []byte(`{"dense":[` + strings.Repeat(row+",", rows-1) + row + `]}`)
	var d RankDecoder
	start := time.Now()
	batch, dense, _, err := d.Decode(fuzzDense, body)
	took := time.Since(start)
	if err != nil || batch != rows || len(dense) != 2*rows {
		t.Fatalf("batch %d, %d floats, %v; want %d rows", batch, len(dense), err, rows)
	}
	if dense[0] != 0.12345679 || dense[2*rows-1] != -1.2345678e37 {
		t.Errorf("dense[0] = %v, dense[last] = %v", dense[0], dense[2*rows-1])
	}
	// ≈200 k numbers at a few hundred ns each; the limit is 50× that.
	if limit := 5 * time.Second; took > limit {
		t.Errorf("decoding a %d-byte body of 40-digit numbers took %v, want under %v", len(body), took, limit)
	}
}

// TestDecodeNoAllocs is the inline twin of the bench gate's
// http_decode_* cases: a warm decoder parses without allocating.
func TestDecodeNoAllocs(t *testing.T) {
	var d RankDecoder
	for _, cfg := range []model.Config{model.RMC3Small().Scaled(500), model.RMC2Small().Scaled(500)} {
		body := marshalRequest(t, model.NewRandomRequest(cfg, 4, stats.NewRNG(5)))
		decode := func() {
			if _, _, _, err := d.Decode(cfg, body); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		if allocs := testing.AllocsPerRun(20, decode); allocs != 0 {
			t.Errorf("%s: Decode allocates %.1f/op, want 0", cfg.Name, allocs)
		}
	}
}

func benchmarkDecode(b *testing.B, cfg model.Config, batch int, decode func(model.Config, []byte) error) {
	body := marshalRequest(b, model.NewRandomRequest(cfg, batch, stats.NewRNG(5)))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := decode(cfg, body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode compares the decoder with the encoding/json path it
// replaced on the system benchmark's two body shapes.
func BenchmarkDecode(b *testing.B) {
	var d RankDecoder
	scan := func(cfg model.Config, body []byte) error { _, _, _, err := d.Decode(cfg, body); return err }
	oracle := func(cfg model.Config, body []byte) error { _, err := oracleDecode(cfg, body); return err }
	rmc3, rmc2 := model.RMC3Small().Scaled(10), model.RMC2Small().Scaled(10)
	b.Run("rmc3_b16/scanner", func(b *testing.B) { benchmarkDecode(b, rmc3, 16, scan) })
	b.Run("rmc3_b16/encoding_json", func(b *testing.B) { benchmarkDecode(b, rmc3, 16, oracle) })
	b.Run("rmc2_b4/scanner", func(b *testing.B) { benchmarkDecode(b, rmc2, 4, scan) })
	b.Run("rmc2_b4/encoding_json", func(b *testing.B) { benchmarkDecode(b, rmc2, 4, oracle) })
}
