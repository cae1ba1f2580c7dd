package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"recsys/internal/model"
	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// scalarIDList is idList without idRun: every element through one
// s.int()/s.sep() step, the element loop as it was before the run
// existed. TestIDRunMatchesScalar holds idList to it.
func scalarIDList(s *bodyScanner, dst []int) ([]int, error) {
	for {
		id, err := s.int()
		if err != nil {
			return dst, err
		}
		dst = append(dst, id)
		switch s.sep() {
		case ']':
			return dst, nil
		case 0:
			return dst, s.fail("sparse_ids: want ',' or ']'")
		}
	}
}

// idRunElements are the list elements the differential test places at
// every distance from the end of a body: what the run takes, and each
// shape it must hand back to the scalar step.
func idRunElements() []string {
	elems := []string{
		"0", "7", "10", "99", "100", "4096", "65535", "123456", "999999",
		"1000000", "9999999", // 7 digits: the longest the run takes
		"10000000", "12345678", "99999999", "123456789", "9223372036854775807",
		"9223372036854775808", "18446744073709551623", // overflow
		"00", "01", "007", "0000000", "00000000", // leading zeros
		"-1", "-0", "-", "-1234567", "--1",
		"null", "nul", "nullx", "n",
		" 5", "5 ", "\t5", "5\n", "\r5", " ", "",
		".5", "5.", "5.0", "1234567.0", "5e1", "5E1", "1e", "1234567e1", "5e+1",
		"+1", "0x10", "true", "\"1\"", "[1]", "5]", "5,",
	}
	// Every byte right after a digit run: '/' and ':' bound the digits
	// from below and above, and 0x80 up sets the byte's high bit.
	for c := 0; c < 256; c++ {
		elems = append(elems, "123"+string([]byte{byte(c)}), "1234567"+string([]byte{byte(c)})+"8")
	}
	return elems
}

// TestIDRunMatchesScalar: idList, run and all, takes exactly what the
// scalar element loop takes from every list, with the same IDs, the
// same error text and the same offset. Each element is placed so that
// it ends at every offset from len(b)-9 to len(b), after a run of
// elements the fast path takes and before more of them.
func TestIDRunMatchesScalar(t *testing.T) {
	const runs = "1,22,333,4444,55555,666666,7777777,"
	var got, want []int
	for _, e := range idRunElements() {
		for _, prefix := range []string{"[", "[" + runs, "[0,"} {
			for _, tail := range []string{"]", ",", ",1]", "]]", ""} {
				for pad := 0; pad <= 10; pad++ {
					// tail then pad bytes of more elements (or of
					// nothing), so e ends anywhere near the end.
					more := strings.Repeat("1,", pad/2+1)[:pad]
					b := []byte(prefix + e + tail + more)
					ss := bodyScanner{b: b, i: 1}
					ws := bodyScanner{b: b, i: 1}
					var err, werr error
					got, err = ss.idList(got[:0])
					want, werr = scalarIDList(&ws, want[:0])
					if diff := sameIDList(got, want, err, werr, ss.i, ws.i); diff != "" {
						t.Fatalf("list %q: %s", b, diff)
					}
				}
			}
		}
	}
}

// sameIDList reports how two parses of one list differ, or "".
func sameIDList(got, want []int, err, werr error, at, wantAt int) string {
	if !slices.Equal(got, want) {
		return fmt.Sprintf("IDs %v, scalar %v", got, want)
	}
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		return fmt.Sprintf("error %v, scalar %v", err, werr)
	}
	if at != wantAt {
		return fmt.Sprintf("stopped at offset %d, scalar at %d", at, wantAt)
	}
	return ""
}

// TestIDRunPaths pins that the run carries a compact encoding/json
// body: every ID of an RMC2 and an RMC1 request is taken by idRun
// except those in the body's last 8 bytes, which are too few for one
// load. The timing gate could not see the fast path switched off; this
// does.
func TestIDRunPaths(t *testing.T) {
	for _, cfg := range []model.Config{model.RMC2Small().Scaled(10), model.RMC1Small().Scaled(10)} {
		req := model.NewRandomRequest(cfg, 4, stats.NewRNG(2))
		body := marshalRequest(t, req)
		const key = `"sparse_ids":[`
		i := bytes.Index(body, []byte(key)) + len(key)
		var ids, want []int
		for range req.SparseIDs {
			i++ // the list's '['
			for {
				var closed bool
				if ids, i, closed = idRun(body, i, ids); closed {
					break
				}
				if len(body)-i >= 8 {
					t.Fatalf("%s: the run stopped at offset %d, %d bytes before the end: %q",
						cfg.Name, i, len(body)-i, body[i:min(i+16, len(body))])
				}
				s := bodyScanner{b: body, i: i}
				id, err := s.int()
				if err != nil {
					t.Fatalf("%s: %v", cfg.Name, err)
				}
				ids = append(ids, id)
				closed = s.sep() == ']'
				if i = s.i; closed {
					break
				}
			}
			i++ // ',' before the next list, or the closing ']'
		}
		for _, list := range req.SparseIDs {
			want = append(want, list...)
		}
		if !slices.Equal(ids, want) {
			t.Fatalf("%s: the run read other IDs than the request's", cfg.Name)
		}
	}
}

// TestIDScanMatchesScalar holds the 64-byte block step to the scalar
// element loop: each idRunElements element is placed at every offset of
// the first block and across its end, in a list longer than a block,
// and parsed into a dst with 0, 1, 31, 32 or 33 slots of room. idList
// must return the IDs, error and offset scalarIDList does. On a host
// where the block step is not selected this is TestIDRunMatchesScalar
// over longer lists.
func TestIDScanMatchesScalar(t *testing.T) {
	if !tensor.UseAVX512VBMI() {
		t.Log("the 64-byte block step is not selected on this host; idList runs idRun alone")
	}
	// fill returns n bytes of elements the block step takes, ending in
	// a separator: "1," and "22," reach every length but 1.
	fill := func(n int) string {
		if n%2 == 0 {
			return strings.Repeat("1,", n/2)
		}
		return "22," + strings.Repeat("1,", (n-3)/2)
	}
	const after = "12345678,87654321,1,0,55555,22,333,4444,7777777,99999999,10000000,6,"
	var got, want []int
	rooms := []int{0, 1, 31, 32, 33}
	for _, e := range idRunElements() {
		for offset := 0; offset <= 72; offset++ {
			if offset == 1 {
				continue
			}
			for _, tail := range []string{"]", ",", ",1]", "]]", ""} {
				b := []byte("[" + fill(offset) + e + tail + after + after + "3]")
				room := rooms[(offset+len(e)+len(tail))%len(rooms)]
				dst := make([]int, 3, 3+room)
				ss := bodyScanner{b: b, i: 1}
				ws := bodyScanner{b: b, i: 1}
				var err, werr error
				got, err = ss.idList(dst)
				want, werr = scalarIDList(&ws, append(want[:0], dst...))
				if diff := sameIDList(got, want, err, werr, ss.i, ws.i); diff != "" {
					t.Fatalf("list %q, room %d: %s", b, room, diff)
				}
			}
		}
	}
}

// TestIDScanPaths pins that the block step carries a compact
// encoding/json body where it is selected: of an RMC2 and an RMC1
// request, every ID is taken a block at a time except those in the
// body's last 63 bytes. The timing gate could not see the step switched
// off; this does.
func TestIDScanPaths(t *testing.T) {
	if !tensor.UseAVX512VBMI() {
		t.Skip("the 64-byte block step is not selected on this host (tier " + tensor.KernelTier() + ")")
	}
	for _, cfg := range []model.Config{model.RMC2Small().Scaled(10), model.RMC1Small().Scaled(10)} {
		req := model.NewRandomRequest(cfg, 4, stats.NewRNG(2))
		body := marshalRequest(t, req)
		const key = `"sparse_ids":[`
		i := bytes.Index(body, []byte(key)) + len(key)
		var ids, want []int
		for range req.SparseIDs {
			i++ // the list's '['
			var closed bool
			if ids, i, closed = idBlocks(body, i, ids); !closed {
				if len(body)-i >= 64 {
					t.Fatalf("%s: the block step stopped at offset %d, %d bytes before the end: %q",
						cfg.Name, i, len(body)-i, body[i:min(i+16, len(body))])
				}
				s := bodyScanner{b: body, i: i}
				if ids, _ = scalarIDList(&s, ids); s.i == i {
					t.Fatalf("%s: the scalar step took nothing at offset %d", cfg.Name, i)
				}
				i = s.i
			}
			i++ // ',' before the next list, or the closing ']'
		}
		for _, list := range req.SparseIDs {
			want = append(want, list...)
		}
		if !slices.Equal(ids, want) {
			t.Fatalf("%s: the block step read other IDs than the request's", cfg.Name)
		}
	}
}
