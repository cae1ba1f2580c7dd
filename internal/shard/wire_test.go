package shard

import (
	"strings"
	"testing"

	"recsys/internal/nn"
	"recsys/internal/stats"
)

// newWireServer builds an unlistened server over one fp32 table, for
// driving Server.handle directly.
func newWireServer(t testing.TB, rows, cols int) (*Server, nn.RowStore) {
	t.Helper()
	store := nn.NewSLSOp(nn.NewEmbeddingTable("t0", rows, cols, stats.NewRNG(43)), 1).LocalStore()
	srv, err := NewServer([]nn.RowStore{store})
	if err != nil {
		t.Fatal(err)
	}
	return srv, store
}

// TestServerRefusesOversizedResponse: a request frame of legal size
// can name more rows than a response frame holds. The server must
// answer statusBadRequest from the table header alone, before it
// appends a single row to the connection's buffer.
func TestServerRefusesOversizedResponse(t *testing.T) {
	const cols = 64
	srv, _ := newWireServer(t, 8, cols)
	ids := make([]uint32, maxFrame/(cols*4)+1) // 1 MiB of IDs, > 64 MiB of rows
	req := appendRowsReq(nil, 5, 0, 0, ids)
	out := srv.handle(req, nil, make([]float32, cols))
	if cap(out) > 1<<10 {
		t.Fatalf("refusal grew the connection buffer to %d bytes", cap(out))
	}
	if out[1] != statusBadRequest {
		t.Fatalf("status %d, want statusBadRequest", out[1])
	}
	if _, err := decodeResp(out, 5); err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("decodeResp error %v, want the frame-limit refusal", err)
	}
	// The same buffer still serves a request within the limit.
	ids = ids[:64]
	tr, err := decodeResp(srv.handle(appendRowsReq(nil, 6, 0, 0, ids), out[:0], make([]float32, cols)), 6)
	if err != nil || tr.nRows != len(ids) {
		t.Fatalf("in-limit request: %v, %+v", err, tr)
	}
}

// FuzzWireDecode feeds arbitrary payloads to both decoders of the
// shard protocol — Server.handle (request side) and decodeResp
// (response side): neither may panic, and no response may exceed
// maxFrame. The same bytes then seed a well-formed request built by
// the encoders, which must round-trip to exactly the rows asked for.
func FuzzWireDecode(f *testing.F) {
	const rows, cols = 64, 8
	srv, store := newWireServer(f, rows, cols)
	row := make([]float32, cols)
	rowsReq := appendRowsReq(nil, 7, 250, 0, []uint32{3, 63, 3, 0})
	f.Add(rowsReq)
	f.Add(rowsReq[:len(rowsReq)-3])                             // truncated ID list
	f.Add(appendRowsReq(nil, 8, 0, 1, []uint32{1}))             // no such table
	f.Add(appendRowsReq(nil, 9, 0, 0, []uint32{rows}))          // row out of range
	f.Add(appendRowsReq(nil, 10, 0, 0, nil)[:16])               // header only
	f.Add(append(appendRowsReq(nil, 11, 0, 0, nil)[:16], 0xff)) // nIDs cut short
	f.Add(appendPingReq(nil, 12))
	f.Add(srv.handle(rowsReq, nil, row))                  // an OK response
	f.Add(appendErrResp(nil, 13, statusError, "boom"))    // an error response
	f.Add(srv.handle(appendPingReq(nil, 14), nil, row))   // a ping response
	f.Add([]byte{wireVersion, 2, 0, 0, 0, 0, 0, 0, 0, 0}) // retired opcode
	f.Add(appendV1RowsResp(nil, 7, 0, 3, cols, 4))        // a version-1 OK response, gen field included

	got, want := make([]float32, cols), make([]float32, cols)
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp := srv.handle(payload, nil, row)
		if len(resp) > maxFrame {
			t.Fatalf("response of %d bytes exceeds maxFrame", len(resp))
		}
		if len(payload) >= 6 {
			// Whatever the server answered must itself decode or fail
			// cleanly under the ID the request carried.
			decodeResp(resp, reqIDOf(payload))
		}
		decodeResp(payload, 7)

		ids := make([]uint32, len(payload))
		for i, b := range payload {
			ids[i] = uint32(b) % rows
		}
		reqID := uint32(len(payload))
		tr, err := decodeResp(srv.handle(appendRowsReq(nil, reqID, 0, 0, ids), resp[:0], row), reqID)
		if err != nil {
			t.Fatalf("well-formed request refused: %v", err)
		}
		if tr.table != 0 || tr.cols != cols || tr.nRows != len(ids) {
			t.Fatalf("response section %+v for %d IDs", tr, len(ids))
		}
		for i, id := range ids {
			store.ReadRow(int64(id), want)
			tr.rowF32(i, got)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("row %d (id %d) column %d: %g, want %g", i, id, j, got[j], want[j])
				}
			}
		}
		if tr, err := decodeResp(srv.handle(appendPingReq(nil, reqID), resp[:0], row), reqID); tr != nil || err != nil {
			t.Fatalf("ping round trip: %+v, %v", tr, err)
		}
	})
}
