package wire

import (
	"bytes"
	"testing"
)

// TestEncodeAllocationFree pins the encode half of the wire hot path at zero
// heap allocations: building a complete frame — prefix reservation, message
// body, prefix patch — into a reused caller buffer never touches the heap.
func TestEncodeAllocationFree(t *testing.T) {
	buf := make([]byte, 0, 256)
	req := ReadFetchReq{Name: "bench/object-00042", Reader: 3, PrevSeq: 17}
	if n := testing.AllocsPerRun(1000, func() {
		b := BeginFrame(buf[:0])
		b = req.Append(b)
		if err := EndFrame(b, 0, 99, VerbReadFetch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("frame encode allocated %v times per run", n)
	}

	resp := ReadFetchResp{Fetched: true, Seq: 18, Value: 0xA1B2}
	if n := testing.AllocsPerRun(1000, func() {
		b := BeginFrame(buf[:0])
		b = resp.Append(b)
		if err := EndFrame(b, 0, 99, VerbReadFetch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("response encode allocated %v times per run", n)
	}
}

// TestDecodeAllocationFree pins the decode half at zero allocations:
// ParseFrame plus the view decoders of every hot request, and the
// fixed-field response decoders, all work in place.
func TestDecodeAllocationFree(t *testing.T) {
	fetch := ReadFetchReq{Name: "bench/object-00042", Reader: 3, PrevSeq: 17}
	write := WriteReq{Name: "bench/object-00042", Value: 7}
	ann := AnnounceReq{Name: "bench/object-00042", Reader: 3, Seq: 18}
	resp := ReadFetchResp{Fetched: true, Seq: 18, Value: 0xA1B2}

	var stream []byte
	stream = AppendFrame(stream, 1, VerbReadFetch, fetch.Append(nil))
	stream = AppendFrame(stream, 2, VerbWrite, write.Append(nil))
	stream = AppendFrame(stream, 3, VerbReadAnnounce, ann.Append(nil))
	stream = AppendFrame(stream, 4, VerbReadFetch, resp.Append(nil))

	if n := testing.AllocsPerRun(1000, func() {
		rest := stream
		var f Frame
		var err error
		if f, rest, err = ParseFrame(rest); err != nil {
			t.Fatal(err)
		}
		var rf ReadFetchReq
		if err := rf.DecodeView(f.Body); err != nil {
			t.Fatal(err)
		}
		if f, rest, err = ParseFrame(rest); err != nil {
			t.Fatal(err)
		}
		var wr WriteReq
		if err := wr.DecodeView(f.Body); err != nil {
			t.Fatal(err)
		}
		if f, rest, err = ParseFrame(rest); err != nil {
			t.Fatal(err)
		}
		var an AnnounceReq
		if err := an.DecodeView(f.Body); err != nil {
			t.Fatal(err)
		}
		if f, _, err = ParseFrame(rest); err != nil {
			t.Fatal(err)
		}
		var rr ReadFetchResp
		if err := rr.Decode(f.Body); err != nil {
			t.Fatal(err)
		}
		if rf.Name != fetch.Name || wr.Value != write.Value || an.Seq != ann.Seq || rr.Value != resp.Value {
			t.Fatal("decode produced wrong fields")
		}
	}); n != 0 {
		t.Fatalf("frame decode allocated %v times per run", n)
	}
}

// TestMasksAllocationFree pins the pad derivations at zero allocations —
// ValueMask runs once per non-silent fetch response, on the fast path.
func TestMasksAllocationFree(t *testing.T) {
	var session [SessionLen]byte
	var key [32]byte
	var nonce [NonceLen]byte
	if n := testing.AllocsPerRun(1000, func() {
		if ValueMask(session, "bench/object-00042", 3, 17) == 0 {
			t.Fatal("mask is zero") // (2^-64 false-positive; pins the call)
		}
		AuditMask(key, nonce, 5)
	}); n != 0 {
		t.Fatalf("mask derivation allocated %v times per run", n)
	}
}

// TestAuditMasksAllocationFree pins the in-place audit masking of a whole
// response at zero allocations: the server runs it on every AUDIT.
func TestAuditMasksAllocationFree(t *testing.T) {
	var key [32]byte
	resp := AuditResp{Rows: make([]AuditRow, 9)}
	if n := testing.AllocsPerRun(1000, func() {
		XORAuditMasks(key, &resp)
	}); n != 0 {
		t.Fatalf("audit masking allocated %v times per run", n)
	}
}

// TestScannerAllocationFree pins a warmed FrameScanner at zero allocations
// per frame: the read buffer is reused, frames are views.
func TestScannerAllocationFree(t *testing.T) {
	req := ReadFetchReq{Name: "bench/object-00042", Reader: 3, PrevSeq: 17}
	var stream []byte
	for i := 0; i < 4; i++ {
		stream = AppendFrame(stream, uint64(i), VerbReadFetch, req.Append(nil))
	}
	r := bytes.NewReader(nil)
	sc := NewFrameScanner(r, 4<<10)
	if n := testing.AllocsPerRun(1000, func() {
		r.Reset(stream)
		for i := 0; i < 4; i++ {
			f, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			var rf ReadFetchReq
			if err := rf.DecodeView(f.Body); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("scanner allocated %v times per frame batch", n)
	}
}

// TestBufArenaAllocationFree pins the Get/Put cycle of the frame-buffer
// arena at zero steady-state allocations.
func TestBufArenaAllocationFree(t *testing.T) {
	PutBuf(GetBuf(64)) // warm the class
	if n := testing.AllocsPerRun(1000, func() {
		b := GetBuf(64)
		b.B = append(b.B, 1, 2, 3)
		PutBuf(b)
	}); n != 0 {
		t.Fatalf("buffer arena allocated %v times per cycle", n)
	}
}
