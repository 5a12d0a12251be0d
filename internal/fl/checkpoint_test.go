package fl

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
)

// Mid-run round-trip: checkpoint after a few rounds, restore into a fresh
// server, and verify the restored state is exactly the saved state and that
// training can continue from it without corruption.
func TestCheckpointMidRunRoundtrip(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 2)
	for round := 0; round < 5; round++ {
		srv.RunRound(round)
	}
	var buf bytes.Buffer
	if err := srv.SaveCheckpoint(&buf, 5); err != nil {
		t.Fatal(err)
	}
	saved := srv.Global.Clone()

	restored := fixtureServer(t, FedAvg{}, 2)
	round, err := restored.LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if round != 5 {
		t.Fatalf("restored round %d, want 5", round)
	}
	for i := range saved.Params {
		if !restored.Global.Params[i].AllClose(saved.Params[i], 0) {
			t.Fatalf("param %d differs from the mid-run snapshot", i)
		}
	}
	// The restored server must be able to keep training (streaming path).
	stats := restored.RunRound(round)
	if math.IsNaN(stats.MeanLoss) || stats.MeanLoss <= 0 {
		t.Fatalf("continuation round after restore produced loss %v", stats.MeanLoss)
	}
}

// A header shorter than 8 bytes must be rejected without touching state.
func TestCheckpointTruncatedHeader(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 1)
	before := srv.Global.Clone()
	for _, n := range []int{0, 1, 7} {
		if _, err := srv.LoadCheckpoint(bytes.NewReader(make([]byte, n))); err == nil {
			t.Fatalf("%d-byte header accepted", n)
		}
	}
	for i := range before.Params {
		if !srv.Global.Params[i].AllClose(before.Params[i], 0) {
			t.Fatal("failed restore mutated the global weights")
		}
	}
}

// A checkpoint cut off mid-weights must be rejected.
func TestCheckpointTruncatedWeights(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 1)
	var buf bytes.Buffer
	if err := srv.SaveCheckpoint(&buf, 3); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{9, len(full) / 2, len(full) - 1} {
		if _, err := srv.LoadCheckpoint(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("checkpoint truncated at %d/%d bytes accepted", cut, len(full))
		}
	}
}

// Weights from a different architecture must be rejected and leave the
// server's weights untouched.
func TestCheckpointArchitectureMismatch(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 1)
	before := srv.Global.Clone()

	// A real, valid checkpoint — just for the wrong model.
	other := nn.NewNetwork(nn.NewFlatten(), nn.NewDense(frand.New(1), 16, 5))
	var buf bytes.Buffer
	var hdr [8]byte
	buf.Write(hdr[:])
	if _, err := other.Snapshot().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.LoadCheckpoint(&buf); err == nil {
		t.Fatal("architecture-incompatible checkpoint accepted")
	}
	for i := range before.Params {
		if !srv.Global.Params[i].AllClose(before.Params[i], 0) {
			t.Fatal("rejected checkpoint still mutated the global weights")
		}
	}
}

// checkpointHeader assembles the front of a checkpoint whose first tensor
// claims the given dimensions: round word, the two counts, ndim and dims —
// and no payload.
func checkpointHeader(np, ns uint64, dims ...uint32) []byte {
	b := make([]byte, 8, 64) // round 0
	b = binary.LittleEndian.AppendUint64(b, np)
	b = binary.LittleEndian.AppendUint64(b, ns)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dims)))
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	return b
}

// The two headers that used to crash the server with "makeslice: len out of
// range": tensor counts of 2⁶⁴−1, and a plausible count pair followed by a
// 2³²−1 × 2³²−1 tensor.
var checkpointCrashers = [][]byte{
	append(make([]byte, 8), bytes.Repeat([]byte{0xff}, 16)...),
	checkpointHeader(2, 0, 0xffffffff, 0xffffffff),
}

// loadAllocBytes is LoadCheckpoint plus the bytes the call allocated.
func loadAllocBytes(srv *Server, data []byte) (round int, consumed int, alloc uint64, err error) {
	r := bytes.NewReader(data)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	round, err = srv.LoadCheckpoint(r)
	runtime.ReadMemStats(&m1)
	return round, len(data) - r.Len(), m1.TotalAlloc - m0.TotalAlloc, err
}

// checkpointAllocBound is what loading len(data) untrusted bytes may
// allocate: the decoded payload and its doubling growth, plus one read
// chunk's worth of buffers for the tensor the stream runs out in.
func checkpointAllocBound(n int) uint64 { return uint64(16*n) + 128<<10 }

// A malformed checkpoint is an error, never a panic — LoadCheckpoint's
// contract — and a header that merely promises gigabytes allocates none of
// them: memory follows the bytes present in the stream.
func TestCheckpointMalformedHeaders(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 1)
	before := srv.Global.Clone()
	cases := append([][]byte{
		checkpointHeader(1<<62, 0),                        // counts no stream could hold
		checkpointHeader(1<<63, 1),                        // negative as int64
		checkpointHeader(2, 0, 1<<30),                     // plausible-but-false 4 GiB tensor
		checkpointHeader(2, 0, 1<<16, 1<<16),              // overflows int32 elements
		checkpointHeader(2, 0, 0, 0xffffffff, 1<<31),      // zero-sized, absurd trailing dims
		checkpointHeader(2, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1), // ndim 9
	}, checkpointCrashers...)
	for i, data := range cases {
		_, _, alloc, err := loadAllocBytes(srv, data)
		if err == nil {
			t.Fatalf("case %d: malformed checkpoint accepted", i)
		}
		if alloc > checkpointAllocBound(len(data)) {
			t.Fatalf("case %d: %d input bytes allocated %d", i, len(data), alloc)
		}
	}
	requireBitIdentical(t, before, srv.Global, "failed restores")
}

// checkpointBoundaries returns the offset after every section of a valid
// checkpoint: round word, counts, and each tensor's ndim, dims and payload.
func checkpointBoundaries(data []byte) []int {
	offs := []int{8, 24}
	n := int(binary.LittleEndian.Uint64(data[8:]) + binary.LittleEndian.Uint64(data[16:]))
	off := 24
	for ; n > 0; n-- {
		nd := int(binary.LittleEndian.Uint32(data[off:]))
		size := 1
		for i := 0; i < nd; i++ {
			size *= int(binary.LittleEndian.Uint32(data[off+4+4*i:]))
		}
		offs = append(offs, off+4, off+4+4*nd, off+4+4*nd+4*size)
		off += 4 + 4*nd + 4*size
	}
	return offs
}

// FuzzLoadCheckpoint feeds LoadCheckpoint arbitrary bytes: it never panics,
// never allocates more than a small multiple of the input, and whatever it
// accepts re-serialises through SaveCheckpoint to exactly the bytes it
// consumed. Seeds: a valid mid-run checkpoint, its truncation at every
// section boundary, and the two historical crashers.
func FuzzLoadCheckpoint(f *testing.F) {
	srv := fixtureServer(f, FedAvg{}, 1)
	srv.RunRound(0)
	var buf bytes.Buffer
	if err := srv.SaveCheckpoint(&buf, 7); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	bounds := checkpointBoundaries(valid)
	if last := bounds[len(bounds)-1]; last != len(valid) {
		f.Fatalf("section walk ends at %d of %d bytes", last, len(valid))
	}
	for _, cut := range bounds[:len(bounds)-1] {
		f.Add(valid[:cut])
	}
	for _, c := range checkpointCrashers {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		before := srv.Global
		round, consumed, alloc, err := loadAllocBytes(srv, data)
		if alloc > checkpointAllocBound(len(data)) {
			t.Fatalf("%d input bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			if &before.Params[0].Data()[0] != &srv.Global.Params[0].Data()[0] {
				t.Fatal("rejected checkpoint replaced the global weights")
			}
			return
		}
		var out bytes.Buffer
		if err := srv.SaveCheckpoint(&out, round); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("accepted checkpoint does not round-trip: %d bytes in, %d out", consumed, out.Len())
		}
	})
}
