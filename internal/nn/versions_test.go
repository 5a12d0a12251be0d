package nn

import (
	"slices"
	"testing"

	"heteroswitch/internal/tensor"
)

// FuzzVersionStore drives a VersionStore the way its owners do, two fuzz
// bytes per operation (an opcode and an argument): the owner publishes a new
// version into a taken buffer and moves its own reference to it (retain
// first, as serve.Store does, or release first, as the aggregation core
// does); readers retain the live version and release what they hold; a
// caller takes buffers into its hands and gives them back. After every
// operation two things must hold. TakeBuffer never returns a buffer that a
// retained version still holds, so every retained version still carries the
// values it was published with. And every buffer is in exactly one place: a
// retained entry, the free pool, or the caller's hands.
func FuzzVersionStore(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 2, 0, 0, 0})
	f.Add([]byte{1, 0, 1, 0, 0, 0, 2, 1, 3, 0, 0, 1, 2, 0, 4, 0, 0, 0})
	f.Add([]byte{3, 0, 3, 0, 4, 1, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 4, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		like := Weights{Params: []*tensor.Tensor{tensor.New(4)}}
		var vs VersionStore
		var (
			version int
			readers []int     // the versions readers hold, one entry per reference
			hands   []Weights // buffers taken and neither published nor given back
			seen    = map[*tensor.Tensor]bool{}
		)
		take := func() Weights {
			w := vs.TakeBuffer(like)
			for v, e := range vs.entries {
				if e.w.Params[0] == w.Params[0] {
					t.Fatalf("TakeBuffer returned the buffer of retained version %d", v)
				}
			}
			seen[w.Params[0]] = true
			return w
		}
		cur := take()
		vs.Retain(0, cur)
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 5 {
			case 0: // the owner publishes the next version
				buf := take()
				buf.Params[0].Fill(float32(version + 1))
				if arg%2 == 0 {
					vs.Retain(version+1, buf)
					vs.Release(version)
				} else {
					vs.Release(version)
					vs.Retain(version+1, buf)
				}
				version++
			case 1: // a reader pins the live version
				vs.Retain(version, vs.Weights(version))
				readers = append(readers, version)
			case 2: // a reader lets go
				if len(readers) > 0 {
					j := arg % len(readers)
					vs.Release(readers[j])
					readers = slices.Delete(readers, j, j+1)
				}
			case 3: // a caller takes a buffer and writes into it
				w := take()
				w.Params[0].Fill(-1)
				hands = append(hands, w)
			case 4: // a caller gives a buffer back unused
				if len(hands) > 0 {
					j := arg % len(hands)
					vs.GiveBuffer(hands[j])
					hands = slices.Delete(hands, j, j+1)
				}
			}

			for _, v := range append(readers, version) {
				if v > 0 && vs.Weights(v).Params[0].Data()[0] != float32(v) {
					t.Fatalf("op %d: retained version %d no longer holds its values", i/2, v)
				}
			}
			live := map[int]bool{version: true}
			for _, v := range readers {
				live[v] = true
			}
			if vs.Live() != len(live) {
				t.Fatalf("op %d: the store pins %d versions; the owner and readers hold %d", i/2, vs.Live(), len(live))
			}
			places := map[*tensor.Tensor]int{}
			for _, e := range vs.entries {
				places[e.w.Params[0]]++
			}
			for _, w := range vs.free {
				places[w.Params[0]]++
			}
			for _, w := range hands {
				places[w.Params[0]]++
			}
			for p := range seen {
				if places[p] != 1 {
					t.Fatalf("op %d: a buffer is in %d places, want exactly 1", i/2, places[p])
				}
			}
			if len(places) != len(seen) {
				t.Fatalf("op %d: the store holds %d buffers it never handed out", i/2, len(places)-len(seen))
			}
		}
	})
}
